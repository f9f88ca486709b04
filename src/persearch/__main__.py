"""``python -m persearch``: the ``persearch`` command line."""

import sys

from .cli import main

sys.exit(main())
