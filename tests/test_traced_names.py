"""The benchmark's span tracer wraps persearch functions by name.

``perfbench/spans.py`` lists them in ``TARGETS`` as (module, attribute
path) pairs, and its ``Tracer.install`` looks each one up the same way as
below.  Renaming or deleting one of those functions breaks every traced
benchmark run, so this test fails first.
"""

import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_targets():
    # Run the source rather than import it, so no bytecode cache lands
    # beside the benchmark's files.
    spans = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans)
    return [(short, path) for short, path, _ in spans["TARGETS"]]


@pytest.mark.parametrize("short, path", traced_targets())
def test_traced_name_resolves(short, path):
    module = importlib.import_module(f"persearch.{short}")
    if "." in path:
        # A method must be defined on the class itself, as install reads
        # it from the class __dict__.
        cls_name, attr = path.split(".")
        target = vars(getattr(module, cls_name)).get(attr)
        target = getattr(target, "__func__", target)
    else:
        target = getattr(module, path, None)
    assert callable(target), f"persearch.{short}.{path} is gone"
