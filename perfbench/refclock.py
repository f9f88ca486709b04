"""Cost of work in reference loops, sampled on a timer.

The benchmark's machine is a shared 2-core box whose cores run up to about
1.8x slower while a neighbour uses the sibling hardware thread, and a slow
spell can last seconds or a whole run.  Wall time therefore spreads too much
to gate.  ``Timeline`` times two fixed pieces of work like persearch's own
every ``INTERVAL_S`` of wall time, from a timer signal, wherever the program
happens to be.  The work done between two times is the wall time between
them, less the reference runs, divided by a reference loop's speed around
it.  A machine that slows down slows the loop with it, so the cost holds
still; a code change that slows the program raises it.

Different work slows by different factors, so there are two references:

* ``work``: 50 small matrix products under Python control, as in the
  attention layers, then scoring 64 vectors against one, sorting and
  grouping them, as in ranking.  It slowed about as much as training steps,
  gallery embedding and ranking did.
* ``render``: elementwise maths over 64 x 64 images, as in rendering
  scenes, which slowed less than the ``work`` loop; it measures set-up.

This module needs only numpy, so a child interpreter can use it before it
imports persearch.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

INTERVAL_S = 0.05

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((16, 16)) / 4.0
_VECTORS = [_rng.standard_normal(96) for _ in range(64)]
_IMAGE = _rng.standard_normal((64, 64))


def _work() -> None:
    x = _MATRIX
    for _ in range(50):
        x = np.tanh(x @ _MATRIX)
    query = _VECTORS[0]
    sims = [float(np.dot(query, v)) for v in _VECTORS]
    order = sorted(range(len(sims)), key=lambda j: (-sims[j], j))
    groups: dict[int, list[float]] = {}
    for j in order:
        groups.setdefault(j % 7, []).append(sims[j])


def _render() -> None:
    for _ in range(4):
        y = np.exp(-0.5 * _IMAGE * _IMAGE)
        (y + np.add.outer(_IMAGE[0], _IMAGE[1])).sum()


REFERENCES = {"work": _work, "render": _render}
# About each loop's duration on the machine the baseline was taken on,
# running at full speed; it turns a cost back into nominal seconds.
NOMINAL_S = {"work": 2e-4, "render": 1e-4}


def reference_seconds(kind: str = "work") -> float:
    """Time one run of a reference loop."""
    t0 = time.perf_counter()
    REFERENCES[kind]()
    return time.perf_counter() - t0


class Timeline:
    """Reference-loop samples taken on a wall-clock timer.

    Use as a context manager: it samples once on entry, every
    ``interval`` seconds from ``SIGALRM`` while open, and once on exit, so
    every time taken inside it with ``time.perf_counter`` lies between two
    samples.  The handler runs between Python bytecodes of the main thread.
    It is installed with ``SA_RESTART``, so the kernel restarts the system
    calls the signal interrupts (Python retries the rest), and the program
    does not see it: without that flag a file operation such as ``mkdir``
    or ``unlink`` on a network or FUSE file system could fail with EINTR.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: dict[str, list[float]] = {kind: [] for kind in REFERENCES}
        self._previous = None
        self._sampling = False

    def sample(self, *_) -> None:
        """Time each reference loop once.  A timer signal that arrives
        while a sample is being taken is dropped, so samples never nest."""
        if self._sampling:
            return
        self._sampling = True
        try:
            start = time.perf_counter()
            for kind, durations in self.durations.items():
                durations.append(reference_seconds(kind))
            self.starts.append(start)
            self.ends.append(time.perf_counter())
        finally:
            self._sampling = False

    def __enter__(self) -> Timeline:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.siginterrupt(signal.SIGALRM, False)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    @contextlib.contextmanager
    def paused(self):
        """Stop sampling while another process does the work, so the
        reference loops do not compete with it for the cores."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def cost(self, intervals, kind: str = "work") -> float:
        """Runs of the ``kind`` reference loop that the work in the
        ``(start, end)`` intervals is worth, not counting the reference
        runs inside them.

        It may be called while the timer runs: a sample the timer adds
        while it reads the lists is left out, for every list is cut to the
        samples that were complete when it began (``ends`` grows last)."""
        n = len(self.ends)
        durations = np.array(self.durations[kind][:n])
        # Gap k runs from the end of sample k to the start of sample k + 1,
        # at the mean speed of the two.
        lo, hi = np.array(self.ends[: n - 1]), np.array(self.starts[1:n])
        rate = 2.0 / (durations[:-1] + durations[1:])
        total = 0.0
        for a, b in intervals:
            total += float(np.clip(np.minimum(b, hi) - np.maximum(a, lo), 0.0, None) @ rate)
        return total
