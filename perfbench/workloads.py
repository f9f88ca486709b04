"""The benchmark's workloads: set-up, one timed pass, and output checks.

Every workload is a closed loop with one caller and no threads.  It drives
the public persearch API the way the CLI does (``config`` and ``cli`` are
thin glue above it) and hands the program only inputs made from the seed.
A pass runs named stages.  Each workload names its main stages; their cost
in reference loops (``refclock``), and that of the rest of the pass, are the
gated metrics.

* ``train-default`` trains the default benchmark (200 train / 100 gallery /
  40 queries, ``shared`` scheme, SGD, default loss weights) for a fixed
  step count, then embeds the gallery and ranks it.  Training, the main
  stage, is about 90% of a pass: the gradient tape, cross-attention and OIM.
* ``retrieval-1k`` embeds a 1,000-scene gallery with an untrained
  ``multi_scale_3d`` model (``random`` init), the main stage: the tape-free
  forward and the multi-level deformable path.  Then, as ``persearch eval``
  and ``persearch sweep`` do, it calls ``evaluate``, ``cbgm_rerank`` and
  ``gallery_sweep`` once each over all queries: ranking whose cost grows
  with queries x entries.  No tape replay, OIM or optimizer.
* ``gradcheck-full`` runs ``run_gradcheck()``: thousands of tiny tape-free
  forward passes, the main stage, where per-op Python overhead is
  everything, and the losses and finite differences around them.  Its
  inputs are fixed inside the gradcheck module, so the seed does not change
  them.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from persearch import data, evaluation, gradcheck, training, transformer
from refclock import NOMINAL_S

SIM_SAMPLES = 32


@dataclass
class Checks:
    """Output checks of one run; ``failed`` names each check that failed."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


class Stages:
    """Wall-clock intervals of one pass's stages, by name."""

    def __init__(self):
        self.intervals: dict[str, list[tuple[float, float]]] = {}

    def add(self, name: str, start: float, end: float) -> None:
        self.intervals.setdefault(name, []).append((start, end))

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter())

    def seconds(self, name: str) -> float:
        return sum(b - a for a, b in self.intervals[name])

    def of(self, names) -> list[tuple[float, float]]:
        return [iv for name in names for iv in self.intervals[name]]


@dataclass
class Pass:
    """One timed pass: its stages and what the checks need."""

    stages: Stages
    outputs: dict
    start: float = 0.0
    end: float = 0.0
    cpu_seconds: float = 0.0
    # Reference-loop cost of the workload's main stages and of the rest.
    costs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Workload:
    """Set-up repeats, the pass count floor, and the main stages; the rest
    of a pass is everything outside them."""

    setup_repeats = 5
    min_passes = 1
    main: tuple[str, ...] = ()

    def time_setup(self, seed: int, workdir: str, timeline):
        """Set up once; returns the state, wall seconds and cost in nominal
        seconds of the ``render`` reference loop, for set-up is mostly
        rendering scenes.  The cost leaves out the time inside
        ``data.write_blob``: mostly kernel time writing scene blobs, which
        varied twofold from one set-up to the next on a shared virtual
        machine, whatever the code did."""
        writes = Stages()
        write_blob = data.write_blob

        def timed_write(*args, **kwargs):
            with writes("write"):
                return write_blob(*args, **kwargs)

        data.write_blob = timed_write
        try:
            start = time.perf_counter()
            state = self.setup(seed, workdir)
            end = time.perf_counter()
        finally:
            data.write_blob = write_blob
        timeline.sample()
        written = writes.intervals.get("write", [])
        cost = timeline.cost([(start, end)], "render") - timeline.cost(written, "render")
        return state, end - start, cost * NOMINAL_S["render"]


def _check_similarities(checks, per_query, queries, entries, seed, corrupt) -> None:
    """Sampled reported similarities must equal per-pair ``np.dot`` exactly."""
    rng = np.random.default_rng([seed, 31])
    picks = []
    for _ in range(SIM_SAMPLES):
        qi = int(rng.integers(len(queries)))
        picks.append((qi, int(rng.integers(len(per_query[qi].sims)))))
    if corrupt:
        qi, r = picks[0]
        sims = per_query[qi].sims
        sims[r] = float(np.nextafter(sims[r], np.inf))
    for qi, r in picks:
        qr = per_query[qi]
        expected = float(np.dot(queries[qi].embedding, entries[qr.entry_indices[r]].embedding))
        checks.expect(qr.sims[r] == expected, f"similarity query {qi} rank {r}")


def _same_ranking(a, b) -> bool:
    return (
        a.entry_indices == b.entry_indices
        and a.sims == b.sims
        and a.correct == b.correct
        and a.ap == b.ap
    )


def _quality(per_query) -> dict:
    """mAP and top-1 as ``evaluate`` summarizes them."""
    return {
        "map": float(np.mean([r.ap for r in per_query])),
        "top1": float(np.mean([r.cmc(1) for r in per_query])),
    }


def _pairs_scored(per_query) -> int:
    return sum(len(q.entry_indices) for q in per_query)


# ----------------------------------------------------------------------
# train-default
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrainSizes:
    num_train: int = 200
    num_gallery: int = 100
    num_queries: int = 40
    steps: int = 300


@dataclass
class TrainState:
    bench: data.Benchmark
    model: transformer.ReIDTransformer
    seed: int


class TrainDefault(Workload):
    name = "train-default"
    # Two passes, so the loss curve can be compared bit for bit.
    min_passes = 2
    main = ("train",)

    def __init__(self, sizes: TrainSizes = TrainSizes()):
        self.sizes = sizes

    def setup(self, seed: int, workdir: str) -> TrainState:
        s = self.sizes
        cfg = data.BenchmarkConfig(
            num_train=s.num_train, num_gallery=s.num_gallery, num_queries=s.num_queries, seed=seed
        )
        data.make_benchmark(cfg, workdir)
        bench = data.load_benchmark(workdir)
        model = transformer.ReIDTransformer.init(
            transformer.ReIDConfig(scheme="shared"), seed=seed, style="train"
        )
        return TrainState(bench, model, seed)

    def run_pass(self, st: TrainState, tracer, corrupt: bool) -> Pass:
        # Training replaces parameter tensors and never writes into them, so
        # a shallow copy restarts every pass from the same initial model.
        model = transformer.ReIDTransformer(st.model.config, dict(st.model.params))
        stages = Stages()
        step_ends = []

        def on_step(step, row):
            tracer.close()
            step_ends.append(time.perf_counter())
            tracer.open("training.step")

        settings = training.TrainSettings(steps=self.sizes.steps)
        with tracer.span("training.train"), stages("train"):
            tracer.open("training.step")
            result = training.train(model, st.bench, settings, run_seed=st.seed, progress=on_step)
            tracer.abandon()
        with stages("embed"):
            entries, truth, per_scene = training.build_gallery(result.model, st.bench, st.seed)
            queries = training.build_query_entries(st.bench, per_scene)
        with stages("evaluate"):
            ranking = evaluation.evaluate(queries, entries, truth)
        step_s = np.diff([stages.intervals["train"][0][0], *step_ends])
        return Pass(stages, {
            "curve": result.curve, "ranking": ranking, "queries": queries, "entries": entries,
            "step_s": step_s,
        })

    def check(self, st: TrainState, passes: list[Pass], checks: Checks, corrupt: bool) -> None:
        first = passes[0].outputs
        for i, p in enumerate(passes):
            out = p.outputs
            checks.expect(
                all(np.isfinite(row["total"]) for row in out["curve"]), f"pass {i} loss finite"
            )
            if i:
                checks.expect(out["curve"] == first["curve"], f"pass {i} loss curve repeats")
                checks.expect(
                    all(map(_same_ranking, out["ranking"].per_query, first["ranking"].per_query)),
                    f"pass {i} ranking repeats",
                )
        last = passes[-1].outputs
        per_query = last["ranking"].per_query
        _check_similarities(checks, per_query, last["queries"], last["entries"], st.seed, corrupt)
        checks.expect(0.0 < last["ranking"].mean_ap <= 1.0, "mAP within (0, 1]")

    def report(self, st: TrainState, passes: list[Pass]) -> tuple[dict, dict]:
        def median(stage):
            return float(np.median([p.stages.seconds(stage) for p in passes]))

        step_ms = 1e3 * np.concatenate([p.outputs["step_s"] for p in passes])
        last = passes[-1].outputs
        record = {
            "train_steps_per_s": self.sizes.steps / median("train"),
            "train_step_ms_p50": float(np.percentile(step_ms, 50)),
            "train_step_ms_p95": float(np.percentile(step_ms, 95)),
            "embed_scenes_per_s": self.sizes.num_gallery / median("embed"),
            "rank_queries_per_s": self.sizes.num_queries / median("evaluate"),
            "final_loss": last["curve"][-1]["total"],
            **_quality(last["ranking"].per_query),
        }
        return record, {"pairs_scored": _pairs_scored(last["ranking"].per_query)}


# ----------------------------------------------------------------------
# retrieval-1k
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetrievalSizes:
    num_gallery: int = 1000
    # 100 rather than 200 queries keeps a run near 40 s, so that all runs
    # the benchmark is compared with fit their time budget.
    num_queries: int = 100
    sweep: tuple[int, ...] = (250, 500, 999)
    k1: int = 30
    k2: int = 3
    # Queries re-ranked with k2 = 0 after the timed pass, for the check
    # that CBGM without context reproduces the plain ranking.
    k2_zero_queries: int = 20


@dataclass
class RetrievalState:
    bench: data.Benchmark
    model: transformer.ReIDTransformer
    seed: int


class Retrieval1k(Workload):
    name = "retrieval-1k"
    setup_repeats = 3
    main = ("embed",)

    def __init__(self, sizes: RetrievalSizes = RetrievalSizes()):
        self.sizes = sizes

    def setup(self, seed: int, workdir: str) -> RetrievalState:
        s = self.sizes
        cfg = data.BenchmarkConfig(
            num_train=1, num_gallery=s.num_gallery, num_queries=s.num_queries, seed=seed
        )
        data.make_benchmark(cfg, workdir)
        bench = data.load_benchmark(workdir)
        model = transformer.ReIDTransformer.init(
            transformer.ReIDConfig(scheme="multi_scale_3d"), seed=seed, style="random"
        )
        return RetrievalState(bench, model, seed)

    def run_pass(self, st: RetrievalState, tracer, corrupt: bool) -> Pass:
        s = self.sizes
        stages = Stages()
        with stages("embed"):
            entries, truth, per_scene = training.build_gallery(st.model, st.bench, st.seed)
            queries = training.build_query_entries(st.bench, per_scene)
        with stages("evaluate"):
            plain = evaluation.evaluate(queries, entries, truth)
        with stages("cbgm"):
            reranked = evaluation.cbgm_rerank(queries, entries, truth, k1=s.k1, k2=s.k2)
        with stages("sweep"):
            swept = evaluation.gallery_sweep(
                queries, entries, truth, list(s.sweep), seed=st.seed
            )
        return Pass(stages, {
            "queries": queries, "entries": entries, "truth": truth,
            "plain": plain, "cbgm": reranked, "sweep": swept,
        })

    def check(self, st: RetrievalState, passes: list[Pass], checks: Checks, corrupt: bool) -> None:
        s = self.sizes
        out = passes[-1].outputs
        queries, entries, truth = out["queries"], out["entries"], out["truth"]
        plain = out["plain"].per_query
        _check_similarities(checks, plain, queries, entries, st.seed, corrupt)
        n = min(s.k2_zero_queries, len(queries))
        no_context = evaluation.cbgm_rerank(queries[:n], entries, truth, k1=s.k1, k2=0)
        for qi in range(n):
            checks.expect(
                _same_ranking(no_context.per_query[qi], plain[qi]),
                f"cbgm k2=0 equals evaluate for query {qi}",
            )
        # Once a query's gallery holds every other scene, the sweep must
        # rank exactly as the full-gallery protocol does.
        if max(s.sweep) == len(st.bench.gallery_ids) - 1:
            full = out["sweep"][max(s.sweep)]
            for qi, (a, b) in enumerate(zip(full.per_query, plain)):
                checks.expect(_same_ranking(a, b), f"full-size sweep equals evaluate for query {qi}")
        checks.expect(0.0 < out["plain"].mean_ap <= 1.0, "mAP within (0, 1]")

    def report(self, st: RetrievalState, passes: list[Pass]) -> tuple[dict, dict]:
        s = self.sizes

        def median(stage):
            return float(np.median([p.stages.seconds(stage) for p in passes]))

        out = passes[-1].outputs
        record = {
            "embed_scenes_per_s": s.num_gallery / median("embed"),
            "rank_queries_per_s": s.num_queries / median("evaluate"),
            "cbgm_queries_per_s": s.num_queries / median("cbgm"),
            "sweep_s": median("sweep"),
            **_quality(out["plain"].per_query),
            **{f"cbgm_{k}": v for k, v in _quality(out["cbgm"].per_query).items()},
        }
        return record, {"pairs_scored": _pairs_scored(out["plain"].per_query)}


# ----------------------------------------------------------------------
# gradcheck-full
# ----------------------------------------------------------------------

# Times ``import persearch.gradcheck`` ``IMPORTS`` times in one fresh
# interpreter that has already loaded numpy and scipy, dropping persearch
# from ``sys.modules`` before each import, between runs of the ``work``
# reference loop in the same interpreter.  Prints the median seconds and the
# median cost in nominal seconds of that loop.  One interpreter start serves
# every import, for starting one costs some fifteen times the import.
_IMPORT_PROBE = """
import statistics, sys, time
import numpy, scipy.optimize
from refclock import NOMINAL_S, reference_seconds

def work_s():
    return statistics.median(reference_seconds() for _ in range(9))

seconds, costs = [], []
for _ in range(IMPORTS):
    for name in [m for m in sys.modules if m.split(".")[0] == "persearch"]:
        del sys.modules[name]
    before = work_s()
    start = time.perf_counter()
    import persearch.gradcheck
    seconds.append(time.perf_counter() - start)
    costs.append(seconds[-1] / (0.5 * (before + work_s())) * NOMINAL_S["work"])
print(statistics.median(seconds), statistics.median(costs))
"""


class GradcheckFull(Workload):
    name = "gradcheck-full"
    # Each set-up is one child interpreter that imports the package
    # ``imports`` times; the import's cost varies more between children.
    setup_repeats = 3
    imports = 15
    main = ("forward",)

    def time_setup(self, seed: int, workdir: str, timeline):
        """``persearch gradcheck`` has no inputs to build; its set-up is the
        import of the package."""
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(gradcheck.__file__)))
        with timeline.paused():
            done = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE.replace("IMPORTS", str(self.imports))],
                env={**os.environ, "PYTHONPATH": os.pathsep.join((src, here))},
                capture_output=True, text=True, check=True, timeout=120,
            )
        seconds, cost = map(float, done.stdout.split())
        return None, seconds, cost

    def run_pass(self, st, tracer, corrupt: bool) -> Pass:
        # ``run_gradcheck`` is one call; the model's forward method, which
        # every probe of the full-model check calls, splits it.
        stages = Stages()
        cls = transformer.ReIDTransformer
        forward = cls.__dict__["forward"]

        def timed(self, *args, **kwargs):
            with stages("forward"):
                return forward(self, *args, **kwargs)

        cls.forward = timed
        try:
            with stages("gradcheck"):
                results = gradcheck.run_gradcheck(corrupt=corrupt)
        finally:
            cls.forward = forward
        return Pass(stages, {"results": results})

    def check(self, st, passes: list[Pass], checks: Checks, corrupt: bool) -> None:
        for p in passes:
            for r in p.outputs["results"]:
                checks.expect(r.passed, f"gradcheck {r.name}")

    def report(self, st, passes: list[Pass]) -> tuple[dict, dict]:
        results = passes[-1].outputs["results"]
        worst = max(
            (r.max_rel_error for r in results if r.name.startswith("full_model.")), default=0.0
        )
        record = {
            "gradcheck_s": statistics.median(p.stages.seconds("gradcheck") for p in passes),
            "gradchecks": len(results),
            "full_model_worst_rel_error": worst,
        }
        return record, {"full_model_worst_rel_error": worst}


WORKLOADS = {w.name: w for w in (TrainDefault, Retrieval1k, GradcheckFull)}
