"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from persearch import gradcheck, transformer  # noqa: E402
from persearch.attention import ReferencePoint  # noqa: E402
from persearch.tensor import Tensor  # noqa: E402

TINY_TRAIN = wl.TrainSizes(num_train=4, num_gallery=32, num_queries=4, steps=3)
TINY_RETRIEVAL = wl.RetrievalSizes(
    num_gallery=32, num_queries=4, sweep=(20, 31), k1=5, k2_zero_queries=2
)


def _few_probes(corrupt=False):
    """Stand-in for check_full_model: a few forwards of a tiny model and one
    result, which the gradient bias of ``corrupt`` makes fail."""
    cfg = transformer.ReIDConfig(dim=8, heads=2, points=2, m_layers=1, k_cross=1, num_queries=2)
    model = transformer.ReIDTransformer.init(cfg, seed=1, style="random")
    pyramid = [Tensor(np.ones((8, side, side))) for side in (8, 4, 2)]
    refs = [ReferencePoint(0.3, 0.4), ReferencePoint(0.6, 0.7)]
    for _ in range(4):
        model.forward(pyramid, refs)
    return [gradcheck.CheckResult("full_model.stub", 1.0 if corrupt else 0.0, 1e-4)]


@pytest.fixture
def fast_gradcheck(monkeypatch):
    """run_gradcheck without its 1,576-scalar full-model block."""
    monkeypatch.setattr(gradcheck, "check_full_model", _few_probes)


def tiny(name):
    if name == "train-default":
        return wl.TrainDefault(TINY_TRAIN)
    if name == "retrieval-1k":
        return wl.Retrieval1k(TINY_RETRIEVAL)
    return wl.GradcheckFull()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path, fast_gradcheck):
    result, record = run.execute(tiny(name), 3, 0.01, trace, False, tmp_path)
    expected = dict(spans.PER_LAYER) if trace else dict(run.END_TO_END)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    saved = json.loads(Path(record["path"]).read_text())
    assert saved["environment"]["blas_threads"] and saved["environment"]["source_sha256"]


def _passes(workload, trace: bool, tmp_path):
    tracer = spans.Tracer() if trace else spans.NullTracer()
    if trace:
        tracer.install()
    try:
        state, _, passes = run.measure(workload, 5, 0.01, tracer, str(tmp_path / str(trace)), False)
    finally:
        if trace:
            tracer.uninstall()
    return tracer, passes


def _ranking_bytes(ranking) -> bytes:
    rows = [
        (q.entry_indices, [repr(s) for s in q.sims], q.correct, repr(q.ap))
        for q in ranking.per_query
    ]
    return json.dumps(rows).encode()


def test_tracing_leaves_loss_curve_and_ranking_byte_identical(tmp_path):
    _, plain = _passes(tiny("train-default"), False, tmp_path)
    tracer, traced = _passes(tiny("train-default"), True, tmp_path)
    assert len(tracer.names) > 0
    for a, b in zip(plain, traced):
        curve = [json.dumps(p.outputs["curve"]).encode() for p in (a, b)]
        assert curve[0] == curve[1]
        assert _ranking_bytes(a.outputs["ranking"]) == _ranking_bytes(b.outputs["ranking"])


def test_tracing_leaves_retrieval_results_byte_identical(tmp_path):
    (a,) = _passes(tiny("retrieval-1k"), False, tmp_path)[1]
    (b,) = _passes(tiny("retrieval-1k"), True, tmp_path)[1]
    for key in ("plain", "cbgm"):
        assert _ranking_bytes(a.outputs[key]) == _ranking_bytes(b.outputs[key])
    for size in TINY_RETRIEVAL.sweep:
        assert _ranking_bytes(a.outputs["sweep"][size]) == _ranking_bytes(b.outputs["sweep"][size])


def test_timeline_counts_work_between_samples_only():
    handler = signal.getsignal(signal.SIGALRM)
    with refclock.Timeline(interval=0.01) as timeline:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is handler
    windows = np.array(timeline.ends) - np.array(timeline.starts)
    inside = [s >= start and e <= end for s, e in zip(timeline.starts, timeline.ends)]
    assert sum(inside) >= 10
    busy = (end - start) - windows[inside].sum()
    cost = timeline.cost([(start, end)])
    # Each gap between samples is divided by the mean duration of the work
    # loop in the samples on either side of it.
    work = np.array(timeline.durations["work"])
    assert busy / work.max() <= cost <= busy / work.min()
    assert timeline.cost([(start, end)] * 2) == pytest.approx(2 * cost)


def test_timeline_cost_while_the_timer_adds_samples():
    """A set-up's cost is read while the timer runs; a sample the timer
    adds halfway through the read must not break it."""
    timeline = refclock.Timeline()
    for _ in range(5):
        timeline.sample()
    span = [(timeline.starts[0], timeline.ends[-1])]
    expected = timeline.cost(span)

    class SampleOnFirstSlice(list):
        fired = False

        def __getitem__(self, key):
            if isinstance(key, slice) and not self.fired:
                self.fired = True
                timeline.sample()
            return list.__getitem__(self, key)

    timeline.ends = SampleOnFirstSlice(timeline.ends)
    assert timeline.cost(span) == expected
    assert timeline.ends.fired and len(timeline.ends) == 6


def test_timeline_samples_never_nest(monkeypatch):
    timeline = refclock.Timeline()
    reference_seconds = refclock.reference_seconds

    def interrupted(kind="work"):
        timeline.sample()  # as if the timer fired inside a sample
        return reference_seconds(kind)

    monkeypatch.setattr(refclock, "reference_seconds", interrupted)
    timeline.sample()
    assert len(timeline.starts) == len(timeline.ends) == 1
    assert all(len(d) == 1 for d in timeline.durations.values())


def test_tracer_restores_every_wrapped_function():
    import persearch.attention as attention
    import persearch.transformer as transformer

    before = (attention.deform_attn, transformer.deform_attn, transformer.ReIDTransformer.__dict__["init"])
    tracer = spans.Tracer()
    tracer.install()
    assert transformer.deform_attn is not before[1]
    tracer.uninstall()
    after = (attention.deform_attn, transformer.deform_attn, transformer.ReIDTransformer.__dict__["init"])
    assert all(x is y for x, y in zip(before, after))


def test_spans_of_one_step_share_a_unit_and_nest(tmp_path):
    tracer, passes = _passes(tiny("train-default"), True, tmp_path)
    steps = [i for i, n in enumerate(tracer.names) if n == "training.step"]
    assert len(steps) == TINY_TRAIN.steps * len(passes)
    assert len({tracer.units[i] for i in steps}) == len(steps)
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            assert tracer.starts[parent] <= tracer.starts[i] <= tracer.ends[i] <= tracer.ends[parent]
            if tracer.names[parent] == "training.step":
                assert tracer.units[i] == tracer.units[parent]
    metrics = spans.layer_metrics(tracer, {})
    assert metrics["attention.cross_calls_per_step"] == 12
    assert metrics["training.step_self_ms"] > 0


@pytest.mark.parametrize("name", ["train-default", "retrieval-1k"])
def test_corrupted_result_raises_error_rate(name, tmp_path):
    result, record = run.execute(tiny(name), 3, 0.01, False, True, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("similarity" in what for what in record["checks"]["failed"])


def test_corrupted_gradient_raises_error_rate(tmp_path, fast_gradcheck):
    result, _ = run.execute(wl.GradcheckFull(), 3, 0.01, False, True, tmp_path)
    assert result["failed"] == 1 and not result["correct"]


def test_benchmark_fails_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bench)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
