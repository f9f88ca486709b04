"""The benchmark's span tracer wraps persearch functions by name.

``perfbench/spans.py`` lists them in ``TARGETS`` as (module, attribute
path) pairs, and its ``Tracer.install`` looks each one up the same way as
below.  Renaming or deleting one of those functions breaks every traced
benchmark run, so this test fails first.  The tracer only sees calls made
through those names, so a training step is also traced here and must
call each layer entry point as often as its structure says.
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


# Calls of each layer entry point in one default ``shared`` step: two
# layers of two deformable sublayers, self-attention in the second layer
# only, every sublayer under a residual layer norm, one loss for all
# scales and one tape replay.  perfbench splits a step's time by these
# spans, so a change that inlines a layer empties that layer's metric.
STEP_CALLS = {
    "attention.deform_attn": 4,
    "attention.multi_head_self_attention": 1,
    "attention.residual_layernorm": 5,
    "losses.focal_oim_loss": 1,
    "tensor.GradTape.gradients": 1,
}


def test_a_default_shared_step_calls_through_each_traced_layer(tmp_path):
    from persearch import gradcheck  # noqa: F401  (install wraps every target module)
    from persearch.data import BenchmarkConfig, make_benchmark
    from persearch.training import TrainSettings, train
    from persearch.transformer import ReIDConfig, ReIDTransformer

    bench = make_benchmark(
        BenchmarkConfig(
            num_train=2, num_gallery=2, num_queries=1, labeled_identities=2,
            unlabeled_identities=1, feature_dim=8, image_size=32, seed=3,
        ),
        tmp_path / "bench",
    )
    model = ReIDTransformer.init(ReIDConfig(dim=8), seed=1)
    spans = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans)
    tracer = spans["Tracer"]()
    tracer.install()
    try:
        train(model, bench, TrainSettings(steps=1), run_seed=5)
    finally:
        tracer.uninstall()
    calls = {name: tracer.names.count(name) for name in STEP_CALLS}
    assert calls == STEP_CALLS
