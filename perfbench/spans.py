"""Span tracing for the benchmark's traced runs.

``Tracer.install`` wraps the public functions of each persearch module so
that every call records a span: name, start, end, parent span and unit id.
The spans of one training step or one gallery scene share a unit id.  Spans
stay in memory until ``write`` dumps them as JSON lines when the run ends.
``layer_metrics`` turns the spans into the per-layer numbers the benchmark
reports; a layer's self time is a span's duration minus its children's.

The untraced run uses ``NullTracer``, whose methods do nothing, so the two
runs execute the same benchmark code and differ only in the wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np

_BLOB_HEADER_BYTES = 4 + 4 + 1 + 1  # magic, version, dtype, ndim


def _pyramid_reads(args, pyramid) -> dict:
    """Blobs read for one pyramid and their file sizes, computed from the
    arrays (8 bytes per dimension after the header, then float64 data)."""
    return {
        "blobs": len(pyramid),
        "bytes": sum(_BLOB_HEADER_BYTES + 8 * t.ndim + t.data.nbytes for t in pyramid),
    }


# (module, attribute path, count) for every wrapped public function.  The
# count, when given, maps (args, result) to a value stored on the span.
# ``training.train`` is absent: the benchmark records that span itself so it
# can split it into one ``training.step`` span per step.
TARGETS = (
    ("data", "make_benchmark", None),
    ("data", "load_benchmark", None),
    ("data", "Benchmark.pyramid", _pyramid_reads),
    ("detector", "jitter_detect", None),
    ("detector", "assign_detections", None),
    ("detector", "hungarian_assign", None),
    ("tensor", "GradTape.gradients", lambda args, result: len(args[0]._nodes)),
    ("attention", "deform_attn", None),
    ("attention", "multiscale_deform_attn", None),
    ("attention", "multi_head_self_attention", None),
    ("attention", "residual_layernorm", None),
    ("transformer", "ReIDTransformer.init", None),
    ("transformer", "ReIDTransformer.forward", None),
    ("transformer", "ReIDTransformer.matching_embeddings", None),
    ("transformer", "reid_layer_forward", None),
    ("losses", "focal_oim_loss", None),
    ("training", "detect_scene", None),
    ("training", "build_gallery", None),
    ("training", "build_query_entries", None),
    ("evaluation", "evaluate", None),
    ("evaluation", "cbgm_rerank", None),
    ("evaluation", "gallery_sweep", None),
    ("gradcheck", "run_gradcheck", None),
    ("gradcheck", "check_primitives", None),
    ("gradcheck", "check_attention", None),
    ("gradcheck", "check_full_model", None),
)

# Spans that open a new unit id, unless an enclosing span already did: each
# training step, and each scene that ``build_gallery`` embeds (its
# ``detect_scene`` call starts the scene; the pyramid read and forward pass
# that follow are its siblings and keep the id).
_UNIT_STARTS = ("training.step", "training.detect_scene")


class NullTracer:
    """Tracer of the untraced run: records nothing."""

    @contextlib.contextmanager
    def span(self, name):
        yield

    def open(self, name) -> None:
        pass

    def close(self) -> None:
        pass

    def abandon(self) -> None:
        pass


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        # Parallel lists indexed by span id, in the order spans opened, so a
        # parent always precedes its children.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.units: list[int] = []
        self.counts: list = []
        self._stack: list[tuple[int, int, bool]] = []  # (span, unit before, starts unit)
        self._unit = 0
        self._next_unit = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> None:
        starts_unit = name in _UNIT_STARTS and not any(s for _, _, s in self._stack)
        before = self._unit
        if starts_unit:
            self._unit = self._next_unit
            self._next_unit += 1
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.units.append(self._unit)
        self.counts.append(None)
        self.ends.append(float("nan"))
        self._stack.append((idx, before, starts_unit))
        self.starts.append(time.perf_counter())

    def close(self, count=None) -> None:
        now = time.perf_counter()
        idx, before, starts_unit = self._stack.pop()
        self.ends[idx] = now
        self.counts[idx] = count
        # A unit started by a scene's detect_scene outlives that span and
        # ends when the enclosing build_gallery span closes.
        if not starts_unit or self.names[idx] == "training.step":
            self._unit = before

    def abandon(self) -> None:
        """Drop the innermost open span; it must be the newest span."""
        idx, before, _ = self._stack.pop()
        if idx != len(self.names) - 1:
            raise RuntimeError(f"span {self.names[idx]} has children; cannot drop it")
        for column in (self.names, self.starts, self.ends, self.parents, self.units, self.counts):
            column.pop()
        self._unit = before

    @contextlib.contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(None if count is None or result is None else count(args, result))

        return traced

    def install(self, package: str = "persearch") -> None:
        """Wrap every target, including names other modules imported."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for short, path, count in TARGETS:
            module = sys.modules[f"{package}.{short}"]
            name = f"{short}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__, count))
                else:
                    wrapped = self._wrap(name, original, count)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per span; times in ms from the tracer's start."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                rec = {
                    "id": i,
                    "name": name,
                    "start_ms": round(1e3 * (self.starts[i] - self.t0), 4),
                    "end_ms": round(1e3 * (self.ends[i] - self.t0), 4),
                    "parent": self.parents[i],
                    "unit": self.units[i],
                }
                if self.counts[i] is not None:
                    rec["n"] = self.counts[i]
                fh.write(json.dumps(rec) + "\n")


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

PER_LAYER = (
    ("tensor.tape_nodes_per_step", "count"),
    ("tensor.replay_ms_per_step", "ms"),
    ("attention.cross_calls_per_step", "count"),
    ("attention.cross_ms_per_step", "ms"),
    ("attention.self_ms_per_step", "ms"),
    ("attention.layernorm_ms_per_step", "ms"),
    ("attention.cross_ms_per_scene", "ms"),
    ("transformer.forward_ms_per_step", "ms"),
    ("transformer.forward_ms_per_scene", "ms"),
    ("transformer.forwards", "count"),
    ("detector.detect_ms_per_step", "ms"),
    ("detector.hungarian_calls", "count"),
    ("detector.hungarian_ms", "ms"),
    ("losses.oim_ms_per_step", "ms"),
    ("data.generate_s", "s"),
    ("data.pyramid_reads", "count"),
    ("data.pyramid_read_ms_per_scene", "ms"),
    ("data.bytes_read", "bytes"),
    ("training.step_self_ms", "ms"),
    ("training.embed_ms_per_scene", "ms"),
    ("evaluation.evaluate_ms", "ms"),
    ("evaluation.pairs_scored", "count"),
    ("evaluation.cbgm_ms", "ms"),
    ("evaluation.cbgm_rescored", "count"),
    ("evaluation.sweep_ms", "ms"),
    ("gradcheck.primitives_s", "s"),
    ("gradcheck.attention_s", "s"),
    ("gradcheck.full_model_s", "s"),
    ("gradcheck.full_model_forwards", "count"),
    ("gradcheck.full_model_worst_rel_error", "ratio"),
    ("trace.pass_s", "s"),
    ("trace.pass_cost", "ref"),
)

_CROSS = ("attention.deform_attn", "attention.multiscale_deform_attn")


def _ancestor_of(tracer: Tracer, names: tuple[str, ...]) -> list[int]:
    """For each span, the nearest enclosing span (itself included) with one
    of ``names``, or -1."""
    out = []
    for i, name in enumerate(tracer.names):
        p = tracer.parents[i]
        out.append(i if name in names else (out[p] if p >= 0 else -1))
    return out


def layer_metrics(tracer: Tracer, measured: dict) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    "per step" values are means over ``training.step`` spans and "per
    scene" values means over the scenes ``build_gallery`` embedded; both
    read 0 on a workload without steps or gallery scenes.  Other values are
    per pass (the mean over ``bench.pass`` spans), except ``data.generate_s``
    (mean over set-ups).  ``measured`` carries values the benchmark takes
    from the program's results of one pass, or measures itself, rather than
    from spans.
    """
    names = tracer.names
    dur = np.array(tracer.ends) - np.array(tracer.starts)
    child = np.zeros(len(names))
    for i, p in enumerate(tracer.parents):
        if p >= 0:
            child[p] += dur[i]
    self_time = dur - child

    step = _ancestor_of(tracer, ("training.step",))
    gallery = _ancestor_of(tracer, ("training.build_gallery",))
    in_pass = _ancestor_of(tracer, ("bench.pass",))
    full_model = _ancestor_of(tracer, ("gradcheck.check_full_model",))
    cbgm = _ancestor_of(tracer, ("evaluation.cbgm_rerank",))

    steps = names.count("training.step")
    scenes = sum(
        1 for i, n in enumerate(names)
        if n == "training.detect_scene" and gallery[i] >= 0
    )
    passes = max(names.count("bench.pass"), 1)
    setups = max(names.count("bench.setup"), 1)

    def total(select, where, use_self=False) -> float:
        times = self_time if use_self else dur
        return float(sum(times[i] for i, n in enumerate(names) if select(n) and where(i)))

    def number(select, where) -> int:
        return sum(1 for i, n in enumerate(names) if select(n) and where(i))

    def per(value, base) -> float:
        return value / base if base else 0.0

    def is_(*wanted):
        return lambda n: n in wanted

    in_step = lambda i: step[i] >= 0
    in_scene = lambda i: gallery[i] >= 0
    in_a_pass = lambda i: in_pass[i] >= 0
    transformer = lambda n: n.startswith("transformer.") and n != "transformer.ReIDTransformer.init"
    reads = [
        i for i, n in enumerate(names) if n == "data.Benchmark.pyramid" and in_a_pass(i)
    ]
    replay = [i for i, n in enumerate(names) if n == "tensor.GradTape.gradients" and in_step(i)]
    ms = 1e3
    return {
        "tensor.tape_nodes_per_step": per(sum(tracer.counts[i] for i in replay), steps),
        "tensor.replay_ms_per_step": ms * per(total(is_("tensor.GradTape.gradients"), in_step), steps),
        "attention.cross_calls_per_step": per(number(is_(*_CROSS), in_step), steps),
        "attention.cross_ms_per_step": ms * per(total(is_(*_CROSS), in_step), steps),
        "attention.self_ms_per_step": ms * per(
            total(is_("attention.multi_head_self_attention"), in_step), steps
        ),
        "attention.layernorm_ms_per_step": ms * per(
            total(is_("attention.residual_layernorm"), in_step), steps
        ),
        "attention.cross_ms_per_scene": ms * per(total(is_(*_CROSS), in_scene), scenes),
        "transformer.forward_ms_per_step": ms * per(total(transformer, in_step, True), steps),
        "transformer.forward_ms_per_scene": ms * per(total(transformer, in_scene, True), scenes),
        "transformer.forwards": per(
            number(is_("transformer.ReIDTransformer.forward"), in_a_pass), passes
        ),
        "detector.detect_ms_per_step": ms * per(
            total(is_("detector.jitter_detect", "detector.assign_detections"), in_step), steps
        ),
        "detector.hungarian_calls": per(
            number(is_("detector.hungarian_assign"), in_a_pass), passes
        ),
        "detector.hungarian_ms": ms * per(
            total(is_("detector.hungarian_assign"), in_a_pass), passes
        ),
        "losses.oim_ms_per_step": ms * per(total(is_("losses.focal_oim_loss"), in_step), steps),
        "data.generate_s": per(total(is_("data.make_benchmark"), lambda i: True), setups),
        "data.pyramid_reads": per(sum(tracer.counts[i]["blobs"] for i in reads), passes),
        "data.pyramid_read_ms_per_scene": ms * per(sum(dur[i] for i in reads), len(reads)),
        "data.bytes_read": per(sum(tracer.counts[i]["bytes"] for i in reads), passes),
        "training.step_self_ms": ms * per(total(is_("training.step"), lambda i: True, True), steps),
        "training.embed_ms_per_scene": ms * per(
            total(is_("training.build_gallery"), lambda i: True), scenes
        ),
        "evaluation.evaluate_ms": ms * per(total(is_("evaluation.evaluate"), in_a_pass), passes),
        "evaluation.pairs_scored": measured.get("pairs_scored", 0),
        "evaluation.cbgm_ms": ms * per(total(is_("evaluation.cbgm_rerank"), in_a_pass), passes),
        "evaluation.cbgm_rescored": per(
            number(is_("detector.hungarian_assign"), lambda i: cbgm[i] >= 0), passes
        ),
        "evaluation.sweep_ms": ms * per(
            total(is_("evaluation.gallery_sweep"), in_a_pass), passes
        ),
        "gradcheck.primitives_s": per(total(is_("gradcheck.check_primitives"), in_a_pass), passes),
        "gradcheck.attention_s": per(total(is_("gradcheck.check_attention"), in_a_pass), passes),
        "gradcheck.full_model_s": per(total(is_("gradcheck.check_full_model"), in_a_pass), passes),
        "gradcheck.full_model_forwards": per(
            number(is_("transformer.ReIDTransformer.forward"), lambda i: full_model[i] >= 0),
            passes,
        ),
        "gradcheck.full_model_worst_rel_error": measured.get("full_model_worst_rel_error", 0.0),
        "trace.pass_s": per(total(is_("bench.pass"), lambda i: True), passes),
        "trace.pass_cost": measured.get("pass_cost", 0.0),
    }
