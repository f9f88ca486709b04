"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each criterion from the project contract runs at its stated tolerance, on
top of the per-module suites.  The slow items (full gradient verification,
the end-to-end default benchmark run) execute the real command-line entry
points, so this file doubles as an integration test.
"""

import json
import time

import numpy as np
import pytest

from oracles import (
    ap_oracle,
    deform_oracle,
    hungarian_oracle,
    mha_oracle,
    rank_one_query_oracle,
)
from test_evaluation import as_oracle, planted_context_instance, random_instance

from persearch.attention import (
    DeformAttnParams,
    MultiHeadAttnParams,
    ReferencePoint,
    deform_attn,
    multi_head_self_attention,
    multiscale_deform_attn,
)
from persearch.cli import main
from persearch.data import BenchmarkConfig, make_benchmark
from persearch.detector import hungarian_assign
from persearch.evaluation import cbgm_rerank, evaluate, gallery_sweep
from persearch.tensor import Tensor
from persearch.training import load_checkpoint, save_checkpoint
from persearch.transformer import ReIDConfig, ReIDTransformer


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def small_ws(tmp_path_factory):
    """Small generated dataset plus a short trained run, via the CLI."""
    root = tmp_path_factory.mktemp("acceptance")
    cfg = {
        "seed": 5,
        "data": {
            "num_train": 10,
            "num_gallery": 12,
            "num_queries": 5,
            "labeled_identities": 5,
            "unlabeled_identities": 2,
            "feature_dim": 8,
            "image_size": 64,
            "seed": 3,
        },
        "model": {"dim": 8, "heads": 2, "points": 2, "num_queries": 3},
        "train": {"steps": 12, "learning_rate": 0.01, "queue_size": 4},
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    data, run = root / "data", root / "run"
    assert main(["gen-data", "--config", str(cfg_path), "--out", str(data)]) == 0
    assert main(
        ["train", "--config", str(cfg_path), "--data", str(data), "--out", str(run)]
    ) == 0
    return {"root": root, "cfg": cfg_path, "data": data, "run": run}


def test_criterion_1_gradcheck_command_passes_within_budget(capsys):
    t0 = time.perf_counter()
    rc = main(["gradcheck"])
    dt = time.perf_counter() - t0
    rc_corrupt = main(["gradcheck", "--corrupt"])
    capsys.readouterr()
    _report(
        "gradcheck exits 0 in under 120s and the corrupt control exits 4",
        rc == 0 and dt < 120.0 and rc_corrupt == 4,
        f"rc={rc} corrupt_rc={rc_corrupt} {dt:.1f}s",
    )


def _random_mha(rng, d, heads):
    dk = d // heads
    g = lambda *s: Tensor(rng.standard_normal(s))
    return MultiHeadAttnParams(
        wq=g(heads, d, dk),
        wk=g(heads, d, dk),
        wv=g(heads, d, dk),
        wo=g(heads * dk, d),
    )


def _random_deform(rng, d, c, heads, points, levels):
    g = lambda *s: Tensor(rng.standard_normal(s) * 0.5)
    return DeformAttnParams(
        w_offset=g(d, 2 * heads * points * levels),
        b_offset=g(2 * heads * points * levels),
        w_weight=g(d, heads * points * levels),
        b_weight=g(heads * points * levels),
        w_value=g(heads, c, d // heads),
        w_out=g(d, d),
        num_points=points,
        num_levels=levels,
    )


def test_criterion_2_attention_matches_brute_force_oracles():
    rng = np.random.default_rng(2024)
    worst_mha = 0.0
    for _ in range(100):
        heads = int(rng.integers(1, 3))
        d = heads * int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        y = rng.standard_normal((n, d))
        p = _random_mha(rng, d, heads)
        got = multi_head_self_attention(Tensor(y), p).data
        want = mha_oracle(
            y,
            p.wq.data,
            p.wk.data,
            p.wv.data,
            p.wo.data,
        )
        worst_mha = max(worst_mha, float(np.abs(got - want).max()))

    worst_def = 0.0
    for trial in range(100):
        levels = 1 if trial < 60 else 3
        heads = int(rng.integers(1, 3))
        d = heads * int(rng.integers(2, 5))
        c = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        points = int(rng.integers(1, 4))
        maps = [
            rng.standard_normal((c, int(rng.integers(3, 7)), int(rng.integers(3, 7))))
            for _ in range(levels)
        ]
        z = rng.standard_normal((n, d))
        refs = [
            ReferencePoint(float(rng.uniform()), float(rng.uniform()))
            for _ in range(n)
        ]
        p = _random_deform(rng, d, c, heads, points, levels)
        if levels == 1:
            got = deform_attn(Tensor(z), refs, Tensor(maps[0]), p).data
        else:
            got = multiscale_deform_attn(
                Tensor(z), refs, [Tensor(m) for m in maps], p
            ).data
        want = deform_oracle(
            z,
            [(r.x, r.y) for r in refs],
            maps,
            p.w_offset.data,
            p.b_offset.data,
            p.w_weight.data,
            p.b_weight.data,
            p.w_value.data,
            np.split(p.w_out.data, heads),
        )
        worst_def = max(worst_def, float(np.abs(got - want).max()))
    _report(
        "attention matches term-by-term oracles within 1e-12 on 100+100 instances",
        worst_mha <= 1e-12 and worst_def <= 1e-12,
        f"mha={worst_mha:.2e} deform={worst_def:.2e}",
    )


def test_criterion_3_evaluation_matches_naive_protocol():
    rng = np.random.default_rng(77)
    exact = True
    for _ in range(50):
        truth, entries, eligible = random_instance(rng)
        gid, scenes = eligible[int(rng.integers(0, len(eligible)))]
        qscene = sorted(scenes)[0]
        from persearch.evaluation import QueryEntry

        emb = rng.standard_normal(5)
        emb /= np.linalg.norm(emb)
        q = QueryEntry(qscene, entries[0].box, gid, emb)
        truth_o, entries_o = as_oracle(truth, entries)
        flags, sims, num_rel = rank_one_query_oracle(
            emb, qscene, gid, entries_o, truth_o
        )
        qr = evaluate([q], entries, truth).per_query[0]
        exact &= list(qr.correct) == flags
        exact &= list(qr.sims) == sims
        exact &= qr.ap == ap_oracle(flags, num_rel)

    # Superset growth: per-query AP never increases as distractors pile in.
    monotone = True
    for seed in range(5):
        srng = np.random.default_rng(1000 + seed)
        truth, entries, eligible = random_instance(srng, num_scenes=10, num_ids=3)
        from persearch.evaluation import QueryEntry

        gid, scenes = eligible[0]
        emb = srng.standard_normal(5)
        emb /= np.linalg.norm(emb)
        q = QueryEntry(sorted(scenes)[0], entries[0].box, gid, emb)
        matching = sum(
            1
            for s, persons in truth.items()
            if s != q.scene_id and any(g == gid for _, g in persons)
        )
        sizes = sorted({matching, min(matching + 3, 9), 9})
        swept = gallery_sweep([q], entries, truth, sizes, seed=11)
        aps = [swept[s].per_query[0].ap for s in sizes]
        monotone &= all(b <= a + 1e-12 for a, b in zip(aps, aps[1:]))
    _report(
        "evaluation equals the naive oracle on 50 galleries and AP is "
        "non-increasing under distractor growth",
        exact and monotone,
    )


def test_criterion_4_hungarian_equals_exhaustive_search():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        cost = rng.uniform(-5.0, 5.0, (n, m))
        pairs, total = hungarian_assign(cost)
        _, best = hungarian_oracle(cost)
        worst = max(worst, abs(total - best))
        assert len(pairs) == min(n, m)
    _report(
        "assignment optimum equals exhaustive permutation search on 200 "
        "matrices up to 7x7",
        worst <= 1e-9,
        f"max deviation {worst:.2e}",
    )


def test_criterion_5_end_to_end_default_benchmark(tmp_path, capsys):
    t0 = time.perf_counter()
    data = tmp_path / "data"
    run = tmp_path / "run"
    run0 = tmp_path / "run_untrained"
    ev = tmp_path / "eval"
    ev0 = tmp_path / "eval_untrained"
    ok = main(["gen-data", "--out", str(data)]) == 0
    ok &= main(["train", "--data", str(data), "--out", str(run)]) == 0
    ok &= (
        main(["train", "--data", str(data), "--out", str(run0), "--steps", "0"]) == 0
    )
    ok &= main(
        ["eval", "--checkpoint", str(run / "checkpoint"), "--data", str(data), "--out", str(ev)]
    ) == 0
    ok &= main(
        ["eval", "--checkpoint", str(run0 / "checkpoint"), "--data", str(data), "--out", str(ev0)]
    ) == 0
    dt = time.perf_counter() - t0
    capsys.readouterr()
    trained = json.loads((ev / "summary.json").read_text())
    untrained = json.loads((ev0 / "summary.json").read_text())
    _report(
        "default benchmark trains to mAP >= 0.90 and top-1 >= 0.90 in <= 2000 "
        "steps, untrained stays below 0.2, all under 10 minutes",
        ok
        and trained["map"] >= 0.90
        and trained["cmc"]["1"] >= 0.90
        and untrained["map"] < 0.2
        and dt < 600.0,
        f"mAP={trained['map']:.4f} top1={trained['cmc']['1']:.4f} "
        f"untrained={untrained['map']:.4f} {dt:.0f}s",
    )


def test_criterion_6_structural_properties(small_ws):
    shared = ReIDTransformer.init(ReIDConfig(scheme="shared"), seed=0)
    parallel = ReIDTransformer.init(ReIDConfig(scheme="parallel"), seed=0)
    triple = parallel.transformer_param_count() == 3 * shared.transformer_param_count()

    wide = ReIDTransformer.init(ReIDConfig(scheme="multi_scale_3d"), seed=0)
    d = wide.config.dim
    width_ok = wide.params["queries"].shape == (wide.config.num_queries, 3 * d)
    width_ok &= wide.params["stack.layer0.cross0.w_offset"].shape[0] == 3 * d

    rng = np.random.default_rng(6)
    pyramid = [Tensor(rng.standard_normal((8, s, s))) for s in (8, 4, 2)]
    refs = [ReferencePoint(0.3, 0.4), ReferencePoint(0.6, 0.7), ReferencePoint(0.2, 0.8)]
    grid_ok = True
    for m in (2, 3, 4):
        for k in (2, 3, 4):
            cfg = ReIDConfig(
                dim=8, heads=2, points=2, m_layers=m, k_cross=k, num_queries=3
            )
            model = ReIDTransformer.init(cfg, seed=1, style="random")
            emb = model.matching_embeddings(pyramid, refs)
            grid_ok &= bool(np.isfinite(emb.data).all())

    # The objective is the OIM weight (default 0.5) times the OIM loss,
    # exactly, at every step of the trained run.
    header, *rows = (small_ws["run"] / "loss_curve.csv").read_text().split()
    steps = [dict(zip(header.split(","), map(float, row.split(",")))) for row in rows]
    weights_ok = header == "step,l_oim,total" and len(steps) == 12
    weights_ok &= all(step["total"] == 0.5 * step["l_oim"] for step in steps)
    _report(
        "parallel holds exactly 3x shared transformer parameters, the wide "
        "multi-scale stack runs at 3d, all nine (M,K) grids run, and each "
        "step's total is weights.oim * l_oim",
        triple and width_ok and grid_ok and weights_ok,
    )


def test_criterion_7_ablation_harness(small_ws, tmp_path, capsys):
    base = json.loads(small_ws["cfg"].read_text())
    ok = True
    for flag in (True, False):
        cfg = json.loads(json.dumps(base))
        cfg["model"]["use_self_attention"] = flag
        cfg["train"]["steps"] = 6
        p = tmp_path / f"cfg_sa_{flag}.json"
        p.write_text(json.dumps(cfg))
        rc = main(
            [
                "train",
                "--config",
                str(p),
                "--data",
                str(small_ws["data"]),
                "--out",
                str(tmp_path / f"run_sa_{flag}"),
            ]
        )
        ok &= rc == 0
    for scheme in ("shared", "parallel", "multi_scale_d", "multi_scale_3d"):
        cfg = json.loads(json.dumps(base))
        cfg["model"]["scheme"] = scheme
        cfg["train"]["steps"] = 6
        p = tmp_path / f"cfg_{scheme}.json"
        p.write_text(json.dumps(cfg))
        rc = main(
            [
                "train",
                "--config",
                str(p),
                "--data",
                str(small_ws["data"]),
                "--out",
                str(tmp_path / f"run_{scheme}"),
            ]
        )
        ok &= rc == 0
        curve = (tmp_path / f"run_{scheme}" / "loss_curve.csv").read_text()
        ok &= len(curve.strip().split("\n")) == 7
    capsys.readouterr()
    _report(
        "self-attention ablation and all four schemes train to completion",
        ok,
    )


def test_criterion_8_context_rerank_behavior(small_ws, tmp_path, capsys):
    args = [
        "--checkpoint",
        str(small_ws["run"] / "checkpoint"),
        "--data",
        str(small_ws["data"]),
    ]
    plain, ctx0 = tmp_path / "plain", tmp_path / "ctx0"
    ok = main(["eval", *args, "--out", str(plain)]) == 0
    ok &= main(["eval", *args, "--out", str(ctx0), "--cbgm", "--k2", "0"]) == 0
    capsys.readouterr()
    identical = (plain / "results.csv").read_bytes() == (ctx0 / "results.csv").read_bytes()
    sp = json.loads((plain / "summary.json").read_text())
    s0 = json.loads((ctx0 / "summary.json").read_text())
    identical &= sp["map"] == s0["map"] and sp["cmc"] == s0["cmc"]

    truth, entries, query = planted_context_instance()
    base = evaluate([query], entries, truth)
    rr = cbgm_rerank([query], entries, truth, k1=5, k2=3)
    flipped = (
        base.per_query[0].top_scene != rr.per_query[0].top_scene
        and rr.cmc[1] == 1.0
        and base.cmc[1] == 0.0
    )
    _report(
        "k2=0 re-ranking is bit-identical and planted co-travellers flip at "
        "least one query's top-1",
        ok and identical and flipped,
    )


def test_criterion_9_determinism_and_round_trips(small_ws, tmp_path, capsys):
    data2 = tmp_path / "data2"
    run2 = tmp_path / "run2"
    ok = main(
        ["gen-data", "--config", str(small_ws["cfg"]), "--out", str(data2)]
    ) == 0
    ok &= main(
        [
            "train",
            "--config",
            str(small_ws["cfg"]),
            "--data",
            str(data2),
            "--out",
            str(run2),
        ]
    ) == 0
    capsys.readouterr()

    same = (small_ws["data"] / "manifest.json").read_bytes() == (
        data2 / "manifest.json"
    ).read_bytes()
    blobs = sorted((small_ws["data"] / "scenes").iterdir())
    same &= all(
        b.read_bytes() == (data2 / "scenes" / b.name).read_bytes() for b in blobs
    )
    same &= (small_ws["run"] / "loss_curve.csv").read_bytes() == (
        run2 / "loss_curve.csv"
    ).read_bytes()

    ckpt = small_ws["run"] / "checkpoint"
    model, states, meta = load_checkpoint(ckpt)
    resaved = tmp_path / "resaved"
    save_checkpoint(resaved, model, states, meta)
    files = sorted(p.relative_to(ckpt) for p in ckpt.rglob("*") if p.is_file())
    round_trip = all(
        (ckpt / f).read_bytes() == (resaved / f).read_bytes() for f in files
    )
    _report(
        "same seeds give byte-identical manifests, blobs and loss curves; "
        "checkpoints round-trip bit-exactly",
        ok and same and round_trip,
    )
