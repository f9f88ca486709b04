"""Command-line entry points: data generation, training, retrieval, checks.

Exit codes: 0 success, 1 configuration errors, 2 data or filesystem errors,
3 numerical divergence during training, 4 failed gradient verification,
5 any other (internal) error.
Run artifacts (manifests, loss curves, result tables, summaries) contain no
wall-clock values, so identical seeds reproduce them byte for byte; timing
is printed only: ``train`` writes a progress line to stderr at each tenth
of its steps and its summary to stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .config import RunConfig, load_run_config
from .data import load_benchmark, make_benchmark
from .errors import ConfigError, DataError, GradcheckFailure, NumericError, write_manifest
from .evaluation import cbgm_rerank, evaluate, gallery_sweep, write_results_csv
from .gradcheck import format_results, raise_on_failure, run_gradcheck
from .training import (
    TrainSettings,
    build_gallery,
    build_query_entries,
    load_checkpoint,
    save_checkpoint,
    train,
    write_loss_curve,
)
from .transformer import ReIDTransformer

__all__ = ["main"]


def _load_config(args) -> RunConfig:
    cfg = load_run_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    if args.seed is not None:
        cfg.data.seed = args.seed
    bench = make_benchmark(cfg.data, args.out)
    print(
        f"generated {len(bench.train_ids)} train / {len(bench.gallery_ids)} "
        f"gallery scenes, {len(bench.queries)} queries -> {args.out}"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    if args.steps is not None:
        cfg.train.steps = args.steps
        cfg.train.validate()
    bench = load_benchmark(args.data)
    model = ReIDTransformer.init(cfg.model, seed=cfg.seed, style="train")
    steps = cfg.train.steps
    t0 = time.perf_counter()

    def report(step, row):
        # One line each time the run passes a tenth of its steps.
        done = step + 1
        if done * 10 // steps > step * 10 // steps:
            rate = done / (time.perf_counter() - t0)
            line = f"step {done}/{steps}  {rate:.1f} steps/s  total loss {row['total']:.4f}"
            print(line, file=sys.stderr, flush=True)

    result = train(model, bench, cfg.train, run_seed=cfg.seed, progress=report)
    dt = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    write_loss_curve(os.path.join(args.out, "loss_curve.csv"), result.curve)
    meta = {"run_config": cfg.to_dict(), "run_seed": cfg.seed}
    save_checkpoint(
        os.path.join(args.out, "checkpoint"), result.model, result.oim_states, meta
    )
    summary = {
        "command": "train",
        "config": cfg.to_dict(),
        "steps": cfg.train.steps,
        "initial": result.curve[0],
        "final": result.curve[-1],
    }
    write_manifest(os.path.join(args.out, "summary.json"), summary)
    print(
        f"trained {cfg.train.steps} steps in {dt:.1f}s; total loss "
        f"{result.curve[0]['total']:.4f} -> {result.curve[-1]['total']:.4f}"
    )
    return 0


def _retrieval_inputs(args, detection_seed: int | None = None):
    """Gallery and query entries; detection uses the checkpoint's run seed
    unless ``detection_seed`` overrides it."""
    model, _, meta = load_checkpoint(args.checkpoint)
    bench = load_benchmark(args.data)
    if detection_seed is None:
        detection_seed = meta.get("run_seed", 0)
    entries, truth, per_scene = build_gallery(model, bench, detection_seed)
    queries = build_query_entries(bench, per_scene)
    return queries, entries, truth


def _metrics_dict(result) -> dict:
    return {
        "map": result.mean_ap,
        "cmc": {str(k): v for k, v in sorted(result.cmc.items())},
    }


def cmd_eval(args) -> int:
    if not args.cbgm and (args.k1, args.k2) != (None, None):
        raise ConfigError("--k1 and --k2 act only with --cbgm")
    k1 = 30 if args.k1 is None else args.k1
    k2 = 3 if args.k2 is None else args.k2
    queries, entries, truth = _retrieval_inputs(args, args.seed)
    if args.cbgm:
        result = cbgm_rerank(queries, entries, truth, k1=k1, k2=k2)
    else:
        result = evaluate(queries, entries, truth)
    os.makedirs(args.out, exist_ok=True)
    write_results_csv(result, os.path.join(args.out, "results.csv"))
    summary = {
        "command": "eval",
        "cbgm": bool(args.cbgm),
        "k1": k1,
        "k2": k2,
        "num_queries": len(queries),
        "num_gallery_entries": len(entries),
        **_metrics_dict(result),
    }
    write_manifest(os.path.join(args.out, "summary.json"), summary)
    top1 = result.cmc.get(1)
    print(f"mAP={result.mean_ap:.4f} top-1={top1:.4f} over {len(queries)} queries")
    return 0


def cmd_sweep(args) -> int:
    try:
        sizes = [int(s) for s in args.gallery_sizes.split(",") if s]
    except ValueError:
        raise ConfigError(f"bad --gallery-sizes {args.gallery_sizes!r}") from None
    if not sizes:
        raise ConfigError("--gallery-sizes must name at least one size")
    # --seed picks the distractors only; detection keeps the run seed.
    queries, entries, truth = _retrieval_inputs(args)
    seed = args.seed if args.seed is not None else 0
    swept = gallery_sweep(queries, entries, truth, sizes, seed=seed)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "results.csv"), "w") as fh:
        fh.write("size,map,cmc1,cmc5,cmc10\n")
        for size in sizes:
            r = swept[size]
            fh.write(
                f"{size},{r.mean_ap!r},{r.cmc[1]!r},{r.cmc[5]!r},{r.cmc[10]!r}\n"
            )
    summary = {
        "command": "sweep",
        "sizes": sizes,
        "results": {str(s): _metrics_dict(swept[s]) for s in sizes},
    }
    write_manifest(os.path.join(args.out, "summary.json"), summary)
    for size in sizes:
        print(f"size={size} mAP={swept[size].mean_ap:.4f} top-1={swept[size].cmc[1]:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    def report(block, seconds, results):
        print(f"{block}: {len(results)} checks in {seconds:.2f}s", flush=True)

    t0 = time.perf_counter()
    results = run_gradcheck(corrupt=args.corrupt, progress=report)
    print(format_results(results))
    print(f"{len(results)} checks in {time.perf_counter() - t0:.1f}s")
    raise_on_failure(results)
    return 0


def cmd_bench(args) -> int:
    from .data import BenchmarkConfig
    from .transformer import ReIDConfig, SCHEMES

    if args.steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {args.steps}")
    data_dir = os.path.join(args.out, "bench_data")
    cfg = BenchmarkConfig(
        num_train=20, num_gallery=12, num_queries=4, seed=0
    )
    bench = (
        load_benchmark(data_dir)
        if os.path.exists(os.path.join(data_dir, "manifest.json"))
        else make_benchmark(cfg, data_dir)
    )
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for scheme in SCHEMES:
        model = ReIDTransformer.init(ReIDConfig(scheme=scheme), seed=1)
        times = []
        last = [time.perf_counter()]

        def tick(step, row, last=last, times=times):
            now = time.perf_counter()
            times.append(now - last[0])
            last[0] = now

        settings = TrainSettings(steps=args.steps, learning_rate=0.01)
        train(model, bench, settings, run_seed=3, progress=tick)
        rows.append(
            {
                "scheme": scheme,
                "median_ms_per_step": 1e3 * float(np.median(times)),
                "steps": args.steps,
                "transformer_params": model.transformer_param_count(),
                "total_params": model.total_param_count(),
            }
        )
    with open(os.path.join(args.out, "bench.csv"), "w") as fh:
        fh.write("scheme,median_ms_per_step,steps,transformer_params,total_params\n")
        for r in rows:
            fh.write(
                f"{r['scheme']},{r['median_ms_per_step']:.2f},{r['steps']},"
                f"{r['transformer_params']},{r['total_params']}\n"
            )
    for r in rows:
        print(
            f"{r['scheme']:<15} {r['median_ms_per_step']:7.2f} ms/step  "
            f"{r['transformer_params']} transformer params"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persearch",
        description="Desk-scale person search: synthetic data, re-ID transformer, retrieval metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic benchmark")
    p.add_argument("--config", help="run config JSON (data section)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, help="override the dataset seed")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the re-ID transformer")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--data", required=True, help="benchmark directory")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--steps", type=int, help="override the training step count")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank the gallery for every query")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--data", required=True, help="benchmark directory")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--seed", type=int, help="override the detection seed")
    p.add_argument("--cbgm", action="store_true", help="context re-ranking")
    p.add_argument("--k1", type=int, help="scenes to rescore, with --cbgm (default 30)")
    p.add_argument("--k2", type=int, help="context detections, with --cbgm (default 3)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="metrics across gallery sizes")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="distractor sampling seed")
    p.add_argument(
        "--gallery-sizes", required=True, help="comma-separated sizes, e.g. 10,20,40"
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", help="verify gradients against central differences")
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="time each scheme and count parameters")
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=30, help="steps to time per scheme")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except GradcheckFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # Anything else is a fault in persearch, not in its inputs.
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
