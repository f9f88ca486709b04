"""Run one persearch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports persearch from ``src/``
there and exits with code 2 when that is missing.  It sets the package up
a few times, reporting the median, then repeats whole passes of the
workload for about ``--seconds`` seconds, checks the outputs and prints one
JSON object as the last line of stdout:

    {"correct": true, "attempted": 47, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
package's public functions, records spans and reports per-layer metrics.
Each run also writes a record with the run environment, stage timings and
failed checks to ``.perfbench/records/``, and a traced run writes its spans
next to it.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# numpy is imported only after main() pins these to one thread: the
# workloads are single threaded by design, and the machine may be shared.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

END_TO_END = (
    ("setup_s", "s"), ("main_cost", "ref"), ("rest_cost", "ref"), ("peak_rss_mb", "MB")
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="persearch benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Control for the checks, in the style of ``gradcheck --corrupt``:
    # perturbs one checked output, which must then fail.
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def source_digest() -> str:
    """sha256 over the package sources, naming the code measured even where
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "persearch").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    """What a record must match before its numbers are compared."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def measure(workload, seed, seconds, tracer, workdir, corrupt):
    """Set the workload up ``setup_repeats`` times, then run passes for
    about ``seconds``: another pass starts only while the passes so far,
    plus the median pass, fit in the budget.  Returns the last state, each
    set-up's wall and nominal seconds, and the passes with their costs."""
    import numpy as np
    from refclock import Timeline

    setups, passes = [], []
    with Timeline() as timeline:
        for i in range(workload.setup_repeats):
            # A fresh directory each time, and the previous one deleted
            # untimed, so no set-up waits on writing back the one before.
            if i:
                shutil.rmtree(os.path.join(workdir, f"setup{i - 1}"), ignore_errors=True)
            with tracer.span("bench.setup"):
                state, wall, cost = workload.time_setup(
                    seed, os.path.join(workdir, f"setup{i}"), timeline
                )
            setups.append((wall, cost))
        start = time.perf_counter()
        while len(passes) < workload.min_passes or (
            time.perf_counter() - start + np.median([p.seconds for p in passes]) <= seconds
        ):
            t0, c0 = time.perf_counter(), time.process_time()
            with tracer.span("bench.pass"):
                p = workload.run_pass(state, tracer, corrupt)
            p.start, p.end = t0, time.perf_counter()
            p.cpu_seconds = time.process_time() - c0
            passes.append(p)
    for p in passes:
        main = timeline.cost(p.stages.of(workload.main))
        p.costs = {"main": main, "rest": timeline.cost([(p.start, p.end)]) - main}
    return state, setups, passes


def execute(workload, seed: int, seconds: float, trace: bool, corrupt: bool, out_dir: Path):
    """One run: returns the result line's object and the full record."""
    import numpy as np

    import spans
    from workloads import Checks

    tracer = spans.Tracer() if trace else spans.NullTracer()
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_dir)
    if trace:
        tracer.install()
    try:
        state, setups, passes = measure(workload, seed, seconds, tracer, workdir, corrupt)
    finally:
        if trace:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = Checks()
    workload.check(state, passes, checks, corrupt)
    summary, measured = workload.report(state, passes)
    setup_wall_s, setup_s = (list(column) for column in zip(*setups))
    if trace:
        measured["pass_cost"] = float(np.median([sum(p.costs.values()) for p in passes]))
        metrics = spans.layer_metrics(tracer, measured)
        metric_units = dict(spans.PER_LAYER)
    else:
        metrics = {
            "setup_s": float(np.median(setup_s)),
            "main_cost": float(np.median([p.costs["main"] for p in passes])),
            "rest_cost": float(np.median([p.costs["rest"] for p in passes])),
            "peak_rss_mb": peak_rss_mb,
        }
        metric_units = dict(END_TO_END)

    records = out_dir / "records"
    records.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "setup_wall_s": setup_wall_s,
        "setup_s": setup_s,
        "pass_s": [p.seconds for p in passes],
        "pass_cpu_s": [p.cpu_seconds for p in passes],
        "stage_s": [
            {name: p.stages.seconds(name) for name in p.stages.intervals} for p in passes
        ],
        "stage_cost": [p.costs for p in passes],
        "main_stages": list(workload.main),
        "summary": summary,
        "peak_rss_mb": peak_rss_mb,
        "metrics": metrics,
        "checks": {"attempted": checks.attempted, "failed": checks.failed},
        "path": str(records / f"{stem}.json"),
    }
    with open(record["path"], "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if trace:
        tracer.write(records / f"{stem}.spans.jsonl")
    result = {
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {k: {"value": v, "unit": metric_units[k]} for k, v in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "persearch" / "__init__.py").is_file():
        print(f"error: no persearch package under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result, record = execute(
        WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), args.corrupt, OUT
    )
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"passes {len(record['pass_s'])}; pass_s {[round(s, 3) for s in record['pass_s']]}")
    for key, value in record["summary"].items():
        print(f"  {key} = {value:.6g}")
    for what in record["checks"]["failed"]:
        print(f"FAILED CHECK: {what}")
    print(f"record {record['path']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
