"""polyame benchmark: one workload per run, from the root of a source tree.

    python3 perfbench/run.py --workload d1-dense-profile --seed 1 --seconds 50 --trace 0

Each round sets up `setup_reps` times and then solves once; rounds repeat
until their summed set-up and solve time reaches --seconds. setup_s is the
median set-up and solve_s the median round.
peak_rss_mib is the process's peak resident memory when the last round
ends. --trace 1 wraps the package's public functions and prints per-layer
metrics instead. The last stdout line is the JSON result; the same result,
with the run's environment, round times and spans, is written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("d1-dense-profile", "code-ranks")


def environment(polyame_workers) -> dict:
    from importlib.metadata import version

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": version("click"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        # The value found in the environment; the run itself unsets it.
        "POLYAME_WORKERS": polyame_workers,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "polyame" / "__init__.py").is_file():
        print(f"error: no polyame sources under {src}", file=sys.stderr)
        return 2
    # Serial code only: the fork pool stays off.
    polyame_workers = os.environ.pop("POLYAME_WORKERS", None)
    sys.path.insert(0, str(src))
    import polyame

    if Path(polyame.__file__).resolve().parent != (src / "polyame").resolve():
        print(f"error: imported polyame from {polyame.__file__}, not {src}", file=sys.stderr)
        return 2

    from spans import Tracer
    from workloads import WORKLOADS, Ops

    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT_DIR)
    tracer = Tracer()
    if args.trace:
        tracer.install()
    errors: list[str] = []

    # Each round sets up afresh, so set-up is sampled across the whole run
    # like the solve is.
    setup_times: list[float] = []
    round_times: list[float] = []
    ops = Ops()
    first = None
    while not round_times or sum(setup_times) + sum(round_times) < args.seconds:
        for _ in range(wl.setup_reps):
            tracer.phase = "setup"
            t0 = perf_counter()
            art = wl.setup()
            setup_times.append(perf_counter() - t0)
            tracer.phase = None
            errors += wl.check_setup(art)
        tracer.phase = "solve"
        t0 = perf_counter()
        result = wl.solve(art, ops)
        round_times.append(perf_counter() - t0)
        tracer.phase = None
        if first is None:
            first = result
            errors += wl.check(art, result)
        elif result != first:
            errors.append(f"round {len(round_times)} returned other results than round 1")
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors += wl.check_final(art, first)
    tracer.restore()

    if args.trace:
        metrics = tracer.layer_metrics(len(setup_times), len(round_times))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "solve_s": (statistics.median(round_times), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    line = {
        "correct": not errors,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    record = {
        "result": line,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_times_s": setup_times,
        "round_times_s": round_times,
        "solve_s": statistics.median(round_times),
        "peak_rss_mib": peak_rss_mib,
        "errors": errors,
        "environment": environment(polyame_workers),
        "spans": tracer.dump() if args.trace else [],
    }
    out = OUT_DIR / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
