"""Run one workload of the flagflows benchmark and print its metrics.

    python3 bench/run.py --workload periods-l5 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  With --trace 0 the last line of
standard output is the end-to-end result (setup_s, wall_s, ops_per_s,
peak_rss_mb); with --trace 1 it is the per-layer result from a traced
run.  The line before it is the full record: environment, per-pass
times, fail_ratio and the failures seen.  Both are also written under
./.bench_out/.  See bench/NOTES.md for what each workload and metric
means.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH = Path(__file__).resolve().parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def import_harness():
    """Import the benchmark harness against the checkout's own sources."""
    package = SRC / "flagflows"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no flagflows sources at {package}; "
                         "run from the root of a source checkout")
    # one BLAS thread: the program's matrices are 3x3 to a few thousand by 3,
    # and threads only add scheduling noise on a shared machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]
    import flagflows
    import harness

    if Path(flagflows.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: flagflows imported from {flagflows.__file__}")
    return harness


def _blas_threads():
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, or None where it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES":
                                              str(ROOT.parent)})
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    harness = import_harness()
    if args.workload not in harness.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(harness.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workload = harness.make_workload(args.workload, args.seed, OUT)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = harness.measure_traced(workload, args.seconds,
                                        OUT / f"{stem}.spans.npz")
        metrics = {name: {"value": result["metrics"][name], "unit": spec[0]}
                   for name, spec in harness.LAYER_METRICS.items()}
        extra = {"spans": result["spans"],
                 "untraced_pass_seconds": result["untraced"].pass_seconds}
    else:
        result = harness.measure(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        extra = {"setup_times": result["setup_times"]}
    totals = result["totals"]
    summary = {
        "correct": totals.mismatches == 0 and totals.attempted > 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": metrics,
    }
    record = {
        "environment": environment(args),
        "fail_ratio": totals.failed / totals.attempted,
        "worst_error": totals.worst_error,
        "mismatches": totals.mismatches,
        "errors": totals.errors,
        "pass_seconds": totals.pass_seconds,
        "part_seconds": totals.part_seconds,
        "reference_seconds": totals.reference_seconds,
        **extra,
        "result": summary,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
