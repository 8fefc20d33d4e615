"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <train|eval|grow_analyze> \\
        --seed N --seconds S --trace <0|1>

Run it from the root of a source checkout. It launches the workload in a
process of its own with the BLAS thread count fixed and ``src`` on the
import path, echoes the workload's digest lines, adds the process's peak
resident set size to an untraced run, and prints one JSON object as the
last line: ``{"correct", "attempted", "failed", "metrics"}``. It exits
non-zero without printing a result when the checkout holds no source, or
when the workload fails or runs past its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train", "eval", "grow_analyze")
# OpenBLAS reads the first, an OpenMP build the second, MKL the third.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
TIME_LIMIT_S = 170
WORK_DIR = ".perfbench_work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one growformer benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="run at the smoke-test size instead of TOY_CONFIG")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "growformer" / "__init__.py").is_file():
        print(f"error: no growformer source under {root / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, "-m", "perfbench.workloads",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(root / WORK_DIR),
    ] + (["--tiny"] if args.tiny else [])
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: {args.workload} ran past {TIME_LIMIT_S} s", file=sys.stderr)
        return 3
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        print(f"error: {args.workload} exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if not args.trace:
        # ru_maxrss of waited-for children, in KiB on Linux.
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kib / 1024, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
