"""Repeat benchmark runs over seeds and record the run-to-run spread.

    python3 perfbench/spread.py --seeds 10 [--first-seed 1] [--out perfbench/baseline.json]

Run it from the root of a source checkout. For each seed it runs every
workload once untraced, through ``perfbench/run.py`` with the
``run_seconds`` of ``BENCHMARK.json``, interleaving workloads so that a
slow spell of the host lands on all of them. It then reports, per
workload and end-to-end metric, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
flagged when it is not below a third of the metric's bound.

With ``--out`` it appends this set of runs to the record in that file,
creating the file with the machine it ran on if it does not exist, and
prints how far each median moved from the first set's, as a share of
that median and signed so that positive is worse. It also makes one
traced run per workload and stores its per-layer metrics in the record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import BLAS_THREADS, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect output: {proc.stdout}")
    return result


def machine() -> dict:
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median)
    return {
        "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
        "steady": spread < bound / 3, "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    values = {w: {m: [] for m in metrics} for w in WORKLOADS}
    for seed in seeds:
        for workload in WORKLOADS:
            result = run_once(workload, seed, seconds, 0)["metrics"]
            for name in metrics:
                values[workload][name].append(result[name]["value"])
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{name}={result[name]['value']:.6g}" for name in metrics), flush=True)

    runs = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in WORKLOADS:
        summary = {name: summarize(values[workload][name], m["bound"]) for name, m in metrics.items()}
        runs["workloads"][workload] = summary
        for name, s in summary.items():
            flag = "" if s["steady"] else "  <-- not below a third of the bound"
            print(f"{workload:13s} {name:16s} median {s['median']:.6g}  "
                  f"spread {s['spread']:.4f}  bound {s['bound']}{flag}")
    if args.out is None:
        return 0

    if args.out.exists():
        record = json.loads(args.out.read_text(encoding="utf-8"))
    else:
        record = {"machine": machine(), "sets": []}
    record["sets"].append(runs)
    first = record["sets"][0]["workloads"]
    for workload in WORKLOADS if len(record["sets"]) > 1 else ():
        for name, m in metrics.items():
            change = runs["workloads"][workload][name]["median"] / first[workload][name]["median"] - 1
            worse = change if m["better"] == "lower" else -change
            flag = "" if worse <= m["bound"] else "  <-- worse than the first set by more than the bound"
            print(f"{workload:13s} {name:16s} median moved {worse:+.4f} from set 1{flag}")
    record["per_layer"] = {
        workload: {name: m["value"] for name, m in run_once(workload, seeds[0], seconds, 1)["metrics"].items()}
        for workload in WORKLOADS
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
