"""Run every workload and print each metric by name, unit and sample count.

    python3 perfbench/report.py [--seeds 1,2] [--seconds S] [--trace]
                                [--baseline-out perfbench/baseline.json]

For each workload and seed this runs ``perfbench/run.py`` from the current
directory (the source tree root) and prints the end-to-end metrics: the median
over seeds, its spread over seeds (quartile distance over median), the number
of samples behind it, and the error rate, failed runs over attempted runs.
``--trace`` prints the per-layer metrics instead, with the tracing overhead
and how much of the untraced time after set-up the top-level spans account
for. ``--baseline-out`` records both passes with the
interpreter, numpy and core count in one JSON file.
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

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def collect(seeds: list, seconds: float, trace: bool) -> dict:
    """Per workload: per metric the values over seeds, and run counts."""
    table = {}
    for workload in WORKLOADS:
        entry = {"attempted": 0, "failed": 0, "samples": {}, "values": {},
                 "units": {}, "problems": []}
        for seed in seeds:
            detail, result = run_once(workload, seed, seconds, trace)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["problems"] += detail["problems"]
            for name, metric in result["metrics"].items():
                entry["values"].setdefault(name, []).append(metric["value"])
                entry["units"][name] = metric["unit"]
                n = detail["samples"].get(name, detail["samples"].get("pairs"))
                count = len(n) if isinstance(n, list) else n
                entry["samples"][name] = entry["samples"].get(name, 0) + count
        table[workload] = entry
    return table


def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median; 0 below 2 values."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def print_table(table: dict, trace: bool):
    print(f"{'workload':<11} {'metric':<38} {'unit':<6} {'median':>12} "
          f"{'spread':>7} {'samples':>8}")
    for workload, entry in table.items():
        for name, values in entry["values"].items():
            print(f"{workload:<11} {name:<38} {entry['units'][name]:<6} "
                  f"{statistics.median(values):>12.6g} {spread(values):>7.3f} "
                  f"{entry['samples'][name]:>8}")
        rate = entry["failed"] / entry["attempted"]
        print(f"{workload:<11} {'error_rate':<38} {'ratio':<6} {rate:>12.6g} "
              f"{'':>7} {entry['attempted']:>8}")
        if trace:
            med = {n: statistics.median(v) for n, v in entry["values"].items()}
            gap = med["trace.top_level_after_setup_s"] - med["trace.after_setup_untraced_s"]
            # The CLI glue between spans (summary write, exit) is covered by
            # no span, so it widens the allowance.
            allowed = abs(med["trace.overhead_s"]) + med["trace.unaccounted_s"]
            verdict = "within" if abs(gap) <= allowed else "outside"
            print(f"{workload:<11} top-level spans after set-up {gap:+.4f} s against "
                  f"untraced wall_s - setup_s: {verdict} the overhead "
                  f"{med['trace.overhead_s']:+.4f} s plus the "
                  f"{med['trace.unaccounted_s']:.4f} s no span covers")
        for problem in entry["problems"]:
            print(f"{workload:<11} problem: {problem}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": cpu_model(),
    }


def baseline(table: dict) -> dict:
    return {
        workload: {
            name: {
                "unit": entry["units"][name],
                "median": statistics.median(values),
                "spread": spread(values),
                "values": values,
                "samples": entry["samples"][name],
            }
            for name, values in entry["values"].items()
        } | {"error_rate": {"unit": "ratio",
                            "value": entry["failed"] / entry["attempted"],
                            "attempted": entry["attempted"]}}
        for workload, entry in table.items()
    }


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline-out", type=Path)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    if args.baseline_out is None:
        table = collect(seeds, args.seconds, args.trace)
        print_table(table, args.trace)
        return 0
    end_to_end = collect(seeds, args.seconds, False)
    print_table(end_to_end, False)
    per_layer = collect(seeds[:1], args.seconds, True)
    print_table(per_layer, True)
    record = {
        "environment": environment(),
        "seeds": seeds,
        "run_seconds": args.seconds,
        "seed_changes_inputs": {w: WORKLOADS[w].seed_changes_inputs for w in WORKLOADS},
        "end_to_end": baseline(end_to_end),
        "per_layer": baseline(per_layer),
    }
    args.baseline_out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
