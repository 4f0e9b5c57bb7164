"""Self-test of the benchmark: its checks must fail wrong results.

    python3 perfbench/selftest.py

Run from the source tree root; it takes about a minute. It checks that

1. ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
   measures, with the same units and reasons;
2. each workload's real outputs pass its check, and the same outputs with one
   deliberate fault (a wrong ball size, a wrong set size, a nonzero violation
   count, a shifted orbit mean) make the run count as failed;
3. a child exiting 3 (a real budget exhaustion) or 4 counts as failed;
4. ``run.py`` in a directory holding only ``BENCHMARK.json`` and the benchmark
   exits non-zero without printing a result.

Exit code 0 means every check held.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAILURES: list = []


def expect(ok: bool, message: str):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        FAILURES.append(message)


def edit_json(path: Path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def edit_lines(path: Path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def drop_last_row(outs):
    edit_lines(outs[0] / "qi_r14.csv", lambda lines: lines[:-1])


def wrong_set_size(outs):
    edit_lines(outs[0] / "growth.csv",
               lambda lines: [line.replace(",207623,", ",207622,") for line in lines])


def one_violation(outs):
    def edit(lines):
        head, first, rest = lines[0], lines[1], lines[2:]
        return [head, first.rstrip("\n")[:-1] + "1\n", *rest]
    edit_lines(outs[0] / "box_checks.csv", edit)


def shifted_orbit_mean(outs):
    edit_json(outs[0] / "summary.json",
              lambda d: d["verdicts"].__setitem__("orbit_mean",
                                                  d["verdicts"]["orbit_mean"] + 0.01))


CORRUPTIONS = {
    "oracle": ("one row missing from the radius-14 ball", drop_last_row),
    "growth": ("one wrong set size", wrong_set_size),
    "box-lemmas": ("one nonzero violation count", one_violation),
    "birkhoff": ("orbit mean shifted by 0.01", shifted_orbit_mean),
}


def new_bench(root: Path, name: str) -> run.Bench:
    return run.Bench(root, name, 1, time.monotonic() + run.DEADLINE_S)


def check_spec(root: Path):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json has exactly its keys")
    expect({w["name"]: w["why"] for w in spec["workloads"]}
           == {n: w.why for n, w in WORKLOADS.items()},
           "BENCHMARK.json workloads and reasons match workloads.py")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
           "end-to-end metrics match run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS,
           "per-layer metrics match run.py")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
           "every bound is in (0, 0.25]")


def check_corruptions(root: Path):
    for name, (fault, corrupt) in CORRUPTIONS.items():
        bench = new_bench(root, name)
        clean = []
        real_check = bench.workload.check

        def faulty_check(outs, real_check=real_check, corrupt=corrupt, clean=clean):
            clean.extend(real_check(outs))
            corrupt(outs)
            return real_check(outs)

        bench.workload = dataclasses.replace(bench.workload, check=faulty_check)
        try:
            bench.child("plain")
        finally:
            bench.close()
        expect(not clean, f"{name}: real outputs pass the check {clean}")
        expect((bench.attempted, bench.failed) == (1, 1),
               f"{name}: {fault} makes the run count as failed {bench.problems}")


def check_exit_codes(root: Path):
    oracle = WORKLOADS["oracle"]
    WORKLOADS["budget"] = dataclasses.replace(
        oracle, configs=({**oracle.configs[0], "budget_elements": 1000},))
    try:
        bench = new_bench(root, "budget")
        try:
            bench.child("plain")
        finally:
            bench.close()
    finally:
        del WORKLOADS["budget"]
    expect(bench.failed == 1 and "exit code 3" in bench.problems[0],
           f"a real budget exhaustion (exit 3) counts as failed {bench.problems}")
    real = run.run_process
    for code in (3, 4):
        run.run_process = lambda argv, deadline, code=code: (code, 0.0)
        bench = new_bench(root, "birkhoff")
        try:
            bench.child("plain")
        finally:
            bench.close()
            run.run_process = real
        expect(bench.failed == 1 and f"exit code {code}" in bench.problems[0],
               f"a child exiting {code} counts as failed {bench.problems}")


def check_bare_directory(root: Path):
    bare = HERE / ".runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "birkhoff",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without the source tree run.py exits {proc.returncode} with no result")


def main() -> int:
    root = Path.cwd()
    check_spec(root)
    check_exit_codes(root)
    check_bare_directory(root)
    check_corruptions(root)
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-test checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
