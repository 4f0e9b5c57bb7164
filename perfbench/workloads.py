"""The benchmark's workloads: experiment configs plus the checks on their outputs.

A workload is a list of ordinary experiment configs, written exactly as a user
would write them for ``unstretch run --config``, and run one after another in
one child process. Nothing here calls into the package, so refactoring its
internals leaves the benchmark unchanged. The checks read verdicts from
``summary.json`` by key and CSVs by column name, so an added column or verdict
does not break them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CAT_MAP = [[2, 1], [1, 1]]
# The spectral rate log((3 + sqrt 5) / 2): the exact Lyapunov exponent of the
# cat map and of every smooth conjugate of it.
CAT_MAP_EXPONENT = math.log((3 + math.sqrt(5)) / 2)

ORACLE_ENTRIES = {12: 142241, 14: 600617}
GROWTH_SET_SIZES = [3, 18, 77, 300, 1129, 4180, 15383, 56530, 207623]
GROWTH_EXACT_DIAMETERS = [2, 5, 9]
CONTROL_L1_DIAMETERS = [
    1, 5, 16, 45, 121, 320, 841, 2205, 5776, 15125, 39601, 103680, 271441,
]
BOX_ELL = [2, 3, 4, 5, 6]
BOX_H = [2, 3, 4, 5, 6]
BOX_N = [1, 2, 3]
BOX_SAMPLES = 40
BIRKHOFF_STARTS = 4
BIRKHOFF_STEPS = 10_000
# Finite-time exponents of length 10^4 sit within about 1e-5 of the exact rate.
ORBIT_MEAN_TOL = 1e-3
# The orbit and space averages must agree within this many combined standard
# errors; a normal deviate exceeds 5 with probability below 1e-6.
DISCREPANCY_SE = 5.0


def read_verdicts(outdir: Path) -> dict:
    return json.loads((outdir / "summary.json").read_text())["verdicts"]


def read_columns(path: Path, *names: str) -> list:
    """Rows of the named columns, as tuples of strings, in file order."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        missing = [n for n in names if n not in header]
        if missing:
            raise ValueError(f"{path.name} lacks columns {missing}")
        idx = [header.index(n) for n in names]
        return [tuple(row[i] for i in idx) for row in reader]


def _expect(problems: list, ok: bool, message: str):
    if not ok:
        problems.append(message)


def check_oracle(outs: list) -> list:
    (out,) = outs
    verdicts = read_verdicts(out)
    problems = []
    for r, entries in ORACLE_ENTRIES.items():
        v = verdicts["per_radius"][str(r)]
        _expect(problems, v["entries"] == entries,
                f"r{r}: entries {v['entries']} != {entries}")
        _expect(problems, v["coverage_ok"] is True, f"r{r}: coverage_ok is not true")
        _expect(problems, math.isfinite(v["q_hat"]), f"r{r}: q_hat is not finite")
        with (out / f"qi_r{r}.csv").open(newline="") as fh:
            reader = csv.reader(fh)
            col = next(reader).index("word_length")
            rows = 0
            longest = 0
            for row in reader:
                rows += 1
                longest = max(longest, int(row[col]))
        _expect(problems, rows == entries, f"qi_r{r}.csv has {rows} rows, not {entries}")
        _expect(problems, longest == r, f"qi_r{r}.csv longest word {longest} != {r}")
    return problems


def check_growth(outs: list) -> list:
    dyn, control = outs
    problems = []
    _expect(problems, read_verdicts(dyn)["envelope"] == "certified",
            "set-dynamics envelope is not certified")
    rows = read_columns(dyn / "growth.csv", "k", "diam", "diam_is_exact", "set_size")
    sizes = [int(r[3]) for r in rows]
    _expect(problems, sizes == GROWTH_SET_SIZES, f"set sizes {sizes}")
    head = [(int(r[1]), int(r[2])) for r in rows[: len(GROWTH_EXACT_DIAMETERS)]]
    _expect(problems, head == [(d, 1) for d in GROWTH_EXACT_DIAMETERS],
            f"leading (diameter, exact) pairs {head}")
    rows = read_columns(control / "growth.csv", "diam", "diam_is_exact")
    diams = [int(r[0]) for r in rows]
    _expect(problems, diams == CONTROL_L1_DIAMETERS, f"control l1 diameters {diams}")
    _expect(problems, all(r[1] == "1" for r in rows), "control diameter not exact")
    kind = read_verdicts(control)["growth"]["kind"]
    _expect(problems, kind == "exponential", f"control verdict {kind!r}")
    return problems


def check_box_lemmas(outs: list) -> list:
    (out,) = outs
    problems = []
    violations = read_verdicts(out)["violations"]
    _expect(problems, violations == 0, f"summary reports {violations} violations")
    expected = []
    for ell in BOX_ELL:
        for h in BOX_H:
            expected.append(("u1", str(ell), str(h), ""))
            expected += [("un", str(ell), str(h), str(n)) for n in BOX_N]
            expected.append(("phi", str(ell), str(h), ""))
    rows = read_columns(out / "box_checks.csv", "check", "ell", "h", "n", "violations")
    keys = [r[:4] for r in rows]
    _expect(problems, sorted(keys) == sorted(expected),
            f"{len(keys)} rows do not match the {len(expected)} grid cells and checks")
    bad = [r[:4] for r in rows if int(r[4]) != 0]
    _expect(problems, not bad, f"rows with violations: {bad}")
    return problems


def check_birkhoff(outs: list) -> list:
    (out,) = outs
    v = read_verdicts(out)
    problems = []
    _expect(problems, abs(v["orbit_mean"] - CAT_MAP_EXPONENT) <= ORBIT_MEAN_TOL,
            f"orbit_mean {v['orbit_mean']} is not within {ORBIT_MEAN_TOL} "
            f"of {CAT_MAP_EXPONENT}")
    _expect(problems, v["discrepancy"] <= DISCREPANCY_SE * v["combined_se"],
            f"discrepancy {v['discrepancy']} exceeds {DISCREPANCY_SE} x "
            f"combined_se {v['combined_se']}")
    _expect(problems, (v["x_count"], v["n"]) == (BIRKHOFF_STARTS, BIRKHOFF_STEPS),
            f"ran {v['x_count']} starts of {v['n']} steps")
    return problems


@dataclass(frozen=True)
class Workload:
    why: str
    configs: tuple
    # False when the configs use no randomness, so every seed does the same work.
    seed_changes_inputs: bool
    check: Callable[[list], list]


WORKLOADS = {
    "oracle": Workload(
        why="qi-compare to radius 14: dict BFS oracle build, a full table scan "
            "and 31 MB of CSV; the packed oracle must show here in time and memory",
        configs=({
            "experiment": "qi-compare",
            "matrix": CAT_MAP,
            "qi_radii": sorted(ORACLE_ENTRIES),
            "bfs_radius": max(ORACLE_ENTRIES),
        },),
        seed_changes_inputs=False,
        check=check_oracle,
    ),
    "growth": Workload(
        why="set-dynamics to k=8 then abelian-control to k=12: few huge "
            "neighborhoods, automorphisms, envelope bounds and oracle lookups",
        configs=({
            "experiment": "set-dynamics",
            "matrix": CAT_MAP,
            "automorphism": {"b": CAT_MAP, "v": [0, 0], "e": 1},
            "neighborhood_n": 1,
            "a0": [[[0, 0], 0], [[0, 0], 1], [[1, 0], 0]],
            "k_max": len(GROWTH_SET_SIZES) - 1,
            "bfs_radius": 12,
        }, {
            "experiment": "abelian-control",
            "matrix": CAT_MAP,
            "neighborhood_n": 1,
            "control_a0": [[0, 0], [1, 0]],
            "k_max": len(CONTROL_L1_DIAMETERS) - 1,
        }),
        seed_changes_inputs=False,
        check=check_growth,
    ),
    "box-lemmas": Workload(
        why="sampled box inclusions: tens of thousands of tiny neighborhoods "
            "and small-bound membership tests, and no oracle",
        configs=({
            "experiment": "box-lemmas",
            "matrix": CAT_MAP,
            "automorphism": {"b": CAT_MAP, "v": [1, 0], "e": 1},
            "box_ell_values": BOX_ELL,
            "box_h_values": BOX_H,
            "box_n_values": BOX_N,
            "box_samples": BOX_SAMPLES,
        },),
        seed_changes_inputs=True,
        check=check_box_lemmas,
    ),
    "birkhoff": Workload(
        why="shear-conjugated Birkhoff averages: the only float Lyapunov loop, "
            "untouched by every exact-arithmetic change",
        configs=({
            "experiment": "birkhoff",
            "matrix": CAT_MAP,
            "map_kind": "shear_conjugated",
            "shear_coefficients": [0.05],
            "direction": "unstable",
            "birkhoff_starts": BIRKHOFF_STARTS,
            "birkhoff_steps": BIRKHOFF_STEPS,
        },),
        seed_changes_inputs=True,
        check=check_birkhoff,
    ),
}
