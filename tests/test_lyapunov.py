import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from unstretch import ToralMatrix, ValidationError, lyapunov
from unstretch.cli import main as cli_main
from unstretch.lyapunov import (
    DirectionField,
    birkhoff_consistency,
    center_integral,
    eigen_direction,
    finite_time_exponent,
    finite_time_exponents,
    linear_toral,
    orbits,
    shear_conjugated,
    shear_conjugated_eigen,
    stable_step_limit,
    suspension_time_one,
    toy_system,
)

from conftest import CAT, D3_REAL

LOG_LAM = math.log((3 + math.sqrt(5)) / 2)
SHEAR = [0.05]


# The scalar reference: the tuple-and-closure maps and per-point loops that
# the array kernel replaced. Each lane of the kernel must reproduce their
# orbit points bit for bit, and their exponents to 1e-12 relative (the kernel
# pushes a direction as L (A (R u)) where the reference forms (L A R) u, and
# np.log may differ from math.log in the last bit).


def _matvec_f(rows, v):
    return tuple(sum(r[i] * v[i] for i in range(len(v))) for r in rows)


def _matmul_f(a, b):
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(ar[i] * bc[i] for i in range(len(ar))) for bc in cols) for ar in a
    )


def _norm(v):
    return math.sqrt(sum(c * c for c in v))


def _shear_funcs(coefficients):
    cs = [float(c) for c in coefficients]

    def s(y):
        return sum(
            c * math.sin(2.0 * math.pi * (j + 1) * y) / (2.0 * math.pi * (j + 1))
            for j, c in enumerate(cs)
        )

    def ds(y):
        return sum(c * math.cos(2.0 * math.pi * (j + 1) * y) for j, c in enumerate(cs))

    return s, ds


def reference_map(kind, entries, coefficients=()):
    """(step, differential) of the scalar tuple map of one kind."""
    d = len(entries)
    rows = tuple(tuple(float(v) for v in r) for r in entries)
    if kind == "linear_toral":
        return (lambda x: tuple(c % 1.0 for c in _matvec_f(rows, x))), (lambda x: rows)
    if kind == "suspension_time_one":
        big = tuple(
            tuple(rows[r][c] if r < d and c < d else float(r == c) for c in range(d + 1))
            for r in range(d + 1)
        )

        def step(p):
            return tuple(c % 1.0 for c in _matvec_f(rows, p[:d])) + (p[d],)

        return step, (lambda p: big)
    s, ds = _shear_funcs(coefficients)

    def h_inv(p):
        return (p[0] - s(p[d - 1]),) + tuple(p[1:])

    def shear_jac(y_last, sign):
        rows_j = []
        for r in range(d):
            row = [float(r == c) for c in range(d)]
            if r == 0:
                row[d - 1] += sign * ds(y_last)
            rows_j.append(tuple(row))
        return tuple(rows_j)

    def step(p):
        w = tuple(c % 1.0 for c in _matvec_f(rows, h_inv(p)))
        return tuple(c % 1.0 for c in (w[0] + s(w[d - 1]),) + tuple(w[1:]))

    def differential(p):
        w = tuple(c % 1.0 for c in _matvec_f(rows, h_inv(p)))
        left = shear_jac(w[d - 1], +1.0)
        right = shear_jac(p[d - 1], -1.0)
        return _matmul_f(_matmul_f(left, rows), right)

    return step, differential


def reference_exponent(step, differential, field, x0, n):
    """The per-step scalar loop; returns the exponent, the final point and
    the final unit direction."""
    x = tuple(float(c) for c in x0)
    u = tuple(field.at(np.array([x]))[0].tolist())
    total = 0.0
    for _ in range(n):
        w = _matvec_f(differential(x), u)
        norm_w = _norm(w)
        total += math.log(norm_w)
        u = tuple(c / norm_w for c in w)
        x = step(x)
    return total / n, x, u


def reference_center_values(differential, field, pts):
    return np.array([
        math.log(_norm(_matvec_f(differential(tuple(p)), tuple(u))))
        for p, u in zip(pts, field.at(pts))
    ])


def volume_residuals(toy_map, n_points, rng):
    """Max |det of the differential - 1| over random points; column j of each
    Jacobian is the push of the unit vector e_j."""
    d = toy_map.dim
    pts = rng.random((n_points, d)).T
    columns = [
        toy_map.lanes(*pts, *np.broadcast_to(e[:, None], pts.shape), 1.0)[d:2 * d]
        for e in np.eye(d)
    ]
    # columns[j][i] is row i of the pushed e_j: entry (i, j) of each Jacobian
    dets = np.linalg.det(np.transpose(columns, (2, 1, 0)))
    return float(np.abs(dets - 1.0).max())


# Rows with three nonzero entries, so the order of a row's sum shows in its
# bits; eigenvalues -1.802, 1.247, -0.445.
D3_DENSE = ((-1, -1, 2), (0, 0, -1), (1, 0, 0))
CASES = [
    ("linear_toral", CAT, ()),
    ("linear_toral", D3_REAL, ()),
    ("linear_toral", D3_DENSE, ()),
    ("suspension_time_one", CAT, ()),
    ("suspension_time_one", D3_REAL, ()),
    ("shear_conjugated", CAT, (0.05,)),
    ("shear_conjugated", CAT, (0.05, -0.03)),
    ("shear_conjugated", D3_REAL, (0.04, 0.02)),
    ("shear_conjugated", D3_DENSE, (0.03,)),
]


def case_map(kind, entries, coefficients):
    """The array map and its unstable field for one case."""
    return toy_system(ToralMatrix(entries), kind, "unstable", coefficients)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def test_unstable_exponent_is_constant(cat_matrix):
    toy = linear_toral(cat_matrix)
    fld = eigen_direction(cat_matrix, "unstable")
    for n in (1, 10, 1000):
        val = finite_time_exponent(toy, fld, (0.2, 0.7), n)
        assert abs(val - LOG_LAM) < 1e-9


def test_stable_exponent_short_run(cat_matrix):
    # forward pushing along the stable line is float-repelling, so only short
    # cocycles stay on the line; the long-run value is tested via reversal.
    toy = linear_toral(cat_matrix)
    fld = eigen_direction(cat_matrix, "stable")
    val = finite_time_exponent(toy, fld, (0.2, 0.7), 10)
    assert abs(val + LOG_LAM) < 1e-6


def test_stable_step_limit(cat_matrix):
    # 2^-52 * 6.854^11 = 3.5e-7 <= 1e-6 < 2^-52 * 6.854^12 = 2.4e-6; equal moduli
    # give the off-line drift no growth, hence no limit.
    assert stable_step_limit(cat_matrix) == 11
    assert stable_step_limit(ToralMatrix([[1, 1], [0, 1]])) == math.inf


def test_time_reversal_identity(cat_matrix):
    # Pushing n steps forward then n steps backward along the image direction
    # gives opposite exponents (telescoping product). Backward pushing along
    # the expanding line is float-repelling, so the horizon stays short of
    # the ~19-step contamination crossover.
    toy = linear_toral(cat_matrix)
    inv = linear_toral(ToralMatrix(cat_matrix.inverse_entries))
    fld = eigen_direction(cat_matrix, "unstable")
    n = 12
    step, differential = reference_map("linear_toral", CAT)
    _, x_end, u_end = reference_exponent(step, differential, fld, (0.3, 0.4), n)
    fwd = finite_time_exponent(toy, fld, (0.3, 0.4), n)
    back = finite_time_exponent(inv, DirectionField.constant(u_end), x_end, n)
    assert abs(fwd + back) < 1e-6


def test_flow_direction_is_neutral(cat_matrix):
    toy, fld = toy_system(cat_matrix, "suspension_time_one", "flow", ())
    for n in (1, 50, 1000):
        assert abs(finite_time_exponent(toy, fld, (0.1, 0.9, 0.4), n)) < 1e-9


def test_suspension_unstable_matches_base(cat_matrix):
    toy, fld = toy_system(cat_matrix, "suspension_time_one", "unstable", ())
    assert abs(finite_time_exponent(toy, fld, (0.2, 0.5, 0.8), 200) - LOG_LAM) < 1e-9


def test_cocycle_additivity(cat_matrix):
    toy = shear_conjugated(cat_matrix, SHEAR)
    fld = shear_conjugated_eigen(cat_matrix, SHEAR, "unstable")
    x0 = (0.37, 0.58)
    n, m = 40, 25
    step, differential = reference_map("shear_conjugated", CAT, SHEAR)
    _, x_mid, u_mid = reference_exponent(step, differential, fld, x0, n)
    total = finite_time_exponent(toy, fld, x0, n + m)
    first = finite_time_exponent(toy, fld, x0, n)
    second = finite_time_exponent(toy, DirectionField.constant(u_mid), x_mid, m)
    assert abs((n + m) * total - (n * first + m * second)) < 1e-10


def test_degenerate_direction_rejected(cat_matrix):
    toy = linear_toral(cat_matrix)
    bad = DirectionField(lambda p: (0.0, 0.0))
    with pytest.raises(ValidationError):
        finite_time_exponent(toy, bad, (0.1, 0.1), 5)


def test_orbit_length_guard(cat_matrix):
    toy = linear_toral(cat_matrix)
    fld = eigen_direction(cat_matrix, "unstable")
    with pytest.raises(ValidationError):
        finite_time_exponent(toy, fld, (0.1, 0.1), 0)


def test_center_integral_constant_field(cat_matrix):
    rng = np.random.default_rng(51)
    toy = linear_toral(cat_matrix)
    est = center_integral(toy, eigen_direction(cat_matrix, "unstable"), 2000, rng)
    assert abs(est.value - LOG_LAM) < 1e-12
    assert est.half_width < 1e-12


def test_center_integral_flow_direction(cat_matrix):
    rng = np.random.default_rng(52)
    toy, fld = toy_system(cat_matrix, "suspension_time_one", "flow", ())
    est = center_integral(toy, fld, 1500, rng)
    assert est.value == 0.0 and est.half_width == 0.0


def test_center_integral_sample_guard(cat_matrix):
    rng = np.random.default_rng(53)
    toy = linear_toral(cat_matrix)
    with pytest.raises(ValidationError):
        center_integral(toy, eigen_direction(cat_matrix, "unstable"), 10, rng)


def test_shear_field_is_invariant(cat_matrix):
    toy = shear_conjugated(cat_matrix, SHEAR)
    fld = shear_conjugated_eigen(cat_matrix, SHEAR, "unstable")
    rng = np.random.default_rng(54)
    xs = rng.random((50, 2))
    out = toy.lanes(*xs.T, *fld.at(xs).T, 1.0)
    targets = fld.at(np.transpose(out[:2]))
    for p, target in zip(np.transpose(out[2:4]), targets):
        p = p / np.linalg.norm(p)
        assert min(np.linalg.norm(p - target),
                   np.linalg.norm(p + target)) < 1e-10


def test_volume_preservation_all_kinds(cat_matrix):
    rng = np.random.default_rng(55)
    for toy in (
        linear_toral(cat_matrix),
        suspension_time_one(cat_matrix),
        shear_conjugated(cat_matrix, SHEAR),
    ):
        assert volume_residuals(toy, 1000, rng) <= 1e-10


def test_birkhoff_consistency_linear(cat_matrix):
    # constant cocycle: both sides equal the eigenvalue log exactly
    rng = np.random.default_rng(56)
    toy = linear_toral(cat_matrix)
    rep = birkhoff_consistency(toy, eigen_direction(cat_matrix, "unstable"), 10, 500, rng)
    assert rep.discrepancy < 1e-12


def test_birkhoff_consistency_flow_direction(cat_matrix):
    # along the flow both the orbit averages and the space average vanish
    rng = np.random.default_rng(59)
    toy, fld = toy_system(cat_matrix, "suspension_time_one", "flow", ())
    rep = birkhoff_consistency(toy, fld, 5, 400, rng)
    assert rep.orbit_mean == 0.0 and rep.space_value == 0.0
    assert rep.discrepancy == 0.0 and rep.combined_se == 0.0


def test_birkhoff_consistency_sheared(cat_matrix):
    rng = np.random.default_rng(57)
    toy = shear_conjugated(cat_matrix, SHEAR)
    fld = shear_conjugated_eigen(cat_matrix, SHEAR, "unstable")
    rep = birkhoff_consistency(toy, fld, 40, 2000, rng)
    assert abs(rep.orbit_mean - LOG_LAM) < 0.01
    assert rep.discrepancy <= 3.0 * rep.combined_se + 1e-12


@pytest.mark.parametrize("kind,entries,coefficients", CASES)
def test_orbit_points_bit_equal_to_scalar_path(kind, entries, coefficients):
    toy, fld = case_map(kind, entries, coefficients)
    step, _ = reference_map(kind, entries, coefficients)
    starts = np.random.default_rng(60).random((3, toy.dim))
    for start, path in zip(starts, orbits(toy, starts, 1001)):
        x = tuple(start)
        scalar = []
        for _ in range(1001):
            scalar.append(x)
            x = step(x)
        assert np.array_equal(bits(path), bits(scalar))


@pytest.mark.parametrize("kind,entries,coefficients", CASES)
def test_exponents_match_scalar_path(kind, entries, coefficients):
    toy, fld = case_map(kind, entries, coefficients)
    step, differential = reference_map(kind, entries, coefficients)
    starts = np.random.default_rng(61).random((3, toy.dim))
    values = finite_time_exponents(toy, fld, starts, 1000)
    for start, value in zip(starts, values):
        expected, _, _ = reference_exponent(step, differential, fld, start, 1000)
        assert abs(value - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("kind,entries,coefficients", CASES)
def test_lockstep_lanes_equal_single_runs(kind, entries, coefficients, monkeypatch):
    toy, fld = case_map(kind, entries, coefficients)
    starts = np.random.default_rng(62).random((7, toy.dim))
    values = finite_time_exponents(toy, fld, starts, 300)
    ends = [path[-1] for path in orbits(toy, starts, 301)]
    for i, start in enumerate(starts):
        assert finite_time_exponent(toy, fld, tuple(start), 300) == values[i]
        (alone,) = orbits(toy, starts[i:i + 1], 301)
        assert np.array_equal(bits(alone[-1]), bits(ends[i]))
    monkeypatch.setattr(lyapunov, "BLOCK", 3)
    assert np.array_equal(bits(finite_time_exponents(toy, fld, starts, 300)), bits(values))
    blocked = [path[-1] for path in orbits(toy, starts, 301)]
    assert np.array_equal(bits(blocked), bits(ends))


@pytest.mark.parametrize("kind,entries,coefficients", CASES)
def test_orbits_raise_no_floating_point_exception(kind, entries, coefficients):
    # the origin is a fixed point whose pushed vector has length 0, so a step
    # that divided by the previous length would give 0/0
    toy, _ = case_map(kind, entries, coefficients)
    starts = np.random.default_rng(67).random((4, toy.dim))
    starts[0] = 0.0
    with np.errstate(all="raise"):
        paths = list(orbits(toy, starts, 100))
    assert not paths[0].any()


@pytest.mark.parametrize("kind,entries,coefficients", CASES)
def test_center_integral_matches_scalar_path(kind, entries, coefficients, monkeypatch):
    toy, fld = case_map(kind, entries, coefficients)
    _, differential = reference_map(kind, entries, coefficients)
    est = center_integral(toy, fld, 2500, np.random.default_rng(63))
    pts = np.random.default_rng(63).random((2500, toy.dim))
    values = reference_center_values(differential, fld, pts)
    assert abs(est.value - values.mean()) <= 1e-12 * abs(values.mean())
    # a constant integrand has a half width of rounding noise on both paths
    expected_hw = values.std(ddof=1) / math.sqrt(2500)
    assert abs(est.half_width - expected_hw) <= 1e-12 * (expected_hw + abs(values.mean()))
    monkeypatch.setattr(lyapunov, "BLOCK", 7)
    assert center_integral(toy, fld, 2500, np.random.default_rng(63)) == est


# FLOAT_LANES values that send every block down one path.
PATHS = {"lanes": 0, "floats": lyapunov.BLOCK + 1}


@pytest.mark.parametrize("kind,entries,coefficients", CASES)
def test_float_and_lane_paths_are_bit_equal(kind, entries, coefficients, monkeypatch):
    toy, fld = case_map(kind, entries, coefficients)
    starts = np.random.default_rng(66).random((5, toy.dim))
    exponents = {}
    for path, float_lanes in PATHS.items():
        monkeypatch.setattr(lyapunov, "FLOAT_LANES", float_lanes)
        exponents[path] = bits(finite_time_exponents(toy, fld, starts, 200))
    assert np.array_equal(exponents["lanes"], exponents["floats"])
    # the state after 200 steps: the point, the pushed vector and its length
    dirs = fld.at(starts)
    lanes = (*starts.T, *dirs.T, 1.0)
    floats = [(*x, *u, 1.0) for x, u in zip(starts.tolist(), dirs.tolist())]
    for _ in range(200):
        lanes = toy.lanes(*lanes)
        floats = [toy.floats(*state) for state in floats]
    assert np.array_equal(bits(np.array(lanes).T), bits(np.array(floats)))


def test_one_degenerate_lane_is_rejected(cat_matrix, monkeypatch):
    toy = linear_toral(cat_matrix)
    unit = eigen_direction(cat_matrix, "unstable").at(np.zeros((1, 2)))[0]
    starts = np.array([[0.1, 0.2], [0.3, 0.9], [0.7, 0.4]])
    # zero, or NaN, exactly on the last start's half of the square
    for bad in (0.0, math.nan):
        fld = DirectionField(lambda p: np.where(p[:, :1] < 0.5, 1.0, bad) * unit)
        for float_lanes in PATHS.values():
            monkeypatch.setattr(lyapunov, "FLOAT_LANES", float_lanes)
            finite_time_exponents(toy, fld, starts[:2], 5)
            with pytest.raises(ValidationError, match="degenerate vector"):
                finite_time_exponents(toy, fld, starts, 5)
        with pytest.raises(ValidationError, match="degenerate vector"):
            center_integral(toy, fld, 1000, np.random.default_rng(64))


def _collapse_at_origin(step, where):
    """``step`` with the pushed vector and its length c replaced by
    ``where(at_origin, c)`` on a 2-d map."""

    def broken(*state):
        out = step(*state)
        at_origin = (state[0] == 0.0) & (state[1] == 0.0)
        return out[:2] + tuple(where(at_origin, c) for c in out[2:])

    return broken


def test_one_collapsed_lane_is_rejected(cat_matrix, monkeypatch):
    # the lane started at the origin loses its vector at every step, to a
    # zero (which the float path then divides by) or to NaN
    toy = linear_toral(cat_matrix)
    fld = eigen_direction(cat_matrix, "unstable")
    starts = np.random.default_rng(65).random((4, 2))
    starts[-1] = 0.0
    for bad in (0.0, math.nan):
        broken = dataclasses.replace(
            toy,
            lanes=_collapse_at_origin(toy.lanes, lambda at, c: np.where(at, bad, c)),
            floats=_collapse_at_origin(toy.floats, lambda at, c: bad if at else c),
        )
        for float_lanes in PATHS.values():
            monkeypatch.setattr(lyapunov, "FLOAT_LANES", float_lanes)
            finite_time_exponents(broken, fld, starts[:-1], 3)
            for n in (1, 3, 70):
                with pytest.raises(ValidationError, match="cocycle collapsed"):
                    finite_time_exponents(broken, fld, starts, n)


def test_shear_coefficients_must_be_finite(cat_matrix):
    for bad in (math.inf, -math.inf, math.nan):
        for build in (shear_conjugated, shear_conjugated_eigen):
            with pytest.raises(ValidationError, match="finite"):
                build(cat_matrix, [0.05, bad])


def test_initial_direction_is_normalised(cat_matrix):
    toy = shear_conjugated(cat_matrix, SHEAR)
    unit = finite_time_exponent(toy, DirectionField.constant((1.0, 0.0)), (0.3, 0.6), 50)
    double = finite_time_exponent(toy, DirectionField.constant((2.0, 0.0)), (0.3, 0.6), 50)
    assert double == unit


def test_starts_must_match_the_map_dimension(cat_matrix):
    toy = linear_toral(cat_matrix)
    fld = eigen_direction(cat_matrix, "unstable")
    with pytest.raises(ValidationError):
        finite_time_exponents(toy, fld, np.zeros((2, 3)), 5)


def test_starts_must_be_finite(cat_matrix):
    # an infinite coordinate would raise ValueError in math.sin on floats and
    # run on as NaN on lanes
    toy, fld = toy_system(cat_matrix, "shear_conjugated", "unstable", SHEAR)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="finite"):
            finite_time_exponents(toy, fld, [[0.1, 0.2], [bad, 0.3]], 5)


def test_shear_dump_orbit_equals_scalar_replay(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "lyap.json"
    cfg.write_text(json.dumps({
        "experiment": "lyapunov", "matrix": CAT, "map_kind": "shear_conjugated",
        "shear_coefficients": [0.05, -0.03], "direction": "unstable",
        "orbit_steps": 400, "orbit_starts": 3, "dump_orbit": True,
        "seed": 11, "output_dir": str(out),
    }))
    assert cli_main(["run", "--config", str(cfg)]) == 0
    step, _ = reference_map("shear_conjugated", CAT, (0.05, -0.03))
    starts = np.random.default_rng(11).random((3, 2))
    expected = tmp_path / "expected.csv"
    with expected.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start", "step", "x0", "x1"])
        for i, start in enumerate(starts):
            x = tuple(start)
            for t in range(400):
                writer.writerow([i, t] + [repr(float(c)) for c in x])
                x = step(x)
    assert (out / "orbits.csv").read_bytes() == expected.read_bytes()


# The birkhoff benchmark's summary: 4 shear starts of 10,000 steps, which run
# on the one-lane float path, at seeds 1 and 7. The counts are pinned
# exactly, the floats to a relative tolerance: np.log, np.sin and numpy's
# reductions may round differently in the last bit on another CPU or numpy
# release, and the standard errors and the discrepancy are small differences
# of nearly equal numbers, which amplify that. Bit stability between the two
# paths is test_float_and_lane_paths_are_bit_equal's.
BIRKHOFF_WORKLOAD_VERDICTS = {
    1: {
        "orbit_mean": 0.962424306929754, "orbit_se": 1.147540831242745e-06,
        "space_value": 0.9624105963162674, "space_se": 0.00022334039812000396,
        "discrepancy": 1.371061348665048e-05, "combined_se": 0.00022334334617884016,
        "x_count": 4, "n": 10000,
    },
    7: {
        "orbit_mean": 0.9624229728561414, "orbit_se": 1.17654332930356e-06,
        "space_value": 0.9625246521967965, "space_se": 0.00022032681903039273,
        "discrepancy": 0.00010167934065508089, "combined_se": 0.00022032996037365675,
        "x_count": 4, "n": 10000,
    },
}


BIRKHOFF_WORKLOAD_TOLERANCES = {
    "orbit_mean": 1e-12, "space_value": 1e-12,
    "orbit_se": 1e-9, "space_se": 1e-9, "discrepancy": 1e-9, "combined_se": 1e-9,
}


@pytest.mark.parametrize("seed", sorted(BIRKHOFF_WORKLOAD_VERDICTS))
def test_birkhoff_workload_summary(tmp_path, seed):
    cfg = tmp_path / "birkhoff.json"
    cfg.write_text(json.dumps({
        "experiment": "birkhoff", "matrix": CAT, "map_kind": "shear_conjugated",
        "shear_coefficients": [0.05], "direction": "unstable",
        "birkhoff_starts": 4, "birkhoff_steps": 10_000,
    }))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--seed", str(seed),
                     "--output-dir", str(out)]) == 0
    verdicts = json.loads((out / "summary.json").read_text())["verdicts"]
    expected = BIRKHOFF_WORKLOAD_VERDICTS[seed]
    assert verdicts.keys() == expected.keys()
    assert (verdicts["x_count"], verdicts["n"]) == (expected["x_count"], expected["n"])
    for name, rel in BIRKHOFF_WORKLOAD_TOLERANCES.items():
        assert verdicts[name] == pytest.approx(expected[name], rel=rel, abs=0), name
