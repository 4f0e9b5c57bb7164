import math
from typing import NamedTuple

import numpy as np
import pytest

from unstretch import packed
from unstretch import (
    GroupElement,
    HyperbolicSplitting,
    ToralMatrix,
    ValidationError,
    compute_splitting,
    lattice_element,
    log_distance_bounds,
    qi_comparison,
)
from unstretch.suspension import _projected_norms, line_fit, qi_report

import fit_sweep
from conftest import D3_COMPLEX, D3_REAL, D4_BLOCK

LOG_LAM = math.log((3 + math.sqrt(5)) / 2)


class CoverPoint(NamedTuple):
    """A point (x, s) of the universal cover R^d x R."""

    x: tuple
    s: float


def embed(g: GroupElement) -> CoverPoint:
    """The standard embedding of the group into the cover: x * z^k -> (x, k)."""
    return CoverPoint(tuple(float(v) for v in g.x), float(g.k))


def oracle_columns(oracle):
    """Coordinate rows (dim, n), exponents and lengths of every oracle entry
    as int64 arrays, in the oracle's order: the whole-table unpack that
    ``qi_comparison`` does block by block."""
    xs, ks = oracle.layout.unpack(oracle.keys)
    lengths = np.repeat(np.arange(len(oracle.sphere_sizes)), oracle.sphere_sizes)
    return xs, ks, lengths


def log_distance_bound(split: HyperbolicSplitting, point: CoverPoint) -> float:
    """The bound of ``log_distance_bounds`` for one point."""
    return float(log_distance_bounds(split, [[c] for c in point.x], [point.s])[0])


def test_splitting_cat(cat_matrix):
    split = compute_splitting(cat_matrix)
    assert abs(split.sigma - (LOG_LAM - 1e-6)) < 1e-9
    assert split.stable_basis.shape == (2, 1)
    assert split.unstable_basis.shape == (2, 1)
    res = split.residuals(cat_matrix)
    assert res["projection_sum"] < 1e-9
    assert res["stable_invariance"] < 1e-9


def test_splitting_block_matrix_matches_cat(cat_matrix):
    split2 = compute_splitting(cat_matrix)
    split4 = compute_splitting(ToralMatrix(D4_BLOCK))
    assert abs(split4.sigma - split2.sigma) < 1e-12
    assert split4.stable_basis.shape == (4, 2)


def test_splitting_complex_pair():
    m = ToralMatrix(D3_COMPLEX)
    split = compute_splitting(m)
    # one real expanding direction, a complex contracting pair
    assert split.unstable_basis.shape == (3, 1)
    assert split.stable_basis.shape == (3, 2)
    mods = sorted(abs(ev) for ev in m.eigenvalues)
    # the complex pair is the slow rate: sigma = |log 0.8689| - margin
    assert abs(split.sigma - (-math.log(mods[0]) - 1e-6)) < 1e-9
    res = split.residuals(m)
    assert res["projection_sum"] < 1e-8


def test_splitting_rejects_non_hyperbolic():
    with pytest.raises(ValidationError):
        compute_splitting(ToralMatrix([[0, 1], [-1, 0]]))


def test_contraction_certificate(cat_matrix):
    # Random unit vectors in the stable space contract at rate sigma. The
    # horizon is capped at t = 15: a float64 stable vector carries ~1e-16 of
    # unstable contamination, which the dynamics amplifies past the 1% slack
    # near t = 19 for these matrices, whatever the implementation.
    rng = np.random.default_rng(41)
    for m in (cat_matrix, ToralMatrix(D4_BLOCK), ToralMatrix(D3_REAL)):
        split = compute_splitting(m)
        a = m.as_array()
        dim_s = split.stable_basis.shape[1]
        for _ in range(100):
            coeffs = rng.normal(size=dim_s)
            u = split.stable_basis @ coeffs
            u = u / np.linalg.norm(u)
            w = u
            for t in range(1, 16):
                w = a @ w
                assert np.linalg.norm(w) <= math.exp(-split.sigma * t) * 1.01


def test_expansion_certificate_on_basis(cat_matrix):
    split = compute_splitting(cat_matrix)
    a_inv = np.linalg.inv(cat_matrix.as_array())
    for col in range(split.unstable_basis.shape[1]):
        u = split.unstable_basis[:, col]
        u = u / np.linalg.norm(u)
        assert np.linalg.norm(a_inv @ u) <= math.exp(-split.sigma) * (1 + 1e-9)


def test_bound_at_origin(cat_matrix):
    split = compute_splitting(cat_matrix)
    assert log_distance_bound(split, CoverPoint((0.0, 0.0), 0.0)) == 2.0


def test_bound_on_stable_leaf(cat_matrix):
    split = compute_splitting(cat_matrix)
    u = split.stable_basis[:, 0]
    u = u / np.linalg.norm(u)
    x = tuple(math.exp(split.sigma) * c for c in u)
    val = log_distance_bound(split, CoverPoint(x, 0.0))
    assert abs(val - 4.0) < 1e-6  # (2/sigma) * sigma + 2


def test_bound_doubling_rule(cat_matrix):
    split = compute_splitting(cat_matrix)
    u = split.unstable_basis[:, 0]
    u = u / np.linalg.norm(u)
    p1 = CoverPoint(tuple(3.0 * c for c in u), 0.0)
    p2 = CoverPoint(tuple(6.0 * c for c in u), 0.0)
    delta = log_distance_bound(split, p2) - log_distance_bound(split, p1)
    assert abs(delta - (2.0 / split.sigma) * math.log(2.0)) < 1e-9


def test_bound_monotone_in_flow_coordinate(cat_matrix):
    split = compute_splitting(cat_matrix)
    vals = [log_distance_bound(split, CoverPoint((5.0, 1.0), s)) for s in (0, 1, 2.5)]
    assert vals == sorted(vals)
    assert abs(vals[2] - vals[0] - 2.5) < 1e-12


def test_embed(ctx):
    g = lattice_element([3, -1])
    assert embed(g) == CoverPoint((3.0, -1.0), 0.0)
    assert embed(ctx.z) == CoverPoint((0.0, 0.0), 1.0)


def test_qi_comparison_small(cat_matrix, oracle6):
    split = compute_splitting(cat_matrix)
    rep = qi_comparison(oracle6, split)
    assert rep.n_entries == len(oracle6)
    assert rep.coverage_ok
    assert 0 < rep.q_hat < 5
    assert rep.max_ratio <= rep.q_hat
    # the bound must dominate length / q_hat - 1 on every entry
    assert (rep.lengths <= rep.q_hat * rep.bounds + rep.q_hat).all()


def test_qi_comparison_radius_guard(cat_matrix, ctx, gens):
    from unstretch import word_ball

    split = compute_splitting(cat_matrix)
    with pytest.raises(ValidationError):
        qi_comparison(word_ball(ctx, gens, 4), split)


def test_scalar_and_array_bounds_agree_exactly(cat_matrix, oracle6):
    split = compute_splitting(cat_matrix)
    xs, ks, _ = oracle_columns(oracle6)
    bounds = log_distance_bounds(split, xs, ks)
    scalar = [log_distance_bound(split, embed(g)) for g in oracle6.elements()]
    assert bounds.tolist() == scalar
    # a batch's rows do not depend on the batch around them
    assert log_distance_bounds(split, xs[:, :7], ks[:7]).tolist() == scalar[:7]


def test_blockwise_bounds_are_bit_identical(cat_matrix, oracle8, monkeypatch):
    split = compute_splitting(cat_matrix)
    xs, ks, lengths = oracle_columns(oracle8)
    whole = log_distance_bounds(split, xs, ks)
    # 64-row blocks put block edges inside the ball, whose size is odd.
    monkeypatch.setattr(packed, "BLOCK_KEYS", 64)
    assert len(oracle8) % 2 == 1 and len(oracle8) > 100 * 64
    top = qi_comparison(oracle8, split)
    assert np.array_equal(top.bounds.view(np.int64), whole.view(np.int64))
    assert np.array_equal(top.lengths, lengths.astype(float))
    assert top.lengths.dtype == np.uint8
    for r in (6, 7):
        n = oracle8.ball_size(r)
        rep = qi_comparison(oracle8.restricted(r), split)
        assert np.array_equal(rep.bounds.view(np.int64), top.bounds[:n].view(np.int64))


def test_uint8_lengths_give_the_float64_report(cat_matrix, oracle8):
    top = qi_comparison(oracle8, compute_splitting(cat_matrix))
    wide = qi_report(top.radius, top.lengths.astype(float), top.bounds)
    fields = lambda rep: (rep.q_hat, rep.fitted_slope, rep.intercept, rep.max_ratio,
                          rep.coverage_ok, rep.n_entries)
    assert fields(top) == fields(wide)
    ratios = [rep.lengths / rep.bounds for rep in (top, wide)]
    assert np.array_equal(*(r.view(np.int64) for r in ratios))


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_line_fit_is_polyfit_bit_for_bit(cat_matrix, oracle8):
    rep = qi_comparison(oracle8, compute_splitting(cat_matrix))
    datasets = [(rep.bounds, rep.lengths)]
    rng = np.random.default_rng(25)
    for n in rng.integers(2, 5000, 40).tolist():
        x = 2.0 + rng.random(n) * 10.0 ** rng.integers(0, 3)
        y = (rng.random() * x + rng.normal(size=n)).clip(0, 255).astype(np.uint8)
        datasets.append((x, y))
    for x, y in datasets:
        assert bits(line_fit(x, y)) == bits(np.polyfit(x, y, 1))


def test_line_fit_scales_by_the_in_order_sum_of_squares():
    # polyfit's column norm adds the squares in row order. Here a pairwise
    # sum (np.sum of the column) differs in its last bit, and a fit scaled
    # by it differs from polyfit's in both coefficients.
    rng = np.random.default_rng(0)
    x = 2.0 + rng.random(1000) * 30
    y = (0.5 * x + rng.normal(size=1000)).clip(0, 255).astype(np.uint8)
    squares = x * x
    assert np.sum(squares) != np.cumsum(squares)[-1]
    assert bits(line_fit(x, y)) == bits(np.polyfit(x, y, 1))


def test_line_fit_warns_as_polyfit_on_a_rank_deficient_fit():
    x, y = np.full(5, 3.0), np.arange(5, dtype=np.uint8)
    with pytest.warns(np.exceptions.RankWarning):
        want = np.polyfit(x, y, 1)
    with pytest.warns(np.exceptions.RankWarning):
        assert bits(line_fit(x, y)) == bits(want)


@pytest.mark.parametrize("d", range(2, 8))
def test_column_sum_norms_are_linalg_norm_bit_for_bit(d, monkeypatch):
    monkeypatch.setattr(packed, "BLOCK_KEYS", 64)
    rng = np.random.default_rng(d)
    proj = rng.normal(size=(d, d))
    for n in (0, 1, 2, 7, 64, 65, 129, 1001):
        xs = rng.integers(-10**6, 10**6, size=(n, d)).astype(float)
        assert bits(_projected_norms(xs, proj)) == bits(fit_sweep.linalg_norms(xs, proj))
