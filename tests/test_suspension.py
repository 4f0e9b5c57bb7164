import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest

from unstretch import packed
from unstretch import (
    GeneratingSet,
    GroupContext,
    GroupElement,
    HyperbolicSplitting,
    ToralMatrix,
    ValidationError,
    compute_splitting,
    lattice_element,
    log_distance_bounds,
    qi_comparison,
    word_ball,
)
from unstretch import suspension
from unstretch.suspension import _projected_norms, qi_report

import norm_sweep
from conftest import CAT, D3_COMPLEX, D3_REAL, D4_BLOCK

LOG_LAM = math.log((3 + math.sqrt(5)) / 2)


class CoverPoint(NamedTuple):
    """A point (x, k) of the universal cover R^d x R at an integer flow
    coordinate k."""

    x: tuple
    k: int


def embed(g: GroupElement) -> CoverPoint:
    """The standard embedding of the group into the cover: x * z^k -> (x, k)."""
    return CoverPoint(tuple(float(v) for v in g.x), g.k)


def oracle_columns(oracle):
    """Coordinate rows (dim, n), exponents and lengths of every oracle entry
    as int64 arrays, in the oracle's order: the whole-table unpack that
    ``qi_comparison`` does block by block."""
    xs, ks = oracle.layout.unpack(oracle.keys)
    lengths = np.repeat(np.arange(len(oracle.sphere_sizes)), oracle.sphere_sizes)
    return xs, ks, lengths


def log_distance_bound(split: HyperbolicSplitting, point: CoverPoint) -> int:
    """The bound of ``log_distance_bounds`` for one point."""
    return int(log_distance_bounds(split, [[c] for c in point.x], [point.k])[0])


def leafwise_terms(split: HyperbolicSplitting, xs) -> list:
    """log+ ||x_s|| / sigma and log+ ||x_u|| / sigma for each coordinate
    row of ``xs`` (dim, n), as ``log_distance_bounds`` computes them before
    taking their ceilings."""
    rows = np.asarray(xs).T.astype(float, order="C")
    return [np.log(np.maximum(_projected_norms(rows, proj), 1.0)) / split.sigma
            for proj in (split.proj_stable, split.proj_unstable)]


def float_bounds(split: HyperbolicSplitting, xs, ks) -> np.ndarray:
    """The float bound (2/sigma) log+ ||x_s|| + (2/sigma) log+ ||x_u|| + |k|
    + 2, whose leafwise terms ``log_distance_bounds`` raises to ceilings."""
    rows = np.asarray(xs).T.astype(float)
    two_over_sigma = 2.0 / split.sigma
    logs = [np.log(np.maximum(np.linalg.norm(rows @ proj.T, axis=1), 1.0))
            for proj in (split.proj_stable, split.proj_unstable)]
    return two_over_sigma * logs[0] + two_over_sigma * logs[1] + np.abs(ks) + 2.0


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
    assert log_distance_bound(split, CoverPoint((0.0, 0.0), 0)) == 2


def test_bound_on_stable_leaf(cat_matrix):
    # A point e^(t sigma) u on the stable leaf has the leafwise term t (and
    # 0 for t <= 0, a norm below 1), so its bound is 2 ceil(t) + |k| + 2.
    split = compute_splitting(cat_matrix)
    u = split.stable_basis[:, 0] / np.linalg.norm(split.stable_basis[:, 0])
    for t, ceiling in [(-0.5, 0), (0.75, 1), (1.5, 2), (3.25, 4)]:
        x = tuple(math.exp(t * split.sigma) * c for c in u)
        for k in (0, -3):
            assert log_distance_bound(split, CoverPoint(x, k)) == 2 * ceiling + abs(k) + 2


def test_bound_doubling_rule(cat_matrix):
    # Each doubling along the unstable leaf adds log 2 / sigma to the
    # leafwise term, so 2^j u has the bound 2 ceil(j log 2 / sigma) + 2:
    # it rises by 0 or 2 a doubling, and never falls.
    split = compute_splitting(cat_matrix)
    u = split.unstable_basis[:, 0] / np.linalg.norm(split.unstable_basis[:, 0])
    vals = [log_distance_bound(split, CoverPoint(tuple(2.0**j * c for c in u), 0))
            for j in range(41)]
    assert vals == [2 * math.ceil(j * math.log(2) / split.sigma) + 2 for j in range(41)]
    assert {b - a for a, b in zip(vals, vals[1:])} == {0, 2}


def test_bound_monotone_in_flow_coordinate(cat_matrix):
    split = compute_splitting(cat_matrix)
    vals = [log_distance_bound(split, CoverPoint((5.0, 1.0), k)) for k in (0, 1, -2, 3)]
    assert [v - vals[0] for v in vals] == [0, 1, 2, 3]


def test_sigma_below_its_margin_is_refused(cat_matrix, monkeypatch):
    # The int64 bounds need sigma >= SIGMA_MARGIN; the cat map's slowest
    # rate log lam = 0.962 is below a margin of 0.5 twice over.
    monkeypatch.setattr(suspension, "SIGMA_MARGIN", 0.5)
    with pytest.raises(ValidationError, match="at least 1.0"):
        compute_splitting(cat_matrix)


def test_embed(ctx):
    g = lattice_element([3, -1])
    assert embed(g) == CoverPoint((3.0, -1.0), 0)
    assert embed(ctx.z) == CoverPoint((0.0, 0.0), 1)


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
    assert top.bounds.dtype == np.int64 and np.array_equal(top.bounds, whole)
    assert top.lengths.dtype == np.uint8 and np.array_equal(top.lengths, lengths)
    for r in (6, 7):
        n = oracle8.ball_size(r)
        rep = qi_comparison(oracle8.restricted(r), split)
        assert np.array_equal(rep.bounds, top.bounds[:n])


def report_fields(rep) -> tuple:
    return (rep.q_hat, rep.fitted_slope, rep.intercept, rep.max_ratio, rep.min_ratio,
            rep.coverage_ok, rep.n_entries, rep.pairs)


def test_uint8_lengths_give_the_float64_report(cat_matrix, oracle8, monkeypatch):
    top = qi_comparison(oracle8, compute_splitting(cat_matrix))
    wide = qi_report(top.radius, top.lengths.astype(float), top.bounds)
    assert report_fields(top) == report_fields(wide)
    # The pair counts do not depend on how the rows are cut into blocks.
    monkeypatch.setattr(packed, "BLOCK_KEYS", 1000)
    assert report_fields(qi_report(top.radius, top.lengths, top.bounds)) == report_fields(top)


def brute_force_report(lengths: list, bounds: list) -> tuple:
    """The least-squares line of length against bound by its textbook
    formula over every row, in Fractions, and the ratios and q_hat."""
    n = len(lengths)
    mean_b, mean_l = Fraction(sum(bounds), n), Fraction(sum(lengths), n)
    slope = (sum((b - mean_b) * (l - mean_l) for l, b in zip(lengths, bounds))
             / sum((b - mean_b) ** 2 for b in bounds))
    ratios = [Fraction(l, b) for l, b in zip(lengths, bounds)]
    max_ratio = max(ratios)
    min_ratio = min(r for r, l in zip(ratios, lengths) if l)
    return slope, mean_l - slope * mean_b, max_ratio, min_ratio, max(slope, max_ratio)


def test_exact_fit_is_the_brute_force_fraction_fit(cat_matrix, oracle8):
    rep = qi_comparison(oracle8, compute_splitting(cat_matrix))
    assert (rep.fitted_slope, rep.intercept, rep.max_ratio, rep.min_ratio, rep.q_hat) == (
        brute_force_report(rep.lengths.tolist(), rep.bounds.tolist())
    )
    assert rep.coverage_ok and rep.n_entries == len(oracle8) == sum(rep.pairs.values())


def test_r12_fit_and_band(cat_matrix, ctx, gens):
    rep = qi_comparison(word_ball(ctx, gens, 12), compute_splitting(cat_matrix))
    assert round(float(rep.fitted_slope), 5) == 0.15854
    assert round(float(rep.intercept), 4) == 7.7221
    assert (rep.min_ratio, rep.max_ratio, rep.q_hat) == (
        Fraction(1, 3), Fraction(11, 10), Fraction(11, 10)
    )
    assert rep.coverage_ok


def test_integer_bound_is_the_float_bound_raised_below_4(cat_matrix, ctx, gens):
    oracle = word_ball(ctx, gens, 12)
    split = compute_splitting(cat_matrix)
    xs, ks, _ = oracle_columns(oracle)
    rep = qi_comparison(oracle, split)
    excess = rep.bounds - float_bounds(split, xs, ks)
    assert excess.min() >= 0 and excess.max() < 4
    assert len(np.unique(rep.bounds)) == 34 and len(rep.pairs) == 156


@pytest.mark.parametrize("matrix, radius", [(CAT, 14), (D3_REAL, 10)])
def test_no_leafwise_term_is_near_an_integer(matrix, radius):
    # A term within rounding of an integer could have its ceiling decided
    # either way by float error; on these balls every positive term keeps
    # more than 1e-9 from one (measured 2.16e-5 and 1.9e-5).
    m = ToralMatrix(matrix)
    oracle = word_ball(GroupContext(m), GeneratingSet.standard(m.dim), radius)
    split = compute_splitting(m)
    xs, _, _ = oracle_columns(oracle)
    for terms in leafwise_terms(split, xs):
        positive = terms[terms > 0]
        assert np.abs(positive - np.round(positive)).min() > 1e-9


def bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("d", range(2, 8))
def test_column_sum_norms_are_linalg_norm_bit_for_bit(d, monkeypatch):
    monkeypatch.setattr(packed, "BLOCK_KEYS", 64)
    rng = np.random.default_rng(d)
    proj = rng.normal(size=(d, d))
    for n in (0, 1, 2, 7, 64, 65, 129, 1001):
        xs = rng.integers(-10**6, 10**6, size=(n, d)).astype(float)
        assert bits(_projected_norms(xs, proj)) == bits(norm_sweep.linalg_norms(xs, proj))
