"""Hyperbolic splitting of the defining matrix and the logarithmic distance
bound on the universal cover of its mapping torus.

The cover is R^d x R with the flow coordinate last. Distances along the
stable and unstable leaves contract exponentially at rate sigma under the
flow, which turns leafwise distance into a logarithm of the lattice norm; the
bound implemented here is

    (2/sigma) log+ ||x_s|| + (2/sigma) log+ ||x_u|| + |s| + 2

with x_s, x_u the projections onto the stable and unstable subspaces and the
additive constant folding the transversality slack. The comparison routine
regresses exact word lengths against this bound over a whole enumerated ball
and reports the empirical quasi-isometry constant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import packed
from .errors import ValidationError
from .group import ToralMatrix
from .words import WordLengthOracle

TOL_LIN = 1e-9
SIGMA_MARGIN = 1e-6
# The smallest ball whose regression the comparison trusts.
QI_MIN_RADIUS = 6


@dataclass(frozen=True)
class HyperbolicSplitting:
    stable_basis: np.ndarray
    unstable_basis: np.ndarray
    proj_stable: np.ndarray
    proj_unstable: np.ndarray
    sigma: float

    def residuals(self, matrix: ToralMatrix) -> dict:
        """Float residuals of the defining identities, for validation."""
        a = matrix.as_array()
        ident = np.eye(matrix.dim)
        return {
            "projection_sum": float(
                np.linalg.norm(self.proj_stable + self.proj_unstable - ident, 2)
            ),
            "stable_invariance": float(
                np.linalg.norm(a @ self.proj_stable - self.proj_stable @ a, 2)
            ),
        }


def compute_splitting(matrix: ToralMatrix) -> HyperbolicSplitting:
    """Split R^d into the stable and unstable subspaces of the matrix.

    Complex eigenvalue pairs contribute a two-dimensional real block spanned
    by the real and imaginary parts of one eigenvector of the pair. sigma is
    the slowest exponential rate over the whole spectrum, shaved by a small
    safety margin. The projection identities are checked to TOL_LIN.
    """
    rep = matrix.hyperbolicity
    if not rep.hyperbolic:
        raise ValidationError(f"splitting requires a hyperbolic matrix: {rep.reason}")
    a = matrix.as_array()
    evals, evecs = np.linalg.eig(a)
    stable_cols = []
    unstable_cols = []
    used = [False] * len(evals)
    for i, ev in enumerate(evals):
        if used[i]:
            continue
        used[i] = True
        target = stable_cols if abs(ev) < 1.0 else unstable_cols
        vec = evecs[:, i]
        if abs(ev.imag) > TOL_LIN:
            # Consume the conjugate partner and keep a real 2D block.
            for j in range(i + 1, len(evals)):
                if not used[j] and abs(evals[j] - np.conj(ev)) < 1e-8:
                    used[j] = True
                    break
            target.append(np.real(vec))
            target.append(np.imag(vec))
        else:
            target.append(np.real(vec))
    stable = np.column_stack(stable_cols) if stable_cols else np.zeros((matrix.dim, 0))
    unstable = (
        np.column_stack(unstable_cols) if unstable_cols else np.zeros((matrix.dim, 0))
    )
    basis = np.column_stack([stable, unstable])
    basis_inv = np.linalg.inv(basis)
    ns = stable.shape[1]
    sel_s = np.zeros((matrix.dim, matrix.dim))
    sel_s[:ns, :ns] = np.eye(ns)
    proj_s = basis @ sel_s @ basis_inv
    proj_u = np.eye(matrix.dim) - proj_s
    sigma = min(abs(math.log(abs(ev))) for ev in evals) - SIGMA_MARGIN
    split = HyperbolicSplitting(stable, unstable, proj_s, proj_u, sigma)
    res = split.residuals(matrix)
    scale = max(1.0, float(np.linalg.norm(a, 2)))
    if res["projection_sum"] > TOL_LIN * scale or (
        res["stable_invariance"] > TOL_LIN * scale * float(np.linalg.norm(basis_inv, 2))
    ):
        raise ValidationError(f"splitting residuals too large: {res}")
    return split


def _projected_norms(xs: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """||proj x|| for each row x of xs, by gemm on blocks of
    ``packed.BLOCK_KEYS`` rows.

    numpy multiplies a lone row by gemv, which sums in another order than
    gemm, so an odd last block is padded with a zero row: every product then
    has an even number of rows (the block size is even), and a row's norm
    does not depend on the batch around it. The blocks also keep the
    operands in cache. Each product is squared in place and its columns are
    added in order: the bits of ``np.linalg.norm(axis=1)``, whose reduction
    over fewer than 8 columns adds them in order too, at a quarter of its
    time (a reduction along an axis of length d runs one short loop per
    row). For d >= 8 numpy sums pairwise, so a norm there can differ from
    ``np.linalg.norm``'s by one ulp.
    """
    norms = np.empty(len(xs))
    for lo in range(0, len(xs), packed.BLOCK_KEYS):
        block = xs[lo : lo + packed.BLOCK_KEYS]
        out = norms[lo : lo + len(block)]
        if len(block) % 2:
            block = np.concatenate([block, np.zeros((1, xs.shape[1]))])
        squares = block @ proj.T
        squares *= squares
        out[:] = squares[: len(out), 0]
        for column in squares[: len(out), 1:].T:
            out += column
        np.sqrt(out, out=out)
    return norms


def log_distance_bounds(split: HyperbolicSplitting, xs, ss) -> np.ndarray:
    """Upper bounds for the cover distances from points (x, s) to the origin.

    ``xs`` holds the points' coordinate rows (``packed``'s layout) and ``ss``
    their flow coordinates. Each bound is monotone in ||x_s||, ||x_u|| and
    |s|; the constant 2 absorbs the unit slack of the two leafwise estimates.
    The projections multiply one point per row, so ``xs`` is transposed into
    a C-contiguous float copy for ``_projected_norms``.
    """
    xs = np.asarray(xs).T.astype(float, order="C")
    ss = np.asarray(ss, dtype=float)
    norm_s = _projected_norms(xs, split.proj_stable)
    norm_u = _projected_norms(xs, split.proj_unstable)
    log_plus = lambda arr: np.where(arr > 1.0, np.log(np.maximum(arr, 1e-300)), 0.0)
    two_over_sigma = 2.0 / split.sigma
    return (
        two_over_sigma * log_plus(norm_s)
        + two_over_sigma * log_plus(norm_u)
        + np.abs(ss)
        + 2.0
    )


@dataclass
class QiReport:
    """Word length versus cover-distance bound over a full enumerated ball:
    ``lengths`` (uint8) and ``bounds`` (float64) in the oracle's order,
    sphere after sphere and each sphere in key order."""

    radius: int
    n_entries: int
    q_hat: float
    fitted_slope: float
    intercept: float
    max_ratio: float
    coverage_ok: bool
    lengths: np.ndarray
    bounds: np.ndarray


def qi_comparison(oracle: WordLengthOracle, split: HyperbolicSplitting) -> QiReport:
    """Compare exact word lengths with the logarithmic cover bound over
    every oracle entry (see ``qi_report``).

    The keys are unpacked ``packed.BLOCK_KEYS`` at a time, so only one block
    of coordinates is alive at once. The blocks are the ones
    ``_projected_norms`` would cut from the whole table, so the bounds are
    bit-identical to one ``log_distance_bounds`` call over the coordinates
    and exponents of all the oracle's keys. Lengths are uint8 (radii stop
    at 255). Nothing here holds the oracle once its bounds exist, so a
    caller that passes ``word_ball(...)`` straight in has the ball freed
    before the fit (CPython 3.11, the oldest supported version, hands a
    call's arguments to the callee).
    """
    if oracle.radius < QI_MIN_RADIUS:
        raise ValidationError(
            f"qi comparison needs an oracle of radius >= {QI_MIN_RADIUS}"
        )
    radius, layout, sizes = oracle.radius, oracle.layout, oracle.sphere_sizes
    keys = oracle.keys
    del oracle
    bounds = np.empty(len(keys))
    block = packed.BLOCK_KEYS
    for lo in range(0, len(keys), block):
        xs, ks = layout.unpack(keys[lo : lo + block])
        bounds[lo : lo + block] = log_distance_bounds(split, xs, ks)
    del keys
    lengths = np.repeat(np.arange(len(sizes), dtype=np.uint8), sizes)
    return qi_report(radius, lengths, bounds)


def qi_report(radius: int, lengths: np.ndarray, bounds: np.ndarray) -> QiReport:
    """The comparison over the rows (length, bound) of a ball of ``radius``.

    Regresses length against bound, and reports the empirical constant
    q_hat = max(fitted slope, max length/bound ratio), which by construction
    satisfies length <= q_hat * bound + q_hat on all entries; the report
    records that coverage explicitly.

    The line is fitted on the full arrays, so the fitted slope, intercept
    and q_hat do not depend on any blocking. ``line_fit`` gives the bits
    of ``np.polyfit(bounds, lengths, 1)`` with fewer arrays alive: it holds
    at most about 24 bytes per row above the bounds and uint8 lengths (9
    bytes per row), against polyfit's 48, plus LAPACK's own copy of the
    matrix and lengths (24 bytes per row) during the solve, and
    ``qi_comparison`` has let the ball go by then. The fit and the ratios
    read uint8 lengths as the float64 values they equal, so the results are
    those of float64 lengths.
    """
    slope, intercept = line_fit(bounds, lengths)
    max_ratio = float((lengths / bounds).max())
    q_hat = max(float(slope), max_ratio)
    coverage = bool((lengths <= q_hat * bounds + q_hat).all())
    return QiReport(
        radius=radius,
        n_entries=len(lengths),
        q_hat=q_hat,
        fitted_slope=float(slope),
        intercept=float(intercept),
        max_ratio=max_ratio,
        coverage_ok=coverage,
        lengths=lengths,
        bounds=bounds,
    )


def line_fit(x: np.ndarray, y: np.ndarray):
    """(slope, intercept) of the least-squares line through (x, y) for a
    float64 ``x``, bit-equal to ``np.polyfit(x, y, 1)``: polyfit's own steps
    (``lstsq`` on the Vandermonde matrix scaled to unit-norm columns, rcond
    n * eps, the coefficients divided by the scale, RankWarning when the
    rank is short) without its float copy of ``x``, its Vandermonde matrix
    or that matrix's squares, and with the float copy of ``y`` made only
    once the scale is taken. So the scaled matrix and the float ``y`` are all it
    allocates.

    The scaled matrix is written in place. polyfit's column norms come from
    ``(lhs * lhs).sum(axis=0)`` on the (n, 2) matrix, which adds each
    column's squares in row order, not pairwise as ``np.sum`` of one column
    would: column 0 holds the squares of ``x`` and their running sum in row
    order (``np.add.accumulate``), whose last entry is that norm's square,
    before it is overwritten by ``x`` over the norm. Column 1 is the ones
    column, whose squares add to n exactly, so it is 1 / sqrt(n).
    """
    n = len(x)
    lhs = np.empty((n, 2))
    squares = lhs[:, 0]
    np.multiply(x, x, out=squares)
    np.add.accumulate(squares, out=squares)
    scale = np.sqrt([squares[-1], n])
    np.divide(x, scale[0], out=squares)
    lhs[:, 1] = 1.0 / scale[1]
    rcond = n * np.finfo(float).eps
    coef, _, rank, _ = np.linalg.lstsq(lhs, y.astype(float), rcond)
    if rank != 2:
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning,
                      stacklevel=2)
    return coef / scale
