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
    gemm, so an odd row count is padded with a zero row: every block then
    holds an even number of rows (the block size is even), and a row's norm
    does not depend on the batch around it. The blocks also keep the
    operands in cache.
    """
    n = len(xs)
    if n % 2:
        xs = np.concatenate([xs, np.zeros((1, xs.shape[1]))])
    return np.concatenate([
        np.linalg.norm(xs[lo : lo + packed.BLOCK_KEYS] @ proj.T, axis=1)
        for lo in range(0, max(len(xs), 1), packed.BLOCK_KEYS)
    ])[:n]


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
    ``lengths`` (uint8) and ``bounds`` (float64) in breadth-first order."""

    radius: int
    n_entries: int
    q_hat: float
    fitted_slope: float
    intercept: float
    max_ratio: float
    coverage_ok: bool
    lengths: np.ndarray
    bounds: np.ndarray

    @property
    def ratios(self) -> np.ndarray:
        return self.lengths / self.bounds


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

    ``np.polyfit`` runs on the full arrays, so the fitted slope, intercept
    and q_hat do not depend on any blocking. It is the comparison's memory
    floor: its Vandermonde matrix, scaled copies and LAPACK workspace hold
    about 48 bytes per row (29 MB at radius 14), against 9 bytes per row for
    the bounds and uint8 lengths, and ``qi_comparison`` has let the ball go
    by then. polyfit and the ratios read uint8 lengths as the float64
    values they equal, so the results are those of float64 lengths.
    """
    slope, intercept = np.polyfit(bounds, lengths, 1)
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
