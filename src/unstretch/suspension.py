"""Hyperbolic splitting of the defining matrix and the logarithmic distance
bound on the universal cover of its mapping torus.

The cover is R^d x R with the flow coordinate last. Distances along the
stable and unstable leaves contract exponentially at rate sigma under the
flow, which turns leafwise distance into a logarithm of the lattice norm; the
bound implemented here is the integer

    2 ceil(log+ ||x_s|| / sigma) + 2 ceil(log+ ||x_u|| / sigma) + |k| + 2

with x_s, x_u the projections onto the stable and unstable subspaces and the
additive constant folding the transversality slack: the float bound
(2/sigma) log+ ||x_s|| + (2/sigma) log+ ||x_u|| + |k| + 2 with each leafwise
term raised to its ceiling. The comparison routine fits exact word lengths
against this bound over a whole enumerated ball, exactly, from the few
hundred distinct (length, bound) rows of the ball, reports the empirical
quasi-isometry constant and the band of ratios, and writes the rows as
integer CSVs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

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
    safety margin, and at least that margin (``log_distance_bounds`` needs a
    floor on sigma). The projection identities are checked to TOL_LIN.
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
    if sigma < SIGMA_MARGIN:
        raise ValidationError(
            f"splitting needs every |log |eigenvalue|| to be at least {2 * SIGMA_MARGIN}, "
            f"the slowest is {sigma + SIGMA_MARGIN!r}"
        )
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


def log_distance_bounds(split: HyperbolicSplitting, xs, ks) -> np.ndarray:
    """Integer upper bounds for the cover distances from points (x, k) to
    the origin:

        b = 2 ceil(log+ ||x_s|| / sigma) + 2 ceil(log+ ||x_u|| / sigma) + |k| + 2

    ``xs`` holds the points' coordinate rows (``packed``'s layout) and ``ks``
    their integer flow coordinates. The projections multiply one point per
    row, so ``xs`` is transposed into a C-contiguous float copy for
    ``_projected_norms``.

    b is the float bound (2/sigma) log+ ||x_s|| + (2/sigma) log+ ||x_u|| +
    |k| + 2 with each leafwise term t = log+ ||y|| / sigma raised to its
    ceiling c. Since t <= c < t + 1, b is at least the float bound and less
    than 4 above it, so it keeps the float bound's role: it is monotone in
    ||x_s||, ||x_u|| and |k|, and the constant 2 absorbs the unit slack of
    the two leafwise estimates.

    int64 holds every b. A norm is a finite float64, below 2**1024, so
    log+ of it is below 710; ``compute_splitting`` gives sigma >=
    SIGMA_MARGIN, so each ceiling is at most 710 / SIGMA_MARGIN < 2**30.
    A key layout's exponents have |k| < 2**61, so b < 2**62.
    """
    xs = np.asarray(xs).T.astype(float, order="C")
    bounds = np.abs(np.asarray(ks, dtype=np.int64)) + 2
    for proj in (split.proj_stable, split.proj_unstable):
        terms = _projected_norms(xs, proj)
        np.maximum(terms, 1.0, out=terms)
        np.log(terms, out=terms)
        terms /= split.sigma
        bounds += 2 * np.ceil(terms, out=terms).astype(np.int64)
    return bounds


@dataclass
class QiReport:
    """Word length versus cover-distance bound over a full enumerated ball.

    ``lengths`` (uint8) and ``bounds`` (int64) are the rows in the oracle's
    order, sphere after sphere and each sphere in key order; ``pairs`` maps
    each distinct (length, bound) row to its count, in (length, bound)
    order. The fit and the ratios are exact ``Fraction``s: the least-squares
    line of length against bound, the largest ratio length / bound, the
    least over lengths >= 1, and q_hat = max(slope, max_ratio)."""

    radius: int
    n_entries: int
    q_hat: Fraction
    fitted_slope: Fraction
    intercept: Fraction
    max_ratio: Fraction
    min_ratio: Fraction
    coverage_ok: bool
    lengths: np.ndarray
    bounds: np.ndarray
    pairs: dict


def qi_comparison(oracle: WordLengthOracle, split: HyperbolicSplitting) -> QiReport:
    """Compare exact word lengths with the logarithmic cover bound over
    every oracle entry (see ``qi_report``).

    The keys are unpacked ``packed.BLOCK_KEYS`` at a time, so only one block
    of coordinates is alive at once. Lengths are uint8 (radii stop at 255).
    Nothing here holds the oracle once its bounds exist, so a caller that
    passes ``word_ball(...)`` straight in has the ball freed before the fit
    (CPython 3.11, the oldest supported version, hands a call's arguments to
    the callee).
    """
    if oracle.radius < QI_MIN_RADIUS:
        raise ValidationError(
            f"qi comparison needs an oracle of radius >= {QI_MIN_RADIUS}"
        )
    radius, layout, sizes = oracle.radius, oracle.layout, oracle.sphere_sizes
    keys = oracle.keys
    del oracle
    bounds = np.empty(len(keys), dtype=np.int64)
    block = packed.BLOCK_KEYS
    for lo in range(0, len(keys), block):
        xs, ks = layout.unpack(keys[lo : lo + block])
        bounds[lo : lo + block] = log_distance_bounds(split, xs, ks)
    del keys
    lengths = np.repeat(np.arange(len(sizes), dtype=np.uint8), sizes)
    return qi_report(radius, lengths, bounds)


def pair_counts(lengths: np.ndarray, bounds: np.ndarray) -> dict:
    """{(length, bound): rows} over the rows of nonnegative integer
    ``lengths`` and ``bounds``, as Python ints in (length, bound) order: a
    bincount of the codes length * (max bound + 1) + bound, a few thousand
    codes for a ball, taken ``packed.BLOCK_KEYS`` rows at a time."""
    stride = int(bounds.max()) + 1
    size = (int(lengths.max()) + 1) * stride
    counts = np.zeros(size, dtype=np.int64)
    for lo in range(0, len(lengths), packed.BLOCK_KEYS):
        codes = lengths[lo : lo + packed.BLOCK_KEYS].astype(np.int64)
        codes *= stride
        codes += bounds[lo : lo + packed.BLOCK_KEYS]
        counts += np.bincount(codes, minlength=size)
    present = np.flatnonzero(counts)
    return {divmod(code, stride): count
            for code, count in zip(present.tolist(), counts[present].tolist())}


def qi_report(radius: int, lengths: np.ndarray, bounds: np.ndarray) -> QiReport:
    """The comparison over the rows (length, bound) of a ball of ``radius``.

    The rows' distinct pairs (``pair_counts``) give the five moments n, Sum
    b, Sum b^2, Sum l and Sum l b as Python ints, and from them the exact
    least-squares line of length against bound. The largest ratio l / b,
    the least over lengths >= 1 and q_hat = max(slope, max_ratio) are exact
    too, and coverage (length <= q_hat * bound + q_hat, which q_hat >=
    max_ratio gives by construction) is checked exactly on every pair.
    """
    pairs = pair_counts(lengths, bounds)
    n = sum_b = sum_bb = sum_l = sum_lb = 0
    for (length, bound), count in pairs.items():
        n += count
        sum_b += count * bound
        sum_bb += count * bound * bound
        sum_l += count * length
        sum_lb += count * length * bound
    spread = n * sum_bb - sum_b * sum_b
    slope = Fraction(n * sum_lb - sum_l * sum_b, spread)
    max_ratio = max(Fraction(length, bound) for length, bound in pairs)
    q_hat = max(slope, max_ratio)
    return QiReport(
        radius=radius,
        n_entries=n,
        q_hat=q_hat,
        fitted_slope=slope,
        intercept=Fraction(sum_l * sum_bb - sum_b * sum_lb, spread),
        max_ratio=max_ratio,
        min_ratio=min(Fraction(length, bound) for length, bound in pairs if length),
        coverage_ok=all(length <= q_hat * (bound + 1) for length, bound in pairs),
        lengths=lengths,
        bounds=bounds,
        pairs=pairs,
    )


def write_qi_csvs(outdir: Path, rep: QiReport, sizes: dict):
    """``qi_r<R>.csv`` for each radius R in ``sizes``: the header
    ``word_length,bound`` and the first sizes[R] rows of ``rep``, as
    csv.writer writes integer rows (comma separated, CRLF terminated).

    The texts of ``rep.pairs`` fill one NUL-padded table indexed by the pair
    code length * (max bound + 1) + bound, built before any file is opened.
    Each block of ``packed.BLOCK_KEYS // 4`` rows is gathered whole from it
    with one ``take`` and drops its NUL padding at once.
    """
    stride = max(bound for _, bound in rep.pairs) + 1
    texts = {length * stride + bound: f"{length},{bound}\r\n".encode()
             for length, bound in rep.pairs}
    table = np.zeros(max(texts) + 1, dtype=f"S{max(map(len, texts.values()))}")
    table[list(texts)] = list(texts.values())
    block = packed.BLOCK_KEYS // 4
    for r, n in sizes.items():
        with (outdir / f"qi_r{r}.csv").open("wb") as fh:
            fh.write(b"word_length,bound\r\n")
            for lo in range(0, n, block):
                codes = rep.lengths[lo : min(n, lo + block)].astype(np.intp)
                codes *= stride
                codes += rep.bounds[lo : lo + len(codes)]
                rows = table.take(codes).view(np.uint8)
                fh.write(rows[rows != 0])
