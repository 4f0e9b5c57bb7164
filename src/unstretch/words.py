"""Word metric machinery: exact box sets, neighborhoods, and diameters of
finite subsets.

The generating set (``group.GeneratingSet``) is the 2d norm-one lattice
vectors plus z and z^-1, so the word metric is symmetric. Exact word lengths
come from the ball oracle of ``oracle.py``, which answers up to its radius and
certifies "longer than the radius" for everything else; its names are
importable from here too. Finite subsets of the group are handled as sorted
arrays of distinct int64 keys (``packed.py``), which enforces normal-form
uniqueness; the public functions here also take and return sets of
GroupElement.

Box sets B(ell, h) hold the elements with ||x|| <= lam^ell and |k| <= h for an
exact rational lam; membership is decided by integer cross-multiplication, so
boundary cases carry no float ambiguity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from . import matrices
from .errors import ValidationError, int_text
from .group import GeneratingSet, GroupContext, GroupElement, ToralMatrix
from .oracle import DEFAULT_ELEMENT_BUDGET, WordLengthOracle, word_ball  # noqa: F401
from .packed import KeyLayout, element_columns, pack_elements, spread, translate_steps

_INT64_MAX = (1 << 63) - 1
# choose_lambda bounds ||A^i v|| by lam^i for 2 < i <= I_MAX.
I_MAX = 50
# Share of sample_box's draws placed near the norm boundary.
BOUNDARY_FRACTION = 0.3


def neighborhood(
    ctx: GroupContext,
    gens: GeneratingSet,
    elements: Iterable[GroupElement],
    n: int,
) -> set:
    """The right N-neighborhood S * B_N, as a set of elements.

    A set-in, set-out adapter over ``packed.spread``: the elements are packed
    on a key layout that holds N more generator steps, replaced N times by
    their union with their translates by the generators, and unpacked.
    """
    if n < 0:
        raise ValidationError("neighborhood rounds must be nonnegative")
    table, keys = pack_elements(ctx, gens, list(elements), n, "neighborhood")
    keys = spread(keys, n, table, DEFAULT_ELEMENT_BUDGET, "neighborhood")
    return set(table.layout.elements(keys))


class Diameter(NamedTuple):
    """Word-metric diameter; exact=False means "at least this value"."""

    value: int
    exact: bool


def set_diameter(oracle: WordLengthOracle, elements) -> Diameter:
    """``column_diameter`` of a collection of elements."""
    return column_diameter(oracle, *element_columns(list(elements), oracle.ctx.dim))


def column_diameter(oracle: WordLengthOracle, xs: np.ndarray, ks: np.ndarray) -> Diameter:
    """Max over unordered pairs of |g^-1 h| of the elements with coordinate
    rows xs (``packed``'s layout) and exponents ks, via left invariance.

    Pairs are pruned with the triangle bound d(g, h) <= |g| + |h| after
    seeding the running maximum with two cheap certified lower bounds (the
    z-exponent spread, since the projection to the cyclic factor is
    1-Lipschitz, and the word-length spread). In decreasing order of length
    bound, the partners h that can still beat the maximum for g = (x, k) are
    a prefix of the rest; their quotients g^-1 h = (A^-k (x_h - x), k_h - k)
    are one int64 array step, looked up with ``column_lengths``. A pair
    there that a pair-by-pair loop would prune has |g| + |h| <= maximum <=
    radius, so it is in the oracle. Any quotient outside the oracle radius
    yields the certified lower bound (radius + 1). Each row of A^-k times
    twice the set's reach bounds the quotients and the differences (every
    column of A^-k has a nonzero entry); where that bound could overflow
    int64, the quotients of that g are computed exactly in Python ints
    instead, and one with a coordinate past the key layout's ``x_limit`` is
    outside the ball.

    The exponent spread is taken first: a set whose spread exceeds the
    radius gets (radius + 1) before any element is looked up.
    """
    if not len(ks):
        raise ValidationError("diameter of an empty set")
    radius = oracle.radius
    best = int(ks.max()) - int(ks.min())
    if best > radius:
        return Diameter(radius + 1, False)
    lengths = oracle.column_lengths(xs, ks)
    known = lengths[lengths >= 0]
    if known.size:
        best = max(best, int(known.max() - known.min()))
    if best > radius:
        return Diameter(radius + 1, False)
    # A length beyond the radius is at least radius + 1 > best, which prunes
    # as an infinite bound would.
    caps = np.where(lengths < 0, radius + 1, lengths)
    order = np.argsort(-caps, kind="stable")
    caps, xs, ks = caps[order], np.take(xs, order, axis=1), ks[order]
    rising = -caps
    reach = [max(2 * max(int(hi), -int(lo)), 1) for lo, hi in zip(xs.min(1), xs.max(1))]
    for a in range(len(ks) - 1):
        end = int(rising.searchsorted(caps[a] - best))  # caps[a] + caps[b] > best
        if end <= a + 1:
            break
        k = int(ks[a])
        rows = oracle.ctx.matrix_power(-k)
        bound = max(sum(abs(m) * r for m, r in zip(row, reach)) for row in rows)
        if bound <= _INT64_MAX:
            quotients = np.array(rows, dtype=np.int64) @ (xs[:, a + 1 : end] - xs[:, a, None])
        else:
            quotients = _exact_quotients(rows, xs[:, a + 1 : end], xs[:, a],
                                         oracle.layout.x_limit)
            if quotients is None:
                return Diameter(radius + 1, False)
        found = oracle.column_lengths(quotients, ks[a + 1 : end] - k)
        if found.min() < 0:
            return Diameter(radius + 1, False)
        best = max(best, int(found.max()))
    return Diameter(best, True)


def _exact_quotients(rows, partners: np.ndarray, x: np.ndarray, limit: int):
    """The quotient coordinates rows @ (x_h - x) of the partners' coordinate
    rows, computed in Python ints, as int64 coordinate rows; None if one of
    them exceeds ``limit``."""
    x = x.tolist()
    quotients = [matrices.matvec(rows, [v - c for v, c in zip(h, x)])
                 for h in zip(*partners.tolist())]
    if any(abs(v) > limit for q in quotients for v in q):
        return None
    return np.array(quotients, dtype=np.int64).T


class BoxSet:
    """Elements with ||x|| <= lam^ell and |k| <= h, membership exact.

    The norm test is sum(x_i^2) <= p^(2 ell) // q^(2 ell) with lam = p/q in
    lowest terms, so it is a pure integer comparison. That bound is formed on
    first use: lam > 2, so it exceeds 4^ell, which settles the int64 column
    test and a key layout's refusal of a large box without it.
    """

    def __init__(self, lam, ell: int, h: int):
        lam = Fraction(lam)
        if lam <= 2:
            raise ValidationError("box scale lam must exceed 2")
        if ell < 0 or h < 0:
            raise ValidationError("box parameters ell, h must be nonnegative")
        self.lam = lam
        self.ell = int(ell)
        self.h = int(h)

    @cached_property
    def _norm_sq_max(self) -> int:
        # The squared norm is an integer, so it is at most p^(2 ell) / q^(2 ell)
        # exactly when it is at most this floor.
        return self.lam.numerator ** (2 * self.ell) // self.lam.denominator ** (2 * self.ell)

    def __repr__(self):
        return f"BoxSet(lam={self.lam}, ell={self.ell}, h={self.h})"

    def contains(self, g: GroupElement) -> bool:
        if abs(g.k) > self.h:
            return False
        return sum(v * v for v in g.x) <= self._norm_sq_max

    def contains_columns(self, xs: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """Membership mask of the elements with coordinate rows xs
        (``packed``'s layout) and exponents ks.

        The test is norm_sq <= p^(2 ell) // q^(2 ell), exact as in
        ``contains``. Coordinates must be small enough that the squared norm
        cannot overflow int64, which every key layout guarantees.
        """
        limit = math.isqrt(_INT64_MAX // len(xs))
        if len(ks) and (int(xs.max()) > limit or int(xs.min()) < -limit):
            raise ValidationError(
                f"coordinates beyond {limit} overflow the int64 box test"
            )
        bound = _INT64_MAX if 2 * self.ell >= 63 else min(self._norm_sq_max, _INT64_MAX)
        return (np.abs(ks) <= self.h) & ((xs * xs).sum(axis=0) <= bound)

    def norm_bound(self) -> Fraction:
        return self.lam ** self.ell


def choose_lambda(A: ToralMatrix, phi) -> Fraction:
    """The least hundredth lam > 2 that meets, exactly, every strict
    condition the box lemmas need:

    - ||M|| < lam for M = A, A^-1, B and B^-1 (``matrices.norm_below``);
    - ||v|| + ||A v|| < 1 + lam, on rationals: sqrt(a) + sqrt(b) < c holds
      exactly when c^2 - a - b > 0 and 4ab < (c^2 - a - b)^2;
    - ||A^i v|| < lam^i for 2 < i <= I_MAX, as |A^i v|^2 q^(2i) < p^(2i)
      with lam = p/q.

    Each condition, once it holds, holds for every larger lam. So the search
    doubles the hundredths from 201 until all of them hold, then bisects
    down to the least that passes; that lam is certified by construction.
    """
    operators = (A.entries, A.inverse_entries, phi.B, matrices.inverse_unimodular(phi.B))
    v_sq = sum(c * c for c in phi.v)
    norms_sq = []  # |A^i v|^2 for i = 1..I_MAX, exact
    if v_sq:
        w = tuple(phi.v)
        for _ in range(I_MAX):
            w = matrices.matvec(A.entries, w)
            norms_sq.append(sum(c * c for c in w))

    def holds(hundredths: int) -> bool:
        lam = Fraction(hundredths, 100)
        if not all(matrices.norm_below(m, lam) for m in operators):
            return False
        if not v_sq:
            return True
        slack = (1 + lam) ** 2 - v_sq - norms_sq[0]
        p, q = lam.numerator, lam.denominator
        return (slack > 0 and 4 * v_sq * norms_sq[0] < slack * slack
                and all(n * q ** (2 * i) < p ** (2 * i) for i, n in enumerate(norms_sq[2:], 3)))

    fails, passes = 200, 201  # lam = 2 is excluded
    while not holds(passes):
        fails, passes = passes, 2 * passes
    while passes - fails > 1:
        mid = (fails + passes) // 2
        fails, passes = (fails, mid) if holds(mid) else (mid, passes)
    return Fraction(passes, 100)


def sample_box(
    rng: np.random.Generator,
    box: BoxSet,
    dim: int,
    count: int,
) -> list:
    """Sample elements of a box: random interior plus near-boundary points.

    Interior points come from rejection sampling in the bounding cube;
    boundary points are lattice roundings of random directions scaled to the
    norm radius, which are the binding cases for the inclusion lemmas: of the
    2^dim lattice corners around such a point, the first in the box of
    largest norm. Up to 50 * count boundary attempts fill the
    BOUNDARY_FRACTION share; if they starve (a degenerate box), interior
    points top the sample up. Every exponent is uniform in [-h, h].

    Draws are made in array batches. Membership of every returned element
    is decided exactly, as sum(x_i^2) <= p^(2 ell) // q^(2 ell) in int64, so
    the box's coordinates must fit that test (``check_inclusion`` refuses a
    box beyond its key layout before drawing).
    """
    if count <= 0:
        raise ValidationError("sample count must be positive")
    bound = box._norm_sq_max
    radius = math.isqrt(bound)
    h = box.h
    xs_parts, ks_parts = [], []

    def keep(xs: np.ndarray):
        xs_parts.append(xs)
        ks_parts.append(rng.integers(-h, h + 1, size=len(xs)))
        return len(xs)

    def interior(need: int):
        while need > 0:
            xs = rng.integers(-radius, radius + 1, size=(2 * need + 8, dim))
            need -= keep(xs[(xs * xs).sum(axis=1) <= bound][:need])

    interior(count - int(count * BOUNDARY_FRACTION))
    target = float(box.norm_bound())
    corners = (np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1
    need = count - sum(map(len, xs_parts))
    attempts = 0
    while need > 0 and attempts < 50 * count:
        # Nearly every attempt hits (the corner rounded toward 0 is no longer
        # than the point), so a batch a little over ``need`` fills the share.
        m = min(need + 8, 50 * count - attempts)
        attempts += m
        u = rng.normal(size=(m, dim))
        nu = np.linalg.norm(u, axis=1)
        u, nu = u[nu > 0], nu[nu > 0]
        cand = np.floor(u / nu[:, None] * target).astype(np.int64)[:, None] + corners
        norms = (cand * cand).sum(axis=2)
        inside = norms <= bound
        hits = np.flatnonzero(inside.any(axis=1))[:need]
        best = np.where(inside[hits], norms[hits], -1).argmax(axis=1)
        need -= keep(cand[hits, best])
    interior(count - sum(map(len, xs_parts)))
    xs, ks = np.concatenate(xs_parts), np.concatenate(ks_parts)
    return list(map(GroupElement, map(tuple, xs.tolist()), ks.tolist()))


class InclusionReport(NamedTuple):
    """Outcome of a sampled inclusion check: the number of images tested and
    the (sample, image) pairs whose image left the target box."""

    checked: int
    violations: list


def check_inclusion(source: BoxSet, target: BoxSet, layout: KeyLayout, images, samples: int,
                    rng: np.random.Generator, what: str) -> InclusionReport:
    """Sampled exact check that a map takes the box ``source`` into ``target``.

    The samples (``sample_box``) are packed on ``layout`` in draw order, and
    ``images(keys, what)`` gives each sample's images as one row of keys on
    the same layout; every image is tested with the exact column test. A
    source box that does not fit the layout raises ValidationError naming
    ``what`` before any sample is drawn, so none is dropped.

    lam > 2, so the box reaches |x_i| >= 2^ell. Where that lower bound
    already passes the layout and is too long to print, the box is refused
    with it, and its exact bound is never formed.
    """
    reach = 1 << source.ell
    if reach <= layout.x_limit or int_text(reach).isdigit():
        reach = math.isqrt(source._norm_sq_max)
    if reach > layout.x_limit or source.h > layout.radius:
        raise ValidationError(
            f"{what} does not fit the int64 key layout: {source} reaches "
            f"|x_i| = {int_text(reach)}, |k| = {source.h}, beyond |x_i| <= {layout.x_limit}, "
            f"|k| <= {layout.radius}"
        )
    points = sample_box(rng, source, layout.dim, samples)
    keys = layout.pack_rows(*element_columns(points, layout.dim), what)
    moved = images(keys, what)
    outside = ~target.contains_columns(*layout.unpack(moved.ravel())).reshape(moved.shape)
    owners = map(points.__getitem__, np.nonzero(outside)[0].tolist())
    return InclusionReport(moved.size, list(zip(owners, layout.elements(moved[outside]))))


def check_box_inclusion_u1(
    ctx: GroupContext,
    gens: GeneratingSet,
    lam,
    ell: int,
    h: int,
    samples: int,
    rng: np.random.Generator,
) -> InclusionReport:
    """Sampled exact check that one generator step stays in B(ell+h, h+1)."""
    if ell < 1 or h < 1:
        raise ValidationError("inclusion check requires ell, h >= 1")
    table = translate_steps(ctx, gens.all, h + 1)
    return check_inclusion(
        BoxSet(lam, ell, h), BoxSet(lam, ell + h, h + 1), table.layout,
        table.translates, samples, rng, "u1 inclusion check",
    )


def check_box_inclusion_un(
    ctx: GroupContext,
    gens: GeneratingSet,
    lam,
    ell: int,
    h: int,
    n: int,
    samples: int,
    rng: np.random.Generator,
) -> InclusionReport:
    """Sampled exact check that N generator rounds stay in the N-step box.

    The N-neighborhood of a sample g is g * B_N, so its elements are the
    translates of g by one ball B_N, |B_N| per sample.
    """
    if ell < 1 or h < 1:
        raise ValidationError("inclusion check requires ell, h >= 1")
    if n < 0:
        raise ValidationError("N must be nonnegative")
    ball = ctx.balls.get((gens, n))
    if ball is None:  # by length, then by key: the step table's columns
        ball = ctx.balls[(gens, n)] = tuple(word_ball(ctx, gens, n).elements())
    table = translate_steps(ctx, ball, h + n)
    return check_inclusion(
        BoxSet(lam, ell, h), BoxSet(lam, ell + n * (h + n), h + n), table.layout,
        table.translates, samples, rng, f"u{n} inclusion check",
    )
