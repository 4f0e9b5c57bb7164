"""Set iteration driven by an automorphism, with exact envelope certification.

One step maps a finite set S to U_N(phi(S)). Every iterate is certified to
stay inside the box B(ell0 + p(k), h0 + N k), where the offset polynomial

    p(k) = sum_{i=1..k} 2 (h0 + N i)^2

is evaluated in exact integers; a violation raises CertificationError and
fails the run. Diameter growth along the iteration is measured against the
word-length oracle and classified as polynomial or exponential by competing
straight-line fits. The flat lattice control runs the same iteration in Z^d,
where the word metric is the l1 distance and diameters are exact at any
scale, to exhibit the contrasting exponential growth.

Both iterations run on sorted int64 key arrays of one key layout fixed for
the run (``packed.py``): the map applies an automorphism (the control's is
(A, 0, +1)) as one array step on the unpacked coordinate rows, U_N is
``packed.spread``, and the envelope and diameters read the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import packed
from .autos import GroupAutomorphism, require_valid
from .errors import BudgetError, CertificationError, ValidationError
from .group import GroupContext, GroupElement, ToralMatrix, lattice_element
from .packed import (
    KeyLayout,
    StepTable,
    certify,
    element_columns,
    pack_elements,
    spread,
    translate_steps,
)
from .words import (
    DEFAULT_ELEMENT_BUDGET,
    BoxSet,
    Diameter,
    GeneratingSet,
    InclusionReport,
    WordLengthOracle,
    check_inclusion,
    column_diameter,
)

# Verdict selection: the better straight-line fit must win by this much R^2.
CLASSIFICATION_MARGIN = 0.05
# Fraction of leading curve points discarded before fitting.
BURN_IN_FRACTION = 0.2
MIN_FIT_POINTS = 6


@dataclass(frozen=True)
class IterationConfig:
    phi: GroupAutomorphism
    n_rounds: int
    a0: frozenset
    k_max: int
    lam: Fraction
    ell0: int
    h0: int

    @classmethod
    def make(cls, ctx, phi, n_rounds, a0, k_max, lam):
        """The iteration from ``a0`` in its least box: h0 = max |k| over a0,
        and the least ell0 whose box B(ell0, h0) holds a0."""
        require_valid(ctx.matrix, phi)
        a0 = frozenset(a0)
        if not a0:
            raise ValidationError("starting set must be nonempty")
        if n_rounds < 1:
            raise ValidationError("neighborhood rounds N must be >= 1")
        if k_max < 0:
            raise ValidationError("k_max must be nonnegative")
        lam = Fraction(lam)
        h0 = max(abs(g.k) for g in a0)
        ell0 = 0
        while not all(BoxSet(lam, ell0, h0).contains(g) for g in a0):
            ell0 += 1
        return cls(phi, int(n_rounds), a0, int(k_max), lam, ell0, h0)


def envelope_offset(h0: int, n_rounds: int, k: int) -> int:
    """Exact integer offset polynomial p(k) = sum 2 (h0 + N i)^2, i = 1..k."""
    return sum(2 * (h0 + n_rounds * i) ** 2 for i in range(1, k + 1))


def _map_keys(ctx: GroupContext, layout: KeyLayout, keys: np.ndarray,
              phi: GroupAutomorphism, what: str):
    """Keys of the images phi(x z^k) = (B x + c_k, e k) of the keys, in their
    order, where c_k = ``ctx.power(v z^e, k).x`` is the lattice part of
    (v z^e)^k, formed once per context for each exponent met (``ctx.shifts``).

    Packing certificate: a coordinate of the image is at most the B-row's
    |entries| times the set's reach (at least 1) plus the largest |c_k|;
    ValidationError naming ``what`` if that could leave the layout. The
    certificate reads the whole set (the reach from ``layout.reach``, the
    exponent rows from ``layout.rows``); then the keys are unpacked, mapped
    and packed ``packed.BLOCK_KEYS`` at a time into one output array, so only
    one block of coordinates is alive at once.
    """
    radius = layout.radius
    tail = GroupElement(phi.v, phi.e)  # phi(z)
    shifts = {}
    for k in (layout.rows(keys)[0] - radius).tolist():
        shift = ctx.shifts.get((tail, k))
        if shift is None:
            shift = ctx.shifts[(tail, k)] = ctx.power(tail, k).x
        shifts[k] = shift
    reach = [max(r, 1) for r in layout.reach(keys)]
    bound = max(
        sum(abs(m) * r for m, r in zip(row, reach))
        + max((abs(c[i]) for c in shifts.values()), default=0)
        for i, row in enumerate(phi.B)
    )
    certify(what, "the image", bound, layout.x_limit)
    table = np.zeros((layout.dim, 2 * radius + 1), dtype=np.int64)
    for k, c in shifts.items():
        table[:, k + radius] = c
    matrix = np.array(phi.B, dtype=np.int64)
    out = np.empty_like(keys)
    for lo in range(0, len(keys), packed.BLOCK_KEYS):
        xs, ks = layout.unpack(keys[lo : lo + packed.BLOCK_KEYS])
        mapped = matrix @ xs
        mapped += np.take(table, ks + radius, axis=1)
        out[lo : lo + packed.BLOCK_KEYS] = layout.pack_rows(mapped, phi.e * ks, what)
    return out


class CurvePoint(NamedTuple):
    k: int
    diameter: int
    diameter_exact: bool
    set_size: int
    envelope_ell: int | None
    envelope_h: int | None


@dataclass(frozen=True)
class GrowthVerdict:
    kind: str  # "polynomial" | "exponential" | "inconclusive"
    degree_estimate: float | None = None
    rate_estimate: float | None = None
    r2_polynomial: float | None = None
    r2_exponential: float | None = None
    reason: str | None = None


@dataclass
class GrowthCurve:
    points: list


def _iterate(table: StepTable, keys: np.ndarray, phi: GroupAutomorphism, rounds: int,
             k_max: int, budget: int, name: str, point: Callable) -> GrowthCurve:
    """The points ``point(k, keys)`` of iterates k = 0..k_max, from the sorted
    distinct keys of iterate 0; iterate k + 1 is ``spread`` by ``rounds`` of
    the image of iterate k under ``phi`` (``_map_keys`` on the table's
    layout). A BudgetError carries the points computed so far as ``partial``."""
    points = []
    for k in range(k_max + 1):
        points.append(point(k, keys))
        if k < k_max:
            what = f"{name} step {k + 1}"
            # ``spread`` refuses a far row of the image on a bound alone
            # (``StepTable.certify_far``), which grows with |k|, so the
            # image's two extreme rows are tested before ``_map_keys`` forms
            # their shifts, which at far exponents takes seconds.
            ends = (keys[[0, -1]] >> table.layout.k_shift) - table.layout.radius
            for end in sorted((phi.e * ends).tolist(), key=abs):
                table.certify_far(end, what)
            mapped = _map_keys(table.ctx, table.layout, keys, phi, what)
            del keys  # only its image is spread
            mapped.sort()
            try:
                keys = spread(mapped, rounds, table, budget, what)
            except BudgetError as exc:
                exc.partial = GrowthCurve(points)
                raise
    return GrowthCurve(points)


def iterate_once(
    ctx: GroupContext,
    gens: GeneratingSet,
    phi: GroupAutomorphism,
    n_rounds: int,
    current: Iterable[GroupElement],
) -> set:
    """One step of the iteration: U_N applied to the automorphism image.

    A set-in, set-out adapter over the loop that ``run_iteration`` runs.
    """
    if n_rounds < 1:
        raise ValidationError("neighborhood rounds N must be >= 1")
    table, keys = pack_elements(ctx, gens, list(current), n_rounds, "iteration")
    curve = _iterate(table, keys, phi, n_rounds, 1, DEFAULT_ELEMENT_BUDGET, "iteration",
                     lambda k, keys: keys)
    return set(table.layout.elements(curve.points[-1]))


def run_iteration(
    ctx: GroupContext,
    gens: GeneratingSet,
    config: IterationConfig,
    oracle: WordLengthOracle,
    budget: int = DEFAULT_ELEMENT_BUDGET,
) -> GrowthCurve:
    """Iterate, recording (k, diameter, size) and certifying the envelope.

    The iterates live on one key layout whose exponent range h0 + N k_max
    holds every envelope. The box membership of every element of every
    iterate is checked exactly, ``packed.BLOCK_KEYS`` keys at a time; the
    first violation, in key order, aborts the run.
    """
    n = config.n_rounds
    table = translate_steps(ctx, gens.all, config.h0 + n * config.k_max)
    layout = table.layout
    keys = layout.pack_set(
        *element_columns(list(config.a0), ctx.dim), "starting set (step 0)"
    )

    def point(k: int, keys: np.ndarray) -> CurvePoint:
        ell = config.ell0 + envelope_offset(config.h0, n, k)
        h = config.h0 + n * k
        box = BoxSet(config.lam, ell, h)
        for lo in range(0, len(keys), packed.BLOCK_KEYS):
            block = keys[lo : lo + packed.BLOCK_KEYS]
            inside = box.contains_columns(*layout.unpack(block))
            if not inside.all():
                g = layout.elements(block[~inside][:1])[0]
                raise CertificationError(
                    f"envelope violated at step {k}: {g} escaped {box}"
                )
        # Keys sort by exponent first, so the first and last give the exponent
        # spread; beyond the radius column_diameter answers from it alone.
        ends = keys[[0, -1]] >> layout.k_shift if len(keys) else (0, 0)
        if ends[1] - ends[0] > oracle.radius:
            diam = Diameter(oracle.radius + 1, False)
        else:
            diam = column_diameter(oracle, *layout.unpack(keys))
        return CurvePoint(k, diam.value, diam.exact, len(keys), ell, h)

    return _iterate(table, keys, config.phi, n, config.k_max, budget, "iteration", point)


def _fit_line(x: np.ndarray, y: np.ndarray):
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def classify_growth(curve: GrowthCurve) -> GrowthVerdict:
    """Competing fits of the diameter sequence on log-log and semilog axes.

    Only exact diameters feed the fits; lower-bound points are excluded to
    avoid truncation bias. The first 20% of points are burn-in. If fewer
    than six usable points remain, or neither model wins by the R^2 margin,
    the verdict is inconclusive. Both fits are always reported.
    """
    pts = curve.points
    burn = int(BURN_IN_FRACTION * len(pts))
    usable = [
        p for p in pts[burn:]
        if p.diameter_exact and p.k >= 1 and p.diameter >= 1
    ]
    if len(usable) < MIN_FIT_POINTS:
        return GrowthVerdict(
            "inconclusive",
            reason=f"insufficient-data: {len(usable)} exact points after burn-in",
        )
    ks = np.array([p.k for p in usable], dtype=float)
    log_d = np.log(np.array([p.diameter for p in usable], dtype=float))
    degree, _, r2_poly = _fit_line(np.log(ks), log_d)
    rate, _, r2_exp = _fit_line(ks, log_d)
    if r2_poly > r2_exp + CLASSIFICATION_MARGIN:
        kind = "polynomial"
    elif r2_exp > r2_poly + CLASSIFICATION_MARGIN:
        kind = "exponential"
    else:
        kind = "inconclusive"
    return GrowthVerdict(
        kind,
        degree_estimate=degree,
        rate_estimate=rate,
        r2_polynomial=r2_poly,
        r2_exponential=r2_exp,
        reason=None if kind != "inconclusive" else "fits are not separated",
    )


def abelian_control(
    A: ToralMatrix,
    n_rounds: int,
    a0: Iterable[Sequence[int]],
    k_max: int,
    budget: int = DEFAULT_ELEMENT_BUDGET,
) -> GrowthCurve:
    """The same iteration in the plain lattice Z^d, where it stretches.

    The matrix acts as an automorphism of Z^d, U_N is the l1 ball Minkowski
    sum, and diameters are exact l1 distances (no enumeration radius limits).
    The measured growth is exponential at the spectral rate, in contrast to
    the group side. It runs the packed kernel of the group iteration on a
    layout without exponents, with the constant steps +-e_i, and its map is
    the automorphism (A, 0, +1), whose only shift is c_0 = 0.
    """
    if not A.is_hyperbolic:
        raise ValidationError(
            f"control requires a hyperbolic matrix: {A.hyperbolicity.reason}"
        )
    seeds = [lattice_element(v) for v in a0]
    if not seeds:
        raise ValidationError("starting set must be nonempty")
    if n_rounds < 1:
        raise ValidationError("neighborhood rounds N must be >= 1")
    if k_max < 0:
        raise ValidationError("k_max must be nonnegative")
    dim = A.dim
    if any(len(g.x) != dim for g in seeds):
        raise ValidationError(f"control seeds must have dimension {dim}")
    table = translate_steps(GroupContext(A), GeneratingSet.standard(dim).h_generators, 0)
    layout = table.layout
    keys = layout.pack_set(*element_columns(seeds, dim), "control seeds (step 0)")
    # Half the sign patterns suffice for the l1 diameter: s and -s give the
    # same spread.
    signs = np.array([
        [1] + [1 if (mask >> i) & 1 else -1 for i in range(dim - 1)]
        for mask in range(1 << (dim - 1))
    ], dtype=np.int64)

    def point(k: int, keys: np.ndarray) -> CurvePoint:
        return CurvePoint(k, _l1_diameter(layout, keys, signs), True, len(keys), None, None)

    phi = GroupAutomorphism(A.entries, (0,) * dim, 1)
    return _iterate(table, keys, phi, n_rounds, k_max, budget, "control", point)


def _l1_diameter(layout: KeyLayout, keys: np.ndarray, signs: np.ndarray) -> int:
    """The l1 diameter of nonempty lattice keys: the largest spread of their
    projections on the sign vectors, taken over ``packed.BLOCK_KEYS`` keys at
    a time."""
    ends = np.array([
        (proj.min(axis=1), proj.max(axis=1))
        for proj in (
            signs @ layout.unpack(keys[lo : lo + packed.BLOCK_KEYS])[0]
            for lo in range(0, len(keys), packed.BLOCK_KEYS)
        )
    ])
    return int((ends[:, 1].max(axis=0) - ends[:, 0].min(axis=0)).max())


def check_box_inclusion_phi(
    ctx: GroupContext,
    phi: GroupAutomorphism,
    lam,
    ell: int,
    h: int,
    samples: int,
    rng: np.random.Generator,
) -> InclusionReport:
    """Sampled exact check that the automorphism maps B(ell,h) into
    B(ell+h, h+1); the bound needs ell, h >= 2."""
    if ell < 2 or h < 2:
        raise ValidationError("automorphism inclusion check requires ell, h >= 2")
    require_valid(ctx.matrix, phi)
    layout = KeyLayout(ctx.dim, h)
    return check_inclusion(
        BoxSet(lam, ell, h), BoxSet(lam, ell + h, h + 1), layout,
        lambda keys, what: _map_keys(ctx, layout, keys, phi, what)[:, None], samples, rng,
        "phi inclusion check",
    )
