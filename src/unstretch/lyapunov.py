"""Finite-time Lyapunov exponents along direction fields on toy torus maps,
volume averages of the one-step expansion, and the consistency check between
time averages and the space average.

The toy maps are volume preserving by construction: linear automorphisms of
the torus, the time-one map of their suspension (flow coordinate last), and
shear conjugates h o A o h^-1 of a linear automorphism, where h is a
closed-form trigonometric shear with unit Jacobian determinant. Conjugation
keeps the invariant line fields in closed form, which is what makes the
time-average versus space-average comparison well posed. ``toy_system`` is
the one table that pairs a map kind with a direction and its line field.

Orbits and cocycles run on lanes: each map has one array step that advances
m points and pushes a tangent vector at each, so all orbit starts move in
lockstep. Point coordinates take the float operations of the one-point
formula in its order (explicit products summed left to right, ``% 1.0`` as
Python computes it, ``np.sin``/``np.cos``), so each orbit has the bits of
the one-point formula, whichever lanes run beside it. The cocycle applies
the Jacobian factor by factor, which matches the one-point product of the
factors to 1e-12 relative rather than bit for bit. Directions are
renormalized at every step (Benettin et al.), so exponents accumulate as log
sums and never overflow. Lanes and samples go in blocks of ``BLOCK`` rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .group import ToralMatrix

TOL_DIRECTION = 1e-9
# Off-line drift a stable-direction run may reach (``stable_step_limit``).
STABLE_ERROR = 1e-6
# Rows (orbit lanes or Monte Carlo samples) per array step: bounds the
# temporaries, whatever the number of starts or samples.
BLOCK = 1024
# Steps whose expansion factors are held, then logged, summed and checked for
# a collapse in one pass: a per-step reduction would cost more than the step.
STEPS = 64


def _row_terms(matrix: ToralMatrix):
    """Each row of the matrix as its nonzero (entry, column) pairs, in floats.
    A GL(d, Z) matrix has no zero row."""
    return [[(float(a), j) for j, a in enumerate(r) if a] for r in matrix.entries]


def _matvec(rows, coords, mod=False):
    """A x for x given as coordinate rows, each row reduced ``% 1.0`` if
    ``mod``: a_0 x_0 + a_1 x_1 + ... summed left to right, with zero entries
    skipped and entries 1 taking no product. Both are exact, up to the sign
    of a zero sum, which ``% 1.0`` removes."""
    out = []
    for terms in rows:
        acc = None
        for a, j in terms:
            term = coords[j] if a == 1.0 else a * coords[j]
            acc = term if acc is None else acc + term
        out.append(acc % 1.0 if mod else acc)
    return out


def _lengths(coords, out=None):
    """Euclidean lengths of the vectors given as coordinate rows."""
    out = np.hypot(coords[0], coords[1] if len(coords) > 1 else 0.0, out=out)
    for c in coords[2:]:
        np.hypot(out, c, out=out)
    return out


@dataclass(frozen=True)
class ToyMap:
    """A torus map with closed-form differential, acting on lanes.

    ``advance(points, dirs)`` takes m points of [0,1)^d and a tangent vector
    at each, both as coordinate rows (d arrays of length m: the transpose of
    an (m, d) array), and returns the image points and the vectors pushed
    forward by the differential (None when ``dirs`` is None), as lists of
    coordinate rows.
    """

    dim: int
    advance: Callable


def linear_toral(matrix: ToralMatrix) -> ToyMap:
    """x -> A x mod 1 with constant differential A."""
    rows = _row_terms(matrix)

    def advance(points, dirs=None):
        return _matvec(rows, points, mod=True), None if dirs is None else _matvec(rows, dirs)

    return ToyMap(matrix.dim, advance)


def suspension_time_one(matrix: ToralMatrix) -> ToyMap:
    """Time-one map of the suspension flow, flow coordinate last.

    In fundamental-domain coordinates the map is (x, s) -> (A x mod 1, s);
    its differential is the block matrix diag(A, 1), so the flow direction is
    carried isometrically.
    """
    d = matrix.dim
    rows = _row_terms(matrix)

    def advance(points, dirs=None):
        images = _matvec(rows, points, mod=True) + [points[d]]
        return images, None if dirs is None else _matvec(rows, dirs) + [dirs[d]]

    return ToyMap(d + 1, advance)


def _shear_profile(coefficients: Sequence[float]):
    """The shear profile s(y) and its derivative s'(y), both at once.

    s(y) = sum_j c_j sin(2 pi (j+1) y) / (2 pi (j+1)), so the maximum slope
    is bounded by sum |c_j| and the shear h(x) = x + s(x_last) e_0 has unit
    Jacobian determinant exactly. Each sine and cosine is evaluated once per
    argument; with no coefficients both are 0.0.
    """
    terms = [(float(c), 2.0 * math.pi * (j + 1)) for j, c in enumerate(coefficients)]

    def profile(y):
        s = ds = None
        for c, k in terms:
            arg = k * y
            term, slope = c * np.sin(arg) / k, c * np.cos(arg)
            s, ds = (term, slope) if s is None else (s + term, ds + slope)
        return (0.0, 0.0) if s is None else (s, ds)

    return profile


def shear_conjugated(matrix: ToralMatrix, coefficients: Sequence[float]) -> ToyMap:
    """The conjugate h o A o h^-1 of a linear automorphism by a shear.

    h displaces the first coordinate by a trigonometric function of the last
    one, so dets stay exactly 1 and the map is a genuine volume-preserving
    perturbation of the linear model with all derivatives in closed form.
    One step evaluates the profile at the point p and at w = A h^-1(p) mod 1;
    the image h(w) mod 1 and the differential D h(w) A D h^-1(p) share them.
    """
    d = matrix.dim
    if d < 2:
        raise ValidationError("shear conjugation needs dimension >= 2")
    rows = _row_terms(matrix)
    profile = _shear_profile(coefficients)

    def advance(points, dirs=None):
        s_p, ds_p = profile(points[d - 1])
        # h^-1 only moves the first coordinate, by -s of the last one.
        w = _matvec(rows, [points[0] - s_p, *points[1:]], mod=True)
        s_w, ds_w = profile(w[d - 1])
        pushed = None
        if dirs is not None:
            pushed = _matvec(rows, [dirs[0] - ds_p * dirs[d - 1], *dirs[1:]])
            pushed[0] = pushed[0] + ds_w * pushed[d - 1]
        w[0] = w[0] + s_w
        return [c % 1.0 for c in w], pushed

    return ToyMap(d, advance)


@dataclass(frozen=True)
class DirectionField:
    """A unit tangent direction at every point (the line field evaluator).

    ``evaluator`` maps an (m, d) array of points to their vectors: an (m, d)
    array, or one vector for a constant field.
    """

    evaluator: Callable

    def at(self, points: np.ndarray) -> np.ndarray:
        """Unit vectors at the rows of ``points``, as an (m, d) array; raises
        ValidationError if any is shorter than ``TOL_DIRECTION``."""
        coords = np.broadcast_to(
            np.asarray(self.evaluator(points), dtype=float), points.shape
        ).T
        lengths = _lengths(coords)
        if (lengths < TOL_DIRECTION).any():
            raise ValidationError("direction field returned a degenerate vector")
        return (coords / lengths).T

    @classmethod
    def constant(cls, vector) -> "DirectionField":
        v = tuple(float(c) for c in vector)
        return cls(lambda p: v)

    @classmethod
    def flow_direction(cls, dim: int) -> "DirectionField":
        v = (0.0,) * (dim - 1) + (1.0,)
        return cls(lambda p: v)


def eigen_direction(matrix: ToralMatrix, which: str = "unstable") -> DirectionField:
    """Constant field along the extreme real eigenvector of the matrix."""
    evals, evecs = np.linalg.eig(matrix.as_array())
    idx = np.argmax(np.abs(evals)) if which == "unstable" else np.argmin(np.abs(evals))
    if abs(evals[idx].imag) > 1e-12:
        raise ValidationError(f"{which} eigenvalue of the matrix is not real")
    v = np.real(evecs[:, idx])
    lead = next(c for c in v if abs(c) > 1e-12)
    if lead < 0:
        v = -v
    return DirectionField.constant(tuple(v))


def _unit_eigenvector(matrix: ToralMatrix, which: str) -> np.ndarray:
    """The vector of the constant ``eigen_direction`` field, as the field
    gives it at every point: scaled to unit length."""
    return eigen_direction(matrix, which).at(np.zeros((1, matrix.dim)))[0]


def stable_step_limit(matrix: ToralMatrix) -> float:
    """The most steps a stable-direction run takes before rounding sets its
    estimate. Pushing forward along the stable line is float-repelling: a
    step's 2^-52 relative rounding leaves a component off the line that grows
    by max|lambda| / min|lambda| per step against the line, so the limit is
    the largest n with 2^-52 (max|lambda| / min|lambda|)^n <= STABLE_ERROR,
    and infinite when all moduli are equal."""
    moduli = np.abs(matrix.eigenvalues)
    growth = math.log(moduli.max() / moduli.min())
    if growth <= 0:
        return math.inf
    return math.floor(math.log(STABLE_ERROR / 2.0**-52) / growth)


def shear_conjugated_eigen(
    matrix: ToralMatrix, coefficients: Sequence[float], which: str = "unstable"
) -> DirectionField:
    """The invariant line field of a shear conjugate: the pushforward of the
    linear model's eigendirection under the conjugacy."""
    d = matrix.dim
    profile = _shear_profile(coefficients)
    v0 = _unit_eigenvector(matrix, which)

    def evaluator(points):
        # D h at h^-1(p); the last coordinate is untouched by the shear.
        slope = profile(points[:, d - 1])[1]
        vectors = np.tile(v0, (len(points), 1))
        vectors[:, 0] = v0[0] + slope * v0[d - 1]
        return vectors

    return DirectionField(evaluator)


def toy_system(
    matrix: ToralMatrix, kind: str, direction: str, coefficients: Sequence[float]
) -> tuple[ToyMap, DirectionField]:
    """The toy map of one kind and its invariant line field along one
    direction (an eigendirection, its shear pushforward, or the suspension
    flow). ``coefficients`` are the shear profile's, read by that kind only."""
    if kind == "linear_toral":
        toy = linear_toral(matrix)
    elif kind == "suspension_time_one":
        toy = suspension_time_one(matrix)
    elif kind == "shear_conjugated":
        toy = shear_conjugated(matrix, coefficients)
    else:
        raise ValidationError(f"unknown map kind {kind!r}")
    if direction == "flow":
        if kind != "suspension_time_one":
            raise ValidationError("flow direction requires the suspension map")
        return toy, DirectionField.flow_direction(toy.dim)
    if direction not in ("unstable", "stable"):
        raise ValidationError(f"unknown direction {direction!r}")
    if kind == "shear_conjugated":
        return toy, shear_conjugated_eigen(matrix, coefficients, direction)
    if kind == "suspension_time_one":  # the base eigenvector, no flow component
        return toy, DirectionField.constant((*_unit_eigenvector(matrix, direction), 0.0))
    return toy, eigen_direction(matrix, direction)


def finite_time_exponents(toy_map: ToyMap, field: DirectionField, starts, n: int):
    """Finite-time exponents of the orbits of all rows of ``starts`` at once.

    Lane i is the orbit of ``starts[i]``: its direction is seeded from the
    field there and pushed forward by the differential at every step, and its
    exponent is (1/n) times the sum of the log expansion factors,
    renormalized at every step. The lanes advance in lockstep, in blocks of
    ``BLOCK``; each lane's exponent is that of the lane run alone.
    """
    if n < 1:
        raise ValidationError("orbit length n must be >= 1")
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != toy_map.dim:
        raise ValidationError(f"orbit starts must be rows of length {toy_map.dim}")
    values = np.empty(len(starts))
    # A collapse is checked on every lane and step, and reported after each
    # run of STEPS steps; until then the lanes run on without warnings.
    with np.errstate(all="ignore"):
        for lo in range(0, len(starts), BLOCK):
            block = starts[lo:lo + BLOCK]
            u = field.at(block).T
            x = block.T
            total = np.zeros(len(block))
            expansions = np.empty((min(n, STEPS), len(block)))
            for done in range(0, n, STEPS):
                held = expansions[:min(STEPS, n - done)]
                for factor in held:
                    x, pushed = toy_map.advance(x, u)
                    _lengths(pushed, out=factor)
                    u = [c / factor for c in pushed]
                if (held < TOL_DIRECTION).any():
                    raise ValidationError("cocycle collapsed to a degenerate direction")
                # one running sum per lane in step order; a plain sum's order
                # would depend on the number of lanes
                logs = np.log(held)
                logs[0] += total
                total = np.add.accumulate(logs)[-1]
            values[lo:lo + BLOCK] = total / n
    return values


def finite_time_exponent(toy_map: ToyMap, field: DirectionField, x0, n: int) -> float:
    """(1/n) sum of log expansion factors along the orbit, renormalized.

    The one-orbit case of ``finite_time_exponents``: the direction is seeded
    from the field at the start and pushed forward by the differential at
    every step, which is the cocycle chain rule in log form.
    """
    return float(finite_time_exponents(toy_map, field, [x0], n)[0])


def orbits(toy_map: ToyMap, starts: np.ndarray, steps: int) -> Iterator[np.ndarray]:
    """The first ``steps`` points of each start's orbit, start by start, as
    (steps, d) arrays; the lanes advance in blocks of ``BLOCK``."""
    for lo in range(0, len(starts), BLOCK):
        x = starts[lo:lo + BLOCK].T
        path = np.empty((steps,) + x.shape)
        for t in range(steps):
            path[t] = x
            x = toy_map.advance(x)[0]
        yield from path.transpose(2, 0, 1)


class CenterEstimate(NamedTuple):
    value: float
    half_width: float
    n_samples: int


def center_integral(
    toy_map: ToyMap,
    field: DirectionField,
    n_samples: int,
    rng: np.random.Generator,
) -> CenterEstimate:
    """Monte Carlo volume average of log ||Dg(x)| restricted to the field||.

    The half width is the standard error of the sample mean; it is exactly
    zero when the integrand is constant. Samples go in blocks of ``BLOCK``.
    """
    if n_samples < 1000:
        raise ValidationError("center integral needs at least 1000 samples")
    values = np.empty(n_samples)
    pts = rng.random((n_samples, toy_map.dim))
    for lo in range(0, n_samples, BLOCK):
        x = pts[lo:lo + BLOCK]
        pushed = toy_map.advance(x.T, field.at(x).T)[1]
        values[lo:lo + BLOCK] = np.log(_lengths(pushed))
    half_width = float(values.std(ddof=1) / math.sqrt(n_samples))
    return CenterEstimate(float(values.mean()), half_width, n_samples)


@dataclass(frozen=True)
class BirkhoffReport:
    orbit_mean: float
    orbit_se: float
    space_value: float
    space_se: float
    discrepancy: float
    combined_se: float
    x_count: int
    n: int


def birkhoff_consistency(
    toy_map: ToyMap,
    field: DirectionField,
    x_count: int,
    n: int,
    rng: np.random.Generator,
) -> BirkhoffReport:
    """Multi-start orbit averages of the exponent against the space average.

    Every toy map preserves volume, so the two averages estimate the same
    number; reports the discrepancy together with both standard errors.
    """
    if x_count < 2:
        raise ValidationError("need at least two orbit starts")
    starts = rng.random((x_count, toy_map.dim))
    exps = finite_time_exponents(toy_map, field, starts, n)
    orbit_mean = float(exps.mean())
    orbit_se = float(exps.std(ddof=1) / math.sqrt(x_count))
    space = center_integral(toy_map, field, max(1000, n), rng)
    disc = abs(orbit_mean - space.value)
    combined = math.hypot(orbit_se, space.half_width)
    return BirkhoffReport(
        orbit_mean, orbit_se, space.value, space.half_width, disc, combined,
        x_count, n,
    )
