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

Each toy map emits its one-point formula once, when it is built, as
straight-line Python source (``ToyMap.source``): one step that maps a point,
pushes a tangent vector by the differential and returns the image, the pushed
vector and its length; an orbit reads its points off the step's first
outputs. Products are summed left to right, entries 1 take no product,
``% 1.0`` is taken as Python takes it, and the length is sqrt(p0 * p0 +
p1 * p1 + ...). The source is compiled twice: over numpy
(``np.sin``, ``np.cos``, ``np.sqrt``), where each coordinate is an array of
lanes and all orbit starts of a block move in lockstep, and over ``math``,
for one point on Python floats. Every operation is IEEE-rounded, and
``math.sin``/``math.cos`` give the bits of ``np.sin``/``np.cos`` on float64
(a premise that the bit-equality tests pin), so an orbit has the bits of the
one-point formula on either path, whichever lanes run beside it. A block of
fewer than ``FLOAT_LANES`` orbit starts runs lane by lane on floats, since a
lockstep step costs about 30 numpy dispatches whatever its lanes. The
cocycle applies the Jacobian factor by factor, which matches the one-point
product of the factors to 1e-12 relative rather than bit for bit.
Directions are renormalized at every step (Benettin et al.), so exponents
accumulate as log sums and never overflow; on both paths the factors of
``STEPS`` steps are held, checked for a collapse, then logged by ``np.log``
and summed in step order. Lanes and samples go in blocks of ``BLOCK`` rows.
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
# Blocks of fewer orbit starts than this run lane by lane on Python floats:
# below it a lockstep step's numpy dispatch, about 30 ufunc calls, costs more
# than stepping each lane alone. The crossover measured in-process is about
# 16 lanes for the linear maps and 25-40 for the shear conjugates; the
# linear maps' is taken for every map.
FLOAT_LANES = 16
# Steps whose expansion factors are held, then logged, summed and checked for
# a collapse in one pass: a per-step reduction would cost more than the step.
STEPS = 64


def _row_terms(matrix: ToralMatrix):
    """Each row of the matrix as its nonzero (entry, column) pairs, in floats.
    A GL(d, Z) matrix has no zero row."""
    return [[(float(a), j) for j, a in enumerate(r) if a] for r in matrix.entries]


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _sums(rows, names) -> list[str]:
    """A x as source, one expression per row, for x given by variable names:
    a_0 x_0 + a_1 x_1 + ... summed left to right, with zero entries skipped
    and entries 1 taking no product. Both are exact, up to the sign of a zero
    sum, which ``% 1.0`` removes."""
    return [
        " + ".join(names[j] if a == 1.0 else f"{a!r} * {names[j]}" for a, j in terms)
        for terms in rows
    ]


def _length_source(names) -> str:
    """The Euclidean length of a vector, as source: sqrt(p0 * p0 + p1 * p1 +
    ...), only IEEE-rounded operations, so floats and lanes give the same
    bits."""
    return "sqrt(" + " + ".join(f"{n} * {n}" for n in names) + ")"


def _def(name: str, params, lines, result: str) -> str:
    """The source of a straight-line function."""
    body = "".join(f"    {line}\n" for line in lines)
    return f"def {name}({', '.join(params)}):\n{body}    return {result}\n"


def _compile(source: str, module) -> dict:
    """The functions ``source`` defines, with ``sin``, ``cos`` and ``sqrt``
    taken from ``module``: ``np`` for lanes, ``math`` for Python floats."""
    namespace = {"sin": module.sin, "cos": module.cos, "sqrt": module.sqrt}
    exec(source, namespace)
    return namespace


@dataclass(frozen=True)
class ToyMap:
    """A torus map with closed-form differential, compiled from its
    one-point formula.

    ``source`` defines ``step(x0, ..., v0, ..., r)``, straight-line code of
    the coordinates of one point with no loop: it pushes the unit vector
    v / r at x by the differential and returns, flat, the image point, the
    pushed vector and its length, so a step's output is the next step's
    input. The image point is the first ``dim`` outputs.

    ``lanes`` is ``step`` compiled over numpy, where each coordinate is an
    array of lanes (so ``*rows`` of a (d, m) array is m points), and
    ``floats`` over ``math``, for one point in Python floats.
    """

    dim: int
    source: str
    lanes: Callable
    floats: Callable


def _toy_map(dim: int, lines: list[str], images: list[str]) -> ToyMap:
    """Emit and compile ``step`` from ``lines``, which compute the pushed
    vector p0, ... from the point x0, ... and the unit vector u0, ..., and
    ``images``, the expressions of the image's coordinates."""
    xs, vs, us, ps = (_names(c, dim) for c in "xvup")
    units = [f"{u} = {v} / r" for u, v in zip(us, vs)]
    result = ", ".join(images + ps + [_length_source(ps)])
    source = _def("step", xs + vs + ["r"], units + lines, result)
    return ToyMap(dim, source, _compile(source, np)["step"], _compile(source, math)["step"])


def _linear_body(matrix: ToralMatrix) -> tuple[list[str], list[str]]:
    """The ``_toy_map`` lines and images of x -> A x mod 1, with constant
    differential A."""
    d = matrix.dim
    rows = _row_terms(matrix)
    pushed = [f"p{i} = {e}" for i, e in enumerate(_sums(rows, _names("u", d)))]
    return pushed, [f"({e}) % 1.0" for e in _sums(rows, _names("x", d))]


def linear_toral(matrix: ToralMatrix) -> ToyMap:
    """x -> A x mod 1 with constant differential A."""
    return _toy_map(matrix.dim, *_linear_body(matrix))


def suspension_time_one(matrix: ToralMatrix) -> ToyMap:
    """Time-one map of the suspension flow, flow coordinate last.

    In fundamental-domain coordinates the map is (x, s) -> (A x mod 1, s);
    its differential is the block matrix diag(A, 1), so the flow direction is
    carried isometrically.
    """
    d = matrix.dim
    lines, images = _linear_body(matrix)
    return _toy_map(d + 1, lines + [f"p{d} = u{d}"], images + [f"x{d}"])


def _shear_terms(coefficients: Sequence[float]) -> list[tuple[float, float]]:
    """(c_j, 2 pi (j+1)) for each coefficient of the shear profile."""
    terms = [(float(c), 2.0 * math.pi * (j + 1)) for j, c in enumerate(coefficients)]
    if not all(math.isfinite(c) for c, _ in terms):
        raise ValidationError("shear coefficients must be finite")
    return terms


def _profile(terms, y: str, parts) -> list[str]:
    """Lines that set each of ``parts``, ``s`` for the shear profile s(y) and
    ``ds`` for its derivative s'(y), at the variable ``y``.

    s(y) = sum_j c_j sin(2 pi (j+1) y) / (2 pi (j+1)), so the maximum slope
    is bounded by sum |c_j| and the shear h(x) = x + s(x_last) e_0 has unit
    Jacobian determinant exactly. Each sine and cosine is evaluated once per
    argument; with no coefficients both are 0.0.
    """
    if not terms:
        return [f"{part} = 0.0" for part in parts]
    formulas = {"s": "{c!r} * sin(a) / {k!r}", "ds": "{c!r} * cos(a)"}
    lines = []
    for j, (c, k) in enumerate(terms):
        lines.append(f"a = {k!r} * {y}")
        for part in parts:
            term = formulas[part].format(c=c, k=k)
            lines.append(f"{part} = {term}" if j == 0 else f"{part} = {part} + {term}")
    return lines


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
    terms = _shear_terms(coefficients)
    xs, us = _names("x", d), _names("u", d)

    # h^-1 only moves the first coordinate, by -s of the last one.
    lines = _profile(terms, xs[-1], ("s", "ds"))
    lines += ["h0 = x0 - s", f"q0 = u0 - ds * {us[-1]}"]
    lines += [f"w{i} = ({e}) % 1.0" for i, e in enumerate(_sums(rows, ["h0", *xs[1:]]))]
    lines += [f"p{i} = {e}" for i, e in enumerate(_sums(rows, ["q0", *us[1:]]))]
    lines += _profile(terms, f"w{d - 1}", ("s", "ds"))
    lines += [f"p0 = p0 + ds * p{d - 1}"]
    return _toy_map(d, lines, ["(w0 + s) % 1.0", *(f"w{i} % 1.0" for i in range(1, d))])


@dataclass(frozen=True)
class DirectionField:
    """A unit tangent direction at every point (the line field evaluator).

    ``evaluator`` maps an (m, d) array of points to their vectors: an (m, d)
    array, or one vector for a constant field.
    """

    evaluator: Callable

    def at(self, points: np.ndarray) -> np.ndarray:
        """Unit vectors at the rows of ``points``, as an (m, d) array; raises
        ValidationError if any is shorter than ``TOL_DIRECTION``, or NaN."""
        coords = np.broadcast_to(
            np.asarray(self.evaluator(points), dtype=float), points.shape
        ).T
        lengths = np.sqrt(sum(c * c for c in coords))
        if not (lengths >= TOL_DIRECTION).all():
            raise ValidationError("direction field returned a degenerate vector")
        return (coords / lengths).T

    @classmethod
    def constant(cls, vector) -> "DirectionField":
        v = tuple(float(c) for c in vector)
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
    lines = _profile(_shear_terms(coefficients), "y", ("ds",))
    slope_at = _compile(_def("slope", ["y"], lines, "ds"), np)["slope"]
    v0 = _unit_eigenvector(matrix, which)

    def evaluator(points):
        # D h at h^-1(p); the last coordinate is untouched by the shear.
        slope = slope_at(points[:, d - 1])
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
        return toy, DirectionField.constant((0.0,) * (toy.dim - 1) + (1.0,))
    if direction not in ("unstable", "stable"):
        raise ValidationError(f"unknown direction {direction!r}")
    if kind == "shear_conjugated":
        return toy, shear_conjugated_eigen(matrix, coefficients, direction)
    if kind == "suspension_time_one":  # the base eigenvector, no flow component
        return toy, DirectionField.constant((*_unit_eigenvector(matrix, direction), 0.0))
    return toy, eigen_direction(matrix, direction)


def _log_sums(step: Callable, state: tuple, n: int):
    """The sums of the logs of n expansion factors, from ``state``: of every
    lane at once on arrays, of one lane on Python floats.

    The factors of STEPS steps are held, checked for a collapse (a factor
    below ``TOL_DIRECTION``, or NaN), then logged and added in step order: a
    plain sum's order would depend on the number of lanes. Until a check,
    the lanes run on without warnings.
    """
    total = 0.0
    with np.errstate(all="ignore"):
        for done in range(0, n, STEPS):
            held = []
            try:
                for _ in range(min(STEPS, n - done)):
                    state = step(*state)
                    held.append(state[-1])
            except ZeroDivisionError:
                # a zero length on floats; lanes divide it into NaN
                raise ValidationError("cocycle collapsed to a degenerate direction") from None
            held = np.array(held)
            if not (held >= TOL_DIRECTION).all():
                raise ValidationError("cocycle collapsed to a degenerate direction")
            logs = np.log(held)
            logs[0] += total
            total = np.add.accumulate(logs)[-1]
    return total


def finite_time_exponents(toy_map: ToyMap, field: DirectionField, starts, n: int):
    """Finite-time exponents of the orbits of all rows of ``starts`` at once.

    Lane i is the orbit of ``starts[i]``: its direction is seeded from the
    field there and pushed forward by the differential at every step, and its
    exponent is (1/n) times the sum of the log expansion factors,
    renormalized at every step. Lanes go in blocks of ``BLOCK``; a block of
    at least ``FLOAT_LANES`` lanes advances in lockstep on arrays, a smaller
    one lane by lane on Python floats. Each lane's exponent is that of the
    lane run alone, on either path.
    """
    if n < 1:
        raise ValidationError("orbit length n must be >= 1")
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != toy_map.dim:
        raise ValidationError(f"orbit starts must be rows of length {toy_map.dim}")
    if not np.isfinite(starts).all():
        raise ValidationError("orbit starts must be finite")
    sums = np.empty(len(starts))
    for lo in range(0, len(starts), BLOCK):
        block = starts[lo:lo + BLOCK]
        dirs = field.at(block)
        if len(block) < FLOAT_LANES:
            sums[lo:lo + BLOCK] = [
                _log_sums(toy_map.floats, (*x, *u, 1.0), n)
                for x, u in zip(block.tolist(), dirs.tolist())
            ]
        else:
            sums[lo:lo + BLOCK] = _log_sums(toy_map.lanes, (*block.T, *dirs.T, 1.0), n)
    return sums / n


def finite_time_exponent(toy_map: ToyMap, field: DirectionField, x0, n: int) -> float:
    """(1/n) sum of log expansion factors along the orbit, renormalized.

    The one-orbit case of ``finite_time_exponents``: the direction is seeded
    from the field at the start and pushed forward by the differential at
    every step, which is the cocycle chain rule in log form.
    """
    return float(finite_time_exponents(toy_map, field, [x0], n)[0])


def orbits(toy_map: ToyMap, starts: np.ndarray, steps: int) -> Iterator[np.ndarray]:
    """The first ``steps`` points of each start's orbit, start by start, as
    (steps, d) arrays; the lanes advance in blocks of ``BLOCK``. A step's
    image is its first ``dim`` outputs; the point itself is pushed as the
    tangent vector, over r = 1.0, so no zero length is ever divided."""
    d = toy_map.dim
    for lo in range(0, len(starts), BLOCK):
        x = starts[lo:lo + BLOCK].T
        path = np.empty((steps,) + x.shape)
        for t in range(steps):
            path[t] = x
            x = toy_map.lanes(*x, *x, 1.0)[:d]
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
        length = toy_map.lanes(*x.T, *field.at(x).T, 1.0)[-1]
        values[lo:lo + BLOCK] = np.log(length)
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
