"""The named experiments behind the CLI.

`REGISTRY` declares each experiment once: its runner, the config keys it
reads and the files it emits. `prepare` checks what every experiment relies
on (the seed, the matrix, the automorphism and the element budget); each
runner is the one place that holds its experiment, and parses and checks the
keys it reads before its first ball, neighbourhood, orbit or file. So a
validation failure writes nothing. Every experiment writes CSV data files plus
a single JSON summary into the output directory, and is deterministic for a
fixed config and seed (CSV outputs are byte identical across runs; the
summary additionally records wall time and peak RSS).

A runner is called as ``runner(prep, outdir)`` with the `Prepared` inputs and
the output directory, and returns the verdicts. Each run loads only what its
experiment uses: where bytecode is not cached every import compiles its
module's source, and ``numpy.random`` alone adds about 5 MB of peak RSS. So
this module imports at the top only what `prepare` needs (autos, group,
matrices, errors); each runner imports the modules it calls. numpy loads
``numpy.random`` on first use of ``np.random``, and only the three runners
that draw random numbers (box-lemmas, lyapunov, birkhoff) use it, each
building its own ``np.random.default_rng(cfg.seed)``. Library functions are
called through their module (``words.word_ball``), where the benchmark's
tracer wraps them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import matrices
from .autos import GroupAutomorphism, enumerate_commuting_matrices, require_valid
from .errors import BudgetError, ValidationError
from .group import GeneratingSet, GroupContext, GroupElement, ToralMatrix

if TYPE_CHECKING:
    from . import dynamics
    from .config import ExperimentConfig
    from .oracle import WordLengthOracle


def _parse_element(key: str, raw, dim: int) -> GroupElement:
    try:
        vec, k = raw
        x = matrices.freeze_vector(vec)
        k = matrices._as_int(k)
    except (TypeError, ValueError, ValidationError):
        raise ValidationError(
            f"config key {key!r}: element {raw!r} is not of the form "
            "[[x1, ..., xd], k] with integer entries"
        ) from None
    if len(x) != dim:
        raise ValidationError(
            f"config key {key!r}: element {raw!r} has dimension {len(x)}, expected {dim}"
        )
    return GroupElement(x, k)


@dataclass
class Prepared:
    """The checked inputs every runner shares. The group context and the
    standard generating set are built on first use, by the runners that
    work in the group."""

    cfg: ExperimentConfig
    matrix: ToralMatrix
    phi: GroupAutomorphism

    @cached_property
    def ctx(self) -> GroupContext:
        return GroupContext(self.matrix)

    @cached_property
    def gens(self) -> GeneratingSet:
        return GeneratingSet.standard(self.matrix.dim)


def prepare(cfg: ExperimentConfig) -> Prepared:
    """Check the preconditions every experiment shares. A key an experiment
    does not read keeps its default (`ExperimentConfig.from_dict` rejects
    it), so these checks hold for every experiment."""
    if cfg.seed < 0:
        # np.random.default_rng takes only seeds of at least 0.
        raise ValidationError(f"seed must be at least 0, not {cfg.seed}")
    try:
        matrix = ToralMatrix(cfg.matrix)
    except ValidationError as exc:
        raise ValidationError(f"config key 'matrix': {exc}") from None
    if cfg.automorphism is None:
        phi = GroupAutomorphism.identity(matrix.dim)
    else:
        spec = cfg.automorphism
        extra = set(spec) - {"b", "v", "e"}
        if extra:
            raise ValidationError(
                f"config key 'automorphism': unknown keys {sorted(extra)}"
            )
        if "b" not in spec:
            raise ValidationError("config key 'automorphism': missing its matrix 'b'")
        try:
            phi = GroupAutomorphism.from_parts(
                spec["b"], spec.get("v", [0] * matrix.dim), spec.get("e", 1)
            )
        except ValidationError as exc:
            raise ValidationError(f"config key 'automorphism': {exc}") from None
    require_valid(matrix, phi)
    if cfg.budget_elements < 1:
        raise ValidationError(
            f"config key 'budget_elements' must be at least 1, not {cfg.budget_elements}"
        )
    return Prepared(cfg, matrix, phi)


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


# ---------------------------------------------------------------- runners


def _write_census(path: Path, oracle: WordLengthOracle):
    _write_csv(path, ["radius", "ball_size", "sphere_size"], oracle.census())


def run_ball_census(prep: Prepared, outdir: Path) -> dict:
    from . import words

    cfg = prep.cfg
    try:  # only the sphere sizes are read, so each sphere is built in key order
        oracle = words.word_ball(
            prep.ctx, prep.gens, cfg.bfs_radius, budget=cfg.budget_elements,
            breadth_first=False,
        )
    except BudgetError as exc:
        # The radii completed before the budget tripped are exact.
        _write_census(outdir / "census.csv", exc.partial)
        raise
    _write_census(outdir / "census.csv", oracle)
    return {"radius": oracle.radius, "ball_size": len(oracle)}


def run_word_length(prep: Prepared, outdir: Path) -> dict:
    from . import words

    cfg = prep.cfg
    dim = prep.matrix.dim
    if not cfg.elements:
        raise ValidationError("word-length experiment needs a nonempty 'elements' list")
    elements = [_parse_element("elements", raw, dim) for raw in cfg.elements]
    # Only looked up, so each sphere is built in key order.
    oracle = words.word_ball(prep.ctx, prep.gens, cfg.bfs_radius, budget=cfg.budget_elements,
                             breadth_first=False)
    rows = []
    for g in elements:
        n = oracle.word_length(g)
        status = "exact" if n is not None else "gt_radius"
        value = n if n is not None else oracle.radius
        rows.append([*g.x, g.k, status, value])
    header = [f"x{i}" for i in range(dim)] + ["k", "status", "length"]
    _write_csv(outdir / "word_lengths.csv", header, rows)
    exact = sum(1 for r in rows if r[-2] == "exact")
    return {"queried": len(rows), "exact": exact, "radius": oracle.radius}


def run_box_lemmas(prep: Prepared, outdir: Path) -> dict:
    from . import dynamics, words

    cfg, ctx, gens = prep.cfg, prep.ctx, prep.gens
    # Every check is made at an (ell, h) pair; box_n_values may be empty,
    # which leaves only the u1 and phi checks.
    for key in ("box_ell_values", "box_h_values"):
        if not getattr(cfg, key):
            raise ValidationError(f"config key {key!r} must list at least one value")
    rng = np.random.default_rng(cfg.seed)
    lam = words.choose_lambda(prep.matrix, prep.phi)
    rows = []
    for ell in cfg.box_ell_values:
        for h in cfg.box_h_values:
            rep = words.check_box_inclusion_u1(ctx, gens, lam, ell, h, cfg.box_samples, rng)
            rows.append(["u1", ell, h, "", rep.checked, len(rep.violations)])
            for n in cfg.box_n_values:
                rep = words.check_box_inclusion_un(
                    ctx, gens, lam, ell, h, n, cfg.box_samples, rng
                )
                rows.append(["un", ell, h, n, rep.checked, len(rep.violations)])
            if ell >= 2 and h >= 2:
                rep = dynamics.check_box_inclusion_phi(
                    ctx, prep.phi, lam, ell, h, cfg.box_samples, rng
                )
                rows.append(["phi", ell, h, "", rep.checked, len(rep.violations)])
    total_violations = sum(row[-1] for row in rows)
    _write_csv(
        outdir / "box_checks.csv",
        ["check", "ell", "h", "n", "checked", "violations"],
        rows,
    )
    return {
        "lambda": str(lam),
        "checks": len(rows),
        "violations": total_violations,
        "zero_violations": total_violations == 0,
    }


def _write_growth_csv(path: Path, curve: dynamics.GrowthCurve):
    _write_csv(
        path,
        ["k", "diam", "diam_is_exact", "set_size", "envelope_ell", "envelope_h"],
        [
            [p.k, p.diameter, int(p.diameter_exact), p.set_size,
             p.envelope_ell, p.envelope_h]
            for p in curve.points
        ],
    )


def _growth(outdir: Path, iterate: Callable[[], dynamics.GrowthCurve]) -> dict:
    """Write the curve of ``iterate()`` to growth.csv and return its growth
    verdict. On a BudgetError the curve of the steps completed before the
    budget tripped, which are exact, is written before the error goes on."""
    from . import dynamics

    try:
        curve = iterate()
    except BudgetError as exc:
        _write_growth_csv(outdir / "growth.csv", exc.partial)
        raise
    _write_growth_csv(outdir / "growth.csv", curve)
    return asdict(dynamics.classify_growth(curve))


def run_set_dynamics(prep: Prepared, outdir: Path) -> dict:
    from . import dynamics, words

    cfg = prep.cfg
    a0 = [_parse_element("a0", raw, prep.matrix.dim) for raw in cfg.a0] or [prep.ctx.identity]
    iteration = dynamics.IterationConfig.make(
        prep.ctx, prep.phi, cfg.neighborhood_n, a0, cfg.k_max,
        words.choose_lambda(prep.matrix, prep.phi),
    )
    # Only looked up, so each sphere is built in key order.
    oracle = words.word_ball(prep.ctx, prep.gens, cfg.bfs_radius, budget=cfg.budget_elements,
                             breadth_first=False)
    growth = _growth(outdir, lambda: dynamics.run_iteration(
        prep.ctx, prep.gens, iteration, oracle, budget=cfg.budget_elements
    ))
    return {
        "lambda": str(iteration.lam),
        "envelope": "certified",
        "growth": growth,
    }


def run_abelian_control(prep: Prepared, outdir: Path) -> dict:
    from . import dynamics

    cfg = prep.cfg
    dim = prep.matrix.dim
    raw = cfg.control_a0
    if raw is None:
        raw = [[0] * dim, [1] + [0] * (dim - 1)]
    try:
        seeds = [matrices.freeze_vector(v) for v in raw]
    except ValidationError as exc:
        raise ValidationError(f"config key 'control_a0': {exc}") from None
    if not seeds:
        raise ValidationError("config key 'control_a0' must list at least one seed")
    for x in seeds:
        if len(x) != dim:
            raise ValidationError(f"config key 'control_a0': seed {list(x)} "
                                  f"has dimension {len(x)}, expected {dim}")
    return {"growth": _growth(outdir, lambda: dynamics.abelian_control(
        prep.matrix, cfg.neighborhood_n, seeds, cfg.k_max, budget=cfg.budget_elements
    ))}


def run_qi_compare(prep: Prepared, outdir: Path) -> dict:
    from . import qicsv, suspension, words

    cfg = prep.cfg
    radii = sorted(set(cfg.qi_radii))
    if not radii:
        raise ValidationError("qi-compare needs at least one radius")
    if radii[0] < suspension.QI_MIN_RADIUS:
        raise ValidationError(
            f"qi-compare radii must be at least {suspension.QI_MIN_RADIUS}, "
            f"not {[r for r in radii if r < suspension.QI_MIN_RADIUS]}"
        )
    # The ball goes to the largest radius only, so a bfs_radius above it
    # asks for rows that no radius reads. The default (8) is let through: a
    # config that leaves bfs_radius out may ask only for smaller radii.
    if cfg.bfs_radius > max(radii[-1], type(cfg).bfs_radius):
        raise ValidationError(
            f"qi-compare builds its ball to its largest radius {radii[-1]}, "
            f"so bfs_radius {cfg.bfs_radius} may not exceed it"
        )
    # Each radius's ball is a breadth-first prefix of the largest one, and a
    # row's bound does not depend on the rows around it, so the bounds are
    # computed once and each radius reads the first ball_size(r) rows, the
    # rows of length at most r. The CSV rows list each sphere in the ball's
    # breadth-first order. No name here holds the ball, so it is freed once
    # its bounds exist, before the fit.
    top = suspension.qi_comparison(
        words.word_ball(prep.ctx, prep.gens, radii[-1], budget=cfg.budget_elements,
                        breadth_first=True),
        suspension.compute_splitting(prep.matrix),
    )
    sizes = {r: int(top.lengths.searchsorted(r, side="right")) for r in radii}
    reports = [
        suspension.qi_report(r, top.lengths[: sizes[r]], top.bounds[: sizes[r]])
        for r in radii[:-1]
    ] + [top]
    qicsv.write_qi_csvs(outdir, top, sizes)
    per_radius = {
        str(rep.radius): {
            "q_hat": rep.q_hat,
            "fitted_slope": rep.fitted_slope,
            "intercept": rep.intercept,
            "max_ratio": rep.max_ratio,
            "coverage_ok": rep.coverage_ok,
            "entries": rep.n_entries,
        }
        for rep in reports
    }
    stability = None
    if len(reports) >= 2:
        first, last = reports[0], reports[-1]
        stability = abs(last.q_hat - first.q_hat) / first.q_hat
    return {"per_radius": per_radius, "q_hat_relative_change": stability}


def run_centralizer(prep: Prepared, outdir: Path) -> dict:
    cfg = prep.cfg
    found = enumerate_commuting_matrices(
        prep.matrix, cfg.centralizer_e, cfg.centralizer_bound
    )
    dim = prep.matrix.dim
    header = [f"b{r}{c}" for r in range(dim) for c in range(dim)]
    _write_csv(
        outdir / "centralizer.csv",
        header,
        [[v for row in B for v in row] for B in found],
    )
    return {
        "count": len(found),
        "bound": cfg.centralizer_bound,
        "e": cfg.centralizer_e,
    }


def _toy_system(prep: Prepared, steps_key: str):
    """The toy map and line field of a lyapunov or birkhoff run, once its map
    keys are checked and its ``steps_key`` is within the stable-step limit."""
    from . import lyapunov

    cfg = prep.cfg
    toy, field = lyapunov.toy_system(
        prep.matrix, cfg.map_kind, cfg.direction, cfg.shear_coefficients
    )
    if cfg.shear_coefficients and cfg.map_kind != "shear_conjugated":
        raise ValidationError(
            "config key 'shear_coefficients' is read only by map_kind "
            f"'shear_conjugated', not by {cfg.map_kind!r}"
        )
    if cfg.direction == "stable":
        steps, limit = getattr(cfg, steps_key), lyapunov.stable_step_limit(prep.matrix)
        if steps > limit:
            raise ValidationError(
                f"config key {steps_key!r} is {steps}, above {limit}, the most "
                "steps a stable-direction run keeps within float accuracy"
            )
    return toy, field


def run_lyapunov(prep: Prepared, outdir: Path) -> dict:
    from . import lyapunov

    cfg = prep.cfg
    toy, field = _toy_system(prep, "orbit_steps")
    if cfg.orbit_starts < 1:
        raise ValidationError(
            f"config key 'orbit_starts' must be at least 1, not {cfg.orbit_starts}"
        )
    rng = np.random.default_rng(cfg.seed)
    starts = rng.random((cfg.orbit_starts, toy.dim))
    arr = lyapunov.finite_time_exponents(toy, field, starts, cfg.orbit_steps)
    half_width = (
        float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    )
    if cfg.dump_orbit:
        header = ["start", "step"] + [f"x{i}" for i in range(toy.dim)]
        orbits = lyapunov.orbits(toy, starts, min(cfg.orbit_steps, 1000))
        _write_csv(outdir / "orbits.csv", header, (
            [i, step] + [repr(float(c)) for c in point]
            for i, orbit in enumerate(orbits) for step, point in enumerate(orbit)
        ))
    return {
        "records": [
            {
                "estimate": float(arr.mean()),
                "half_width": half_width,
                "n": cfg.orbit_steps,
                "seed": cfg.seed,
            }
        ],
        "map_kind": cfg.map_kind,
        "direction": cfg.direction,
    }


def run_birkhoff(prep: Prepared, outdir: Path) -> dict:
    from . import lyapunov

    cfg = prep.cfg
    toy, field = _toy_system(prep, "birkhoff_steps")
    rep = lyapunov.birkhoff_consistency(
        toy, field, cfg.birkhoff_starts, cfg.birkhoff_steps,
        np.random.default_rng(cfg.seed),
    )
    return asdict(rep)


@dataclass(frozen=True)
class ExperimentInfo:
    """One experiment: its runner, the config keys it reads beyond the common
    five, and the files it emits."""

    runner: Callable
    keys: tuple[str, ...]
    emits: str


REGISTRY = {
    "abelian-control": ExperimentInfo(
        run_abelian_control,
        ("neighborhood_n", "control_a0", "k_max", "budget_elements"),
        "growth.csv, summary.json",
    ),
    "ball-census": ExperimentInfo(
        run_ball_census, ("bfs_radius", "budget_elements"),
        "census.csv, summary.json",
    ),
    "birkhoff": ExperimentInfo(
        run_birkhoff,
        ("map_kind", "direction", "shear_coefficients", "birkhoff_starts",
         "birkhoff_steps"),
        "summary.json",
    ),
    "box-lemmas": ExperimentInfo(
        run_box_lemmas,
        ("automorphism", "box_ell_values", "box_h_values", "box_n_values",
         "box_samples"),
        "box_checks.csv, summary.json",
    ),
    "centralizer": ExperimentInfo(
        run_centralizer, ("centralizer_bound", "centralizer_e"),
        "centralizer.csv, summary.json",
    ),
    "lyapunov": ExperimentInfo(
        run_lyapunov,
        ("map_kind", "direction", "shear_coefficients", "orbit_steps",
         "orbit_starts", "dump_orbit"),
        "summary.json[, orbits.csv]",
    ),
    "qi-compare": ExperimentInfo(
        run_qi_compare, ("qi_radii", "bfs_radius", "budget_elements"),
        "qi_r<R>.csv per radius, summary.json",
    ),
    "set-dynamics": ExperimentInfo(
        run_set_dynamics,
        ("automorphism", "neighborhood_n", "a0", "k_max",
         "bfs_radius", "budget_elements"),
        "growth.csv, summary.json",
    ),
    "word-length": ExperimentInfo(
        run_word_length, ("bfs_radius", "budget_elements", "elements"),
        "word_lengths.csv, summary.json",
    ),
}


def list_experiments() -> str:
    """Stable text table of experiments, their config keys, emitted files."""
    name_w = max(len(n) for n in REGISTRY) + 2
    lines = [
        f"{'experiment':<{name_w}}config keys beyond experiment, matrix, notes,"
        " seed, output_dir -> emitted files"
    ]
    for name in sorted(REGISTRY):
        info = REGISTRY[name]
        lines.append(f"{name:<{name_w}}{', '.join(info.keys)} -> {info.emits}")
    return "\n".join(lines) + "\n"
