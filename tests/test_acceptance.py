"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The expensive shared fixture is a radius-14 word-length oracle for the d = 2
group; its build time is charged to the growth-contrast criterion, which is
the one whose budget depends on it.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from unstretch import (
    GroupAutomorphism,
    GroupElement,
    IterationConfig,
    abelian_control,
    apply_automorphism,
    choose_lambda,
    classify_growth,
    compute_splitting,
    envelope_offset,
    lattice_element,
    neighborhood,
    qi_comparison,
    run_iteration,
    word_ball,
)
from unstretch.cli import main as cli_main
from unstretch.dynamics import check_box_inclusion_phi
from unstretch.lyapunov import (
    birkhoff_consistency,
    eigen_direction,
    finite_time_exponent,
    linear_toral,
    shear_conjugated,
    shear_conjugated_eigen,
    toy_system,
)
from unstretch.words import check_box_inclusion_u1, check_box_inclusion_un

from conftest import CAT

LOG_LAM = math.log((3 + math.sqrt(5)) / 2)


def _report(num, name, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"\nACCEPTANCE {num} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num} {name}: PASS ({time.perf_counter() - t0:.1f}s)")


@pytest.fixture(scope="module")
def big_oracle(ctx, gens):
    t0 = time.perf_counter()
    oracle = word_ball(ctx, gens, 14)
    return oracle, time.perf_counter() - t0


def _random_elements(rng, dim, count, span=100, kspan=10):
    xs = rng.integers(-span, span + 1, size=(count, dim))
    ks = rng.integers(-kspan, kspan + 1, size=count)
    return [GroupElement(tuple(int(v) for v in xs[i]), int(ks[i])) for i in range(count)]


def test_criterion_1_group_axioms(ctx, ctx3):
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for c in (ctx, ctx3):
            elems = _random_elements(rng, c.dim, 10_000)
            others = _random_elements(rng, c.dim, 10_000)
            thirds = _random_elements(rng, c.dim, 10_000)
            for g, h, w in zip(elems, others, thirds):
                assert c.multiply(c.multiply(g, h), w) == c.multiply(g, c.multiply(h, w))
            for g in elems:
                assert c.multiply(g, c.inverse(g)) == c.identity
                assert c.multiply(c.identity, g) == g
            # normal-form uniqueness: distinct field tuples, distinct elements
            seen = {}
            for g in elems:
                key = (g.x, g.k)
                if key in seen:
                    assert seen[key] == g
                else:
                    seen[key] = g
                assert GroupElement(g.x, g.k) == g
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"group axiom suite took {elapsed:.1f}s"

    _report(1, "group-axioms", body)


def test_criterion_2_oracle_equivalence(ctx, gens, big_oracle):
    oracle, _ = big_oracle

    def body():
        start = time.perf_counter()
        for n in range(7):
            reach = neighborhood(ctx, gens, {ctx.identity}, n)
            expected = {g for g, ln in oracle.items() if ln <= n}
            assert reach == expected, f"neighborhood mismatch at N={n}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0

    _report(2, "oracle-equivalence", body)


def test_criterion_3_box_lemmas(ctx, gens, cat_matrix):
    def body():
        phi = GroupAutomorphism.from_parts(CAT, [1, 0], 1)
        lam = choose_lambda(cat_matrix, phi)
        rng = np.random.default_rng(103)
        for ell in range(2, 7):
            for h in range(2, 7):
                rep = check_box_inclusion_u1(ctx, gens, lam, ell, h, 1000, rng)
                assert not rep.violations, f"u1 violation at ell={ell} h={h}: {rep.violations[:1]}"
                for n in (1, 2, 3):
                    rep = check_box_inclusion_un(ctx, gens, lam, ell, h, n, 1000, rng)
                    assert not rep.violations, f"un violation at ell={ell} h={h} n={n}"
                rep = check_box_inclusion_phi(ctx, phi, lam, ell, h, 1000, rng)
                assert not rep.violations, f"phi violation at ell={ell} h={h}"

    _report(3, "box-lemmas", body)


def test_criterion_4_automorphism_laws(ctx):
    def body():
        rng = np.random.default_rng(104)
        phi = GroupAutomorphism.from_parts(CAT, [1, 0], 1)
        flip = GroupAutomorphism.from_parts([[0, 1], [-1, 0]], [2, -1], -1)
        for f in (phi, flip):
            gs = _random_elements(rng, 2, 5000, span=50, kspan=8)
            hs = _random_elements(rng, 2, 5000, span=50, kspan=8)
            for g, h in zip(gs, hs):
                lhs = apply_automorphism(ctx, f, ctx.multiply(g, h))
                rhs = ctx.multiply(
                    apply_automorphism(ctx, f, g), apply_automorphism(ctx, f, h)
                )
                assert lhs == rhs
        # closed form: (B x + sum_{i<k} A^i v) z^k for 0 <= k <= 20, exact
        a = ctx.matrix.entries
        for k in range(21):
            x = (int(rng.integers(-20, 21)), int(rng.integers(-20, 21)))
            image = apply_automorphism(ctx, phi, GroupElement(x, k))
            acc, w = (0, 0), phi.v
            for _ in range(k):
                acc = (acc[0] + w[0], acc[1] + w[1])
                w = (a[0][0] * w[0] + a[0][1] * w[1], a[1][0] * w[0] + a[1][1] * w[1])
            bx = (
                phi.B[0][0] * x[0] + phi.B[0][1] * x[1],
                phi.B[1][0] * x[0] + phi.B[1][1] * x[1],
            )
            assert image == GroupElement((bx[0] + acc[0], bx[1] + acc[1]), k)

    _report(4, "automorphism-laws", body)


def test_criterion_5_envelope_certification(ctx, gens, cat_matrix, oracle6):
    def body():
        phi = GroupAutomorphism.from_parts(CAT, [0, 0], 1)
        lam = choose_lambda(cat_matrix, phi)
        a0 = {ctx.identity, ctx.z, lattice_element([1, 0])}
        cfg = IterationConfig.make(ctx, phi, 1, a0, 6, lam)
        assert (cfg.ell0, cfg.h0) == (0, 1)
        assert envelope_offset(cfg.h0, 1, 1) == 8  # 2 (h0 + N)^2
        # run_iteration raises CertificationError on any envelope violation
        curve = run_iteration(ctx, gens, cfg, oracle6)
        assert len(curve.points) == 7
        for p in curve.points:
            assert p.envelope_ell == envelope_offset(1, 1, p.k)
            assert p.envelope_h == 1 + p.k

    _report(5, "envelope-certification", body)


def test_criterion_6_growth_contrast(ctx, gens, cat_matrix, big_oracle):
    oracle, build_seconds = big_oracle

    def body():
        start = time.perf_counter()
        # unstretchable side: an isometric outer automorphism (the flip),
        # chosen so that every iterate diameter stays inside the oracle
        flip = GroupAutomorphism.from_parts([[0, 1], [-1, 0]], [0, 0], -1)
        lam = choose_lambda(cat_matrix, flip)
        cfg = IterationConfig.make(ctx, flip, 1, {ctx.identity}, 7, lam)
        curve = run_iteration(ctx, gens, cfg, oracle)
        assert all(p.diameter_exact for p in curve.points)
        verdict = classify_growth(curve)
        assert verdict.kind == "polynomial", verdict
        assert verdict.degree_estimate <= 3.5
        # stretchable control: same matrix acting on the plain lattice
        control = abelian_control(cat_matrix, 1, [[0, 0], [1, 0]], 12)
        cv = classify_growth(control)
        assert cv.kind == "exponential", cv
        assert abs(cv.rate_estimate - LOG_LAM) / LOG_LAM < 0.10
        elapsed = time.perf_counter() - start + build_seconds
        assert elapsed < 300.0, f"contrast took {elapsed:.1f}s including oracle build"

    _report(6, "growth-contrast", body)


def test_criterion_7_logarithmic_metric_shape(cat_matrix, big_oracle):
    oracle, _ = big_oracle

    def body():
        split = compute_splitting(cat_matrix)
        rep10 = qi_comparison(oracle.restricted(10), split)
        rep12 = qi_comparison(oracle.restricted(12), split)
        for rep in (rep10, rep12):
            assert rep.coverage_ok
            assert bool((rep.lengths <= rep.q_hat * rep.bounds + rep.q_hat).all())
        change = abs(rep12.q_hat - rep10.q_hat) / rep10.q_hat
        assert change < 0.20, f"q_hat moved by {change:.2%} between radii 10 and 12"

    _report(7, "logarithmic-metric-shape", body)


def test_criterion_8_lyapunov_numerics(cat_matrix):
    def body():
        toy = linear_toral(cat_matrix)
        fld = eigen_direction(cat_matrix, "unstable")
        val = finite_time_exponent(toy, fld, (0.2, 0.7), 1000)
        assert abs(val - LOG_LAM) < 1e-9
        sus, flow = toy_system(cat_matrix, "suspension_time_one", "flow", ())
        assert abs(finite_time_exponent(sus, flow, (0.1, 0.8, 0.3), 1000)) < 1e-9
        rng = np.random.default_rng(108)
        sheared = shear_conjugated(cat_matrix, [0.05])
        wfld = shear_conjugated_eigen(cat_matrix, [0.05], "unstable")
        rep = birkhoff_consistency(sheared, wfld, 100, 10_000, rng)
        assert rep.discrepancy <= 3.0 * rep.combined_se, rep

    _report(8, "lyapunov-numerics", body)


def test_box_diameter_linear_in_parameters(ctx, big_oracle):
    # Supplementary invariant: diam(B(ell, h)) grows linearly in ell with a
    # finite slope that is stable across h. Small boxes are enumerated here
    # in full (the library itself never materializes a box).
    oracle, _ = big_oracle
    lam = Fraction(131, 50)

    def box_elements(box):
        r = math.isqrt(box._norm_sq_max)
        out = []
        for x1 in range(-r, r + 1):
            for x2 in range(-r, r + 1):
                for k in range(-box.h, box.h + 1):
                    g = GroupElement((x1, x2), k)
                    if box.contains(g):
                        out.append(g)
        return out

    from unstretch import BoxSet, set_diameter

    slopes = {}
    for h in (1, 2):
        diams = []
        for ell in (1, 2):
            d = set_diameter(oracle, box_elements(BoxSet(lam, ell, h)))
            assert d.exact
            diams.append(d.value)
        slopes[h] = diams[1] - diams[0]
    assert all(3 <= c <= 6 for c in slopes.values()), slopes
    assert abs(slopes[1] - slopes[2]) <= 1


def test_criterion_9_determinism(tmp_path):
    def body():
        dynamics_spec = {
            "experiment": "set-dynamics", "matrix": [list(r) for r in CAT],
            "automorphism": {"b": [list(r) for r in CAT], "v": [0, 0], "e": 1},
            "a0": [[[0, 0], 0], [[0, 0], 1], [[1, 0], 0]],
            "k_max": 3, "bfs_radius": 5, "seed": 42,
        }
        box_spec = {
            "experiment": "box-lemmas", "matrix": [list(r) for r in CAT],
            "automorphism": {"b": [list(r) for r in CAT], "v": [1, 0], "e": 1},
            "box_ell_values": [2, 3], "box_h_values": [2, 3],
            "box_n_values": [1, 2], "box_samples": 120, "seed": 42,
        }
        for tag, spec, csv_name in (
            ("dyn", dynamics_spec, "growth.csv"),
            ("box", box_spec, "box_checks.csv"),
        ):
            blobs = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{tag}_{attempt}"
                cfgpath = tmp_path / f"{tag}_{attempt}.json"
                cfgpath.write_text(json.dumps(dict(spec, output_dir=str(out))))
                assert cli_main(["run", "--config", str(cfgpath)]) == 0
                blobs.append((out / csv_name).read_bytes())
            assert blobs[0] == blobs[1], f"{csv_name} differs between identical runs"

    _report(9, "determinism", body)
