import tracemalloc

import numpy as np
import pytest

from unstretch import dynamics, packed
from unstretch import (
    CertificationError,
    GroupAutomorphism,
    GroupContext,
    GroupElement,
    IterationConfig,
    ToralMatrix,
    ValidationError,
    abelian_control,
    choose_lambda,
    classify_growth,
    envelope_offset,
    iterate_once,
    lattice_element,
    run_iteration,
    word_ball,
)
from unstretch.dynamics import CurvePoint, GrowthCurve, check_box_inclusion_phi

from conftest import CAT


def phi_conj_z():
    return GroupAutomorphism.from_parts(CAT, [0, 0], 1)


def phi_flip():
    return GroupAutomorphism.from_parts([[0, 1], [-1, 0]], [0, 0], -1)


def default_a0(ctx):
    return {ctx.identity, ctx.z, lattice_element([1, 0])}


def test_envelope_offset_values():
    assert envelope_offset(1, 1, 0) == 0
    assert envelope_offset(1, 1, 1) == 8  # 2 (1 + 1)^2
    assert envelope_offset(1, 1, 3) == 8 + 18 + 32
    assert envelope_offset(2, 3, 2) == 2 * 5 ** 2 + 2 * 8 ** 2


def test_iterate_once_identity_automorphism(ctx, gens, oracle6):
    out = iterate_once(ctx, gens, GroupAutomorphism.identity(2), 1, {ctx.identity})
    assert out == {g for g, n in oracle6.items() if n <= 1}


def _naive_multiply(a_rows, a_inv_rows, g, h):
    # independent code path: repeated single-step matrix application
    x, k = list(g.x), g.k
    y = list(h.x)
    step = a_rows if k >= 0 else a_inv_rows
    for _ in range(abs(k)):
        y = [sum(step[r][i] * y[i] for i in range(2)) for r in range(2)]
    return GroupElement(tuple(xi + yi for xi, yi in zip(x, y)), k + h.k)


def test_iterate_once_against_naive_recomputation(ctx, gens, cat_matrix):
    # phi is conjugation by z here: phi(x, k) = (A x, k)
    a = cat_matrix.entries
    a_inv = cat_matrix.inverse_entries
    gens_list = [
        GroupElement((1, 0), 0), GroupElement((-1, 0), 0),
        GroupElement((0, 1), 0), GroupElement((0, -1), 0),
        GroupElement((0, 0), 1), GroupElement((0, 0), -1),
    ]
    current = default_a0(ctx)
    naive = set(current)
    for _ in range(3):
        current = iterate_once(ctx, gens, phi_conj_z(), 1, current)
        mapped = set()
        for g in naive:
            ax = tuple(sum(a[r][i] * g.x[i] for i in range(2)) for r in range(2))
            mapped.add(GroupElement(ax, g.k))
        grown = set(mapped)
        for g in mapped:
            for s in gens_list:
                grown.add(_naive_multiply(a, a_inv, g, s))
        naive = grown
        assert current == naive


def test_run_iteration_certifies_envelope(ctx, gens, cat_matrix, oracle6):
    lam = choose_lambda(cat_matrix, phi_conj_z())
    cfg = IterationConfig.make(ctx, phi_conj_z(), 1, default_a0(ctx), 4, lam)
    assert (cfg.ell0, cfg.h0) == (0, 1)
    curve = run_iteration(ctx, gens, cfg, oracle6)
    assert len(curve.points) == 5
    ells = [p.envelope_ell for p in curve.points]
    assert ells == [0 + envelope_offset(1, 1, k) for k in range(5)]
    hs = [p.envelope_h for p in curve.points]
    assert hs == [1 + k for k in range(5)]
    sizes = [p.set_size for p in curve.points]
    assert sizes == [3, 18, 77, 300, 1129]


@pytest.mark.parametrize("n_rounds, sizes", [
    (2, [3, 70, 660, 5204, 40042, 306635]),
    (3, [3, 196, 3404, 52202, 799149]),
])
def test_run_iteration_with_several_neighborhood_rounds(ctx, gens, cat_matrix, oracle8,
                                                        n_rounds, sizes):
    # Sets of up to 799,149 keys, so each spread round runs over many ranges.
    lam = choose_lambda(cat_matrix, phi_conj_z())
    cfg = IterationConfig.make(ctx, phi_conj_z(), n_rounds, default_a0(ctx), len(sizes) - 1, lam)
    curve = run_iteration(ctx, gens, cfg, oracle8)
    assert [p.set_size for p in curve.points] == sizes


def test_run_iteration_flags_inexact_diameters(ctx, gens, cat_matrix, oracle6):
    lam = choose_lambda(cat_matrix, phi_conj_z())
    cfg = IterationConfig.make(ctx, phi_conj_z(), 1, default_a0(ctx), 4, lam)
    curve = run_iteration(ctx, gens, cfg, oracle6)
    exact = [p.diameter_exact for p in curve.points]
    assert exact[0] and exact[1]
    assert not exact[4]  # beyond the radius-6 oracle


def test_isometric_flip_iteration_gives_balls(ctx, gens, cat_matrix, oracle8):
    # The flip automorphism permutes the generators, so iterates of {e}
    # are exactly the balls and diameters are exactly 2k.
    lam = choose_lambda(cat_matrix, phi_flip())
    cfg = IterationConfig.make(ctx, phi_flip(), 1, {ctx.identity}, 4, lam)
    curve = run_iteration(ctx, gens, cfg, oracle8)
    assert [p.set_size for p in curve.points] == [1, 7, 33, 103, 273]
    assert [p.diameter for p in curve.points] == [0, 2, 4, 6, 8]
    assert all(p.diameter_exact for p in curve.points)


def test_envelope_violation_raises(ctx, gens, cat_matrix, oracle6):
    from fractions import Fraction

    # bypass the factory to plant an element outside the declared box
    bad = IterationConfig(
        phi=phi_conj_z(),
        n_rounds=1,
        a0=frozenset({GroupElement((1000, 0), 0)}),
        k_max=2,
        lam=Fraction(131, 50),
        ell0=0,
        h0=0,
    )
    with pytest.raises(CertificationError):
        run_iteration(ctx, gens, bad, oracle6)


def test_iteration_config_validates_box(ctx, cat_matrix):
    lam = choose_lambda(cat_matrix, phi_conj_z())
    with pytest.raises(ValidationError):
        IterationConfig.make(ctx, phi_conj_z(), 0, {ctx.identity}, 2, lam)


def _synthetic_curve(values):
    return GrowthCurve(
        [CurvePoint(k, v, True, 1, None, None) for k, v in enumerate(values)]
    )


def test_classifier_linear_synthetic():
    verdict = classify_growth(_synthetic_curve([3 * k for k in range(13)]))
    assert verdict.kind == "polynomial"
    assert abs(verdict.degree_estimate - 1.0) < 0.05


def test_classifier_exponential_synthetic():
    # small k values carry the log-curvature that separates the two models,
    # so the range matters: 13 points leaves k = 2..12 after burn-in
    verdict = classify_growth(_synthetic_curve([2 ** k for k in range(13)]))
    assert verdict.kind == "exponential"
    assert abs(verdict.rate_estimate - np.log(2)) < 0.01


def test_classifier_insufficient_data():
    verdict = classify_growth(_synthetic_curve([1, 2, 3, 4]))
    assert verdict.kind == "inconclusive"
    assert "insufficient-data" in verdict.reason


def test_classifier_ignores_inexact_points():
    pts = [CurvePoint(k, 3 * k, k <= 5, 1, None, None) for k in range(13)]
    verdict = classify_growth(GrowthCurve(pts))
    assert verdict.kind == "inconclusive"  # only 4 exact points after burn-in


def test_abelian_control_growth(cat_matrix):
    curve = abelian_control(cat_matrix, 1, [[0, 0], [1, 0]], 8)
    diams = [p.diameter for p in curve.points]
    assert diams[:4] == [1, 5, 16, 45]
    assert all(p.diameter_exact for p in curve.points)
    # independent lower bound: the pushed seed alone spans ||A^k e1||_1 - 2k
    a = np.array(CAT, dtype=object)
    x = np.array([1, 0], dtype=object)
    for k, p in enumerate(curve.points):
        assert p.diameter >= int(abs(x[0]) + abs(x[1])) - 2 * k
        x = a @ x


def test_abelian_control_fixed_origin(cat_matrix):
    # the origin is fixed by the matrix, but the fattened shells still get
    # stretched, so growth outruns the 2k of pure fattening
    curve = abelian_control(cat_matrix, 1, [[0, 0]], 4)
    diams = [p.diameter for p in curve.points]
    assert diams[:2] == [0, 2]
    assert diams[3] > 6 and diams[4] > diams[3]


def test_abelian_control_rejects_non_hyperbolic():
    with pytest.raises(ValidationError):
        abelian_control(ToralMatrix([[0, 1], [-1, 0]]), 1, [[0, 0]], 3)


def test_phi_box_inclusion(ctx, cat_matrix):
    rng = np.random.default_rng(31)
    phi = GroupAutomorphism.from_parts(CAT, [1, 0], 1)
    lam = choose_lambda(cat_matrix, phi)
    rep = check_box_inclusion_phi(ctx, phi, lam, 2, 2, 500, rng)
    assert not rep.violations and rep.checked == 500
    with pytest.raises(ValidationError):
        check_box_inclusion_phi(ctx, phi, lam, 1, 2, 10, rng)


# The growth benchmark's outputs: set-dynamics to k = 8 on an r12 oracle and
# the lattice control to k = 12, from the benchmark's starting sets.
GROWTH_SET_SIZES = [3, 18, 77, 300, 1129, 4180, 15383, 56530, 207623]
GROWTH_EXACT_DIAMETERS = [2, 5, 9]
CONTROL_L1_DIAMETERS = [
    1, 5, 16, 45, 121, 320, 841, 2205, 5776, 15125, 39601, 103680, 271441,
]


def test_growth_workload_outputs(ctx, gens, cat_matrix):
    phi = phi_conj_z()
    cfg = IterationConfig.make(ctx, phi, 1, default_a0(ctx), 8, choose_lambda(cat_matrix, phi))
    curve = run_iteration(ctx, gens, cfg, word_ball(ctx, gens, 12))
    assert [p.set_size for p in curve.points] == GROWTH_SET_SIZES
    diameters = [(p.diameter, p.diameter_exact) for p in curve.points]
    exact = len(GROWTH_EXACT_DIAMETERS)
    assert diameters[:exact] == [(d, True) for d in GROWTH_EXACT_DIAMETERS]
    assert diameters[exact:] == [(13, False)] * (len(GROWTH_SET_SIZES) - exact)
    control = abelian_control(cat_matrix, 1, [[0, 0], [1, 0]], len(CONTROL_L1_DIAMETERS) - 1)
    assert [(p.diameter, p.diameter_exact) for p in control.points] == [
        (d, True) for d in CONTROL_L1_DIAMETERS
    ]


def test_iteration_forms_each_shift_once_per_context(cat_matrix, gens, monkeypatch):
    # The shifts c_k, the lattice parts of (v z^e)^k, are cached on the
    # context: a run's products are those that form each shift it meets
    # once, and a second run in the same context makes none.
    ctx = GroupContext(cat_matrix)
    phi = GroupAutomorphism.from_parts(CAT, [1, 0], 1)
    cfg = IterationConfig.make(ctx, phi, 1, default_a0(ctx), 5, choose_lambda(cat_matrix, phi))
    oracle = word_ball(ctx, gens, 6)
    products = []
    multiply = GroupContext.multiply

    def counted(self, g, h):
        products.append(self)
        return multiply(self, g, h)

    monkeypatch.setattr(GroupContext, "multiply", counted)
    want = run_iteration(ctx, gens, cfg, oracle).points
    first = len(products)
    assert first > 0
    assert run_iteration(ctx, gens, cfg, oracle).points == want
    assert len(products) == first
    fresh = GroupContext(cat_matrix)
    for tail, k in list(ctx.shifts):
        fresh.power(tail, k)
    assert len(products) == 2 * first


def control_sets(matrix, k_max):
    """The arguments (ctx, layout, keys, phi, what) of each ``_map_keys``
    call of a lattice control run to k_max, whose keys are iterates
    0..k_max - 1."""
    calls = []
    map_keys = dynamics._map_keys

    def recorded(*args):
        calls.append(args)
        return map_keys(*args)

    patch = pytest.MonkeyPatch()
    patch.setattr(dynamics, "_map_keys", recorded)
    try:
        abelian_control(matrix, 1, [[0, 0], [1, 0]], k_max)
    finally:
        patch.undo()
    return calls


# Traced bytes that one _map_keys call may hold above its input, over the
# control's k = 11 set (207,360 keys): 12.9 MiB with the whole set unpacked
# and mapped at once, 5.6 MiB by blocks of BLOCK_KEYS keys.
MAP_KEYS_PEAK_BYTES = 7 << 20


def test_map_keys_memory(cat_matrix):
    args = control_sets(cat_matrix, 12)[11]
    assert len(args[2]) == 207360
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        dynamics._map_keys(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < MAP_KEYS_PEAK_BYTES


# Traced bytes that one spread may hold above its input, over the image of
# the control's k = 11 set (207,360 keys, 542,882 in the union): 10.6 MiB
# with blocks of BLOCK_KEYS frontier keys whose layers are then merged and
# sorted, 8.3 MiB built by ranges of output keys (the union, and the
# ranges' outputs while they are joined).
SPREAD_PEAK_BYTES = 9 << 20


def test_spread_memory(ctx, gens, cat_matrix):
    mapped = dynamics._map_keys(*control_sets(cat_matrix, 12)[11])
    mapped.sort()
    table = packed.translate_steps(ctx, gens.h_generators, 0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        union = packed.spread(mapped, 1, table, 10**6, "control step 12")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(mapped), len(union)) == (207360, 542882)
    assert peak - start < SPREAD_PEAK_BYTES


def test_growth_point_beyond_the_radius_neither_unpacks_nor_looks_up_the_set(
        ctx, gens, cat_matrix, monkeypatch):
    # At k = 8 the exponents span 17 > 12: the diameter's lower bound comes
    # from the first and last keys; only the envelope check unpacks, by blocks.
    oracle = word_ball(ctx, gens, 12)
    unpacked, looked_up, points = [], [], []
    unpack, column_lengths, iterate = packed.KeyLayout.unpack, oracle.column_lengths, dynamics._iterate

    def counted_unpack(self, keys):
        unpacked.append(len(keys))
        return unpack(self, keys)

    def counted_lengths(xs, ks):
        looked_up.append(len(ks))
        return column_lengths(xs, ks)

    def watched_iterate(*args):
        *args, point = args

        def watched(k, keys):
            unpacked.clear()
            looked_up.clear()
            done = point(k, keys)
            points.append((k, len(keys), max(unpacked, default=0), len(looked_up)))
            return done

        return iterate(*args, watched)

    monkeypatch.setattr(packed.KeyLayout, "unpack", counted_unpack)
    monkeypatch.setattr(oracle, "column_lengths", counted_lengths)
    monkeypatch.setattr(dynamics, "_iterate", watched_iterate)
    cfg = IterationConfig.make(ctx, phi_conj_z(), 1, default_a0(ctx), 8,
                               choose_lambda(cat_matrix, phi_conj_z()))
    curve = run_iteration(ctx, gens, cfg, oracle)
    assert (curve.points[-1].diameter, curve.points[-1].diameter_exact) == (13, False)
    assert points[-1] == (8, 207623, packed.BLOCK_KEYS, 0)


def test_blockwise_map_keys_match_one_block(cat_matrix, monkeypatch):
    calls = control_sets(cat_matrix, 8)
    whole = [dynamics._map_keys(*args) for args in calls]
    # Blocks of 64 keys cut the sets from step 3 on (90 keys) into several
    # blocks, step 7's 4,410 keys into 69.
    monkeypatch.setattr(packed, "BLOCK_KEYS", 64)
    assert [len(args[2]) for args in calls][3:] == [90, 242, 640, 1682, 4410]
    for args, want in zip(calls, whole):
        assert np.array_equal(dynamics._map_keys(*args), want)


@pytest.mark.parametrize("block", [1 << 16, 2])
def test_map_keys_certificate_reads_the_whole_set(cat_matrix, monkeypatch, block):
    # The far seed sits in the last block; its image may leave the layout.
    monkeypatch.setattr(packed, "BLOCK_KEYS", block)
    seeds = [[i, 0] for i in range(9)] + [[2**29, 0]]
    with pytest.raises(ValidationError) as refused:
        abelian_control(cat_matrix, 1, seeds, 2)
    assert str(refused.value) == (
        "control step 1 does not fit the int64 key layout: "
        "the image may reach 1073741825 > 1073741823"
    )


def test_blockwise_iteration_matches_one_block(ctx, gens, cat_matrix, oracle6, monkeypatch):
    lam = choose_lambda(cat_matrix, phi_conj_z())
    cfg = IterationConfig.make(ctx, phi_conj_z(), 1, default_a0(ctx), 4, lam)
    control = lambda: abelian_control(cat_matrix, 1, [[0, 0], [1, 0]], 8).points
    want = run_iteration(ctx, gens, cfg, oracle6).points, control()
    monkeypatch.setattr(packed, "BLOCK_KEYS", 64)
    assert (run_iteration(ctx, gens, cfg, oracle6).points, control()) == want


@pytest.mark.parametrize("block", [1 << 16, 2])
def test_envelope_check_names_the_first_escaped_element(ctx, gens, oracle6, monkeypatch,
                                                        block):
    from fractions import Fraction

    # B(0, 0) holds the five elements of norm <= 1 at k = 0. Keys order by
    # x_1, then x_0, so the first escaped element, (1000, 0), opens the third
    # block of two keys, and (0, 1000) is alone in the fourth.
    monkeypatch.setattr(packed, "BLOCK_KEYS", block)
    inside = [GroupElement(x, 0) for x in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))]
    outside = [GroupElement((1000, 0), 0), GroupElement((0, 1000), 0)]
    bad = IterationConfig(
        phi=phi_conj_z(), n_rounds=1, a0=frozenset(inside + outside), k_max=2,
        lam=Fraction(131, 50), ell0=0, h0=0,
    )
    with pytest.raises(CertificationError) as violated:
        run_iteration(ctx, gens, bad, oracle6)
    assert str(violated.value).startswith(
        f"envelope violated at step 0: {GroupElement((1000, 0), 0)} escaped "
    )
