import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import CAT, D3_REAL
from unstretch import (
    BoxSet,
    BudgetError,
    GeneratingSet,
    GroupAutomorphism,
    GroupContext,
    GroupElement,
    ToralMatrix,
    ValidationError,
    WordLengthOracle,
    choose_lambda,
    lattice_element,
    neighborhood,
    set_diameter,
    word_ball,
)
from unstretch import matrices, words
from unstretch.autos import apply_automorphism, enumerate_commuting_matrices
from unstretch.dynamics import check_box_inclusion_phi, iterate_once
from unstretch.packed import element_columns, pack_elements, spread, translate_steps
from unstretch.words import (
    BOUNDARY_FRACTION,
    I_MAX,
    check_box_inclusion_u1,
    check_box_inclusion_un,
    check_inclusion,
    column_diameter,
    sample_box,
)


def reference_diameter(ctx, oracle, elements):
    """The scalar pairwise loop that ``column_diameter`` replaced: the same
    two seeds and triangle pruning, with one group product and one oracle
    lookup per pair, each pair pruned against the maximum at that moment."""
    S = list(elements)
    lengths = [oracle.word_length(g) for g in S]
    if len(S) == 1:
        return (0, True)
    radius = oracle.radius
    ks = [g.k for g in S]
    best = max(ks) - min(ks)
    known = [n for n in lengths if n is not None]
    if known:
        best = max(best, max(known) - min(known))
    if best > radius:
        return (radius + 1, False)
    caps = [math.inf if n is None else n for n in lengths]
    order = sorted(range(len(S)), key=lambda i: -caps[i])
    for a, i in enumerate(order):
        if a + 1 < len(order) and caps[i] + caps[order[a + 1]] <= best:
            break
        gi_inv = ctx.inverse(S[i])
        for b in range(a + 1, len(order)):
            j = order[b]
            if caps[i] + caps[j] <= best:
                break
            d = oracle.word_length(ctx.multiply(gi_inv, S[j]))
            if d is None:
                return (radius + 1, False)
            best = max(best, d)
    return (best, True)


def assert_diameter_matches_reference(ctx, oracle, elements):
    elements = list(elements)
    expected = reference_diameter(ctx, oracle, elements)
    assert column_diameter(oracle, *element_columns(elements, ctx.dim)) == expected
    assert set_diameter(oracle, elements) == expected
    return expected


def test_ball_radius_zero(ctx, gens):
    oracle = word_ball(ctx, gens, 0)
    assert dict(oracle.items()) == {ctx.identity: 0}
    assert oracle.census() == [(0, 1, 1)]


def test_ball_radius_one_contents(ctx, gens):
    oracle = word_ball(ctx, gens, 1)
    expected = {ctx.identity}
    expected.update(g for g in gens.all)
    assert set(oracle.elements()) == expected
    assert len(oracle) == 7


def test_conjugation_shortcut_at_radius_two(ctx, gens, oracle6):
    # z * e1 reaches ((2,1), 0 twist) in two letters although the abelian
    # write-out would cost four.
    g = GroupElement((2, 1), 1)
    assert oracle6.word_length(g) == 2


def test_word_length_examples(ctx, oracle6):
    assert oracle6.word_length(ctx.identity) == 0
    assert oracle6.word_length(ctx.z) == 1
    assert oracle6.word_length(lattice_element([1, 1])) == 2
    far = GroupElement((982734, -2387), 3)
    assert oracle6.word_length(far) is None


def test_ball_sizes_monotone(oracle8):
    census = oracle8.census()
    balls = [row[1] for row in census]
    assert balls == sorted(balls)
    assert all(b2 > b1 for b1, b2 in zip(balls, balls[1:]))


def test_word_length_symmetric_under_inversion(ctx, oracle6):
    for g, n in oracle6.items():
        assert oracle6.word_length(ctx.inverse(g)) == n


def test_left_invariance_within_radius(ctx, gens, oracle6):
    rng = np.random.default_rng(11)
    elems = [g for g, n in oracle6.items() if n <= 2]
    ws = [g for g, n in oracle6.items() if n <= 1]
    for _ in range(100):
        g = elems[rng.integers(len(elems))]
        h = elems[rng.integers(len(elems))]
        w = ws[rng.integers(len(ws))]
        d1 = oracle6.word_length(ctx.multiply(ctx.inverse(g), h))
        d2 = oracle6.word_length(
            ctx.multiply(ctx.inverse(ctx.multiply(w, g)), ctx.multiply(w, h))
        )
        assert d1 == d2


def test_budget_error_reports_completed_radius(ctx, gens):
    with pytest.raises(BudgetError) as info:
        word_ball(ctx, gens, 6, budget=20)
    assert info.value.completed_radius is not None
    assert info.value.completed_radius < 6
    partial = info.value.partial
    assert isinstance(partial, WordLengthOracle)
    assert partial.radius == info.value.completed_radius


@pytest.mark.parametrize("r", [1, 4, 6])
def test_budget_refuses_only_a_ball_past_it(ctx, gens, oracle6, r):
    # The budget counts the ball's elements, not (element, generator) pairs.
    size = oracle6.ball_size(r)
    assert word_ball(ctx, gens, r, budget=size).census() == oracle6.census()[: r + 1]
    with pytest.raises(BudgetError, match=f"radius {r} exceeds") as info:
        word_ball(ctx, gens, r, budget=size - 1)
    assert info.value.completed_radius == r - 1
    assert info.value.partial.census() == oracle6.census()[:r]
    assert list(info.value.partial.items()) == list(oracle6.restricted(r - 1).items())


def test_set_diameter_examples(ctx, oracle6):
    assert set_diameter(oracle6, [ctx.z]) == (0, True)
    assert set_diameter(oracle6, [ctx.identity, ctx.z]) == (1, True)
    ball2 = [g for g, n in oracle6.items() if n <= 2]
    assert set_diameter(oracle6, ball2) == (4, True)
    with pytest.raises(ValidationError):
        set_diameter(oracle6, [])


def test_set_diameter_lower_bound_beyond_radius(ctx, oracle6):
    pair = [GroupElement((0, 0), -5), GroupElement((0, 0), 5)]
    d = set_diameter(oracle6, pair)
    assert d == (7, False)


def test_diameter_beyond_the_radius_in_exponents_looks_nothing_up(ctx, oracle6, monkeypatch):
    # Exponents 0 and 7 are further apart than the radius 6, so the lower
    # bound needs no word length.
    def refuse(xs, ks):
        raise AssertionError(f"looked up {len(ks)} elements")

    monkeypatch.setattr(oracle6, "column_lengths", refuse)
    spread_out = [GroupElement((0, 0), 0), GroupElement((1, 0), 3),
                  GroupElement((982734, -2387), 7)]
    assert set_diameter(oracle6, spread_out) == (7, False)
    assert column_diameter(oracle6, *element_columns(spread_out, 2)) == (7, False)


@pytest.mark.parametrize("b, v, e", [
    (CAT, (0, 0), 1),
    (CAT, (1, -2), 1),
    (((0, 1), (-1, 0)), (1, -1), -1),
])
def test_column_diameter_matches_the_scalar_loop_on_iterates(ctx, gens, oracle8, b, v, e):
    phi = GroupAutomorphism.from_parts(b, v, e)
    current = {GroupElement((0, 0), 0), GroupElement((0, 0), 1), GroupElement((1, 0), 0)}
    seen = []
    for _ in range(5):
        seen.append(assert_diameter_matches_reference(ctx, oracle8, current))
        current = iterate_once(ctx, gens, phi, 1, current)
    assert any(exact for _, exact in seen) and not all(exact for _, exact in seen)


@pytest.mark.parametrize("rows, radius", [(CAT, 8), (D3_REAL, 6)])
def test_column_diameter_matches_the_scalar_loop_across_the_radius(rows, radius):
    # Sets c * U against the view of radius R = radius - 2, with |c| in
    # R-3..R-1 and U in the ball of radius R/2 or R/2 + 1: their elements
    # straddle R, and their pairwise distances (those of U) reach R or R + 2.
    # D3_REAL's powers are not symmetric, so a transposed A^-k shows.
    ctx = GroupContext(ToralMatrix(rows))
    full = word_ball(ctx, GeneratingSet.standard(ctx.dim), radius)
    view = radius - 2
    oracle = full.restricted(view)
    centers = [g for g, n in full.items() if view - 3 <= n < view]
    balls = [[g for g, n in full.items() if n <= view // 2 + i] for i in (0, 1)]
    rng = np.random.default_rng(5)
    seen = set()
    for trial in range(80):
        c = centers[int(rng.integers(len(centers)))]
        ball = balls[trial % 2]
        size = int(rng.integers(1, 10))
        picks = [ball[i] for i in rng.choice(len(ball), size=size, replace=False)]
        elements = [ctx.multiply(c, u) for u in picks]
        _, exact = assert_diameter_matches_reference(ctx, oracle, elements)
        straddles = any(oracle.word_length(g) is None for g in elements)
        seen.add((exact, straddles))
    assert {(True, False), (True, True), (False, True)} <= seen


def test_column_diameter_of_one_and_two_elements(ctx, oracle6):
    far = GroupElement((982734, -2387), 3)
    for elements in ([far], [ctx.z], [ctx.identity, far], [ctx.z, ctx.identity],
                     [GroupElement((1, 1), 2), GroupElement((0, 2), 1)]):
        assert_diameter_matches_reference(ctx, oracle6, elements)
    assert set_diameter(oracle6, [far]) == (0, True)
    assert set_diameter(oracle6, [ctx.identity, far]) == (7, False)


def test_column_diameter_matches_the_scalar_loop_on_random_sets(ctx, oracle6):
    # Every other set holds one element outside the oracle's key layout.
    near = [g for g, n in oracle6.items() if n <= 3]
    far = [GroupElement((1 << 40, -3), 1), GroupElement((2, 1), -9),
           GroupElement((0, -(1 << 35)), 0)]
    rng = np.random.default_rng(11)
    seen = set()
    for trial in range(40):
        picks = [near[i] for i in rng.choice(len(near), size=int(rng.integers(1, 12)))]
        if trial % 2:
            picks.append(far[trial % len(far)])
        seen.add(assert_diameter_matches_reference(ctx, oracle6, picks)[1])
    assert seen == {True, False}


def test_column_diameter_computes_a_quotient_past_int64_exactly(ctx, oracle6):
    # A^-3 = ((5, -8), (-8, 13)), so quotients of coordinate differences up
    # to 2 * 2^61 could overflow int64: they are computed in Python ints,
    # and (-5 * 2^61, 8 * 2^61) is outside the ball, as is the same pair at k = 0.
    pair = [GroupElement((2**61, 0), 3), GroupElement((0, 0), 3)]
    assert assert_diameter_matches_reference(ctx, oracle6, pair) == (7, False)
    assert set_diameter(oracle6, [GroupElement((2**61, 0), 0), ctx.identity]) == (7, False)


@pytest.mark.parametrize("k", [2000, 8000])
def test_column_diameter_of_a_pair_at_a_huge_exponent_is_a_miss(ctx, oracle6, k):
    # A^-k (1, 0) has hundreds of digits: far past the key layout, so the
    # pair is certified longer than the radius instead of refused.
    pair = [GroupElement((0, 0), k), GroupElement((1, 0), k)]
    assert set_diameter(oracle6, pair) == (7, False)
    assert_diameter_matches_reference(ctx, oracle6, pair)


def test_column_diameter_computes_exactly_only_what_could_overflow(ctx, oracle6, monkeypatch):
    # A^40's entries are near 2^55, so the pair's quotient could overflow
    # int64, yet it is (1, 0): the exact path finds it in the ball.
    far = matrices.matvec(ctx.matrix_power(40), (1, 0))
    pair = [GroupElement((0, 0), 40), GroupElement(far, 40)]
    assert assert_diameter_matches_reference(ctx, oracle6, pair) == (1, True)

    def refuse(*args):
        raise AssertionError("an in-range set took the exact path")

    # A set whose quotients fit int64 stays on the int64 path.
    monkeypatch.setattr(words, "_exact_quotients", refuse)
    near = [g for g, n in oracle6.items() if n <= 3]
    assert assert_diameter_matches_reference(ctx, oracle6, near) == (6, True)


def test_neighborhood_basics(ctx, gens, oracle6):
    s = {GroupElement((1, 1), 2)}
    assert neighborhood(ctx, gens, s, 0) == s
    ball1 = neighborhood(ctx, gens, {ctx.identity}, 1)
    assert ball1 == set(g for g, n in oracle6.items() if n <= 1)


def test_neighborhood_matches_ball(ctx, gens, oracle6):
    for n in range(5):
        reach = neighborhood(ctx, gens, {ctx.identity}, n)
        expected = {g for g, ln in oracle6.items() if ln <= n}
        assert reach == expected


def test_neighborhood_budget(ctx, gens):
    table, keys = pack_elements(ctx, gens, [ctx.identity], 5, "neighborhood")
    with pytest.raises(BudgetError):
        spread(keys, 5, table, 30, "neighborhood")


def test_box_membership_examples():
    box = BoxSet(3, 0, 0)
    assert box.contains(GroupElement((0, 0), 0))
    assert not box.contains(GroupElement((0, 0), 1))
    box31 = BoxSet(3, 1, 0)
    assert box31.contains(GroupElement((3, 0), 0))
    assert not box31.contains(GroupElement((3, 1), 0))  # 10 > 9 exactly
    boxh = BoxSet(Fraction(5, 2), 2, 3)
    assert not boxh.contains(GroupElement((0, 0), 4))


def test_box_membership_is_exact_at_boundary():
    # lam^2 = (5/2)^2 = 25/4: the lattice norm 6 has 6 <= 25/4, 7 > 25/4
    box = BoxSet(Fraction(5, 2), 1, 0)
    assert box.contains(GroupElement((1, 2), 0))  # norm^2 = 5
    assert box.contains(GroupElement((2, 1), 0))
    assert not box.contains(GroupElement((1, 3), 0))  # norm^2 = 10


def test_box_nesting():
    small = BoxSet(Fraction(5, 2), 1, 1)
    big = BoxSet(Fraction(5, 2), 3, 2)
    rng = np.random.default_rng(0)
    for g in sample_box(rng, small, 2, 100):
        assert big.contains(g)


def test_box_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        BoxSet(2, 1, 1)  # lam must exceed 2
    with pytest.raises(ValidationError):
        BoxSet(3, -1, 0)


def test_choose_lambda_cat_identity(cat_matrix):
    lam = choose_lambda(cat_matrix, GroupAutomorphism.identity(2))
    assert lam == Fraction(131, 50)


def test_choose_lambda_with_translation(cat_matrix):
    # the translation conditions are weaker than ||A|| here, so lam is unchanged
    phi = GroupAutomorphism.from_parts([[2, 1], [1, 1]], [1, 0], 1)
    assert choose_lambda(cat_matrix, phi) == Fraction(131, 50)
    lam = choose_lambda(cat_matrix, phi)
    a = cat_matrix.entries
    v = (1, 0)
    w = v
    for i in range(1, 30):
        w = tuple(sum(a[r][j] * w[j] for j in range(2)) for r in range(2))
        if i > 2:
            assert math.sqrt(w[0] ** 2 + w[1] ** 2) < float(lam) ** i


def test_choose_lambda_clamps_at_two():
    # the golden-ratio matrix has operator norm below 2, so the floor binds
    from unstretch import ToralMatrix

    m = ToralMatrix([[1, 1], [1, 0]])
    assert choose_lambda(m, GroupAutomorphism.identity(2)) == Fraction(201, 100)


def reference_choose_lambda(A, phi):
    """The float-then-certify path that ``choose_lambda``'s exact search
    replaced: the smallest hundredth strictly above the float estimates of
    every scale the box lemmas need, then each strict condition certified
    exactly (a float underestimate fails here)."""
    b_inv = matrices.inverse_unimodular(phi.B)
    needs = [2.0] + [float(np.linalg.norm(np.array(m, dtype=float), 2))
                     for m in (A.entries, A.inverse_entries, phi.B, b_inv)]
    v_sq = sum(c * c for c in phi.v)
    norms_sq = []
    if v_sq:
        w = tuple(phi.v)
        for _ in range(I_MAX):
            w = matrices.matvec(A.entries, w)
            norms_sq.append(sum(c * c for c in w))
        needs.append(math.sqrt(v_sq) + math.sqrt(norms_sq[0]) - 1.0)
        needs.extend(math.sqrt(n) ** (1.0 / i) for i, n in enumerate(norms_sq[2:], 3))
    top = max(needs)
    lam = Fraction(math.floor(top * 100) + 1, 100)
    while float(lam) <= top:
        lam += Fraction(1, 100)
    assert all(scale_conditions(A, phi, lam)), f"lam = {lam} fails a condition"
    return lam


def scale_conditions(A, phi, lam):
    """Each strict condition ``choose_lambda`` needs of lam, tested exactly."""
    p, q = lam.numerator, lam.denominator
    out = [lam > 2] + [
        matrices.norm_below(m, lam)
        for m in (A.entries, A.inverse_entries, phi.B, matrices.inverse_unimodular(phi.B))
    ]
    v_sq = sum(c * c for c in phi.v)
    if v_sq:
        w = matrices.matvec(A.entries, phi.v)
        a_v_sq = sum(c * c for c in w)
        slack = (1 + lam) ** 2 - v_sq - a_v_sq
        out.append(slack > 0 and 4 * v_sq * a_v_sq < slack * slack)
        for i in range(2, I_MAX + 1):
            w = matrices.matvec(A.entries, w)
            if i > 2:
                out.append(sum(c * c for c in w) * q ** (2 * i) < p ** (2 * i))
    return out


def scale_cases():
    """Automorphisms of the cat map (both signs of e) and of D3_REAL (e = 1)
    from the centralizer scan, each with several translations v."""
    cases = []
    for rows, es, vs in (
        (CAT, (1, -1), ((0, 0), (1, 0), (0, 1), (2, -1), (3, 5))),
        (D3_REAL, (1,), ((0, 0, 0), (1, 0, 0), (0, 1, -1), (2, 1, 3))),
    ):
        A = ToralMatrix(rows)
        for e in es:
            for b in enumerate_commuting_matrices(A, e, 3):
                cases.extend((A, GroupAutomorphism.from_parts(b, v, e)) for v in vs)
    return cases


def test_choose_lambda_equals_the_float_then_certify_path():
    cases = scale_cases()
    assert len(cases) == 28 * 5 + 18 * 4
    for A, phi in cases:
        assert choose_lambda(A, phi) == reference_choose_lambda(A, phi), (A, phi)


def test_choose_lambda_is_the_least_hundredth_meeting_every_condition():
    golden = ToralMatrix([[1, 1], [1, 0]])
    for A, phi in scale_cases() + [(golden, GroupAutomorphism.identity(2))]:
        lam = choose_lambda(A, phi)
        assert (lam * 100).denominator == 1
        assert all(scale_conditions(A, phi, lam)), (A, phi)
        if lam != Fraction(201, 100):
            assert not all(scale_conditions(A, phi, lam - Fraction(1, 100))), (A, phi)


def test_sample_box_members_only(ctx):
    rng = np.random.default_rng(42)
    box = BoxSet(Fraction(131, 50), 3, 2)
    pts = sample_box(rng, box, 2, 300)
    assert len(pts) == 300
    assert all(box.contains(g) for g in pts)
    # boundary sampling should reach at least 60% of the norm radius
    top = max(sum(v * v for v in g.x) for g in pts)
    assert top > float(box.norm_bound()) ** 2 * 0.36


@pytest.mark.parametrize("lam, ell, h, dim, count", [
    (Fraction(131, 50), 5, 4, 2, 1000),
    (Fraction(5, 2), 0, 0, 2, 7),  # the box {|x| <= 1, k = 0}
    (Fraction(201, 100), 4, 1, 3, 101),
])
def test_sample_box_draws_exact_counts_of_members(lam, ell, h, dim, count):
    box = BoxSet(lam, ell, h)
    pts = sample_box(np.random.default_rng(count), box, dim, count)
    assert len(pts) == count
    assert all(len(g.x) == dim and box.contains(g) for g in pts)
    assert all(type(v) is int for g in pts for v in (*g.x, g.k))
    # The boundary share comes last and sits at the norm radius: every
    # point rounded from a direction at radius r has norm above r - sqrt(dim).
    r = float(box.norm_bound())
    boundary = pts[count - int(count * BOUNDARY_FRACTION):]
    assert all(math.dist(g.x, (0,) * dim) > r - math.sqrt(dim) for g in boundary)
    assert max(sum(v * v for v in g.x) for g in pts) >= 0.36 * r * r


def test_sample_box_boundary_points_are_largest_corners():
    # Each boundary point is the in-box lattice corner of largest norm
    # around a point at radius r, so it sits on average about 0.3 below r;
    # the in-box corner of smallest norm would sit about 0.6 below it.
    box = BoxSet(Fraction(131, 50), 5, 4)
    r = float(box.norm_bound())
    pts = sample_box(np.random.default_rng(3), box, 2, 1000)
    boundary = pts[1000 - int(1000 * BOUNDARY_FRACTION):]
    assert np.mean([r - math.hypot(*g.x) for g in boundary]) < 0.45


def test_sample_box_same_seed_same_samples():
    box = BoxSet(Fraction(131, 50), 4, 3)
    first = sample_box(np.random.default_rng(9), box, 2, 500)
    assert first == sample_box(np.random.default_rng(9), box, 2, 500)
    assert first != sample_box(np.random.default_rng(10), box, 2, 500)
    assert {g.k for g in first} == set(range(-3, 4))


def test_sample_box_tops_up_a_starved_boundary():
    class NoDirections:
        """A generator whose normal draws are all zero, so that no boundary
        attempt gives a direction."""

        def __init__(self):
            self.rng = np.random.default_rng(4)
            self.attempts = 0

        def integers(self, *args, **kwargs):
            return self.rng.integers(*args, **kwargs)

        def normal(self, size):
            self.attempts += size[0]
            return np.zeros(size)

    rng = NoDirections()
    box = BoxSet(Fraction(131, 50), 3, 2)
    pts = sample_box(rng, box, 2, 40)
    assert rng.attempts == 50 * 40
    assert len(pts) == 40 and all(box.contains(g) for g in pts)


def test_u1_inclusion_small(ctx, gens, cat_matrix):
    rng = np.random.default_rng(7)
    lam = choose_lambda(cat_matrix, GroupAutomorphism.identity(2))
    rep = check_box_inclusion_u1(ctx, gens, lam, 1, 1, 1000, rng)
    assert not rep.violations and rep.checked >= 6000


def test_un_inclusion_small(ctx, gens, cat_matrix):
    rng = np.random.default_rng(8)
    lam = choose_lambda(cat_matrix, GroupAutomorphism.identity(2))
    rep = check_box_inclusion_un(ctx, gens, lam, 2, 2, 2, 400, rng)
    assert not rep.violations
    rep0 = check_box_inclusion_un(ctx, gens, lam, 2, 2, 0, 50, rng)
    assert not rep0.violations  # N = 0 is the trivial inclusion


def test_un_ball_is_built_once_per_context(gens, cat_matrix, monkeypatch):
    from unstretch import words

    lam = choose_lambda(cat_matrix, GroupAutomorphism.identity(2))
    fresh = check_box_inclusion_un(
        GroupContext(cat_matrix), gens, lam, 2, 2, 2, 40, np.random.default_rng(5)
    )
    radii = []
    build = words.word_ball
    monkeypatch.setattr(words, "word_ball", lambda c, g, r: radii.append(r) or build(c, g, r))
    ctx = GroupContext(cat_matrix)
    for n in (2, 2, 1, 2):
        rep = check_box_inclusion_un(ctx, gens, lam, 2, 2, n, 40, np.random.default_rng(5))
        if n == 2:
            assert rep == fresh
    assert radii == [2, 1]


def test_inclusion_preconditions(ctx, gens, cat_matrix):
    lam = choose_lambda(cat_matrix, GroupAutomorphism.identity(2))
    rng = np.random.default_rng(9)
    with pytest.raises(ValidationError):
        check_box_inclusion_u1(ctx, gens, lam, 0, 1, 10, rng)


def reference_inclusion(source, target, samples, rng, images):
    """The per-sample loop the inclusion checker replaced: every image of
    every sample tested with the scalar ``BoxSet.contains``."""
    checked, violations = 0, []
    for g in sample_box(rng, source, 2, samples):
        for moved in images(g):
            checked += 1
            if not target.contains(moved):
                violations.append((g, moved))
    return checked, violations


def test_inclusion_checks_match_the_per_sample_loops(ctx, gens, cat_matrix):
    phi = GroupAutomorphism.from_parts([[2, 1], [1, 1]], [1, 0], 1)
    lam = choose_lambda(cat_matrix, phi)
    ell, h, samples = 3, 2, 120
    source = BoxSet(lam, ell, h)
    cases = [(
        lambda rng: check_box_inclusion_u1(ctx, gens, lam, ell, h, samples, rng),
        BoxSet(lam, ell + h, h + 1),
        lambda g: [ctx.multiply(g, s) for s in gens.all],
    ), (
        lambda rng: check_box_inclusion_phi(ctx, phi, lam, ell, h, samples, rng),
        BoxSet(lam, ell + h, h + 1),
        lambda g: [apply_automorphism(ctx, phi, g)],
    )]
    for n in range(4):
        cases.append((
            lambda rng, n=n: check_box_inclusion_un(ctx, gens, lam, ell, h, n, samples, rng),
            BoxSet(lam, ell + n * (h + n), h + n),
            lambda g, n=n: neighborhood(ctx, gens, [g], n),
        ))
    for seed, (check, target, images) in enumerate(cases):
        rep = check(np.random.default_rng(seed))
        checked, violations = reference_inclusion(
            source, target, samples, np.random.default_rng(seed), images
        )
        assert rep.checked == checked >= samples
        assert sorted(rep.violations) == sorted(violations)


@pytest.mark.parametrize("n", [None, 1, 2])
def test_inclusion_check_reports_every_violation(ctx, gens, cat_matrix, n):
    # Into its own box, a step leaves through |k| = h or the norm boundary.
    lam = choose_lambda(cat_matrix, GroupAutomorphism.identity(2))
    box = BoxSet(lam, 3, 2)
    if n is None:
        elements, images = gens.all, lambda g: [ctx.multiply(g, s) for s in gens.all]
    else:
        elements = tuple(word_ball(ctx, gens, n).elements())
        images = lambda g: neighborhood(ctx, gens, [g], n)  # noqa: E731
    table = translate_steps(ctx, tuple(elements), box.h + (n or 1))
    rep = check_inclusion(
        box, box, table.layout, table.translates, 200, np.random.default_rng(3), "test"
    )
    checked, violations = reference_inclusion(
        box, box, 200, np.random.default_rng(3), images
    )
    assert len(rep.violations) > 0
    assert rep.checked == checked
    key = sorted if n else list
    assert key(rep.violations) == key(violations)
    assert all(not box.contains(moved) and box.contains(g) for g, moved in rep.violations)


@pytest.mark.parametrize("check", ["u1", "un", "phi"])
def test_inclusion_sample_outside_the_key_layout_raises(ctx, gens, cat_matrix, check):
    # lam^25 is about 3e10, beyond the 2^29 coordinate field of these layouts;
    # the source box is refused before any sample is drawn.
    phi = GroupAutomorphism.identity(2)
    lam = choose_lambda(cat_matrix, phi)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValidationError, match="does not fit the int64 key layout: BoxSet"):
        if check == "u1":
            check_box_inclusion_u1(ctx, gens, lam, 25, 2, 20, rng)
        elif check == "un":
            check_box_inclusion_un(ctx, gens, lam, 25, 2, 2, 20, rng)
        else:
            check_box_inclusion_phi(ctx, phi, lam, 25, 2, 20, rng)
    assert rng.bit_generator.state == state


def test_u1_check_at_a_huge_h_refuses_before_the_far_matrix_powers(ctx, gens, monkeypatch):
    # 1000 exponents drawn from [-10^5, 10^5]: the row nearest k = 0 already
    # twists past the layout, so no power beyond A^1000 is formed.
    matrix_power = GroupContext.matrix_power

    def near_powers_only(self, j):
        if abs(j) > 1000:
            pytest.fail(f"formed A^{j}")
        return matrix_power(self, j)

    monkeypatch.setattr(GroupContext, "matrix_power", near_powers_only)
    with pytest.raises(ValidationError, match="u1 inclusion check does not fit"):
        check_box_inclusion_u1(ctx, gens, 3, 2, 10**5, 1000, np.random.default_rng(0))


def test_oracle_restriction(oracle6):
    small = oracle6.restricted(2)
    assert small.radius == 2
    assert len(small) == 33
    assert max(n for _, n in small.items()) == 2
    with pytest.raises(ValidationError):
        oracle6.restricted(10)


def test_norm_below_is_exact():
    # ||diag(2, 1)|| is 2 exactly; the cat map's is (3 + sqrt 5) / 2 = 2.6180339...
    assert not matrices.norm_below(((2, 0), (0, 1)), Fraction(2))
    assert matrices.norm_below(((2, 0), (0, 1)), Fraction(2) + Fraction(1, 10**40))
    assert matrices.norm_below(((2, 1), (1, 1)), Fraction(2618034, 10**6))
    assert not matrices.norm_below(((2, 1), (1, 1)), Fraction(2618033, 10**6))
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = tuple(map(tuple, rng.integers(-5, 6, size=(3, 3)).tolist()))
        norm = Fraction(float(np.linalg.norm(np.array(m, dtype=float), 2)))
        assert matrices.norm_below(m, norm * (1 + Fraction(1, 10**9)))
        assert not matrices.norm_below(m, norm * (1 - Fraction(1, 10**9)))


