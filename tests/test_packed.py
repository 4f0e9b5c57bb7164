"""The packed set kernel against independent set-of-tuples searches.

The references below are the plain hashed-set loops that the packed kernel
replaced: right neighborhoods by N rounds of group products over
GroupElement sets, the set iteration built on them with the scalar
automorphism, and the lattice control over tuple sets with the 2^(d-1)
signed-projection l1 diameter. They share no code with the kernel beyond
group arithmetic, so agreement element for element is a real cross-check.
"""

import re

import numpy as np
import pytest

from conftest import CAT, D3_REAL
from test_oracle import WIDE
from unstretch import (
    BoxSet,
    GeneratingSet,
    GroupAutomorphism,
    GroupContext,
    GroupElement,
    IterationConfig,
    ToralMatrix,
    ValidationError,
    abelian_control,
    apply_automorphism,
    choose_lambda,
    iterate_once,
    neighborhood,
    run_iteration,
    set_diameter,
    word_ball,
)
from unstretch import matrices, packed
from unstretch.dynamics import _l1_diameter, _map_keys
from unstretch.errors import DEFAULT_ELEMENT_BUDGET


def reference_neighborhood(ctx, gens, elements, n):
    """S * B_N by N rounds of generator products; only the newest layer
    needs expanding because earlier layers were already saturated."""
    out = set(elements)
    frontier = list(out)
    for _ in range(n):
        new = []
        for g in frontier:
            for s in gens.all:
                cand = ctx.multiply(g, s)
                if cand not in out:
                    out.add(cand)
                    new.append(cand)
        frontier = new
    return out


def reference_iterate(ctx, gens, phi, n, current):
    return reference_neighborhood(
        ctx, gens, {apply_automorphism(ctx, phi, g) for g in current}, n
    )


def reference_l1_diameter(points):
    dim = len(next(iter(points)))
    best = 0
    for mask in range(1 << (dim - 1)):
        signs = [1] + [1 if (mask >> i) & 1 else -1 for i in range(dim - 1)]
        vals = [sum(s * c for s, c in zip(signs, p)) for p in points]
        best = max(best, max(vals) - min(vals))
    return best


def reference_control(rows, n, a0, k_max):
    """(set size, l1 diameter) of each lattice iterate, over tuple sets."""
    dim = len(rows)
    current = {tuple(v) for v in a0}
    out = []
    for k in range(k_max + 1):
        out.append((len(current), reference_l1_diameter(current)))
        if k == k_max:
            break
        grown = {matrices.matvec(rows, x) for x in current}
        frontier = list(grown)
        for _ in range(n):
            new = []
            for x in frontier:
                for i in range(dim):
                    for dv in (1, -1):
                        cand = x[:i] + (x[i] + dv,) + x[i + 1 :]
                        if cand not in grown:
                            grown.add(cand)
                            new.append(cand)
            frontier = new
        current = grown
    return out


def coordinate_rows(xs):
    """The coordinate rows (dim, n) of points given one per row (n, dim)."""
    return np.ascontiguousarray(xs.T)


def random_set(rng, dim, count, coord, k_max):
    xs = rng.integers(-coord, coord + 1, size=(count, dim))
    ks = rng.integers(-k_max, k_max + 1, size=count)
    return {GroupElement(tuple(int(v) for v in x), int(k)) for x, k in zip(xs, ks)}


@pytest.mark.parametrize("rows", [CAT, D3_REAL])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_neighborhood_matches_set_search(rows, n):
    ctx = GroupContext(ToralMatrix(rows))
    gens = GeneratingSet.standard(ctx.dim)
    rng = np.random.default_rng(10 * n + ctx.dim)
    for count in (1, 2, 7):
        s = random_set(rng, ctx.dim, count, 30, 4)
        assert neighborhood(ctx, gens, s, n) == reference_neighborhood(ctx, gens, s, n)
    # overlapping sources: a cluster whose neighborhoods merge
    cluster = {GroupElement((i,) + (0,) * (ctx.dim - 1), i % 2) for i in range(4)}
    assert neighborhood(ctx, gens, cluster, n) == reference_neighborhood(
        ctx, gens, cluster, n
    )


@pytest.mark.parametrize("b, v, e, n, a0", [
    (CAT, (0, 0), 1, 1, [((0, 0), 0), ((0, 0), 1), ((1, 0), 0)]),
    (CAT, (1, -2), 1, 2, [((0, 0), 0), ((1, 0), -1)]),
    (((0, 1), (-1, 0)), (1, -1), -1, 1, [((0, 0), 0), ((2, 0), 1)]),
])
def test_iteration_matches_set_search(ctx, gens, cat_matrix, b, v, e, n, a0):
    phi = GroupAutomorphism.from_parts(b, v, e)
    a0 = {GroupElement(x, k) for x, k in a0}
    k_max = 5 if n == 1 else 3
    oracle = word_ball(ctx, gens, 8)
    current = reference = set(a0)
    rows = []
    for k in range(k_max + 1):
        assert current == reference, f"iterate {k} differs"
        d = set_diameter(oracle, reference)
        rows.append((k, d.value, d.exact, len(reference)))
        if k < k_max:
            current = iterate_once(ctx, gens, phi, n, current)
            reference = reference_iterate(ctx, gens, phi, n, reference)
    cfg = IterationConfig.make(ctx, phi, n, a0, k_max, choose_lambda(cat_matrix, phi))
    curve = run_iteration(ctx, gens, cfg, oracle)
    assert [(p.k, p.diameter, p.diameter_exact, p.set_size) for p in curve.points] == rows


def test_control_matches_tuple_loop(cat_matrix):
    curve = abelian_control(cat_matrix, 1, [[0, 0], [1, 0]], 12)
    got = [(p.set_size, p.diameter) for p in curve.points]
    assert got == reference_control(CAT, 1, [[0, 0], [1, 0]], 12)
    assert all(p.diameter_exact for p in curve.points)


@pytest.mark.parametrize("rows, n, a0, k_max", [
    (CAT, 2, [[0, 0], [3, -1]], 6),
    (D3_REAL, 1, [[0, 0, 0], [1, 0, 0]], 6),
])
def test_control_matches_tuple_loop_variants(rows, n, a0, k_max):
    curve = abelian_control(ToralMatrix(rows), n, a0, k_max)
    got = [(p.set_size, p.diameter) for p in curve.points]
    assert got == reference_control(rows, n, a0, k_max)


def test_blocked_spread_and_control_diameter_match_the_references(monkeypatch):
    # Ranges cut at every frontier key (blocks of 1 and 2 keys) or every
    # seventh one split exponent rows and coordinate rows, so each range
    # takes part of several (row, generator) runs and earlier layers.
    for block in (1, 2, 7):
        monkeypatch.setattr(packed, "BLOCK_KEYS", block)
        for rows in (CAT, D3_REAL):
            ctx = GroupContext(ToralMatrix(rows))
            gens = GeneratingSet.standard(ctx.dim)
            s = random_set(np.random.default_rng(ctx.dim), ctx.dim, 40, 6, 2)
            a0 = [[0] * ctx.dim, [1] + [0] * (ctx.dim - 1)]
            lattice = packed.translate_steps(ctx, gens.h_generators, 0)
            for n in (1, 2, 3):
                assert neighborhood(ctx, gens, s, n) == reference_neighborhood(ctx, gens, s, n)
                assert neighborhood(ctx, gens, set(), n) == set()
                empty = packed.spread(np.empty(0, dtype=np.int64), n, lattice, 1, "empty set")
                assert empty.dtype == np.int64 and not len(empty)
                k_max = 6 // n
                curve = abelian_control(ToralMatrix(rows), n, a0, k_max)
                got = [(p.set_size, p.diameter) for p in curve.points]
                assert got == reference_control(rows, n, a0, k_max)


@pytest.mark.parametrize("radius", [3, 8])
@pytest.mark.parametrize("rows", [CAT, ((1, 1), (1, 0)), D3_REAL], ids=["cat", "fib", "d3"])
def test_step_table_rows_are_the_twisted_increments(rows, radius):
    # Each row against its definition in Python ints: at z^k, the element
    # (y, m) steps a key by key(A^k y, m) - key(0, 0), and the row's reach
    # is the largest |A^k y| per coordinate.
    ctx = GroupContext(ToralMatrix(rows))
    gens = GeneratingSet.standard(ctx.dim)
    for elements in (gens.all, tuple(word_ball(ctx, gens, 2).elements())):
        table = packed.translate_steps(ctx, elements, radius)
        layout = table.layout
        for k in range(-radius, radius + 1):
            z_k = GroupElement((0,) * ctx.dim, k)
            twisted = [ctx.multiply(z_k, GroupElement(g.x, 0)).x for g in elements]
            reach = [max(abs(y[i]) for y in twisted) for i in range(ctx.dim)]
            assert table._row_reach(k + radius) == reach
            assert max(reach) <= layout.x_limit
            assert table.deltas[k + radius].tolist() == [
                sum(v << s for v, s in zip(y, layout.shifts)) + (g.k << layout.k_shift)
                for y, g in zip(twisted, elements)
            ]


def test_step_table_refuses_a_row_past_the_layout():
    # WIDE's A e_i fits the 2^28 coordinate field of a radius-5 layout, and
    # A^2 e_i, near 10^12, does not.
    ctx = GroupContext(ToralMatrix(WIDE))
    gens = GeneratingSet.standard(2)
    table = packed.translate_steps(ctx, gens.all, 5)
    z1, z2 = table.layout.pack_set(np.zeros((2, 2), dtype=np.int64), np.array([1, 2]), "z^k")
    moved = table.translates(np.array([z1]), "z^1")[0]
    assert table.layout.elements(moved) == [ctx.multiply(ctx.z, g) for g in gens.all]
    with pytest.raises(ValidationError, match=r"z\^2 does not fit .* coordinates may reach"):
        table.translates(np.array([z2]), "z^2")


@pytest.mark.parametrize("rows", [CAT, ((1, 1), (1, 0)), D3_REAL], ids=["cat", "fib", "d3"])
def test_lower_bound_on_a_row_refuses_the_rows_the_exact_bound_refuses(rows, monkeypatch):
    # With the lower bound read at every row (FLOOR_BITS 0) or at none, the
    # same rows are refused; the bound refuses some first, naming a smaller
    # size. A table without the unit vectors never reads it.
    radius = 80
    outcomes = []
    for units in (True, False):
        for floor_bits in (0, 10**9):
            monkeypatch.setattr(packed, "FLOOR_BITS", floor_bits)
            outcomes.append(_row_outcomes(rows, units, radius))
    lower, exact, plain_lower, plain_exact = outcomes
    assert [m is None for m in lower] == [m is None for m in exact]
    assert any(a != b for a, b in zip(lower, exact))
    assert sum(m is None for m in exact) > 10
    assert plain_lower == plain_exact
    assert sum(m is None for m in plain_exact) > 10


def _row_outcomes(rows, units, radius):
    """Per exponent k in [-radius, radius], None if the step table of the
    generators (of (1, ..., 1) alone, without ``units``) translates z^k, or
    the refusal's text."""
    ctx = GroupContext(ToralMatrix(rows))
    elements = GeneratingSet.standard(ctx.dim).all if units else (
        GroupElement((1,) * ctx.dim, 0),)
    table = packed.StepTable(ctx, elements, packed.KeyLayout(ctx.dim, radius))
    outcome = []
    for k in range(-radius, radius + 1):
        key = table.layout.pack_set(np.zeros((ctx.dim, 1), dtype=np.int64),
                                    np.array([k]), "z^k")
        try:
            table.translates(key, f"z^{k}")
            outcome.append(None)
        except ValidationError as exc:
            outcome.append(str(exc))
    return outcome


def test_step_table_refuses_a_far_row_before_forming_its_power():
    # A^(10^6) has entries of about 1.4 million bits; |tr A^8| = 2207 gives
    # at least 2^(10 * 10^6 / 8 - 1) without it.
    ctx = GroupContext(ToralMatrix(CAT))
    table = packed.translate_steps(ctx, GeneratingSet.standard(2).all, 10**6)
    key = table.layout.pack_set(np.zeros((2, 1), dtype=np.int64), np.array([10**6]), "z^k")
    with pytest.raises(ValidationError) as refused:
        table.translates(key, "z^1000000")
    assert str(refused.value) == ("z^1000000 does not fit the int64 key layout: "
                                  "coordinates may reach more than 2^1249998 > 1048575")
    assert 10**6 not in ctx._powers


def test_layout_refuses_more_exponent_rows_than_the_element_budget():
    # A table on it would hold 2 * 10^9 + 1 rows; one row fewer than the
    # budget still builds, and the layout itself allocates nothing.
    with pytest.raises(ValidationError, match=re.escape(
            "radius 1000000000 needs 2000000001 exponent rows in the int64 key layout, "
            f"more than the element budget {DEFAULT_ELEMENT_BUDGET}")):
        packed.KeyLayout(2, 10**9)
    with pytest.raises(ValidationError, match="radius 25000000 needs"):
        packed.KeyLayout(2, DEFAULT_ELEMENT_BUDGET // 2)
    assert packed.KeyLayout(2, DEFAULT_ELEMENT_BUDGET // 2 - 1).radius == 24999999


def test_spread_certificate_reads_the_whole_frontier(monkeypatch):
    # The far element opens the frontier (exponent 0) and the element at
    # exponent 3, whose generators twist furthest, closes it: the reach of
    # the one plus the twist of the other may leave the layout, whatever
    # the ranges.
    ctx = GroupContext(ToralMatrix(CAT))
    gens = GeneratingSet.standard(2)
    table, keys = packed.pack_elements(
        ctx, gens, [GroupElement(((1 << 28) - 10, 0), 0), GroupElement((0, 0), 3)], 1, "sample")
    for block in (1 << 16, 1):
        monkeypatch.setattr(packed, "BLOCK_KEYS", block)
        with pytest.raises(ValidationError) as refused:
            packed.spread(keys, 1, table, 100, "neighborhood")
        assert str(refused.value) == (
            "neighborhood does not fit the int64 key layout: "
            "coordinates may reach 268435459 > 268435455"
        )


def test_control_rejects_negative_k_max(cat_matrix):
    with pytest.raises(ValidationError, match="k_max"):
        abelian_control(cat_matrix, 1, [[0, 0]], -1)


def test_iteration_seed_leaving_the_layout_is_refused(ctx, gens, cat_matrix, oracle6):
    # h0 = 0, N = 1, k_max = 2: the layout holds |k| <= 2 and |x_i| < 2^29.
    phi = GroupAutomorphism.from_parts(CAT, [0, 0], 1)
    lam = choose_lambda(cat_matrix, phi)
    fits = IterationConfig.make(ctx, phi, 1, {GroupElement((1 << 28, 0), 0)}, 2, lam)
    with pytest.raises(ValidationError, match="iteration step 1"):
        run_iteration(ctx, gens, fits, oracle6)
    beyond = IterationConfig.make(ctx, phi, 1, {GroupElement((1 << 29, 0), 0)}, 2, lam)
    with pytest.raises(ValidationError, match="step 0"):
        run_iteration(ctx, gens, beyond, oracle6)


def test_control_seed_leaving_the_layout_is_refused(cat_matrix):
    # The lattice layout gives each of two coordinates 31 bits: |x_i| < 2^30.
    with pytest.raises(ValidationError, match="control step 1"):
        abelian_control(cat_matrix, 1, [[1 << 29, 0]], 3)
    with pytest.raises(ValidationError, match="step 0"):
        abelian_control(cat_matrix, 1, [[1 << 30, 0]], 3)


def test_keys_sort_by_exponent_first():
    # _translate_runs takes each exponent row's keys as one slice of the
    # sorted frontier.
    layout = packed.KeyLayout(3, 6)
    rng = np.random.default_rng(5)
    xs = rng.integers(-layout.x_limit, layout.x_limit + 1, size=(400, 3))
    ks = rng.integers(-6, 7, size=400)
    keys = layout.pack_rows(coordinate_rows(xs), ks, "sample")
    fields = np.column_stack([ks, xs[:, ::-1]])
    lex = np.lexsort(fields.T[::-1])
    assert (fields[keys.argsort()] == fields[lex]).all()
    assert ((keys >> layout.k_shift) == ks + 6).all()
    assert all((a == b).all() for a, b in zip(layout.unpack(keys), (xs.T, ks)))


def test_envelope_columns_match_scalar_test():
    # The vectorised test compares against p^(2 ell) // q^(2 ell); the scalar
    # one cross-multiplies. Near the boundary they must agree exactly, and
    # with the same test on points given one per row.
    rng = np.random.default_rng(5)
    for rows, ell in ((CAT, 7), (D3_REAL, 5)):
        dim = len(rows)
        box = BoxSet(choose_lambda(ToralMatrix(rows), GroupAutomorphism.identity(dim)), ell, 3)
        r = int(float(box.norm_bound()))
        xs = rng.integers(-r - 2, r + 3, size=(4000, dim))
        ks = rng.integers(-5, 6, size=4000)
        mask = box.contains_columns(coordinate_rows(xs), ks)
        scalar = [box.contains(GroupElement(tuple(map(int, x)), int(k))) for x, k in zip(xs, ks)]
        assert mask.tolist() == scalar
        reference = (np.abs(ks) <= box.h) & ((xs * xs).sum(axis=1) <= box._norm_sq_max)
        assert (mask == reference).all()
        assert 0 < mask.sum() < len(mask)


# Coordinate rows against the (n, dim) layout: each kernel below takes
# coordinate rows, and the references take one point per row.


def reference_pack(layout, xs, ks):
    """Keys and fit mask of points given one per row (n, dim)."""
    lim, rad = layout.x_limit, layout.radius
    fits = ((xs >= -lim) & (xs <= lim)).all(axis=1) & (ks >= -rad) & (ks <= rad)
    keys = (ks[fits] + rad) << layout.k_shift
    for i, shift in enumerate(layout.shifts):
        keys += (xs[fits, i] + layout.x_offset) << shift
    return keys, fits


def straddling_points(rng, layout, count):
    """Points (n, dim) and exponents, about a tenth of them outside the
    layout in a coordinate or the exponent."""
    lim, rad = layout.x_limit, layout.radius
    xs = rng.integers(-lim, lim + 1, size=(count, layout.dim))
    ks = rng.integers(-rad, rad + 1, size=count)
    out = np.flatnonzero(rng.random(count) < 0.1)
    sign = rng.choice([-1, 1], size=len(out))
    xs[out, rng.integers(0, layout.dim, size=len(out))] += sign * (lim + 1)
    out = np.flatnonzero(rng.random(count) < 0.05)
    ks[out] = rng.choice([-1, 1], size=len(out)) * (rad + 1 + rng.integers(0, 3, size=len(out)))
    return xs, ks


@pytest.mark.parametrize("rows, radius", [(CAT, 9), (D3_REAL, 6)])
def test_unpack_gives_coordinate_rows_that_pack_back(rows, radius):
    layout = packed.KeyLayout(len(rows), radius)
    rng = np.random.default_rng(len(rows))
    xs = rng.integers(-layout.x_limit, layout.x_limit + 1, size=(500, layout.dim))
    ks = rng.integers(-radius, radius + 1, size=500)
    keys, _ = reference_pack(layout, xs, ks)
    got, got_ks = layout.unpack(keys)
    assert got.shape == (layout.dim, 500) and got.dtype == np.int64
    assert got.flags.c_contiguous
    assert (got == xs.T).all() and (got_ks == ks).all()
    back, fits = layout.pack(got, got_ks)
    assert fits.all() and (back == keys).all()
    assert (layout.pack_rows(got, got_ks, "sample") == keys).all()
    assert layout.elements(keys) == [
        GroupElement(tuple(map(int, x)), int(k)) for x, k in zip(xs, ks)
    ]


@pytest.mark.parametrize("rows, radius", [(CAT, 9), (D3_REAL, 6)])
def test_fit_mask_and_reach_match_the_point_rows_references(rows, radius, monkeypatch):
    monkeypatch.setattr(packed, "BLOCK_KEYS", 64)
    layout = packed.KeyLayout(len(rows), radius)
    xs, ks = straddling_points(np.random.default_rng(3 + len(rows)), layout, 1000)
    keys, fits = layout.pack(coordinate_rows(xs), ks)
    ref_keys, ref_fits = reference_pack(layout, xs, ks)
    assert 0 < fits.sum() < len(fits)
    assert (fits == ref_fits).all() and (keys == ref_keys).all()
    scalar = [layout.key(GroupElement(tuple(map(int, x)), int(k))) for x, k in zip(xs, ks)]
    assert keys.tolist() == [key for key in scalar if key is not None]
    assert layout.reach(keys) == np.abs(xs[ref_fits]).max(axis=0).tolist()
    i = int(np.flatnonzero(~fits)[0])
    with pytest.raises(ValidationError, match=re.escape(repr(
            GroupElement(tuple(map(int, xs[i])), int(ks[i]))))):
        layout.pack_rows(coordinate_rows(xs), ks, "sample")


@pytest.mark.parametrize("rows, b, v, e", [
    (CAT, CAT, (1, -2), 1),
    (CAT, ((0, 1), (-1, 0)), (1, -1), -1),
    (D3_REAL, D3_REAL, (1, 0, -1), 1),
    (((1, 1), (1, 0)), ((1, 1), (1, 0)), (1, 2), 1),
])
def test_mapped_keys_match_the_scalar_automorphism(rows, b, v, e):
    ctx = GroupContext(ToralMatrix(rows))
    phi = GroupAutomorphism.from_parts(b, v, e)
    layout = packed.KeyLayout(ctx.dim, 5)
    rng = np.random.default_rng(ctx.dim)
    xs = rng.integers(-1000, 1001, size=(300, ctx.dim))
    # The second keys' exponents are all negative, so every shift c_k comes
    # through the inverse in ctx.power.
    for ks in (rng.integers(-5, 6, size=300), rng.integers(-5, 0, size=300)):
        keys = layout.pack_rows(coordinate_rows(xs), ks, "sample")
        mapped = _map_keys(ctx, layout, keys, phi, "sample")
        points = [GroupElement(tuple(map(int, x)), int(k)) for x, k in zip(xs, ks)]
        assert mapped.tolist() == [layout.key(apply_automorphism(ctx, phi, g)) for g in points]


@pytest.mark.parametrize("rows", [CAT, D3_REAL])
def test_control_map_is_the_matrix_on_the_lattice_layout(rows):
    # The lattice control maps its radius-0 keys by the automorphism (A, 0, +1).
    ctx = GroupContext(ToralMatrix(rows))
    layout = packed.KeyLayout(ctx.dim, 0)
    xs = np.random.default_rng(ctx.dim).integers(-1000, 1001, size=(300, ctx.dim))
    keys = layout.pack_rows(coordinate_rows(xs), np.zeros(300, dtype=np.int64), "sample")
    phi = GroupAutomorphism(rows, (0,) * ctx.dim, 1)
    mapped = _map_keys(ctx, layout, keys, phi, "sample")
    assert mapped.tolist() == [
        layout.key(GroupElement(matrices.matvec(rows, tuple(map(int, x))), 0)) for x in xs
    ]


@pytest.mark.parametrize("rows", [CAT, D3_REAL])
def test_l1_diameter_matches_the_tuple_reference(rows, monkeypatch):
    monkeypatch.setattr(packed, "BLOCK_KEYS", 64)
    dim = len(rows)
    layout = packed.KeyLayout(dim, 0)
    signs = np.array([
        [1] + [1 if (mask >> i) & 1 else -1 for i in range(dim - 1)]
        for mask in range(1 << (dim - 1))
    ], dtype=np.int64)
    rng = np.random.default_rng(dim)
    for count in (1, 2, 63, 500):
        xs = rng.integers(-10**5, 10**5 + 1, size=(count, dim))
        keys = layout.pack_set(coordinate_rows(xs), np.zeros(count, dtype=np.int64), "sample")
        points = {tuple(map(int, x)) for x in xs}
        assert _l1_diameter(layout, keys, signs) == reference_l1_diameter(points)
