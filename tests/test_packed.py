"""The packed set kernel against independent set-of-tuples searches.

The references below are the plain hashed-set loops that the packed kernel
replaced: right neighborhoods by N rounds of group products over
GroupElement sets, the set iteration built on them with the scalar
automorphism, and the lattice control over tuple sets with the 2^(d-1)
signed-projection l1 diameter. They share no code with the kernel beyond
group arithmetic, so agreement element for element is a real cross-check.
"""

import numpy as np
import pytest

from conftest import CAT, D3_REAL
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


def test_blocked_spread_and_control_diameter_match_the_references(cat_matrix, monkeypatch):
    # Blocks of 7 keys put block edges inside every frontier and iterate, so
    # the blocks' layers must merge across shared neighbours.
    monkeypatch.setattr(packed, "BLOCK_KEYS", 7)
    for rows in (CAT, D3_REAL):
        ctx = GroupContext(ToralMatrix(rows))
        gens = GeneratingSet.standard(ctx.dim)
        s = random_set(np.random.default_rng(ctx.dim), ctx.dim, 40, 6, 2)
        assert neighborhood(ctx, gens, s, 3) == reference_neighborhood(ctx, gens, s, 3)
        a0 = [[0] * ctx.dim, [1] + [0] * (ctx.dim - 1)]
        curve = abelian_control(ToralMatrix(rows), 1, a0, 6)
        got = [(p.set_size, p.diameter) for p in curve.points]
        assert got == reference_control(rows, 1, a0, 6)


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
    # next_sphere slices a block's exponent rows out of sorted keys.
    layout = packed.KeyLayout(3, 6)
    rng = np.random.default_rng(5)
    xs = rng.integers(-layout.x_limit, layout.x_limit + 1, size=(400, 3))
    ks = rng.integers(-6, 7, size=400)
    keys = layout.pack_rows(xs, ks, "sample")
    fields = np.column_stack([ks, xs[:, ::-1]])
    lex = np.lexsort(fields.T[::-1])
    assert (fields[keys.argsort()] == fields[lex]).all()
    assert ((keys >> layout.k_shift) == ks + 6).all()
    assert all((a == b).all() for a, b in zip(layout.unpack(keys), (xs, ks)))


def test_envelope_columns_match_scalar_test(cat_matrix):
    # The vectorised test compares against p^(2 ell) // q^(2 ell); the scalar
    # one cross-multiplies. Near the boundary they must agree exactly.
    box = BoxSet(choose_lambda(cat_matrix, GroupAutomorphism.identity(2)), 7, 3)
    r = int(float(box.norm_bound()))
    rng = np.random.default_rng(5)
    xs = rng.integers(-r - 2, r + 3, size=(4000, 2))
    ks = rng.integers(-5, 6, size=4000)
    mask = box.contains_columns(xs, ks)
    scalar = [box.contains(GroupElement(tuple(map(int, x)), int(k))) for x, k in zip(xs, ks)]
    assert mask.tolist() == scalar
    assert 0 < mask.sum() < len(mask)
