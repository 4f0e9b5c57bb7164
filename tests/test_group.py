import numpy as np
import pytest

from unstretch import (
    GroupContext,
    GroupElement,
    ToralMatrix,
    ValidationError,
    check_hyperbolic,
    identity_element,
    lattice_element,
)
from unstretch import matrices

from conftest import CAT, D3_REAL


def rand_element(rng, ctx, span=100, kspan=10):
    x = tuple(int(v) for v in rng.integers(-span, span + 1, size=ctx.dim))
    return GroupElement(x, int(rng.integers(-kspan, kspan + 1)))


def test_multiply_identity_case(ctx):
    g = GroupElement((3, -2), 5)
    assert ctx.multiply(ctx.identity, g) == g
    assert ctx.multiply(g, ctx.identity) == g


def test_multiply_twists_by_matrix(ctx):
    # z * e1 = (A e1) * z
    assert ctx.multiply(ctx.z, lattice_element([1, 0])) == GroupElement((2, 1), 1)


def test_commutator_with_z(ctx):
    # x z x^-1 z^-1 = (x - A x) for x in the lattice
    x = lattice_element([1, 0])
    chain = ctx.multiply(
        ctx.multiply(ctx.multiply(x, ctx.z), ctx.inverse(x)), ctx.inverse(ctx.z)
    )
    assert chain == GroupElement((-1, -1), 0)


def test_inverse_examples(ctx):
    assert ctx.inverse(ctx.identity) == ctx.identity
    assert ctx.inverse(lattice_element([1, 0])) == lattice_element([-1, 0])
    g = ctx.multiply(ctx.z, lattice_element([1, 0]))  # ((2,1), 1)
    assert ctx.multiply(g, ctx.inverse(g)) == ctx.identity
    assert ctx.multiply(ctx.inverse(g), g) == ctx.identity


def test_dimension_mismatch_rejected(ctx):
    with pytest.raises(ValidationError):
        ctx.multiply(ctx.identity, identity_element(3))


def test_normal_form_uniqueness():
    a = GroupElement((1, 2), 3)
    b = GroupElement((1, 2), 3)
    assert a == b and hash(a) == hash(b)
    assert a != GroupElement((1, 2), 4)
    assert a != GroupElement((2, 1), 3)
    assert len({a, b}) == 1


def test_check_hyperbolic_verdicts():
    assert check_hyperbolic(ToralMatrix(CAT)).hyperbolic
    rot = check_hyperbolic(ToralMatrix([[0, 1], [-1, 0]]))
    assert not rot.hyperbolic
    parabolic = check_hyperbolic(ToralMatrix([[1, 1], [0, 1]]))
    assert not parabolic.hyperbolic
    assert parabolic.reason == "eigenvalue modulus 1.0 is within 1e-09 of 1"
    assert check_hyperbolic(ToralMatrix(D3_REAL)).hyperbolic
    with pytest.raises(ValidationError):
        check_hyperbolic(ToralMatrix([[1, 0, 0], [0, 1, 0]]))


def test_non_unimodular_matrix_rejected():
    with pytest.raises(ValidationError):
        ToralMatrix([[2, 0], [0, 1]])


def test_eigen_data(cat_matrix):
    mods = sorted(abs(ev) for ev in cat_matrix.eigenvalues)
    lam = (3 + np.sqrt(5)) / 2
    assert abs(mods[1] - lam) < 1e-12
    assert abs(mods[0] - 1 / lam) < 1e-12
    stable_flags = sorted(bool(abs(ev) < 1.0) for ev in cat_matrix.eigenvalues)
    assert stable_flags == [False, True]


def test_matrix_power_examples(ctx):
    assert ctx.matrix_power(0) == ((1, 0), (0, 1))
    assert ctx.matrix_power(2) == ((5, 3), (3, 2))
    assert ctx.matrix_power(-1) == ((1, -1), (-1, 2))


@pytest.mark.parametrize("entries", [CAT, D3_REAL])
def test_matrix_power_by_squaring_matches_incremental_products(entries):
    ctx = GroupContext(ToralMatrix(entries))
    asked = {0}
    for sign, base in ((1, ctx.matrix.entries), (-1, ctx.matrix.inverse_entries)):
        acc = matrices.identity(ctx.dim)
        for n in range(1, 8001):
            acc = matrices.matmul(acc, base)
            if n <= 40 or n == 8000:
                assert ctx.matrix_power(sign * n) == acc
                asked.add(sign * n)
    # The squares on the way to +-8000 are not cached.
    assert set(ctx._powers) == asked


def test_power_cache_inverse_pairs(ctx):
    for j in range(-6, 7):
        p, q = ctx.matrix_power(j), ctx.matrix_power(-j)
        prod = tuple(
            tuple(sum(p[r][i] * q[i][c] for i in range(2)) for c in range(2))
            for r in range(2)
        )
        assert prod == ((1, 0), (0, 1))


def test_group_context_requires_hyperbolic():
    with pytest.raises(ValidationError):
        GroupContext(ToralMatrix([[0, 1], [-1, 0]]))


def test_associativity_random(ctx, ctx3):
    rng = np.random.default_rng(1)
    for c in (ctx, ctx3):
        for _ in range(500):
            g, h, w = (rand_element(rng, c) for _ in range(3))
            assert c.multiply(c.multiply(g, h), w) == c.multiply(g, c.multiply(h, w))


def test_inverse_law_random(ctx, ctx3):
    rng = np.random.default_rng(2)
    for c in (ctx, ctx3):
        for _ in range(500):
            g = rand_element(rng, c)
            assert c.multiply(g, c.inverse(g)) == c.identity


def test_defining_relation_random(ctx):
    rng = np.random.default_rng(3)
    a = ctx.matrix.entries
    for _ in range(200):
        x = tuple(int(v) for v in rng.integers(-50, 51, size=2))
        lhs = ctx.multiply(ctx.z, lattice_element(x))
        ax = tuple(sum(a[r][i] * x[i] for i in range(2)) for r in range(2))
        assert lhs == GroupElement(ax, 1)


def test_lattice_subgroup_is_abelian_image(ctx):
    rng = np.random.default_rng(4)
    for _ in range(200):
        x = tuple(int(v) for v in rng.integers(-50, 51, size=2))
        y = tuple(int(v) for v in rng.integers(-50, 51, size=2))
        prod = ctx.multiply(lattice_element(x), lattice_element(y))
        assert prod.k == 0
        assert prod.x == tuple(a + b for a, b in zip(x, y))


def test_commutator_containment_random(ctx):
    # [x, z] stays in the lattice with component (I - A) x
    rng = np.random.default_rng(5)
    a = ctx.matrix.entries
    for _ in range(200):
        xv = tuple(int(v) for v in rng.integers(-50, 51, size=2))
        x = lattice_element(xv)
        comm = ctx.multiply(
            ctx.multiply(ctx.multiply(x, ctx.z), ctx.inverse(x)), ctx.inverse(ctx.z)
        )
        ax = tuple(sum(a[r][i] * xv[i] for i in range(2)) for r in range(2))
        assert comm.k == 0
        assert comm.x == tuple(xi - axi for xi, axi in zip(xv, ax))


def test_power_matches_repeated_multiplication(ctx):
    g = GroupElement((1, -1), 1)
    acc = ctx.identity
    for n in range(8):
        assert ctx.power(g, n) == acc
        acc = ctx.multiply(acc, g)
    assert ctx.power(g, -3) == ctx.inverse(ctx.power(g, 3))


def test_power_asks_for_logarithmically_many_matrix_powers(cat_matrix):
    # Each multiplication caches A^k for its left factor's exponent k, so
    # z^3000 by 3,000 multiplications would cache A^0 to A^2999.
    ctx = GroupContext(cat_matrix)
    assert ctx.power(ctx.z, 3000) == GroupElement((0, 0), 3000)
    assert len(ctx._powers) <= 2 * (3000).bit_length() + 1
    g = GroupElement((1, -1), 1)
    assert ctx.power(g, 3000) == ctx.multiply(ctx.power(g, 1000), ctx.power(g, 2000))
    assert ctx.power(g, -77) == ctx.inverse(ctx.power(g, 77))


@pytest.mark.parametrize("rows", [CAT, ((1, 1), (1, 0)), D3_REAL, ((1000001, 1000000), (1, 1))],
                         ids=["cat", "fib", "d3", "wide"])
def test_entry_bits_bound_the_largest_entry_of_every_power(rows):
    ctx = GroupContext(ToralMatrix(rows))
    for k in range(-80, 81):
        largest = max(abs(v) for row in ctx.matrix_power(k) for v in row)
        assert 1 << ctx.entry_bits(k) <= largest
    assert ctx.entry_bits(0) == 0
    assert min(ctx.entry_bits(-800), ctx.entry_bits(800)) >= 399


def test_power_of_z_alone_forms_no_power_of_the_matrix():
    ctx = GroupContext(ToralMatrix(CAT))
    for e, n in ((1, 10**7), (-1, 3), (2, -5), (1, 0)):
        assert ctx.power(GroupElement((0, 0), e), n) == GroupElement((0, 0), e * n)
    assert list(ctx._powers) == [0]
    product = ctx.identity
    for _ in range(5):
        product = ctx.multiply(product, GroupElement((0, 0), -2))
    assert ctx.power(GroupElement((0, 0), 2), -5) == product
