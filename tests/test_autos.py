from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from unstretch import (
    BudgetError,
    GroupAutomorphism,
    GroupContext,
    GroupElement,
    ValidationError,
    apply_automorphism,
    enumerate_commuting_matrices,
    lattice_element,
    validate_automorphism,
)
from unstretch import autos, matrices
from unstretch.autos import require_valid

from conftest import CAT

# A rotation that conjugates the cat map to its inverse: A^-1 B = B A.
ROT = ((0, 1), (-1, 0))


def phi_translation():
    return GroupAutomorphism.from_parts(CAT, [1, 0], 1)


def phi_flip():
    return GroupAutomorphism.from_parts(ROT, [0, 0], -1)


# References for the inverse and the characteristic-subgroup check: the
# experiments need neither, so they live with the tests that use them.


def inverse_automorphism(ctx: GroupContext, phi: GroupAutomorphism) -> GroupAutomorphism:
    """The inverse triple, solved from phi(v' * z^e) = z and validated.

    The lattice part inverts exactly; the translation part is v' = -B^-1 v
    when e = +1 and v' = B^-1 A v when e = -1 (same e in either case).
    """
    b_inv = matrices.inverse_unimodular(phi.B)
    if phi.e == 1:
        v_prime = tuple(-c for c in matrices.matvec(b_inv, phi.v))
    else:
        av = matrices.matvec(ctx.matrix.entries, phi.v)
        v_prime = matrices.matvec(b_inv, av)
    inv = GroupAutomorphism(b_inv, v_prime, phi.e)
    require_valid(ctx.matrix, inv)
    if apply_automorphism(ctx, phi, apply_automorphism(ctx, inv, ctx.z)) != ctx.z:
        raise ValidationError("automorphism inversion failed self-check on z")
    return inv


@dataclass
class CharacteristicReport:
    """Evidence that the lattice subgroup is preserved by an automorphism."""

    checked: int
    violations: list
    det_a_minus_i: int

    @property
    def ok(self) -> bool:
        return not self.violations


def check_characteristic_subgroup(
    ctx: GroupContext,
    phi: GroupAutomorphism,
    samples: Sequence[GroupElement],
) -> CharacteristicReport:
    """Verify phi maps k = 0 elements to k = 0 elements, bijectively via B."""
    b_inv = matrices.inverse_unimodular(phi.B)
    violations = []
    checked = 0
    for g in samples:
        flat = GroupElement(g.x, 0)
        image = apply_automorphism(ctx, phi, flat)
        checked += 1
        if image.k != 0:
            violations.append((flat, image, "left the lattice subgroup"))
            continue
        if matrices.matvec(b_inv, image.x) != flat.x:
            violations.append((flat, image, "B^-1 does not undo the image"))
    det_ami = matrices.det(
        matrices.mat_sub(ctx.matrix.entries, matrices.identity(ctx.dim))
    )
    return CharacteristicReport(checked, violations, det_ami)


def test_validate_identity_and_powers(cat_matrix):
    assert validate_automorphism(cat_matrix, GroupAutomorphism.identity(2)).valid
    assert validate_automorphism(
        cat_matrix, GroupAutomorphism.from_parts(CAT, [0, 0], 1)
    ).valid


def test_validate_rejects_noncommuting(cat_matrix):
    cand = GroupAutomorphism.from_parts([[1, 1], [0, 1]], [0, 0], 1)
    rep = validate_automorphism(cat_matrix, cand)
    assert not rep.valid and "twist relation" in rep.reason


def test_validate_rejects_bad_determinant(cat_matrix):
    cand = GroupAutomorphism.from_parts([[2, 0], [0, 2]], [0, 0], 1)
    assert not validate_automorphism(cat_matrix, cand).valid


def test_validate_flip_case(cat_matrix):
    assert validate_automorphism(cat_matrix, phi_flip()).valid
    # but the same rotation fails with e = +1
    wrong = GroupAutomorphism.from_parts(ROT, [0, 0], 1)
    assert not validate_automorphism(cat_matrix, wrong).valid


def test_dimension_mismatch(cat_matrix):
    with pytest.raises(ValidationError):
        validate_automorphism(cat_matrix, GroupAutomorphism.identity(3))


def test_apply_identity(ctx):
    phi = GroupAutomorphism.identity(2)
    g = GroupElement((4, -7), 3)
    assert apply_automorphism(ctx, phi, g) == g


def test_apply_closed_form_example(ctx):
    # v + A v = (1,0) + (2,1) = (3,1) on z^2
    out = apply_automorphism(ctx, phi_translation(), GroupElement((0, 0), 2))
    assert out == GroupElement((3, 1), 2)


def test_closed_form_matches_composition(ctx):
    # (B x + sum_{i<k} A^i v) z^k for e = +1 and 0 <= k <= 20, exactly
    phi = phi_translation()
    a = ctx.matrix.entries
    rng = np.random.default_rng(21)
    for k in range(21):
        x = tuple(int(v) for v in rng.integers(-20, 21, size=2))
        g = GroupElement(x, k)
        image = apply_automorphism(ctx, phi, g)
        acc = (0, 0)
        w = phi.v
        for _ in range(k):
            acc = tuple(p + q for p, q in zip(acc, w))
            w = tuple(sum(a[r][i] * w[i] for i in range(2)) for r in range(2))
        bx = tuple(sum(phi.B[r][i] * x[i] for i in range(2)) for r in range(2))
        assert image == GroupElement(tuple(p + q for p, q in zip(bx, acc)), k)


def test_negative_powers_consistent_with_inverse(ctx):
    phi = phi_translation()
    img_z = apply_automorphism(ctx, phi, ctx.z)
    img_zinv = apply_automorphism(ctx, phi, ctx.inverse(ctx.z))
    assert img_zinv == ctx.inverse(img_z)


def test_homomorphism_property(ctx):
    rng = np.random.default_rng(22)
    for phi in (phi_translation(), phi_flip()):
        for _ in range(300):
            g = GroupElement(tuple(int(v) for v in rng.integers(-30, 31, 2)),
                             int(rng.integers(-6, 7)))
            h = GroupElement(tuple(int(v) for v in rng.integers(-30, 31, 2)),
                             int(rng.integers(-6, 7)))
            lhs = apply_automorphism(ctx, phi, ctx.multiply(g, h))
            rhs = ctx.multiply(
                apply_automorphism(ctx, phi, g), apply_automorphism(ctx, phi, h)
            )
            assert lhs == rhs


def test_conjugation_relation_preserved(ctx):
    rng = np.random.default_rng(23)
    phi = phi_translation()
    a = ctx.matrix.entries
    for _ in range(100):
        xv = tuple(int(v) for v in rng.integers(-30, 31, 2))
        conj = ctx.multiply(ctx.multiply(ctx.z, lattice_element(xv)), ctx.inverse(ctx.z))
        ax = tuple(sum(a[r][i] * xv[i] for i in range(2)) for r in range(2))
        assert apply_automorphism(ctx, phi, conj) == apply_automorphism(
            ctx, phi, lattice_element(ax)
        )


def test_inverse_automorphism_round_trip(ctx):
    rng = np.random.default_rng(24)
    for phi in (phi_translation(), phi_flip()):
        inv = inverse_automorphism(ctx, phi)
        assert validate_automorphism(ctx.matrix, inv).valid
        for _ in range(200):
            g = GroupElement(tuple(int(v) for v in rng.integers(-40, 41, 2)),
                             int(rng.integers(-8, 9)))
            assert apply_automorphism(ctx, inv, apply_automorphism(ctx, phi, g)) == g
            assert apply_automorphism(ctx, phi, apply_automorphism(ctx, inv, g)) == g


def test_characteristic_subgroup_report(ctx):
    rng = np.random.default_rng(25)
    samples = [
        GroupElement(tuple(int(v) for v in rng.integers(-50, 51, 2)), 0)
        for _ in range(200)
    ]
    rep = check_characteristic_subgroup(ctx, phi_translation(), samples)
    assert not rep.violations and rep.checked == 200
    assert rep.det_a_minus_i == -1  # (2-1)(1-1) - 1


def test_require_valid_raises(cat_matrix):
    with pytest.raises(ValidationError):
        require_valid(
            cat_matrix, GroupAutomorphism.from_parts([[1, 1], [0, 1]], [0, 0], 1)
        )


def _brute_force_commutants(a_rows, a_inv_rows, e, bound):
    """Unpruned oracle: scan every integer matrix with entries in range."""
    out = []
    rng_vals = range(-bound, bound + 1)
    apow = a_rows if e == 1 else a_inv_rows
    for b00 in rng_vals:
        for b01 in rng_vals:
            for b10 in rng_vals:
                for b11 in rng_vals:
                    B = ((b00, b01), (b10, b11))
                    det = b00 * b11 - b01 * b10
                    if det not in (1, -1):
                        continue
                    lhs = tuple(
                        tuple(sum(apow[r][i] * B[i][c] for i in range(2))
                              for c in range(2))
                        for r in range(2)
                    )
                    rhs = tuple(
                        tuple(sum(B[r][i] * a_rows[i][c] for i in range(2))
                              for c in range(2))
                        for r in range(2)
                    )
                    if lhs == rhs:
                        out.append(B)
    return sorted(out)


def test_enumerate_commuting_matches_brute_force(cat_matrix, ctx):
    a_inv = cat_matrix.inverse_entries
    for e in (1, -1):
        fast = enumerate_commuting_matrices(cat_matrix, e, 3)
        slow = _brute_force_commutants(cat_matrix.entries, a_inv, e, 3)
        assert fast == slow


def test_enumerate_commuting_contains_powers(cat_matrix, ctx):
    found = set(enumerate_commuting_matrices(cat_matrix, 1, 5))
    ident = ((1, 0), (0, 1))
    assert ident in found
    assert tuple(tuple(-v for v in r) for r in ident) in found
    for n in (-2, -1, 1, 2):
        p = ctx.matrix_power(n)
        if max(abs(v) for row in p for v in row) <= 5:
            assert p in found
            assert tuple(tuple(-v for v in row) for row in p) in found


def test_enumerate_commuting_flip_side(cat_matrix, ctx):
    found = enumerate_commuting_matrices(cat_matrix, -1, 5)
    assert ROT in found
    a = cat_matrix.entries
    a_inv = cat_matrix.inverse_entries
    from unstretch import matrices as M

    for B in found:
        # every solution conjugates the matrix to its inverse: B A B^-1 = A^-1
        binv = M.inverse_unimodular(B)
        assert M.matmul(M.matmul(B, a), binv) == a_inv


def test_enumerate_commuting_budget(cat_matrix, monkeypatch):
    monkeypatch.setattr(autos, "CENTRALIZER_BUDGET", 10)
    with pytest.raises(BudgetError):
        enumerate_commuting_matrices(cat_matrix, 1, 8)


def test_enumerate_commuting_d3(ctx3):
    found = enumerate_commuting_matrices(ctx3.matrix, 1, 4)
    ident = tuple(tuple(int(r == c) for c in range(3)) for r in range(3))
    assert ident in found
    assert ctx3.matrix.entries in found
    from unstretch import matrices as M

    for B in found:
        assert M.matmul(ctx3.matrix.entries, B) == M.matmul(B, ctx3.matrix.entries)
