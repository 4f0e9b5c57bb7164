"""Automorphisms of the lattice-by-cyclic group.

Every automorphism is described by a triple (B, v, e): it acts as x -> B x on
the lattice subgroup and sends z to v * z^e, subject to |det B| = 1 and the
exact twist compatibility A^e B = B A. Application goes through the images of
the generators and the group law, so one code path covers all sign cases; the
closed form with the geometric sum of A^i v is a derived property, checked in
the tests rather than assumed. ``apply_automorphism`` is the scalar reference;
the set iteration maps packed keys by the triple itself
(``dynamics._map_keys``), with the shift (v z^e)^k from the same group law.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import matrices
from .errors import BudgetError, ValidationError
from .group import GroupContext, GroupElement, ToralMatrix

# Most entry combinations a centralizer scan visits.
CENTRALIZER_BUDGET = 10_000_000


@dataclass(frozen=True)
class GroupAutomorphism:
    B: matrices.IntMatrix
    v: matrices.IntVector
    e: int

    @classmethod
    def from_parts(cls, b_rows, v, e) -> "GroupAutomorphism":
        B = matrices.freeze_matrix(b_rows)
        dim = matrices.require_square(B)
        vec = matrices.freeze_vector(v)
        if len(vec) != dim:
            raise ValidationError("translation part has wrong dimension")
        e = matrices._as_int(e)
        if e not in (1, -1):
            raise ValidationError("cyclic exponent e must be +1 or -1")
        return cls(B, vec, e)

    @classmethod
    def identity(cls, dim: int) -> "GroupAutomorphism":
        return cls(matrices.identity(dim), (0,) * dim, 1)

    @property
    def dim(self) -> int:
        return len(self.v)


class AutomorphismReport(NamedTuple):
    valid: bool
    reason: str | None


def validate_automorphism(A: ToralMatrix, cand: GroupAutomorphism) -> AutomorphismReport:
    """Check |det B| = 1 and the exact relation A^e B = B A."""
    if cand.dim != A.dim:
        raise ValidationError(
            f"automorphism dimension {cand.dim} does not match matrix dimension {A.dim}"
        )
    det_b = matrices.det(cand.B)
    if det_b not in (1, -1):
        return AutomorphismReport(False, f"det B = {det_b}, not +-1")
    a_pow = A.entries if cand.e == 1 else A.inverse_entries
    lhs = matrices.matmul(a_pow, cand.B)
    rhs = matrices.matmul(cand.B, A.entries)
    if lhs != rhs:
        return AutomorphismReport(False, "twist relation A^e B = B A fails")
    return AutomorphismReport(True, None)


def require_valid(A: ToralMatrix, cand: GroupAutomorphism) -> GroupAutomorphism:
    rep = validate_automorphism(A, cand)
    if not rep.valid:
        raise ValidationError(f"invalid automorphism: {rep.reason}")
    return cand


def apply_automorphism(
    ctx: GroupContext, phi: GroupAutomorphism, g: GroupElement
) -> GroupElement:
    """Image of x * z^k: (B x) * (v z^e)^k, computed with the group law."""
    head = GroupElement(matrices.matvec(phi.B, g.x), 0)
    tail = ctx.power(GroupElement(phi.v, phi.e), g.k)
    return ctx.multiply(head, tail)


def _commutation_solution_basis(A: ToralMatrix, e: int):
    """Exact rational solution space of A^e B = B A, as pivot/free structure.

    Returns (free_positions, express) where ``express`` maps each matrix
    position to its Fraction coefficients over the free positions. The
    constraint is linear in the entries of B, so this is just an RREF of a
    d^2 x d^2 system built from A.
    """
    d = A.dim
    a = A.entries
    a_pow = a if e == 1 else A.inverse_entries
    nvars = d * d

    def var(r, c):
        return r * d + c

    rows = []
    for i in range(d):
        for j in range(d):
            coeff = [Fraction(0)] * nvars
            for l in range(d):
                coeff[var(l, j)] += Fraction(a_pow[i][l])
                coeff[var(i, l)] -= Fraction(a[l][j])
            rows.append(coeff)

    # RREF with deterministic pivot order.
    pivots = []
    r = 0
    for c in range(nvars):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(nvars) if c not in pivots]
    express = {}
    for c in free:
        coeffs = {c: Fraction(1)}
        express[c] = coeffs
    for row_idx, c in enumerate(pivots):
        coeffs = {}
        for fc in free:
            if rows[row_idx][fc] != 0:
                coeffs[fc] = -rows[row_idx][fc]
        express[c] = coeffs
    return free, express


def enumerate_commuting_matrices(
    A: ToralMatrix,
    e: int,
    bound: int = 8,
) -> list:
    """All B in GL(d, Z) with entries in [-bound, bound] and A^e B = B A.

    The linear constraint prunes the scan down to the free coordinates of its
    solution space (d of them for an irreducible characteristic polynomial),
    so only (2*bound+1)^free combinations are visited instead of the full
    entry grid. Output is sorted entrywise, so it is deterministic.
    """
    if bound < 1:
        raise ValidationError("entry bound must be at least 1")
    if e not in (1, -1):
        raise ValidationError("cyclic exponent e must be +1 or -1")
    d = A.dim
    free, express = _commutation_solution_basis(A, e)
    combos = (2 * bound + 1) ** len(free)
    if combos > CENTRALIZER_BUDGET:
        raise BudgetError(
            f"centralizer scan needs {combos} combinations, budget is {CENTRALIZER_BUDGET}"
        )
    results = []
    nvars = d * d
    for values in itertools.product(range(-bound, bound + 1), repeat=len(free)):
        assign = dict(zip(free, values))
        entries = [Fraction(0)] * nvars
        ok = True
        for pos in range(nvars):
            total = Fraction(0)
            for fc, coef in express[pos].items():
                total += coef * assign[fc]
            if total.denominator != 1 or abs(total) > bound:
                ok = False
                break
            entries[pos] = total
        if not ok:
            continue
        B = tuple(
            tuple(int(entries[r * d + c]) for c in range(d)) for r in range(d)
        )
        if matrices.det(B) in (1, -1):
            results.append(B)
    results.sort()
    return results
