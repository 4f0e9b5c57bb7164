"""Exact arithmetic in the lattice-by-cyclic group defined by an integer matrix.

Elements carry the unique normal form (x, k): x is a vector in the lattice
subgroup H = Z^d and k is the exponent of the distinguished generator z. The
defining relation z * x = (A x) * z makes multiplication twist the right
factor by a power of A:

    (x, k) * (y, m) = (x + A^k y, k + m)

Everything is computed with Python ints, so iterated powers of A never
overflow. All operations are pure functions of immutable values; the power
cache memoizes idempotently and is safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import matrices
from .errors import ValidationError

# |modulus - 1| below this counts as "on the unit circle" for the numeric
# eigenvalue test; exact integer determinant tests back it up.
TOL_EIG = 1e-9
# GroupContext.entry_bits bounds the spectral radius of A (of A^-1) from below
# by the trace of A^m (of A^-m) at this m.
TRACE_POWER = 8


class GroupElement(NamedTuple):
    """Normal form x * z^k. Equality and hashing are on the raw fields."""

    x: tuple
    k: int

    def __repr__(self):
        return f"({','.join(map(str, self.x))}|z^{self.k})"


def identity_element(dim: int) -> GroupElement:
    return GroupElement((0,) * dim, 0)


def lattice_element(x: Sequence[int]) -> GroupElement:
    return GroupElement(matrices.freeze_vector(x), 0)


def z_element(dim: int) -> GroupElement:
    return GroupElement((0,) * dim, 1)


class HyperbolicityReport(NamedTuple):
    hyperbolic: bool
    reason: str | None


class ToralMatrix:
    """Integer matrix in GL(d, Z) with cached spectral data.

    Construction enforces squareness and |det| = 1. Hyperbolicity is a
    separate certified check (`check_hyperbolic`) so that non-hyperbolic
    candidates can still be constructed and inspected.
    """

    def __init__(self, rows: Sequence[Sequence[int]]):
        entries = matrices.freeze_matrix(rows)
        dim = matrices.require_square(entries)
        d = matrices.det(entries)
        if d not in (1, -1):
            raise ValidationError(f"determinant is {d}, matrix is not in GL(d, Z)")
        self.entries = entries
        self.dim = dim

    def __repr__(self):
        return f"ToralMatrix({[list(r) for r in self.entries]})"

    def __eq__(self, other):
        return isinstance(other, ToralMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)

    @cached_property
    def inverse_entries(self) -> matrices.IntMatrix:
        return matrices.inverse_unimodular(self.entries)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.as_array())

    @cached_property
    def hyperbolicity(self) -> HyperbolicityReport:
        return check_hyperbolic(self)

    @property
    def is_hyperbolic(self) -> bool:
        return self.hyperbolicity.hyperbolic


def check_hyperbolic(matrix: ToralMatrix) -> HyperbolicityReport:
    """Certify that no eigenvalue sits on the unit circle.

    The verdict combines the numeric eigenvalue moduli (tolerance TOL_EIG)
    with two exact integer safety nets: det(A - I) != 0 and det(A + I) != 0
    rule out eigenvalues +-1 exactly.
    """
    entries = matrix.entries
    for m in np.abs(matrix.eigenvalues):
        if abs(m - 1.0) <= TOL_EIG:
            return HyperbolicityReport(
                False, f"eigenvalue modulus {float(m)!r} is within {TOL_EIG} of 1"
            )
    ident = matrices.identity(matrix.dim)
    if matrices.det(matrices.mat_sub(entries, ident)) == 0:
        return HyperbolicityReport(False, "det(A - I) = 0, eigenvalue 1 present")
    if matrices.det(matrices.mat_add(entries, ident)) == 0:
        return HyperbolicityReport(False, "det(A + I) = 0, eigenvalue -1 present")
    return HyperbolicityReport(True, None)


class GroupContext:
    """Multiplication context: the defining matrix plus exact caches.

    The caches only ever store values that are functions of their key, so
    concurrent duplicate inserts are harmless.
    """

    def __init__(self, matrix: ToralMatrix):
        rep = matrix.hyperbolicity
        if not rep.hyperbolic:
            raise ValidationError(f"defining matrix is not hyperbolic: {rep.reason}")
        self.matrix = matrix
        self.dim = matrix.dim
        # Exact A^j by exponent j: the group law's twists, and the rows of
        # every step table.
        self._powers: dict = {0: matrices.identity(matrix.dim)}
        # Packed right-multiplication steps by (elements, key-layout radius),
        # filled by packed.translate_steps, each row from one matrix power.
        self.step_tables: dict = {}
        # Word balls B_N as element tuples by (generating set, N), filled by
        # words.check_box_inclusion_un.
        self.balls: dict = {}
        # Lattice parts of (v z^e)^k by (v z^e, k), filled by
        # dynamics._map_keys: the shifts of an automorphism's images.
        self.shifts: dict = {}
        self.identity = identity_element(matrix.dim)
        self.z = z_element(matrix.dim)

    def matrix_power(self, j: int) -> matrices.IntMatrix:
        """Exact A^j for any integer j, by repeated squaring of A or A^-1.

        Only the powers asked for are cached, not the squares on the way.
        """
        got = self._powers.get(j)
        if got is None:
            base = self.matrix.entries if j > 0 else self.matrix.inverse_entries
            got = matrices.identity(self.dim)
            n = abs(j)
            while n:
                if n & 1:
                    got = matrices.matmul(got, base)
                n >>= 1
                if n:
                    base = matrices.matmul(base, base)
            self._powers[j] = got
        return got

    def entry_bits(self, k: int) -> int:
        """A lower bound B >= 0 on log2 of the largest |entry| of A^k, read
        without forming A^k.

        With m = TRACE_POWER and s the sign of k, every eigenvalue of A^(s m)
        has modulus at most rho^m, where rho is the spectral radius of A^s, so
        2^a <= |tr A^(s m)| / d gives rho >= 2^(a / m). The spectral radius
        rho^|k| of A^k is at most its largest row sum, d times its largest
        |entry|, so that entry is at least 2^(a (|k| // m)) / d, and
        B = a (|k| // m) - c with 2^c >= d.
        """
        m = TRACE_POWER if k > 0 else -TRACE_POWER
        trace = abs(sum(row[i] for i, row in enumerate(self.matrix_power(m))))
        a = max((trace // self.dim).bit_length() - 1, 0)
        return max(a * (abs(k) // TRACE_POWER) - (self.dim - 1).bit_length(), 0)

    def _check_dim(self, g: GroupElement):
        if len(g.x) != self.dim:
            raise ValidationError(
                f"element has dimension {len(g.x)}, context expects {self.dim}"
            )

    def multiply(self, g: GroupElement, h: GroupElement) -> GroupElement:
        self._check_dim(g)
        self._check_dim(h)
        shifted = matrices.matvec(self.matrix_power(g.k), h.x)
        return GroupElement(
            tuple(a + b for a, b in zip(g.x, shifted)), g.k + h.k
        )

    def inverse(self, g: GroupElement) -> GroupElement:
        self._check_dim(g)
        back = matrices.matvec(self.matrix_power(-g.k), g.x)
        return GroupElement(tuple(-v for v in back), -g.k)

    def power(self, g: GroupElement, n: int) -> GroupElement:
        """g^n by repeated squaring of g or g^-1; n may be negative.

        Powers of one element commute, so the product's order does not
        matter, and about 2 log2 |n| multiplications ask for as many matrix
        powers. A power of z^k alone is z^(k n), with no power of A.
        """
        if not any(g.x):
            self._check_dim(g)
            return GroupElement(g.x, g.k * n)
        base = g if n >= 0 else self.inverse(g)
        out = self.identity
        n = abs(n)
        while n:
            if n & 1:
                out = self.multiply(out, base)
            n >>= 1
            if n:
                base = self.multiply(base, base)
        return out


@dataclass(frozen=True)
class GeneratingSet:
    """The standard generators: all lattice vectors of norm one, z, z^-1."""

    h_generators: tuple
    z_generators: tuple

    @classmethod
    def standard(cls, dim: int) -> "GeneratingSet":
        hs = []
        for i in range(dim):
            e = tuple(int(j == i) for j in range(dim))
            ne = tuple(-v for v in e)
            hs.append(GroupElement(e, 0))
            hs.append(GroupElement(ne, 0))
        zs = (GroupElement((0,) * dim, 1), GroupElement((0,) * dim, -1))
        return cls(tuple(hs), zs)

    @property
    def all(self) -> tuple:
        return self.h_generators + self.z_generators

    def __post_init__(self):
        for g in self.h_generators:
            if g.k != 0 or sum(v * v for v in g.x) != 1:
                raise ValidationError(f"{g} is not a norm-one lattice generator")
        inv_closed = {tuple(-v for v in g.x) for g in self.h_generators}
        if inv_closed != {g.x for g in self.h_generators}:
            raise ValidationError("h generators are not closed under inversion")
