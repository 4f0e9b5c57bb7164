"""Exact arithmetic on small integer matrices.

Matrices are nested tuples of Python ints (row major), so every operation is
arbitrary precision. Determinants use the fraction-free Bareiss scheme, and
inverses are adjugates of Bareiss cofactors; nothing here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ValidationError

IntMatrix = tuple  # tuple of row tuples, all entries int
IntVector = tuple  # tuple of ints


def freeze_matrix(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Coerce to a rectangular tuple-of-tuples of ints, rejecting junk."""
    out = []
    width = None
    for row in _items(rows):
        frozen = freeze_vector(row)
        if width is None:
            width = len(frozen)
        elif len(frozen) != width:
            raise ValidationError("matrix rows have unequal lengths")
        out.append(frozen)
    if not out or width == 0:
        raise ValidationError("matrix must be nonempty")
    return tuple(out)


def freeze_vector(values: Sequence[int]) -> IntVector:
    return tuple(_as_int(v) for v in _items(values))


def _items(values) -> list:
    """The items of a list; a number or null, which has none, is rejected."""
    try:
        return list(values)
    except TypeError:
        raise ValidationError(f"{values!r} is not a list") from None


def _as_int(v) -> int:
    """An int or numpy integer as an int. Anything else, a bool or a float
    included, is rejected rather than truncated."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValidationError(f"entry {v!r} is not an integer")
    return int(v)


def require_square(m: IntMatrix) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValidationError("matrix is not square")
    return n


def identity(n: int) -> IntMatrix:
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n, k = len(a), len(a[0])
    if len(b) != k:
        raise ValidationError("matrix dimensions do not match for product")
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(ar[i] * bc[i] for i in range(k)) for bc in cols) for ar in a
    )


def matvec(a: IntMatrix, x: IntVector) -> IntVector:
    if len(a[0]) != len(x):
        raise ValidationError("matrix/vector dimensions do not match")
    return tuple(sum(row[i] * x[i] for i in range(len(x))) for row in a)


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def det(m: IntMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination."""
    n = require_square(m)
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for r in range(i + 1, n):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[n - 1][n - 1]


def norm_below(m: IntMatrix, lam: Fraction) -> bool:
    """Whether the operator 2-norm of m is strictly below lam = p/q > 0.

    ||m|| < p/q exactly when p^2 I - q^2 m^T m is positive definite, and by
    Sylvester's criterion that holds exactly when each of its leading
    principal minors is positive; the minors are integer determinants.
    """
    p, q = lam.numerator, lam.denominator
    gram = matmul(tuple(zip(*m)), m)
    n = len(gram)
    form = [[p * p * (r == c) - q * q * gram[r][c] for c in range(n)] for r in range(n)]
    return all(det(tuple(row[:k] for row in form[:k])) > 0 for k in range(1, n + 1))


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of an integer matrix with determinant +-1: det(m) times
    its adjugate, whose cofactors are Bareiss determinants of the minors."""
    n = require_square(m)
    d = det(m)
    if d == 0:
        raise ValidationError("matrix is singular, cannot invert")
    if d not in (1, -1):
        raise ValidationError("matrix inverse is not integral (|det| != 1)")
    if n == 1:
        return ((d,),)
    return tuple(
        tuple(
            d * (-1) ** (r + c)
            * det(tuple(row[:r] + row[r + 1:] for i, row in enumerate(m) if i != c))
            for c in range(n)
        )
        for r in range(n)
    )
