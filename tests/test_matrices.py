from fractions import Fraction

import numpy as np
import pytest

from unstretch import ValidationError, matrices


def reference_inverse(m):
    """Rational Gauss-Jordan elimination, the inverse that the adjugate of
    Bareiss cofactors replaced; None for a singular or non-integral one."""
    n = len(m)
    aug = [
        [Fraction(m[r][c]) for c in range(n)] + [Fraction(int(r == c)) for c in range(n)]
        for r in range(n)
    ]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    if any(v.denominator != 1 for row in aug for v in row[n:]):
        return None
    return tuple(tuple(int(v) for v in row[n:]) for row in aug)


def random_unimodular(rng, d):
    """A product of random row operations, a row swap and sign flips."""
    m = [[int(r == c) for c in range(d)] for r in range(d)]
    for _ in range(3 * d):
        if d > 1:
            i, j = rng.choice(d, size=2, replace=False).tolist()
            f = int(rng.integers(-3, 4))
            m[i] = [a + f * b for a, b in zip(m[i], m[j])]
            m[i], m[j] = m[j], m[i]
        k = int(rng.integers(d))
        if rng.random() < 0.3:
            m[k] = [-a for a in m[k]]
    return tuple(map(tuple, m))


def test_inverse_unimodular_matches_gauss_jordan():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 4):
        for _ in range(250):
            m = random_unimodular(rng, d)
            inv = matrices.inverse_unimodular(m)
            assert inv == reference_inverse(m), m
            assert matrices.matmul(m, inv) == matrices.identity(d)


def test_inverse_unimodular_refuses_singular_and_non_integral():
    for m in (((0,),), ((1, 2), (2, 4)), ((1, 0, 0), (0, 1, 0), (1, 1, 0))):
        with pytest.raises(ValidationError, match="singular"):
            matrices.inverse_unimodular(m)
    for m in (((2,),), ((2, 0), (0, 1)), ((1, 1, 0), (0, 3, 0), (0, 0, 1))):
        assert reference_inverse(m) is None
        with pytest.raises(ValidationError, match="not integral"):
            matrices.inverse_unimodular(m)
