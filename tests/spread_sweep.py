"""Check ``packed.spread`` against set-of-tuples searches on seeded random sets.

    PYTHONPATH=src python tests/spread_sweep.py SEED COUNT

Draws COUNT cases. A case picks a dimension d = 2 or 3, a hyperbolic matrix
of GL(d, Z) (a product of elementary and sign matrices), N = 1, 2 or 3, a
block size (``packed.BLOCK_KEYS``, from 1 to 2^16, so ranges split exponent
and coordinate rows or hold the whole set) and 0 to 40 draws of elements
with coordinates up to 10^j. Half the cases grow the set on the group's key
layout and compare it with ``test_packed``'s ``reference_neighborhood``;
the other half grow lattice points on the plain lattice's layout, as the
lattice control does, and compare them with N rounds of +-e_i steps over a
tuple set. Exits 1 at the first case whose keys are not strictly increasing
or hold other elements than the reference, printing the seed, the case and
the size of each side.
"""

from __future__ import annotations

import sys

import numpy as np

from conftest import CAT, D3_REAL
from test_packed import coordinate_rows, random_set, reference_neighborhood
from unstretch import GeneratingSet, GroupContext, GroupElement, ToralMatrix, packed

BLOCKS = (1, 2, 3, 7, 64, 1 << 16)


def random_matrix(rng: np.random.Generator, dim: int) -> ToralMatrix:
    """A hyperbolic product of a sign matrix and two to five elementary
    matrices, drawn again until hyperbolic (``GroupContext`` needs it)."""
    while True:
        m = np.diag(rng.choice([-1, 1], size=dim))
        for _ in range(int(rng.integers(2, 6))):
            i, j = rng.choice(dim, size=2, replace=False)
            step = np.eye(dim, dtype=np.int64)
            step[i, j] = rng.choice([-1, 1])
            m = m @ step
        matrix = ToralMatrix(m.tolist())
        if matrix.is_hyperbolic:
            return matrix


def lattice_reference(points: set, n: int) -> set:
    """N rounds of +-e_i steps from a set of lattice points."""
    out = set(points)
    frontier = out
    for _ in range(n):
        frontier = {
            p[:i] + (p[i] + s,) + p[i + 1 :]
            for p in frontier for i in range(len(p)) for s in (1, -1)
        } - out
        out |= frontier
    return out


def main(argv: list[str]) -> int:
    seed, count = map(int, argv)
    rng = np.random.default_rng(seed)
    for i in range(count):
        dim, n = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        packed.BLOCK_KEYS = int(rng.choice(BLOCKS))
        size, coord = int(rng.integers(0, 41)), 10 ** int(rng.integers(0, 4))
        if i % 2:
            matrix = random_matrix(rng, dim)
            ctx = GroupContext(matrix)
            elements = random_set(rng, dim, size, coord, 3)
            gens = GeneratingSet.standard(dim)
            table, keys = packed.pack_elements(ctx, gens, list(elements), n, "sweep set")
            want = reference_neighborhood(ctx, gens, elements, n)
            case = f"matrix {matrix.entries}"
        else:
            points = {tuple(p) for p in rng.integers(-coord, coord + 1, size=(size, dim)).tolist()}
            ctx = GroupContext(ToralMatrix(CAT if dim == 2 else D3_REAL))
            table = packed.translate_steps(ctx, GeneratingSet.standard(dim).h_generators, 0)
            xs = coordinate_rows(np.array(sorted(points), dtype=np.int64).reshape(-1, dim))
            keys = table.layout.pack_set(xs, np.zeros(len(points), dtype=np.int64), "sweep set")
            want = {GroupElement(p, 0) for p in lattice_reference(points, n)}
            case = f"lattice Z^{dim}"
        got = packed.spread(keys, n, table, 10**9, "sweep set")
        ordered = bool((got[1:] > got[:-1]).all())
        if not ordered or set(table.layout.elements(got)) != want:
            print(f"seed {seed}: case {i} ({case}, N = {n}, {size} elements, "
                  f"BLOCK_KEYS {packed.BLOCK_KEYS}) gives {len(got)} keys "
                  f"({'' if ordered else 'not '}strictly increasing), "
                  f"the reference {len(want)} elements")
            return 1
    print(f"seed {seed}: {count} neighborhoods equal the set-based references")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
