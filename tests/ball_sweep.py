"""Check ``oracle.word_ball`` against a dictionary search on seeded random matrices.

    PYTHONPATH=src python tests/ball_sweep.py SEED COUNT

Draws COUNT cases. A case picks a dimension d = 2 or 3, a hyperbolic matrix
of GL(d, Z) (``spread_sweep.random_matrix``), a block size
(``packed.BLOCK_KEYS``, from ``spread_sweep.BLOCKS``, so a sphere's ranges
of output keys split exponent and coordinate rows or hold the whole sphere)
and a radius from 1 to 14, lowered to the largest whose ball holds at most
BALL_ELEMENTS elements (the ball that overruns that budget gives its
completed radius). The ball's (element, length) pairs in breadth-first order
are compared item for item with ``test_oracle.reference_ball``. Exits 1 at
the first case that differs, printing the seed, the case and the first
position where the two differ.
"""

from __future__ import annotations

import sys

import numpy as np

from spread_sweep import BLOCKS, random_matrix
from test_oracle import reference_ball
from unstretch import BudgetError, GeneratingSet, GroupContext, packed, word_ball

BALL_ELEMENTS = 20_000


def main(argv: list[str]) -> int:
    seed, count = map(int, argv)
    rng = np.random.default_rng(seed)
    for i in range(count):
        matrix = random_matrix(rng, int(rng.integers(2, 4)))
        packed.BLOCK_KEYS = int(rng.choice(BLOCKS))
        ctx = GroupContext(matrix)
        gens = GeneratingSet.standard(ctx.dim)
        try:
            ball = word_ball(ctx, gens, int(rng.integers(1, 15)), BALL_ELEMENTS)
        except BudgetError as exc:
            ball = exc.partial
        got = list(ball.items())
        want = list(reference_ball(ctx, gens, ball.radius).items())
        if got != want:
            at = next((j for j, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                      min(len(got), len(want)))
            print(f"seed {seed}: case {i} (matrix {matrix.entries}, radius {ball.radius}, "
                  f"BLOCK_KEYS {packed.BLOCK_KEYS}) gives {len(got)} elements, the "
                  f"reference {len(want)}; they first differ at position {at}")
            return 1
    print(f"seed {seed}: {count} balls equal the dictionary searches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
