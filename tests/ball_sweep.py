"""Check ``oracle.word_ball`` against a dictionary search on seeded random matrices.

    PYTHONPATH=src python tests/ball_sweep.py SEED COUNT

Draws COUNT cases. A case picks a dimension d = 2 or 3, a hyperbolic matrix
of GL(d, Z) (``spread_sweep.random_matrix``), a block size
(``packed.BLOCK_KEYS``, from ``spread_sweep.BLOCKS``, so a sphere's ranges
of output keys split exponent and coordinate rows or hold the whole sphere)
and a radius from 1 to 14, lowered to the largest whose ball holds at most
BALL_ELEMENTS elements (the ball that overruns that budget gives its
completed radius). Each case builds the ball once. It must hold each sphere
of ``test_oracle.reference_ball`` as its keys in increasing order, and give
the reference's length for every element of the ball and -1 for every
element of the next sphere. Exits 1 at the first case that differs,
printing the seed, the case and what differs.
"""

from __future__ import annotations

import sys

import numpy as np

from spread_sweep import BLOCKS, random_matrix
from test_oracle import reference_ball
from unstretch import BudgetError, GeneratingSet, GroupContext, packed, word_ball

BALL_ELEMENTS = 20_000


def build(ctx, gens, radius):
    """The ball, or the partial ball of a BudgetError."""
    try:
        return word_ball(ctx, gens, radius, BALL_ELEMENTS)
    except BudgetError as exc:
        return exc.partial


def differs(ctx, gens, ball, want: dict):
    """What the ball gets wrong against the reference {element: length}, or
    None."""
    spheres = [[] for _ in range(ball.radius + 1)]
    for g, n in want.items():
        spheres[n].append(g)
    ends = np.cumsum([0, *ball.sphere_sizes])
    for r, sphere in enumerate(spheres):
        keys = ball.keys[ends[r] : ends[r + 1]]
        expected = packed.distinct(ball.layout.pack_rows(
            *packed.element_columns(sphere, ctx.dim), "reference sphere"))
        if not np.array_equal(keys, expected):
            return f"sphere {r} holds {len(keys)} keys, the reference {len(expected)}"
    rim = {ctx.multiply(g, s) for g in spheres[-1] for s in gens.all} - want.keys()
    queries = [*want, *rim]
    got = ball.column_lengths(*packed.element_columns(queries, ctx.dim)).tolist()
    expected = [*want.values(), *[-1] * len(rim)]
    if got != expected:
        at = next(j for j, pair in enumerate(zip(got, expected)) if pair[0] != pair[1])
        return f"element {queries[at]} has length {got[at]}, the reference {expected[at]}"
    return None


def main(argv: list[str]) -> int:
    seed, count = map(int, argv)
    rng = np.random.default_rng(seed)
    for i in range(count):
        matrix = random_matrix(rng, int(rng.integers(2, 4)))
        packed.BLOCK_KEYS = int(rng.choice(BLOCKS))
        ctx = GroupContext(matrix)
        gens = GeneratingSet.standard(ctx.dim)
        radius = int(rng.integers(1, 15))
        ball = build(ctx, gens, radius)
        case = (f"seed {seed}: case {i} (matrix {matrix.entries}, radius {ball.radius}, "
                f"BLOCK_KEYS {packed.BLOCK_KEYS})")
        wrong = differs(ctx, gens, ball, reference_ball(ctx, gens, ball.radius))
        if wrong:
            print(f"{case}: {wrong}")
            return 1
    print(f"seed {seed}: {count} balls equal the dictionary searches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
