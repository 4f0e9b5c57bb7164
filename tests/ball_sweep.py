"""Check ``oracle.word_ball`` against a dictionary search on seeded random matrices.

    PYTHONPATH=src python tests/ball_sweep.py SEED COUNT

Draws COUNT cases. A case picks a dimension d = 2 or 3, a hyperbolic matrix
of GL(d, Z) (``spread_sweep.random_matrix``), a block size
(``packed.BLOCK_KEYS``, from ``spread_sweep.BLOCKS``, so a sphere's ranges
of output keys split exponent and coordinate rows or hold the whole sphere)
and a radius from 1 to 14, lowered to the largest whose ball holds at most
BALL_ELEMENTS elements (the ball that overruns that budget gives its
completed radius). Each case builds the ball both ways. The breadth-first
ball's (element, length) pairs are compared item for item with
``test_oracle.reference_ball``. The ball with spheres in key order must
reach the same radius, hold each sphere of the reference as its keys in
increasing order, and give the reference's length for every element of the
ball and -1 for every element of the next sphere. Exits 1 at the first case
that differs, printing the seed, the case and what differs.
"""

from __future__ import annotations

import sys

import numpy as np

from spread_sweep import BLOCKS, random_matrix
from test_oracle import reference_ball
from unstretch import BudgetError, GeneratingSet, GroupContext, packed, word_ball

BALL_ELEMENTS = 20_000


def build(ctx, gens, radius, breadth_first):
    """The ball, or the partial ball of a BudgetError."""
    try:
        return word_ball(ctx, gens, radius, BALL_ELEMENTS, breadth_first=breadth_first)
    except BudgetError as exc:
        return exc.partial


def sorted_ball_differs(ctx, gens, keyed, want: dict):
    """What the ball with spheres in key order gets wrong against the
    reference {element: length}, or None."""
    spheres = [[] for _ in range(keyed.radius + 1)]
    for g, n in want.items():
        spheres[n].append(g)
    ends = np.cumsum([0, *keyed.sphere_sizes])
    for r, sphere in enumerate(spheres):
        keys = keyed.keys[ends[r] : ends[r + 1]]
        expected = packed.distinct(keyed.layout.pack_rows(
            *packed.element_columns(sphere, ctx.dim), "reference sphere"))
        if not np.array_equal(keys, expected):
            return f"sphere {r} holds {len(keys)} keys, the reference {len(expected)}"
    rim = {ctx.multiply(g, s) for g in spheres[-1] for s in gens.all} - want.keys()
    queries = [*want, *rim]
    got = keyed.column_lengths(*packed.element_columns(queries, ctx.dim)).tolist()
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
        ball = build(ctx, gens, radius, True)
        keyed = build(ctx, gens, radius, False)
        case = (f"seed {seed}: case {i} (matrix {matrix.entries}, radius {ball.radius}, "
                f"BLOCK_KEYS {packed.BLOCK_KEYS})")
        reference = reference_ball(ctx, gens, ball.radius)
        got = list(ball.items())
        want = list(reference.items())
        if got != want:
            at = next((j for j, pair in enumerate(zip(got, want)) if pair[0] != pair[1]),
                      min(len(got), len(want)))
            print(f"{case} gives {len(got)} elements, the reference {len(want)}; "
                  f"they first differ at position {at}")
            return 1
        if keyed.radius != ball.radius:
            print(f"{case}: the ball in key order reaches radius {keyed.radius}")
            return 1
        differs = sorted_ball_differs(ctx, gens, keyed, reference)
        if differs:
            print(f"{case}, in key order: {differs}")
            return 1
    print(f"seed {seed}: {count} balls, each built both ways, equal the dictionary searches")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
