"""The packed breadth-first oracle against an independent dictionary search.

The reference below is the plain frontier-by-frontier search over hashed
GroupElement values that the packed kernel replaced. It shares no code with
the kernel beyond group arithmetic, so agreement in elements, lengths and
order is a real cross-check.
"""

import re

import numpy as np
import pytest

from conftest import CAT, D3_REAL
from unstretch import packed
from unstretch import (
    GeneratingSet,
    GroupContext,
    GroupElement,
    ToralMatrix,
    ValidationError,
    word_ball,
)


def _expand_frontier(ctx, gens, frontier, table, length):
    """One breadth-first layer of right multiplication with deduplication."""
    new = []
    h_vecs = [g.x for g in gens.h_generators]
    for x, k in frontier:
        for y in h_vecs:
            s = ctx.twist(k, y)
            cand = GroupElement(tuple(a + b for a, b in zip(x, s)), k)
            if cand not in table:
                table[cand] = length
                new.append(cand)
        for dk in (1, -1):
            cand = GroupElement(x, k + dk)
            if cand not in table:
                table[cand] = length
                new.append(cand)
    return new


def reference_ball(ctx, gens, radius) -> dict:
    """{element: length} for the ball, in breadth-first insertion order."""
    table = {ctx.identity: 0}
    frontier = [ctx.identity]
    for r in range(1, radius + 1):
        frontier = _expand_frontier(ctx, gens, frontier, table, r)
    return table


@pytest.mark.parametrize("rows, radius", [(CAT, 10), (D3_REAL, 5)])
def test_packed_ball_matches_dict_search(rows, radius):
    ctx = GroupContext(ToralMatrix(rows))
    gens = GeneratingSet.standard(ctx.dim)
    oracle = word_ball(ctx, gens, radius)
    reference = reference_ball(ctx, gens, radius)
    assert list(oracle.items()) == list(reference.items())
    sizes = np.bincount(list(reference.values())).tolist()
    assert oracle.sphere_sizes == sizes
    assert len(oracle) == len(reference)


@pytest.mark.parametrize("block", [1 << 16, 97])
def test_batched_lengths_match_single_lookups(ctx, oracle6, monkeypatch, block):
    monkeypatch.setattr(packed, "BLOCK_KEYS", block)
    ball = list(oracle6.elements())
    # Entries at the ends of int64 lie outside the layout.
    beyond = [
        GroupElement((2**63 - 1, 0), 0),
        GroupElement((0, -(2**63)), 1),
        GroupElement((1, 1), 2**63 - 1),
        GroupElement((0, 0), 7),
        GroupElement((982734, -2387), 3),
        GroupElement((1, 0), -7),
    ]
    rng = np.random.default_rng(3)
    random = [
        GroupElement((int(a), int(b)), int(k))
        for a, b, k in rng.integers(-40, 41, size=(500, 3))
    ]
    queries = ball + beyond + random
    single = [oracle6.word_length(g) for g in queries]
    batched = oracle6.column_lengths(*packed.element_columns(queries, 2)).tolist()
    assert batched == [-1 if n is None else n for n in single]
    assert all(n is None for n in single[len(ball) : len(ball) + len(beyond)])
    assert single[: len(ball)] == [n for _, n in oracle6.items()]


@pytest.mark.parametrize("g", [
    GroupElement((2**63 + 5, 0), 0),
    GroupElement((0, -(2**64)), 1),
    GroupElement((1, 1), 2**70),
])
def test_element_columns_refuse_entries_beyond_int64(g):
    # Named as given, not as a clamped stand-in.
    with pytest.raises(ValidationError, match=re.escape(repr(g))):
        packed.element_columns([GroupElement((0, 0), 0), g], 2)


def test_restricted_view_hides_longer_elements(oracle6):
    small = oracle6.restricted(3)
    far = next(g for g, n in oracle6.items() if n == 5)
    assert oracle6.word_length(far) == 5
    assert small.word_length(far) is None
    assert small.column_lengths(*packed.element_columns([far], 2)).tolist() == [-1]
    assert np.shares_memory(small.keys, oracle6.keys)
    assert list(small.items()) == [(g, n) for g, n in oracle6.items() if n <= 3]


def test_packing_certificate_refuses_instead_of_wrapping():
    # Twisted generators A^k e_i have entries near 10^(6k): at z^2 they no
    # longer fit the coordinate fields of a radius-5 key layout.
    ctx = GroupContext(ToralMatrix([[1000001, 1000000], [1, 1]]))
    gens = GeneratingSet.standard(2)
    small = word_ball(ctx, gens, 2)
    assert list(small.items()) == list(reference_ball(ctx, gens, 2).items())
    with pytest.raises(ValidationError, match="radius 3"):
        word_ball(ctx, gens, 5)


def test_oracle_arrays_stay_small(ctx, gens):
    oracle = word_ball(ctx, gens, 12)
    assert len(oracle) == 142241
    assert oracle.nbytes / len(oracle) <= 24


def test_cat_map_layout_reaches_radius_16(ctx, gens):
    oracle = word_ball(ctx, gens, 16)
    assert oracle.census()[-1] == (16, 2498037, 1271306)
    assert oracle.layout.reach(oracle.keys) == [1346269, 1346269]
