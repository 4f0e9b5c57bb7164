"""The packed breadth-first oracle against an independent dictionary search.

The reference below is the plain frontier-by-frontier search over hashed
GroupElement values that the packed kernel replaced. It shares no code with
the kernel beyond group arithmetic, so agreement in elements, lengths and
order is a real cross-check.
"""

import re
import tracemalloc

import numpy as np
import pytest

from conftest import CAT, D3_REAL
from unstretch import packed, words
from unstretch import (
    BudgetError,
    GeneratingSet,
    GroupAutomorphism,
    GroupContext,
    GroupElement,
    ToralMatrix,
    ValidationError,
    choose_lambda,
    compute_splitting,
    qi_comparison,
    word_ball,
)
from unstretch.words import check_box_inclusion_un

# Twisted generators A^k e_i have entries near 10^(6k): at z^2 they no
# longer fit the coordinate fields of a radius-5 key layout.
WIDE = ((1000001, 1000000), (1, 1))
FIB = ((1, 1), (1, 0))


def _expand_frontier(ctx, gens, frontier, table, length):
    """One breadth-first layer of right multiplication with deduplication."""
    new = []
    for g in frontier:
        for y in gens.h_generators:
            cand = ctx.multiply(g, y)
            if cand not in table:
                table[cand] = length
                new.append(cand)
        for dk in (1, -1):
            cand = GroupElement(g.x, g.k + dk)
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


def test_word_length_refuses_an_element_of_another_dimension(oracle6):
    # Not a certificate that the element is longer than the radius.
    with pytest.raises(ValidationError, match="dimension 3, key layout expects 2"):
        oracle6.word_length(GroupElement((1, 0, 0), 0))


def test_column_lengths_refuse_rows_of_another_dimension(oracle6):
    # One coordinate row for e_1 is not packed as if it were (1, 0).
    xs, ks = np.array([[1]], dtype=np.int64), np.zeros(1, dtype=np.int64)
    with pytest.raises(ValidationError, match="dimension 1, key layout expects 2"):
        oracle6.column_lengths(xs, ks)


@pytest.mark.parametrize("block", [1 << 16, 7, 5, 2, 1])
@pytest.mark.parametrize("rows, radius", [
    (CAT, 10), (D3_REAL, 6), (WIDE, 2), (((1, 1), (1, 0)), 10),
])
def test_streamed_ball_matches_dict_search(rows, radius, block, monkeypatch):
    # Blocks of 7 candidates or fewer cut a range at every frontier key, so
    # ranges split exponent and coordinate rows, and the order is read off
    # many mask chunks.
    monkeypatch.setattr(packed, "BLOCK_KEYS", block)
    ctx = GroupContext(ToralMatrix(rows))
    gens = GeneratingSet.standard(ctx.dim)
    oracle = word_ball(ctx, gens, radius)
    reference = reference_ball(ctx, gens, radius)
    assert list(oracle.items()) == list(reference.items())
    assert oracle.sphere_sizes == np.bincount(list(reference.values())).tolist()


def _sorted_and_breadth_first(rows, radius, budget=10**9):
    """The ball built each way, or the error each way raised."""
    ctx = GroupContext(ToralMatrix(rows))
    gens = GeneratingSet.standard(ctx.dim)
    built = []
    for breadth_first in (True, False):
        try:
            built.append(word_ball(ctx, gens, radius, budget, breadth_first=breadth_first))
        except (BudgetError, ValidationError) as exc:
            built.append(exc)
    return ctx, gens, built


@pytest.mark.parametrize("block", [1 << 16, 5])
@pytest.mark.parametrize("rows, radius", [(CAT, 10), (FIB, 12), (D3_REAL, 7)],
                         ids=["cat", "fib", "d3"])
def test_sorted_ball_holds_the_breadth_first_spheres_in_key_order(rows, radius, block,
                                                                  monkeypatch):
    # The same spheres as sets, so the same lengths for every element, for
    # the next sphere's elements (misses) and for elements off the layout.
    monkeypatch.setattr(packed, "BLOCK_KEYS", block)
    ctx, gens, (ordered, keyed) = _sorted_and_breadth_first(rows, radius)
    assert keyed.sphere_sizes == ordered.sphere_sizes
    ends = np.cumsum([0, *ordered.sphere_sizes])
    for lo, hi in zip(ends, ends[1:]):
        assert np.array_equal(keyed.keys[lo:hi], np.sort(ordered.keys[lo:hi]))
    ball = list(ordered.elements())
    rim = ball[ends[-2]:]
    outside = {ctx.multiply(g, s) for g in rim[::7] for s in gens.all} - set(ball)
    far = [GroupElement((2**62,) + (0,) * (ctx.dim - 1), 0), GroupElement(rim[0].x, 10**6)]
    queries = ball + sorted(outside) + far
    xs, ks = packed.element_columns(queries, ctx.dim)
    want = [n for _, n in ordered.items()] + [-1] * (len(queries) - len(ball))
    assert keyed.column_lengths(xs, ks).tolist() == want
    assert ordered.column_lengths(xs, ks).tolist() == want
    assert [keyed.word_length(g) for g in queries] == [None if n < 0 else n for n in want]


@pytest.mark.parametrize("rows", [CAT, FIB, D3_REAL], ids=["cat", "fib", "d3"])
def test_sorted_ball_reports_the_same_partial_census(rows):
    _, _, (small, _) = _sorted_and_breadth_first(rows, 5)
    _, _, refused = _sorted_and_breadth_first(rows, 8, len(small) + 1)
    ordered, keyed = refused
    assert isinstance(ordered, BudgetError) and str(keyed) == str(ordered)
    assert keyed.completed_radius == ordered.completed_radius == 5
    assert keyed.partial.census() == ordered.partial.census() == small.census()


@pytest.mark.parametrize("rows, radius, message", [
    (D3_REAL, 14, "ball of radius 13 does not fit the int64 key layout: "
                  "coordinates may reach 477595 > 262143"),
    (WIDE, 5, "ball of radius 3 does not fit the int64 key layout: "
              "coordinates may reach 1000004000002 > 268435455"),
], ids=["d3", "wide"])
def test_sorted_ball_refuses_as_the_breadth_first_ball(rows, radius, message):
    _, _, refused = _sorted_and_breadth_first(rows, radius)
    assert [type(e) for e in refused] == [ValidationError] * 2
    assert [str(e) for e in refused] == [message] * 2


def test_packing_certificate_refuses_instead_of_wrapping():
    ctx = GroupContext(ToralMatrix(WIDE))
    gens = GeneratingSet.standard(2)
    small = word_ball(ctx, gens, 2)
    assert list(small.items()) == list(reference_ball(ctx, gens, 2).items())
    with pytest.raises(ValidationError, match="radius 3"):
        word_ball(ctx, gens, 5)


@pytest.mark.parametrize("block", [1 << 16, 5])
def test_certificate_checks_the_whole_frontier_before_any_block(block, monkeypatch):
    # The reach is that of the whole radius-2 sphere, whatever the blocks.
    monkeypatch.setattr(packed, "BLOCK_KEYS", block)
    with pytest.raises(ValidationError) as refused:
        word_ball(GroupContext(ToralMatrix(WIDE)), GeneratingSet.standard(2), 5)
    assert str(refused.value) == (
        "ball of radius 3 does not fit the int64 key layout: "
        "coordinates may reach 1000004000002 > 268435455"
    )


def test_oracle_arrays_stay_small(ctx, gens):
    oracle = word_ball(ctx, gens, 12)
    assert len(oracle) == 142241
    assert oracle.word_length(GroupElement((0, 0), 0)) == 0  # builds the lookup copy
    assert oracle.nbytes / len(oracle) <= 24


# Traced peak bytes per element while word_ball builds the radius-14 cat-map
# ball (600,617 elements): 63.3 with whole-sphere candidate arrays and the
# sorted lookup copy built with the ball, 24.8 with candidates streamed by
# exponent block and the copy left to the first lookup, 26.9 once seen keys
# joined the block sort, and 18.8 with ranges of output keys cut from the
# sorted frontier, which need no exponent-grouped copy of the frontier. The
# ball with spheres in key order reads 16.0.
BALL_PEAK_BYTES_PER_ELEMENT = 22


def test_word_ball_memory_per_element(ctx, gens):
    for breadth_first in (True, False):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            oracle = word_ball(ctx, gens, 14, breadth_first=breadth_first)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / len(oracle) < BALL_PEAK_BYTES_PER_ELEMENT
        del oracle


def test_lookup_copy_is_built_once_by_the_first_lookup(ctx, gens):
    oracle = word_ball(ctx, gens, 8)
    small = oracle.restricted(5)
    assert oracle._index is None and small._index is None
    assert oracle.nbytes == oracle.keys.nbytes and small.nbytes == small.keys.nbytes
    reference = dict(oracle.items())
    rng = np.random.default_rng(4)
    queries = list(reference) + [
        GroupElement((int(a), int(b)), int(k))
        for a, b, k in rng.integers(-30, 31, size=(300, 3))
    ]
    # The view's first lookup builds a copy of its own prefix only.
    cut = [n if n is not None and n <= 5 else None for n in map(reference.get, queries)]
    assert [small.word_length(g) for g in queries] == cut
    lengths = small.column_lengths(*packed.element_columns(queries, 2)).tolist()
    assert lengths == [-1 if n is None else n for n in cut]
    assert oracle._index is None
    assert small.nbytes == small.keys.nbytes + 9 * len(small)
    lengths = oracle.column_lengths(*packed.element_columns(queries, 2)).tolist()
    assert lengths == [reference.get(g, -1) for g in queries]
    index = oracle._index
    for o, radius in ((small, 5), (oracle, 8)):
        order = o.keys.argsort()
        eager = (o.keys[order], np.repeat(np.arange(radius + 1), o.sphere_sizes)[order])
        assert all(np.array_equal(a, b) for a, b in zip(o._index, eager))
    assert [oracle.word_length(g) for g in queries] == list(map(reference.get, queries))
    assert oracle._index is index
    assert oracle.nbytes == oracle.keys.nbytes + 9 * len(oracle)


def test_runs_without_lookups_build_no_lookup_copy(gens, cat_matrix, monkeypatch):
    built = []
    real = words.word_ball
    monkeypatch.setattr(words, "word_ball", lambda *a: built.append(real(*a)) or built[-1])
    ctx = GroupContext(cat_matrix)
    lam = choose_lambda(cat_matrix, GroupAutomorphism.identity(2))
    for n in (1, 2):
        check_box_inclusion_un(ctx, gens, lam, 2, 2, n, 20, np.random.default_rng(1))
    assert len(built) == 2 and len(ctx.balls) == 2
    census = word_ball(ctx, gens, 8)
    census.census()
    compared = word_ball(ctx, gens, 8)
    qi_comparison(compared, compute_splitting(cat_matrix))
    assert all(o._index is None for o in (*built, census, compared))


def test_cat_map_layout_reaches_radius_16(ctx, gens):
    oracle = word_ball(ctx, gens, 16)
    assert oracle.census()[-1] == (16, 2498037, 1271306)
    assert oracle.layout.reach(oracle.keys) == [1346269, 1346269]
