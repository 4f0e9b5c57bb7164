"""The exact word-length oracle: every element of a ball with its length.

Elements x * z^k are packed into int64 keys (``packed.KeyLayout``), so that a
generator step is one integer addition. ``word_ball`` enumerates the ball one
sphere at a time, each built range by range of output keys as ``spread``
builds a union, and ``WordLengthOracle`` stores it as the keys sphere after
sphere with the sphere sizes. The caller picks the order within a sphere:
qi-compare, whose CSV rows list the ball, and the ball B_N of the sampled
uN box check, whose elements order a step table's columns, take breadth-first
order (``packed.next_sphere``); set-dynamics, word-length and ball-census
only look the ball up or count it, and take each sphere in key order
(``packed.sorted_sphere``), which costs about half as much. Only lookups
need a sorted copy of the keys with their uint8 lengths, so it is built on
the first lookup. A packing certificate checked before every sphere makes
the ball refuse to grow past what the layout holds instead of wrapping.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import packed
from .errors import DEFAULT_ELEMENT_BUDGET, BudgetError, ValidationError
from .group import GeneratingSet, GroupContext, GroupElement
from .packed import find, next_sphere, sorted_sphere, translate_steps

# Oracle lengths are stored as uint8.
MAX_ORACLE_RADIUS = 255


class WordLengthOracle:
    """Complete word-length table out to a fixed radius, as packed keys.

    ``keys`` lists the ball sphere after sphere, each sphere in breadth-first
    order or in key order (``word_ball``'s ``breadth_first``), so the word
    length of ``keys[i]`` is the sphere holding index i; lengths are
    implicit in ``sphere_sizes``. Lookups binary-search a sorted copy of the
    keys that carries uint8 lengths, built by the first ``word_length`` or
    ``column_lengths`` call, so that a run which never looks anything up
    never pays for it; absence certifies length > radius. The copy comes
    from one stable argsort, which merges spheres held in key order as
    sorted runs. A ``restricted`` oracle is a plain smaller oracle on a
    prefix of the keys.
    """

    def __init__(self, ctx, radius, layout, keys, sphere_sizes):
        self.ctx = ctx
        self.radius = radius
        self.layout = layout
        self.keys = keys
        self.sphere_sizes = list(sphere_sizes)
        self._index = None

    def _lookup_index(self):
        """(sorted keys, their uint8 lengths), built on the first call."""
        if self._index is None:
            order = self.keys.argsort(kind="stable")
            self._index = (self.keys[order], self._length_column(np.uint8)[order])
        return self._index

    def _length_column(self, dtype=np.int64) -> np.ndarray:
        return np.repeat(np.arange(len(self.sphere_sizes), dtype=dtype), self.sphere_sizes)

    def word_length(self, g: GroupElement):
        """Exact length, or None certifying length > radius."""
        key = self.layout.key(g)
        if key is None:
            return None
        keys, lengths = self._lookup_index()
        i = int(keys.searchsorted(key))
        if i < len(keys) and keys[i] == key:
            return int(lengths[i])
        return None

    def column_lengths(self, xs: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """Exact lengths as int64 of the elements with coordinate rows xs
        (``packed``'s layout) and exponents ks; -1 certifies > radius. The
        elements are packed and looked up ``packed.BLOCK_KEYS`` at a time,
        into one output array."""
        sorted_keys, lengths = self._lookup_index()
        out = np.full(len(ks), -1, dtype=np.int64)
        block = packed.BLOCK_KEYS
        for lo in range(0, len(ks), block):
            keys, fits = self.layout.pack(xs[:, lo : lo + block], ks[lo : lo + block])
            pos, hit = find(sorted_keys, keys)
            found = np.full(len(keys), -1, dtype=np.int64)
            found[hit] = lengths[pos[hit]]
            out[lo : lo + block][fits] = found
        return out

    def __len__(self):
        return len(self.keys)

    @property
    def nbytes(self) -> int:
        """Bytes held by the keys and, once the first lookup has built it,
        the sorted lookup copy."""
        return self.keys.nbytes + sum(a.nbytes for a in self._index or ())

    def items(self) -> Iterator[tuple]:
        """(element, length) pairs in the order of ``keys``, decoded
        ``packed.BLOCK_KEYS`` keys at a time."""
        lengths = self._length_column()
        block = packed.BLOCK_KEYS
        for lo in range(0, len(self), block):
            xs, ks = self.layout.unpack(self.keys[lo : lo + block])
            elements = map(GroupElement, zip(*xs.tolist()), ks.tolist())
            yield from zip(elements, lengths[lo : lo + block].tolist())

    def elements(self) -> Iterator[GroupElement]:
        return (g for g, _ in self.items())

    def ball_size(self, r: int) -> int:
        return sum(self.sphere_sizes[: r + 1])

    def census(self):
        """Rows (radius, ball_size, sphere_size) for 0 <= radius <= R."""
        rows = []
        total = 0
        for r, s in enumerate(self.sphere_sizes):
            total += s
            rows.append((r, total, s))
        return rows

    def restricted(self, radius: int) -> "WordLengthOracle":
        """The oracle for a smaller radius, on a prefix view of the keys; it
        builds its own lookup copy on its first lookup."""
        if radius > self.radius:
            raise ValidationError(
                f"cannot restrict radius {self.radius} oracle to {radius}"
            )
        return WordLengthOracle(
            self.ctx, radius, self.layout,
            self.keys[: self.ball_size(radius)], self.sphere_sizes[: radius + 1],
        )


def word_ball(
    ctx: GroupContext,
    gens: GeneratingSet,
    radius: int,
    budget: int = DEFAULT_ELEMENT_BUDGET,
    *,
    breadth_first: bool = True,
) -> WordLengthOracle:
    """Enumerate the ball of the given radius by breadth-first search.

    Sphere r comes from sphere r-1 in one step: the keys of every (element,
    generator) product, less those in spheres r-1 and r-2 (the generators
    are symmetric, so no earlier element is adjacent to sphere r-1). With
    ``breadth_first`` the step is ``packed.next_sphere``, which keeps first
    occurrences in (element, generator) order, the order a dictionary-driven
    search would insert them in; without it the step is
    ``packed.sorted_sphere``, which gives the sphere as sorted keys for a
    ball that is only looked up or counted. Both steps build the sphere over
    ranges of output keys cut from the sorted frontier, as ``spread`` does,
    so the candidates alive at once are about BLOCK_KEYS (more where a dense
    exponent row overfills its neighbour's ranges), not the whole sphere's.

    Raises BudgetError once a completed sphere takes the table past
    ``budget`` elements, reporting the spheres before it as the largest
    completed radius and the ``partial`` oracle, and ValidationError naming
    the radius if a sphere could leave the int64 key layout.
    """
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    if radius > MAX_ORACLE_RADIUS:
        raise ValidationError(
            f"radius {radius} exceeds {MAX_ORACLE_RADIUS}, the largest uint8 length"
        )
    table = translate_steps(ctx, gens.all, radius)
    layout = table.layout
    spheres = [np.array([layout.key(ctx.identity)], dtype=np.int64)]
    previous = (spheres[0], spheres[0][:0])  # spheres r-1 and r-2, sorted
    step = next_sphere if breadth_first else sorted_sphere
    total = 1
    for r in range(1, radius + 1):
        sphere, previous = step(table, spheres[-1], previous, f"ball of radius {r}")
        total += len(sphere)
        if total > budget:
            del sphere, previous
            raise BudgetError(
                f"ball of radius {r} exceeds budget of {budget} elements",
                completed_radius=r - 1,
                partial=WordLengthOracle(
                    ctx, r - 1, layout, np.concatenate(spheres),
                    [len(s) for s in spheres],
                ),
            )
        spheres.append(sphere)
    del previous
    return WordLengthOracle(
        ctx, radius, layout, np.concatenate(spheres), [len(s) for s in spheres]
    )
