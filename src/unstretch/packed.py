"""Group elements packed into int64 keys, and the breadth-first step on them.

An element x * z^k becomes one nonnegative int64 (``KeyLayout``), so a
generator step is one integer addition and a finite set of elements is a
sorted array of distinct keys. ``StepTable`` holds the key increments of
the generators (or of a ball, for the box checks) at each exponent; the
row of z^k is filled on first use from the context's exact A^k, and
``translate_steps`` is the one way to get a table, cached in the context.
``spread`` grows right neighborhoods U_N(S) (behind ``words.neighborhood``,
the set iteration and its lattice control in ``dynamics``) by N unordered
union rounds, each the union of the set with its translates by the
generators. The word ball (``oracle.word_ball``) has two steps from one
sphere to the next. ``sorted_sphere`` gives the sphere as sorted keys,
for balls that are only looked up or counted (set-dynamics, word-length,
ball-census). ``next_sphere`` gives it in breadth-first order, which
qi-compare's CSV rows and the uN box check's ball B_N read, and pays for
that order with a flat (element, generator) index carried through its sort
and one mask over all those pairs. All three steps build their output range
by range of output keys, from the sorted runs of translates that
``_translate_runs`` cuts off the sorted keys they step from, after a
packing certificate on all of those keys that raises ValidationError
instead of wrapping.

Unpacked elements are coordinate rows: the coordinates of n elements are one
C-contiguous (dim, n) int64 array whose row i holds every x_i, and their
exponents are one (n,) int64 array. ``KeyLayout.unpack`` and
``element_columns`` return this layout and every function that packs or
tests coordinates takes it, so a per-coordinate test or reduction is a pass
over dim contiguous rows and a linear map is ``M @ xs``. Elements are picked
out with ``np.take(xs, index, axis=1)``, which numpy runs several times
faster than ``xs[:, index]``.
"""

from __future__ import annotations

from itertools import chain
from operator import mul

import numpy as np

from . import matrices
from .errors import DEFAULT_ELEMENT_BUDGET, BudgetError, ValidationError, int_text
from .group import GeneratingSet, GroupContext, GroupElement

# Packed element keys use this many bits of an int64, so keys are nonnegative.
KEY_BITS = 63
# Keys or rows per block wherever a whole set is processed in pieces
# (the candidates of a breadth-first step's ranges of output keys, decoding
# keys for the packing certificate and the oracle, qi-compare's bounds and
# CSV rows), so only one block of temporaries is alive at once. A range's
# size is approximate: it is cut from the frontier's keys, so a dense
# neighbouring exponent row can overfill it. Even, so a matrix product over
# a block never has a lone row, which numpy would sum in another order (see
# ``suspension._projected_norms``).
BLOCK_KEYS = 1 << 16
# A step table's row first met whose reach is at least 2^b with b above this
# (``GroupContext.entry_bits``) is refused on that bound before the row's
# exact power of A is formed, which at far exponents takes seconds to
# minutes. 2^16384 has 4,933 digits, more than the 4,300 that Python turns
# into text by default, so a refusal that prints its bound as a number
# (``errors.int_text``) still prints the exact one.
FLOOR_BITS = 1 << 14


class KeyLayout:
    """Fixed bit fields that pack an element (x, k) into one int64 key.

    Each coordinate x_i gets ``x_bits`` bits from the bottom up, holding
    x_i + 2^(x_bits - 1), and the ``k_bits`` bits above them, from
    ``k_shift``, hold k + radius; the fields fill at most KEY_BITS bits, so
    every key is a nonnegative int64. While all fields stay in range, packing
    is additive: key(x + y, k + m) = key(x, k) + delta with delta =
    sum y_i 2^shift_i + m 2^k_shift, so a generator step is one addition.
    With the exponent on top, keys sort by exponent first: the keys of a
    range of exponents are one slice of a sorted array, and ``keys >>
    k_shift`` is each key's exponent row k + radius. An element fits when
    |k| <= radius and every |x_i| <= x_limit. Tables hold a row per exponent,
    so a radius of more than the element budget's rows is refused.
    """

    def __init__(self, dim: int, radius: int):
        if 2 * radius + 1 > DEFAULT_ELEMENT_BUDGET:
            raise ValidationError(
                f"radius {int_text(radius)} needs {int_text(2 * radius + 1)} exponent rows "
                f"in the int64 key layout, more than the element budget {DEFAULT_ELEMENT_BUDGET}"
            )
        self.dim = dim
        self.radius = radius
        self.k_bits = max(1, (2 * radius).bit_length())
        self.x_bits = (KEY_BITS - self.k_bits) // dim
        if self.x_bits < 2:
            raise ValidationError(
                f"radius {radius} leaves no room for {dim} coordinates in an int64 key"
            )
        self.x_offset = 1 << (self.x_bits - 1)
        self.x_limit = self.x_offset - 1
        self.shifts = tuple(i * self.x_bits for i in range(dim))
        self.k_shift = dim * self.x_bits

    def key(self, g: GroupElement):
        """The key of one element, or None if it does not fit; ValidationError
        if its dimension is not the layout's."""
        x, k = g
        self._check_dim(len(x))
        if not -self.radius <= k <= self.radius:
            return None
        key = (k + self.radius) << self.k_shift
        for v, shift in zip(x, self.shifts):
            if not -self.x_limit <= v <= self.x_limit:
                return None
            key += (v + self.x_offset) << shift
        return key

    def pack(self, xs: np.ndarray, ks: np.ndarray):
        """Keys of the elements (coordinate rows xs, exponents ks) that fit,
        and the mask of those elements."""
        self._check_dim(len(xs))
        lim, rad = self.x_limit, self.radius
        fits = ((xs >= -lim) & (xs <= lim)).all(axis=0) & (ks >= -rad) & (ks <= rad)
        keys = (ks[fits] + self.radius) << self.k_shift
        for x, shift in zip(xs, self.shifts):
            keys += (x[fits] + self.x_offset) << shift
        return keys, fits

    def _check_dim(self, dim: int):
        if dim != self.dim:
            raise ValidationError(f"element has dimension {dim}, key layout expects {self.dim}")

    def pack_rows(self, xs: np.ndarray, ks: np.ndarray, what: str) -> np.ndarray:
        """Keys of the elements in their order, all of which must fit."""
        keys, fits = self.pack(xs, ks)
        if not fits.all():
            i = int(np.flatnonzero(~fits)[0])
            raise ValidationError(
                f"{what} does not fit the int64 key layout: element "
                f"{GroupElement(tuple(xs[:, i].tolist()), int(ks[i]))} exceeds "
                f"|x_i| <= {self.x_limit}, |k| <= {self.radius}"
            )
        return keys

    def pack_set(self, xs: np.ndarray, ks: np.ndarray, what: str) -> np.ndarray:
        """Sorted distinct keys of the elements, all of which must fit."""
        return distinct(self.pack_rows(xs, ks, what))

    def unpack(self, keys: np.ndarray):
        """Coordinate rows (dim, n) and exponents (n,) of packed keys."""
        mask = (1 << self.x_bits) - 1
        xs = np.empty((self.dim, len(keys)), dtype=np.int64)
        for i, shift in enumerate(self.shifts):
            xs[i] = ((keys >> shift) & mask) - self.x_offset
        ks = (keys >> self.k_shift) - self.radius
        return xs, ks

    def reach(self, keys: np.ndarray) -> list:
        """max |x_i| over the keys, per coordinate, decoded ``BLOCK_KEYS``
        keys at a time."""
        reach = np.zeros(self.dim, dtype=np.int64)
        for lo in range(0, len(keys), BLOCK_KEYS):
            xs, _ = self.unpack(keys[lo : lo + BLOCK_KEYS])
            np.maximum(reach, np.abs(xs).max(axis=1), out=reach)
        return reach.tolist()

    def rows(self, keys: np.ndarray):
        """The exponent rows (k + radius) present among the keys, ascending,
        and the number of keys in each. The rows are sorted (timsort, one
        pass over sorted keys' rows), so no array is sized by the layout's
        2R + 1 rows."""
        rows = np.sort(keys >> self.k_shift, kind="stable")
        starts = np.flatnonzero(heads(rows))
        return rows[starts], np.diff(starts, append=len(rows))

    def elements(self, keys: np.ndarray) -> list:
        """The GroupElements of packed keys, in key order."""
        xs, ks = self.unpack(keys)
        return list(map(GroupElement, zip(*xs.tolist()), ks.tolist()))


def element_columns(elements, dim: int):
    """Coordinate rows (dim, n) and exponents (n,) of a list of elements as
    int64; ValidationError naming the first element with an entry beyond
    int64."""
    for g in elements:
        if len(g.x) != dim:
            raise ValidationError(f"element {g} has dimension {len(g.x)}, expected {dim}")
    flat = chain.from_iterable((*g.x, g.k) for g in elements)
    try:
        arr = np.fromiter(flat, dtype=np.int64, count=len(elements) * (dim + 1))
    except OverflowError:
        lo, hi = -(1 << 63), (1 << 63) - 1
        g = next(g for g in elements if not all(lo <= v <= hi for v in (*g.x, g.k)))
        raise ValidationError(f"element {g} has an entry beyond int64") from None
    arr = np.ascontiguousarray(arr.reshape(len(elements), dim + 1).T)
    return arr[:dim], arr[dim]


def certify(what: str, kind: str, reach: int, limit: int):
    """Packing certificate: ValidationError naming ``what`` unless the bound
    ``reach`` on a field of the next keys stays within its ``limit``."""
    if reach > limit:
        raise ValidationError(
            f"{what} does not fit the int64 key layout: "
            f"{kind} may reach {int_text(reach)} > {limit}"
        )


class StepTable:
    """Key increments of right multiplication by a few elements, per exponent.

    Row k + radius of ``deltas`` holds the key increments of the elements
    (y, m) twisted to z^k, (A^k y, m). A row is filled when its exponent is
    first met: one Python-int product of the context's ``matrix_power(k)``
    with the lattice parts y gives the twisted parts and the row's reach,
    their per-coordinate largest |entry|, which the packing certificate adds
    to a frontier's reach; a row that fits becomes increments in one int64
    array step.
    """

    def __init__(self, ctx: GroupContext, elements: tuple, layout: KeyLayout):
        self.ctx = ctx
        self.layout = layout
        self.ys = [b.x for b in elements]
        self.dks = tuple(b.k for b in elements)
        self.deltas = np.zeros((2 * layout.radius + 1, len(self.dks)), dtype=np.int64)
        # With e_j or -e_j among the lattice parts for every j, a row's reach
        # is at least the largest |entry| of A^k (``GroupContext.entry_bits``).
        units = {tuple(map(abs, y)) for y in self.ys}
        self._units = all(e in units for e in matrices.identity(layout.dim))
        # Each filled row's reach, by row: only rows met take room.
        self._reach: dict = {}

    def _row_reach(self, row: int) -> list:
        reach = self._reach.get(row)
        if reach is None:
            layout = self.layout
            parts = [[sum(map(mul, a, y)) for y in self.ys]
                     for a in self.ctx.matrix_power(row - layout.radius)]
            reach = [max(map(abs, p)) for p in parts]
            if max(reach) <= layout.x_limit:  # else certificates refuse the row
                units = 1 << np.array((*layout.shifts, layout.k_shift))
                self.deltas[row] = units @ np.array([*parts, self.dks], dtype=np.int64)
            self._reach[row] = reach
        return reach

    def certified_rows(self, keys: np.ndarray, what: str):
        """The exponent rows (k + radius) present among the keys, ascending,
        and the number of keys in each (``KeyLayout.rows``), once the packing
        certificate has passed: the keys' translates lie within the keys'
        reach plus the largest twisted element at the keys' exponents, and
        within their exponent range plus the largest z step; ValidationError
        naming ``what`` if either could leave the layout.

        Rows are visited nearest k = 0 first, and the running bound is
        certified at each row first met, so keys at far exponents are
        refused before the far rows' exact matrix powers are formed (the
        bound only grows, so this refuses nothing the final check passes).
        Where the elements' lattice parts hold every unit vector, a row first
        met whose reach is at least 2^``entry_bits`` > 2^FLOOR_BITS (read
        without a power of A) is refused on that bound; the exact bound is
        never smaller, so this refuses the same keys, only naming a smaller
        size.
        """
        layout = self.layout
        present, counts = layout.rows(keys)
        reach = layout.reach(keys)
        twist = [0] * layout.dim
        for row in sorted(present.tolist(), key=lambda r: abs(r - layout.radius)):
            fresh = row not in self._reach
            if fresh and self._units:
                bits = self.ctx.entry_bits(row - layout.radius)
                if bits > FLOOR_BITS:
                    certify(what, "coordinates", 1 << bits, layout.x_limit)
            twist = list(map(max, twist, self._row_reach(row)))
            if fresh:
                certify(what, "coordinates", max(map(sum, zip(reach, twist))), layout.x_limit)
        certify(what, "coordinates", max(map(sum, zip(reach, twist))), layout.x_limit)
        if len(present):
            k_reach = max(layout.radius - int(present[0]), int(present[-1]) - layout.radius)
            certify(what, "exponents", k_reach + max(map(abs, self.dks)), layout.radius)
        return present, counts

    def translates(self, keys: np.ndarray, what: str) -> np.ndarray:
        """Each key's right translates by the table's elements, (n, elements),
        after the packing certificate of ``certified_rows``."""
        self.certified_rows(keys, what)
        return keys[:, None] + self.deltas[keys >> self.layout.k_shift]


def translate_steps(ctx: GroupContext, elements: tuple, radius: int) -> StepTable:
    """The step table of right multiplication by ``elements`` (the generators,
    for a breadth-first step; the lattice generators at radius 0, for the
    lattice control) on the key layout of the given radius.

    Tables live in the context's cache, so repeated small enumerations at one
    radius do not rebuild them, and their rows share its matrix powers.
    """
    table = ctx.step_tables.get((elements, radius))
    if table is None:
        table = ctx.step_tables[(elements, radius)] = StepTable(
            ctx, elements, KeyLayout(ctx.dim, radius))
    return table


def pack_elements(ctx: GroupContext, gens: GeneratingSet, elements: list, rounds: int,
                  what: str):
    """The step table of a layout holding the elements and ``rounds`` more
    generator steps, and the sorted distinct keys of the elements."""
    xs, ks = element_columns(elements, ctx.dim)
    table = translate_steps(ctx, gens.all, int(np.abs(ks).max(initial=0)) + rounds)
    return table, table.layout.pack_set(xs, ks, what)


def find(sorted_keys: np.ndarray, keys: np.ndarray):
    """Positions of keys in a sorted array, and the mask of keys present."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=np.intp), np.zeros(len(keys), dtype=bool)
    pos = np.minimum(sorted_keys.searchsorted(keys), len(sorted_keys) - 1)
    return pos, sorted_keys[pos] == keys


def distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values. (np.unique of int64 hashes before it sorts,
    which is many times slower than one sort.)"""
    ordered = np.sort(values)
    return ordered[heads(ordered)]


def heads(values: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values; in a sorted
    array, of each distinct value's first entry."""
    mask = np.empty(len(values), dtype=bool)
    mask[:1] = True
    np.not_equal(values[1:], values[:-1], out=mask[1:])
    return mask


def next_sphere(table: StepTable, frontier: np.ndarray, previous, what: str):
    """The breadth-first sphere after ``frontier``, in breadth-first order.

    Each key comes at its first occurrence in (frontier element, generator)
    order, which is the order a dictionary-driven search inserts them in;
    ``previous`` holds the frontier and the sphere before it as sorted keys,
    which are dropped (the generators are symmetric, so nothing earlier is
    adjacent to the frontier). Returns the sphere and the next step's
    ``previous``.

    The ranges of output keys and their sorted runs of translates are
    ``spread``'s (``_translate_runs``, which certifies the whole frontier
    first). A translate's flat index is its source's breadth-first position
    * generators + its generator. A range's runs and its slices of the
    ``previous`` spheres (flat index -1) are merged by one stable sort and
    deduplicated keeping each key's least flat index; a negative one marks
    a key seen before, which is dropped. The fresh keys' flat indices are
    set in one mask over all (element, generator) pairs, whose set bits,
    read in order, give the breadth-first order without a sort.
    """
    ordered = previous[0]
    base = frontier.argsort()  # the breadth-first position of each sorted key
    base *= len(table.dks)  # the flat index of its first generator
    firsts = np.zeros(len(frontier) * len(table.dks), dtype=bool)
    ranked = []
    for runs, seen in _translate_runs(table, ordered, previous, what):
        cand = _candidates(ordered, runs, seen)
        flat = np.full_like(cand, -1)  # below every flat index, so a seen key's run is dropped
        at = 0
        for a, b, g, _ in runs:
            np.add(base[a:b], g, out=flat[at : at + b - a])
            at += b - a
        # Timsort merges the sorted runs; each array is freed once permuted.
        order = cand.argsort(kind="stable")
        cand = cand[order]
        flat = flat[order]
        del order
        starts = np.flatnonzero(heads(cand))
        fresh, first = cand[starts], np.minimum.reduceat(flat, starts)
        del cand, flat
        keep = first >= 0
        ranked.append(fresh[keep])
        firsts[first[keep]] = True
    del base
    ranked = np.concatenate(ranked)
    return _read_in_order(table, frontier, firsts, len(ranked)), (ranked, ordered)


def _read_in_order(table: StepTable, frontier: np.ndarray, firsts: np.ndarray, size: int):
    """The ``size`` keys whose flat indices (frontier position * generators
    + generator) the mask ``firsts`` sets, in flat index order, translated
    afresh ``BLOCK_KEYS`` mask entries at a time."""
    n_gens = table.deltas.shape[1]
    out = np.empty(size, dtype=np.int64)
    at = 0
    for lo in range(0, len(firsts), BLOCK_KEYS):
        pos, g = np.divmod(np.flatnonzero(firsts[lo : lo + BLOCK_KEYS]) + lo, n_gens)
        keys = frontier[pos]
        keys += table.deltas[keys >> table.layout.k_shift, g]
        out[at : at + len(keys)] = keys
        at += len(keys)
    return out


def sorted_sphere(table: StepTable, frontier: np.ndarray, previous, what: str):
    """The breadth-first sphere after the sorted ``frontier``, as sorted keys.

    The step of a ball that is only looked up, which needs no order within a
    sphere: ``spread``'s union round over the frontier, less the keys of
    ``previous``, the frontier and the sphere before it as sorted keys.
    Returns the sphere and the next step's ``previous``, as ``next_sphere``
    does.

    Keys have KEY_BITS = 63 bits, so a range's translates and its slices of
    ``previous`` go into one uint64 array as ``key << 1 | fresh``, with
    fresh 1 for a translate and 0 for a key seen before, and are merged by
    one stable sort. A key's group of equal keys then starts with a 0 tag
    if it was seen before; the key is kept when that first tag is 1.
    """
    out = []
    for runs, seen in _translate_runs(table, frontier, previous, what):
        tagged = _candidates(frontier, runs, seen).view(np.uint64)
        tagged <<= 1
        tagged[: sum(b - a for a, b, *_ in runs)] |= 1
        tagged.sort(kind="stable")  # timsort, which merges the sorted runs
        keep = heads(tagged >> 1)
        keep &= (tagged & 1).astype(bool)
        out.append((tagged[keep] >> 1).view(np.int64))
    sphere = np.concatenate(out)
    return sphere, (sphere, frontier)


def spread(keys: np.ndarray, rounds: int, table: StepTable, budget: int, what: str):
    """The right neighborhood S * B_rounds of the sorted distinct keys S.

    B_rounds is B_1 to the power ``rounds``, and B_1 holds the identity, so
    each round replaces the set by its union with its translates by the
    generators. Returns sorted distinct keys; BudgetError once a union
    exceeds ``budget`` elements.

    A round builds the union range by range of output keys
    (``_translate_runs``): a range's sorted runs of translates and the set's
    own slice of the range are merged by one stable sort and deduplicated.
    The ranges come in key order and are joined, so no round sorts its
    whole output.
    """
    for _ in range(rounds):
        out = [keys[:0]]
        total = 0
        for runs, own in _translate_runs(table, keys, [keys], what):
            cand = _candidates(keys, runs, own)
            cand.sort(kind="stable")  # timsort, which merges the sorted runs
            out.append(cand[heads(cand)])
            total += len(out[-1])
            if total > budget:
                raise BudgetError(f"{what} exceeds budget of {budget} elements")
        del cand
        keys = np.concatenate(out)
    return keys


def _translate_runs(table: StepTable, frontier: np.ndarray, tails, what: str):
    """The ranges of output keys of one breadth-first step from the sorted
    ``frontier``: per range, once the packing certificate has passed, the
    runs (start, stop, generator, increment) whose translates
    ``frontier[start:stop] + increment`` land in it, and the range's slices
    of the sorted arrays ``tails``.

    The ranges are cut at every ``BLOCK_KEYS // (generators + 1)``-th
    frontier key, so a range has about BLOCK_KEYS candidates while
    neighbouring exponent rows are alike (a row far denser than the next
    fills that row's ranges with its z translates). A generator adds one
    increment to an exponent row's keys, so there is one sorted run per
    present row and generator. A cut is clamped to a row's translated ends
    before the increment is taken off, so it stays in int64.
    """
    present, counts = table.certified_rows(frontier, what)
    n_gens = len(table.dks)
    width = max(BLOCK_KEYS // (n_gens + 1), 1)
    cuts = frontier[width::width]
    hi = np.repeat(np.cumsum(counts), n_gens)
    lo = hi - np.repeat(counts, n_gens)
    deltas = table.deltas[present].reshape(-1, 1)
    targets = np.clip(cuts, frontier[lo, None] + deltas, frontier[hi - 1, None] + deltas + 1)
    at = np.column_stack((lo, frontier.searchsorted(targets - deltas), hi)).T.tolist()
    steps = list(zip(list(range(n_gens)) * len(present), deltas.ravel().tolist()))
    runs = ([(a, b, g, d) for (g, d), a, b in zip(steps, starts, ends) if a < b]
            for starts, ends in zip(at, at[1:]))
    return zip(runs, zip(*(np.split(tail, tail.searchsorted(cuts)) for tail in tails)))


def _candidates(keys: np.ndarray, runs, tail) -> np.ndarray:
    """The translates ``keys[start:stop] + increment`` of the runs, then the
    arrays of ``tail``, in one array."""
    cand = np.empty(sum(b - a for a, b, *_ in runs) + sum(map(len, tail)), dtype=np.int64)
    at = 0
    for a, b, _, d in runs:
        np.add(keys[a:b], d, out=cand[at : at + b - a])
        at += b - a
    for piece in tail:
        cand[at : at + len(piece)] = piece
        at += len(piece)
    return cand
