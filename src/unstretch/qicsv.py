"""qi-compare's CSV writer: ``qi_r<R>.csv`` as bytes, equal to csv.writer's.

csv.writer formats a float with ``repr``, about 1 us per float through
bignums. Here each distinct bound is formatted once, and each ratio once
per distinct bound of its sphere (the rows of one length), and those in the
band of ``shortest_text`` (positive, 1e-4 <= x < 2**50, where ``repr``
prints fixed notation) by a numpy kernel that computes ``repr``'s digits
exactly with uint64 arithmetic, a whole block of values per numpy call;
``repr`` formats only the few values outside the band, such as the identity
row's ratio 0.0. The two float columns are formatted one after the other,
in the calling process.

One sort remains, the bound column's (``text_table``): it finds the
distinct bounds and puts them in order. The ratio column needs none
(``ratio_table``): within a sphere every ratio is l / b for one length l,
which falls as the bound b rises, so the bound order already orders each
sphere's ratios.
"""

from __future__ import annotations

import contextlib
from pathlib import Path

import numpy as np

from . import packed, suspension

# The kernel's band, as the int64 bits of its ends: positive floats sort by
# their bits, so the band's values are one run of a bit-sorted array.
BAND = np.array([1e-4, 2.0**50]).view(np.int64)
# Distinct values formatted per call. A block's uint64 temporaries (128 kB
# each) stay in cache and are reused by the allocator; with blocks of
# packed.BLOCK_KEYS (2**16) the radius-14 bound table's kernel time went
# from about 30 to 65 ms on a 2-vCPU Xeon host.
TEXT_BLOCK = 1 << 14
_POW5 = np.array([5**s for s in range(22)], dtype=np.uint64)
_POW10 = np.array([10**j for j in range(18)], dtype=np.uint64)
_MASK32 = (1 << 32) - 1
_MANTISSA = (1 << 52) - 1
# "0000" to "9999" as uint32 words whose four bytes are the ASCII digits.
_DIGITS4 = (
    np.stack([np.arange(10**4, dtype=np.uint16) // d % 10 for d in (1000, 100, 10, 1)], 1)
    .astype(np.uint8) + np.uint8(ord("0"))
).view(np.uint32).ravel()
# A value's digit row is "0000", "000d" and four words of four digits: its
# 17 digits start at byte _LEAD, after the zeros that texts below 1 begin with.
_LEAD = 7
# Bytes of a text row, the longest text (22, from 0.000 and 17 digits) and
# padding to whole uint64 words.
_WIDTH = 24
# _KEEP[n] keeps the first n bytes of a text row, as _WIDTH // 8 words.
_KEEP = (np.arange(_WIDTH) < np.arange(_WIDTH + 1)[:, None]).view(np.uint8) * np.uint8(255)
_KEEP = _KEEP.view(np.uint64)


def _mul_shift(a: np.ndarray, b: np.ndarray, t: np.ndarray):
    """floor(a b / 2**t) and (a b) mod 2**t, exactly, for uint64 arrays
    with a < 2**56, b < 2**50, 0 < t < 64 and a quotient below 2**64.

    The 128-bit product is summed from 32-bit limbs: the cross terms stay
    below 2**56, the low word wraps and carries into the high word.
    """
    a1, a0 = a >> 32, a & _MASK32
    b1, b0 = b >> 32, b & _MASK32
    mid = a1 * b0 + a0 * b1
    cross = mid << 32
    low = a0 * b0 + cross
    high = a1 * b1 + (mid >> 32) + (low < cross)
    return (high << (64 - t)) | (low >> t), low & ((1 << t) - 1)


def shortest_text(x: np.ndarray) -> np.ndarray:
    """``repr`` of each float64 of ``x``, as a bytes table of the itemsize
    of its longest text; every value must be positive, 1e-4 <= x < 2**50.

    ``repr`` prints the shortest decimal that reads back as x, the one
    nearest x among those, in fixed notation in this band. Write
    x = m 2**e with 2**52 <= m < 2**53 and scale by 10**s, s = 16 -
    floor(log10 x) (the log10 estimate is corrected where the scaled value
    w = x 10**s leaves [10**16, 10**17)). Then w = 4m 5**s / 2**t with t =
    2 - e - s, and the decimals that read back as x are those strictly
    inside (L, H) = ((4m - 2) 5**s, (4m + 2) 5**s) / 2**t, or (4m - 1) 5**s
    for L when m = 2**52, where the float below x is nearer. All three are
    exact: ``_mul_shift`` gives each as an integer part and a remainder.
    H - L is w/m, or 3w/4m at a power of two, above 1 either way since
    w >= 10**16 > 2**53; so an integer is always inside, and the shortest
    decimal is found at the largest level j with a multiple of 10**j
    strictly inside. Of the multiples of 10**j inside, the one nearest w is
    the floor or the ceiling multiple of w, and an exact tie takes the even
    multiple: 950569045138165.75 gives '950569045138165.8' and
    209416943474789.375 gives '209416943474789.38'. The chosen multiple has
    17 digits: it is at least 10**16, which is inside whenever L is below
    it, and never 10**17, since a power of ten inside the interval reads
    back as x, and those of the band are exact floats or, for 0.001, 0.01
    and 0.1, read back as floats above them, so none is above x.

    Whether an end of (L, H) counts as inside never matters: repr's digits
    are at most 17, and no decimal of at most 17 significant digits equals
    an end. An end is (2m +- 1) 2**(e - 1), or (4m - 1) 2**(e - 2), an odd
    integer over a power of two; x < 2**50 with m >= 2**52 gives e <= -3.
    Its decimal expansion is N / 10**u with u = 1 - e >= 4 (or 2 - e) and
    N = (2m +- 1) 5**u, an odd multiple of 5, so it ends in 5, not 0, and
    N has as many significant digits as the end. N >= (2**53 - 1) 5**4 >
    10**18, so every end has at least 19 significant digits.

    The chosen multiple's 17 digits are read four at a time from a table
    of "0000" to "9999", and each run of equal decimal exponents places its
    point, and its leading "0." and zeros below 1, with column slices.
    """
    n = len(x)
    bits = x.view(np.uint64)
    fraction = bits & _MANTISSA
    m4 = (fraction | (1 << 52)) << 2
    e = (bits >> 52).astype(np.int64) - 1075
    s = 16 - np.floor(np.log10(x)).astype(np.int64)
    w, _ = _mul_shift(m4, _POW5[s], (2 - e - s).astype(np.uint64))
    s += (w < 10**16).astype(np.int64) - (w >= 10**17)
    t = (2 - e - s).astype(np.uint64)
    five = _POW5[s]
    w, f = _mul_shift(m4, five, t)
    low, _ = _mul_shift(m4 - 2 + (fraction == 0), five, t)
    high, rest = _mul_shift(m4 + 2, five, t)
    high += rest != 0
    # The integers strictly inside (L, H) are low + 1 to high - 1. Each pass
    # keeps the rows whose interval still holds a multiple of 10**j.
    level = np.zeros(n, dtype=np.int64)
    rows, a, b = np.arange(n), low, high - 1
    while len(rows):
        a, b = a // 10, b // 10
        keep = np.flatnonzero(b > a)
        rows, a, b = rows[keep], a[keep], b[keep]
        level[rows] += 1
    p = _POW10[level]
    q = w // p
    # 2 (w - q p) - p has the sign of 2 f - d 2**t, with d = p - 2 (w - q p).
    d = p.astype(np.int64) - 2 * (w - q * p).astype(np.int64)
    half = 1 << (t - 1)
    ceil_nearer = (d < 0) | ((d == 0) & (f != 0)) | ((d == 1) & (f > half))
    tie = ((d == 0) & (f == 0)) | ((d == 1) & (f == half))
    floor_in = q * p > low
    ceil_in = (q + 1) * p < high
    digits = (q + (ceil_in & (~floor_in | ceil_nearer | (tie & (q % 2 == 1))))) * p
    exp = 16 - s
    # The digit words: the leading digit, then four words of four.
    lead = digits // 10**16
    tail = digits - lead * 10**16
    halves = np.empty((n, 2), dtype=np.uint32)
    halves[:, 0] = tail // 10**8
    halves[:, 1] = tail - halves[:, 0].astype(np.uint64) * 10**8
    words = np.empty((n, 6), dtype=np.uint32)
    words[:, 0] = _DIGITS4[0]
    words[:, 1] = _DIGITS4[lead]
    upper = halves // 10**4
    words[:, 2::2] = _DIGITS4[upper]
    words[:, 3::2] = _DIGITS4[halves - upper * 10**4]
    src = words.view(np.uint8)
    text = np.zeros((n, _WIDTH), dtype=np.uint8)
    starts = [*np.flatnonzero(packed.heads(exp)).tolist(), n]
    for lo, hi in zip(starts, starts[1:]):
        k = int(exp[lo])
        point, first = max(k, 0) + 1, _LEAD + min(k, 0)
        text[lo:hi, :point] = src[lo:hi, first : first + point]
        text[lo:hi, point] = ord(".")
        tail_cols = src[lo:hi, first + point :]
        text[lo:hi, point + 1 : point + 1 + tail_cols.shape[1]] = tail_cols
    length = np.maximum(17 - level + np.maximum(-exp, 0), np.maximum(exp, 0) + 2) + 1
    text.view(np.uint64)[...] &= _KEEP[length]
    width = int(length.max())
    return np.ascontiguousarray(text[:, :width]).view(f"S{width}").ravel()


def _repr_text(x: np.ndarray) -> np.ndarray:
    return np.array(list(map(repr, x.tolist())), dtype="S")


def _texts(values: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The repr of each float of ``values``, whose run [start, stop) is the
    band of ``shortest_text`` and whose other values are outside it, as a
    zero-padded bytes table of the itemsize of its longest text. Formats at
    most ``TEXT_BLOCK`` values at a time, each block wholly inside the band
    (``shortest_text``) or outside it (``repr``)."""
    n = len(values)
    cuts = sorted({0, start, stop, n, *range(0, n, TEXT_BLOCK)})
    return np.concatenate([
        (shortest_text if start <= lo < stop else _repr_text)(values[lo:hi])
        for lo, hi in zip(cuts, cuts[1:])
    ])


def text_table(values: np.ndarray):
    """The repr of each distinct float, formatted once, as a zero-padded
    bytes table, and each value's uint32 row in it.

    Values are told apart by their bits, so -0.0 and 0.0 keep their own
    text; one sort finds them (np.unique hashes int64, see packed.distinct),
    and leaves the band of ``shortest_text`` as one run of rows, which
    ``_texts`` formats once the sort's temporaries are freed. The table's
    rows are in the order of the values' bits, which for positive floats is
    their order.
    """
    bits = values.view(np.int64)
    order = bits.argsort()
    ordered = bits[order]
    first = packed.heads(ordered)
    del ordered
    rows = np.cumsum(first, dtype=np.uint32)
    rows -= 1
    codes = np.empty(len(values), dtype=np.uint32)
    codes[order] = rows
    distinct = values[order[first]]
    del order, first, rows
    return _texts(distinct, *distinct.view(np.int64).searchsorted(BAND).tolist()), codes


def ratio_table(lengths: np.ndarray, bounds: np.ndarray, bound_codes: np.ndarray):
    """The repr of each ratio length / bound, as a zero-padded bytes table,
    and each row's uint32 row in it, for nondecreasing ``lengths`` and
    positive ``bounds`` whose ``text_table`` rows are ``bound_codes``.

    No sort: the rows of one length (a sphere of the ball) are one run, and
    the sphere's ratios l / b fall as b rises, since correctly rounded
    division is monotone. So the sphere's distinct bounds, in the order of
    their bound rows, give its ratios in falling order: a mask over the
    sphere's span of bound rows marks them, and its running count is each
    row's ratio row. In that order the band of ``shortest_text`` is one run,
    cut off by counting the ratios above and below it. Two distinct bounds
    that give one ratio only give its text twice.
    """
    codes = np.empty(len(lengths), dtype=np.uint32)
    tables = []
    at = 0
    edges = [*np.flatnonzero(packed.heads(lengths)).tolist(), len(lengths)]
    for lo, hi in zip(edges, edges[1:]):
        sphere = bound_codes[lo:hi]
        least = sphere.min()
        span = sphere - least
        used = np.zeros(int(span.max()) + 1, dtype=bool)
        used[span] = True
        # One value per bound row of the span, so each distinct bound appears once.
        distinct = np.empty(len(used))
        distinct[span] = bounds[lo:hi]
        ratios = np.divide(float(lengths[lo]), distinct[used])
        del distinct
        rank = np.cumsum(used, dtype=np.uint32)
        rank -= 1  # the span's first row is used, so no count is 0
        rank += at
        np.take(rank, span, out=codes[lo:hi])
        del span, used, rank
        bits = ratios.view(np.int64)
        above, below = np.count_nonzero(bits >= BAND[1]), np.count_nonzero(bits < BAND[0])
        tables.append(_texts(ratios, int(above), len(ratios) - int(below)))
        at += len(ratios)
    return np.concatenate(tables), codes


def write_qi_csvs(outdir: Path, rep: suspension.QiReport, sizes: dict):
    """``qi_r<R>.csv`` for each radius R in ``sizes``: the first sizes[R]
    rows (length, bound, ratio) of ``rep``, byte for byte as csv.writer
    writes them: ints and float reprs, comma separated and CRLF terminated.

    The bound text table and then, from its rows, the ratio text table are
    built in this process, one after the other. A block of
    ``packed.BLOCK_KEYS`` rows is gathered from the text tables of its three
    columns straight into a preallocated buffer of fixed-width, NUL-padded
    rows whose commas and CRLF are filled in once, and the block drops its
    padding at once. The rows are
    assembled once, for the largest file: every smaller file is a byte
    prefix of it, cut where the byte lengths of its rows add up to its last
    row.
    """
    lengths = rep.lengths
    longest = int(lengths.max())
    columns = {
        # Sized to the longest length's digits: astype("S") alone gives S21.
        "length": (np.arange(longest + 1).astype(f"S{len(str(longest))}"), lengths),
        "bound": text_table(rep.bounds),
    }
    columns["ratio"] = ratio_table(lengths, rep.bounds, columns["bound"][1])
    rows = np.empty(packed.BLOCK_KEYS, dtype=[
        ("length", columns["length"][0].dtype), ("comma0", "S1"),
        ("bound", columns["bound"][0].dtype), ("comma1", "S1"),
        ("ratio", columns["ratio"][0].dtype), ("eol", "S2"),
    ])
    rows["comma0"] = rows["comma1"] = b","
    rows["eol"] = b"\r\n"
    with contextlib.ExitStack() as stack:
        files = [
            (n, stack.enter_context((outdir / f"qi_r{r}.csv").open("wb")))
            for r, n in sizes.items()
        ]
        for _, fh in files:
            fh.write(b"word_length,bound,ratio\r\n")
        top = max(sizes.values())
        for lo in range(0, top, packed.BLOCK_KEYS):
            m = min(top - lo, packed.BLOCK_KEYS)
            for field, (table, codes) in columns.items():
                np.take(table, codes[lo : lo + m], out=rows[field][:m])
            joined = rows[:m].view(np.uint8)
            data = joined[joined != 0]
            for n, fh in files:
                if n >= lo + m:
                    fh.write(data)
                elif n > lo:
                    fh.write(data[: np.count_nonzero(joined[: (n - lo) * rows.itemsize])])
            # Freed before the next block is built, so that the arrays of
            # one block at a time are alive.
            del data
