"""qi-compare's CSV writer: ``qi_r<R>.csv`` as bytes, equal to csv.writer's.

csv.writer formats a float with ``repr``, about 1 us per float through
bignums. Here the rows of one length l (a sphere of the ball, one run in
breadth-first order) are told apart by their bound alone, so each row text
``l,bound,ratio`` depends only on (sphere, bound). One sort of each
sphere's bound bits gives its distinct bounds in order and each row's code;
each distinct bound and its ratio l / b is formatted once per sphere, those
in the band of ``shortest_text`` (positive, 1e-4 <= x < 2**50, where
``repr`` prints fixed notation) by a numpy kernel that computes ``repr``'s
digits exactly with uint64 arithmetic, a whole block of values per numpy
call; ``repr`` formats only the few values outside the band, such as the
identity row's ratio 0.0. Each sphere's whole-row texts make one table
(``row_tables``), and the files are written by gathering whole rows from
them.
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


def row_tables(lengths: np.ndarray, bounds: np.ndarray):
    """The text ``l,bound,ratio`` and CRLF of each distinct (length, bound)
    row, as one NUL-padded uint8 table of whole rows per sphere, for
    nondecreasing ``lengths`` and positive ``bounds``: each row's uint32 row
    in its sphere's table, and (start, stop, table) for each sphere, the run
    of rows of one length l.

    One sort of the sphere's bound bits (so -0.0 and 0.0 would keep their
    own text) gives its distinct bounds in order, and each row's rank among
    them is its code. The sphere's ratios l / b fall as b rises, since
    correctly rounded division is monotone, so in both columns the band of
    ``shortest_text`` is one run, cut off by counting the values above and
    below it. A bound in two spheres is formatted in each, and two distinct
    bounds that give one ratio give its text twice. The sphere's texts are
    copied into its table column slice by column slice and dropped before
    the next sphere is formatted; a field's NUL padding stays inside the
    row, and each table is as wide as its own longest texts.
    """
    codes = np.empty(len(lengths), dtype=np.uint32)
    spheres = []
    edges = [*np.flatnonzero(packed.heads(lengths)).tolist(), len(lengths)]
    for lo, hi in zip(edges, edges[1:]):
        bits = bounds[lo:hi].view(np.int64)
        order = bits.argsort()
        ordered = bits[order]
        first = packed.heads(ordered)
        rank = np.cumsum(first, dtype=np.uint32)
        rank -= 1
        codes[lo:hi][order] = rank
        distinct = ordered[first].view(np.float64)
        del order, ordered, first, rank
        ratios = np.divide(float(lengths[lo]), distinct)
        ratio_bits = ratios.view(np.int64)
        above = int(np.count_nonzero(ratio_bits >= BAND[1]))
        below = int(np.count_nonzero(ratio_bits < BAND[0]))
        head = f"{int(lengths[lo])},".encode()
        bound = _texts(distinct, *distinct.view(np.int64).searchsorted(BAND).tolist())
        ratio = _texts(ratios, above, len(ratios) - below)
        del distinct, ratios, ratio_bits
        comma = len(head) + bound.itemsize
        table = np.empty((len(bound), comma + ratio.itemsize + 3), dtype=np.uint8)
        table[:, : len(head)] = np.frombuffer(head, dtype=np.uint8)
        table[:, len(head) : comma] = bound.view(np.uint8).reshape(len(table), -1)
        table[:, comma] = ord(",")
        table[:, comma + 1 : -2] = ratio.view(np.uint8).reshape(len(table), -1)
        table[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
        del bound, ratio
        spheres.append((lo, hi, table))
    return codes, spheres


def write_qi_csvs(outdir: Path, rep: suspension.QiReport, sizes: dict):
    """``qi_r<R>.csv`` for each radius R in ``sizes``: the first sizes[R]
    rows (length, bound, ratio) of ``rep``, byte for byte as csv.writer
    writes them: ints and float reprs, comma separated and CRLF terminated.

    The ``row_tables`` of ``rep`` are built before any file is opened.
    Blocks of at most ``packed.BLOCK_KEYS // 4`` rows of one sphere are
    gathered from its table with one ``np.take`` of whole rows into one
    preallocated buffer, and each block drops its NUL padding at once. The
    rows are assembled once, for the largest file: every smaller file is a
    byte prefix of it, cut where the byte lengths of its rows add up to its
    last row.
    """
    codes, spheres = row_tables(rep.lengths, rep.bounds)
    block = packed.BLOCK_KEYS // 4
    buffer = np.empty(block * max(table.shape[1] for *_, table in spheres), dtype=np.uint8)
    with contextlib.ExitStack() as stack:
        files = [
            (n, stack.enter_context((outdir / f"qi_r{r}.csv").open("wb")))
            for r, n in sizes.items()
        ]
        for _, fh in files:
            fh.write(b"word_length,bound,ratio\r\n")
        top = max(sizes.values())
        for start, stop, table in spheres:
            width = table.shape[1]
            for lo in range(start, min(stop, top), block):
                m = min(stop, top, lo + block) - lo
                joined = buffer[: m * width]
                np.take(table, codes[lo : lo + m], axis=0, out=joined.reshape(m, width))
                data = joined[joined != 0]
                for n, fh in files:
                    if n >= lo + m:
                        fh.write(data)
                    elif n > lo:
                        fh.write(data[: np.count_nonzero(joined[: (n - lo) * width])])
                # Freed before the next block is built, so that the arrays of
                # one block at a time are alive.
                del data
