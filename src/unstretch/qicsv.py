"""qi-compare's CSV writer: ``qi_r<R>.csv`` as bytes, equal to csv.writer's.

``repr`` costs about 1 us per float, whatever formats it, so each distinct
float is formatted once, and the two float columns are formatted at the same
time on two cores: a forked worker builds the ratio table while the parent
builds the bound table.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

import numpy as np

from . import packed, suspension


def text_table(values: np.ndarray):
    """The repr of each distinct float, formatted once, as a zero-padded
    bytes table, and each value's uint32 row in it.

    Values are told apart by their bits, so -0.0 and 0.0 keep their own
    text; one sort finds them (np.unique hashes int64, see packed.distinct).
    The sort's temporaries are freed before formatting, and repr runs on
    ``packed.BLOCK_KEYS`` distinct values at a time, so one batch of Python
    strings is alive at once.
    """
    bits = values.view(np.int64)
    order = bits.argsort()
    ordered = bits[order]
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    del ordered
    rows = np.cumsum(first, dtype=np.uint32)
    rows -= 1
    codes = np.empty(len(values), dtype=np.uint32)
    codes[order] = rows
    distinct = values[order[first]]
    del order, first, rows
    table = np.concatenate([
        np.array(list(map(repr, distinct[lo : lo + packed.BLOCK_KEYS].tolist())), dtype="S")
        for lo in range(0, len(distinct), packed.BLOCK_KEYS)
    ])
    return table, codes


def _read_exactly(pipe, array: np.ndarray):
    got = pipe.readinto(array.view(np.uint8))
    if got != array.nbytes:
        raise RuntimeError(f"text-table worker sent {got} of {array.nbytes} bytes")


def _bound_and_ratio_tables(rep: suspension.QiReport):
    """``text_table`` of the bounds and of the ratios of ``rep``, built at
    the same time on two cores.

    A forked worker builds the ratio table and writes its row count, item
    size, table and uint32 codes to a pipe; the parent builds the bound
    table meanwhile, then reads the ratio table with ``readinto`` straight
    into preallocated arrays. A short read or a nonzero exit status raises
    RuntimeError, and the worker is killed and reaped whenever the parent
    raises.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # The worker never returns into its caller's stack: whatever happens,
        # it leaves through os._exit, with status 0 only once all is sent.
        # It calls no BLAS routine, so the BLAS threads of the parent, which
        # a fork does not copy, are never waited for.
        status = 1
        try:
            os.close(read_fd)
            table, codes = text_table(rep.ratios)
            with open(write_fd, "wb") as pipe:
                pipe.write(np.array([len(table), table.itemsize], dtype=np.int64))
                pipe.write(table)
                pipe.write(codes)
            status = 0
        except Exception:
            import traceback

            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    reaped = False
    try:
        with open(read_fd, "rb") as pipe:
            bounds = text_table(rep.bounds)
            head = np.empty(2, dtype=np.int64)
            _read_exactly(pipe, head)
            count, itemsize = head.tolist()
            ratios = (
                np.empty(count, dtype=f"S{itemsize}"),
                np.empty(rep.n_entries, dtype=np.uint32),
            )
            for array in ratios:
                _read_exactly(pipe, array)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if status:
            raise RuntimeError(f"text-table worker exited with status {status}")
    finally:
        if not reaped:
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return bounds, ratios


def write_qi_csvs(outdir: Path, rep: suspension.QiReport, sizes: dict):
    """``qi_r<R>.csv`` for each radius R in ``sizes``: the first sizes[R]
    rows (length, bound, ratio) of ``rep``, byte for byte as csv.writer
    writes them: ints and float reprs, comma separated and CRLF terminated.

    The bound and ratio text tables are built on two cores: a forked worker
    builds the ratio table and sends it through a pipe, which the parent
    reads with ``readinto`` into preallocated arrays once it has built the
    bound table (``_bound_and_ratio_tables``). Each row is gathered
    from the text tables of its three columns into a fixed-width, NUL-padded
    byte row; a block of ``packed.BLOCK_KEYS`` rows drops its padding at
    once. The rows are assembled once, for the largest file: every smaller
    file is a byte prefix of it, cut where the byte lengths of its rows add
    up to its last row.
    """
    lengths = rep.lengths
    columns = [
        (np.arange(int(lengths.max()) + 1).astype("S"), lengths),
        *_bound_and_ratio_tables(rep),
    ]
    block = packed.BLOCK_KEYS
    sep = np.full((block, 1), ord(","), dtype=np.uint8)
    eol = np.tile(np.frombuffer(b"\r\n", dtype=np.uint8), (block, 1))
    with contextlib.ExitStack() as stack:
        files = [
            (n, stack.enter_context((outdir / f"qi_r{r}.csv").open("wb")))
            for r, n in sizes.items()
        ]
        for _, fh in files:
            fh.write(b"word_length,bound,ratio\r\n")
        top = max(sizes.values())
        for lo in range(0, top, block):
            m = min(top - lo, block)
            pieces = []
            for table, codes in columns:
                text = table[codes[lo : lo + m]]
                pieces += [text.view(np.uint8).reshape(m, -1), sep[:m]]
            pieces[-1] = eol[:m]
            joined = np.hstack(pieces)
            data = joined[joined != 0]
            for n, fh in files:
                if n >= lo + m:
                    fh.write(data)
                elif n > lo:
                    fh.write(data[: np.count_nonzero(joined[: n - lo])])
            # Freed before the next block is built, so that the arrays of
            # one block at a time are alive.
            del pieces, text, joined, data
