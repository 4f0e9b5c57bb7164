"""Check qi-compare's CSV writer against ``csv.writer`` on seeded random tables.

    PYTHONPATH=src python tests/qi_csv_sweep.py SEED COUNT

Draws COUNT tables of n rows (log-uniform in 1..100,000): nondecreasing uint8
lengths, some of them 0, and positive float bounds drawn with repeats from a
pool of 10**u, u uniform in -300..300 for a few and in -8..18 for the rest,
together with the float after each, which for some lengths gives the same
ratio. So ratios fall above, inside and below the band of
``qicsv.shortest_text`` (1e-4 <= x < 2**50), and bounds repeat within and
across lengths. Each table, as the two columns of a ``QiReport`` that the
writer reads, is written as the files of two radii, the whole table and the
rows up to a random length; exits 1 at the first file that differs from
csv.writer's bytes, printing the seed, the table's index and the first line
that differs.
"""

from __future__ import annotations

import csv
import io
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from unstretch import qicsv

HEADER = ["word_length", "bound", "ratio"]


def csv_bytes(lengths: np.ndarray, bounds: np.ndarray) -> bytes:
    """The rows (length, bound, length / bound) as csv.writer writes them."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(HEADER)
    writer.writerows(zip(lengths.astype(int).tolist(), bounds.tolist(),
                         (lengths / bounds).tolist()))
    return buf.getvalue().encode()


def log_uniform(rng: np.random.Generator, lo: int, hi: int) -> int:
    return int(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def table(rng: np.random.Generator):
    """Nondecreasing uint8 lengths and positive float bounds of one table."""
    n = log_uniform(rng, 1, 100_000)
    top = int(rng.integers(0, 256))
    lengths = np.sort(rng.integers(0, top + 1, n)).astype(np.uint8)
    size = log_uniform(rng, 1, n + 1)
    wide = rng.random(size) < 0.05
    pool = 10.0 ** np.where(wide, rng.uniform(-300, 300, size), rng.uniform(-8, 18, size))
    pool = np.concatenate([pool, np.nextafter(pool, np.inf)])
    return lengths, rng.choice(pool, n)


def first_difference(got: bytes, want: bytes) -> str:
    for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
        if a != b:
            return f"line {i}: {a!r}, csv.writer writes {b!r}"
    return f"{len(got.splitlines())} lines, csv.writer writes {len(want.splitlines())}"


def main(argv: list[str]) -> int:
    seed, count = map(int, argv)
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp)
        for i in range(count):
            lengths, bounds = table(rng)
            top = int(lengths[-1])
            mid = int(rng.integers(0, top + 1))
            sizes = {mid: int(lengths.searchsorted(mid, side="right")), top: len(lengths)}
            columns = SimpleNamespace(lengths=lengths, bounds=bounds)
            qicsv.write_qi_csvs(outdir, columns, sizes)
            for r, n in sizes.items():
                got = (outdir / f"qi_r{r}.csv").read_bytes()
                want = csv_bytes(lengths[:n], bounds[:n])
                if got != want:
                    print(f"seed {seed}: table {i} ({len(lengths)} rows), qi_r{r}.csv "
                          f"{first_difference(got, want)}")
                    return 1
    print(f"seed {seed}: {count} tables equal csv.writer's bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
