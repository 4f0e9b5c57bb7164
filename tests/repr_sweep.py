"""Check ``qicsv.shortest_text`` against ``repr`` on seeded random floats.

    PYTHONPATH=src python tests/repr_sweep.py SEED COUNT

Draws COUNT floats uniformly over the float64 bit patterns of the kernel's
band, 1e-4 <= x < 2**50 (log-uniform in value), a million at a time, each
million sorted as ``row_tables`` passes a sphere's bounds, and exits 1 at
the first value whose text differs from its ``repr``, printing the seed,
the value and both texts.
"""

from __future__ import annotations

import sys

import numpy as np

from unstretch import qicsv


def band_sample(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` floats of the band, sorted, as ``row_tables`` passes them."""
    return np.sort(rng.integers(*qicsv.BAND, count)).view(np.float64)


def mismatches(values: np.ndarray):
    """(value, kernel text, repr) for each value the kernel gets wrong."""
    for lo in range(0, len(values), qicsv.TEXT_BLOCK):
        block = values[lo : lo + qicsv.TEXT_BLOCK]
        got = qicsv.shortest_text(block)
        want = np.array(list(map(repr, block.tolist())), dtype="S")
        for i in np.flatnonzero(got != want).tolist():
            yield block[i].item(), got[i].decode(), want[i].decode()


def main(argv: list[str]) -> int:
    seed, count = map(int, argv)
    rng = np.random.default_rng(seed)
    for lo in range(0, count, 1 << 20):
        for value, got, want in mismatches(band_sample(rng, min(count - lo, 1 << 20))):
            print(f"seed {seed}: {value.hex()} gives {got!r}, repr gives {want!r}")
            return 1
    print(f"seed {seed}: {count} values equal their repr")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
