"""Check the column-sum norms of qi-compare's bounds against
``np.linalg.norm`` on seeded random data, bit for bit.

    PYTHONPATH=src python tests/norm_sweep.py SEED COUNT

Draws COUNT datasets. A dataset is n (log-uniform in 1..200,000, so odd
counts and several blocks occur) rows of d = 2..7 float coordinates of up
to 10^j, projected by a random d x d matrix. Exits 1 at the first dataset
whose norms differ in any bit, printing the seed, the dataset's index and
both norms.
"""

from __future__ import annotations

import sys

import numpy as np

from unstretch import packed
from unstretch.suspension import _projected_norms


def log_uniform(rng: np.random.Generator, lo: int, hi: int) -> int:
    return int(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def norm_dataset(rng: np.random.Generator):
    n, d = log_uniform(rng, 1, 200_000), int(rng.integers(2, 8))
    reach = 10 ** int(rng.integers(1, 10))
    xs = rng.integers(-reach, reach + 1, size=(n, d)).astype(float)
    return xs, rng.normal(size=(d, d))


def linalg_norms(xs: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(axis=1)`` of the gemm products ``_projected_norms``
    forms: blocks of ``packed.BLOCK_KEYS`` rows, an odd count padded."""
    n = len(xs)
    if n % 2:
        xs = np.concatenate([xs, np.zeros((1, xs.shape[1]))])
    return np.concatenate([np.zeros(0)] + [
        np.linalg.norm(xs[lo : lo + packed.BLOCK_KEYS] @ proj.T, axis=1)
        for lo in range(0, len(xs), packed.BLOCK_KEYS)
    ])[:n]


def differs(got: np.ndarray, want: np.ndarray) -> bool:
    return not np.array_equal(got.view(np.int64), want.view(np.int64))


def main(argv: list[str]) -> int:
    seed, count = map(int, argv)
    rng = np.random.default_rng(seed)
    for i in range(count):
        xs, proj = norm_dataset(rng)
        got, want = _projected_norms(xs, proj), linalg_norms(xs, proj)
        if differs(got, want):
            j = int(np.flatnonzero(got != want)[0])
            print(f"seed {seed}: norms {i} ({xs.shape[0]} rows, d = {xs.shape[1]}) give "
                  f"{got[j].item()!r} at row {j}, np.linalg.norm gives {want[j].item()!r}")
            return 1
    print(f"seed {seed}: {count} norm sets equal np.linalg.norm")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
