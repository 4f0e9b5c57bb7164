"""Throughput of the kernels the experiments are built on, in its own process.

    python3 perfbench/kernels.py SRC_DIR SEED RESULT.json

Each kernel runs on fixed inputs drawn from the seed through public functions
of the package. It is run once to warm caches, then timed REPEATS times; the
rate is the work of one pass divided by the median pass time. The result file
maps each metric name to its rate, with the speed probe's factor for
rescaling. Exit code 1 means a kernel's output was wrong.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

from speed import SpeedProbe

REPEATS = 5
INPUTS = 2000
BALL_RADIUS = 9
COCYCLE_STEPS = 2000


def rate(work, fn) -> float:
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return work / statistics.median(times)


def main(src: str, seed: int, result_path: str) -> int:
    probe = SpeedProbe()
    probe.start()
    try:
        return measure(src, seed, result_path, probe)
    finally:
        probe.factor()


def measure(src: str, seed: int, result_path: str, probe: SpeedProbe) -> int:
    sys.path.insert(0, src)
    import numpy as np

    from unstretch import dynamics, lyapunov
    from unstretch.autos import GroupAutomorphism, apply_automorphism
    from unstretch.group import GroupContext, GroupElement, ToralMatrix
    from unstretch.words import (
        BoxSet, GeneratingSet, choose_lambda, sample_box, word_ball,
    )

    cat = [[2, 1], [1, 1]]
    matrix = ToralMatrix(cat)
    ctx = GroupContext(matrix)
    gens = GeneratingSet.standard(2)
    rng = np.random.default_rng(seed)

    def elements(count, coord, k_max):
        xs = rng.integers(-coord, coord + 1, size=(count, 2))
        ks = rng.integers(-k_max, k_max + 1, size=count)
        return [GroupElement((int(a), int(b)), int(k)) for (a, b), k in zip(xs, ks)]

    out = {}
    failures = []

    left, right = elements(INPUTS, 10**6, 8), elements(INPUTS, 10**6, 8)
    pairs = list(zip(left, right))
    out["kernel.group_multiply.ops_per_s"] = rate(
        len(pairs), lambda: [ctx.multiply(g, h) for g, h in pairs])

    oracle = word_ball(ctx, gens, BALL_RADIUS)
    out["kernel.word_ball.elements_per_s"] = rate(
        len(oracle), lambda: word_ball(ctx, gens, BALL_RADIUS))
    table = list(oracle.elements())
    hits = [table[i] for i in rng.integers(0, len(table), size=INPUTS // 2)]
    # |k| bounds word length from below, so these are certified misses.
    misses = [GroupElement(g.x, BALL_RADIUS + 1 + abs(g.k)) for g in hits]
    queries = hits + misses
    rng.shuffle(queries)
    found = sum(oracle.word_length(g) is not None for g in queries)
    if found != len(hits):
        failures.append(f"oracle lookup found {found} of {len(hits)} hits")
    out["kernel.oracle_lookup.ops_per_s"] = rate(
        len(queries), lambda: [oracle.word_length(g) for g in queries])

    # The growth workload's automorphism, box scale and last envelope box.
    phi = GroupAutomorphism.from_parts(cat, [0, 0], 1)
    lam = choose_lambda(matrix, phi)
    a0 = {GroupElement((0, 0), 0), GroupElement((0, 0), 1), GroupElement((1, 0), 0)}
    it = dynamics.IterationConfig.make(ctx, phi, 1, a0, 8, lam)
    envelope = BoxSet(lam, it.ell0 + dynamics.envelope_offset(it.h0, 1, 8), it.h0 + 8)
    small = BoxSet(lam, 4, 4)
    inside = sample_box(rng, small, 2, INPUTS)
    if not all(small.contains(g) for g in inside):
        failures.append("sample_box returned an element outside its box")
    out["kernel.box_contains_small.ops_per_s"] = rate(
        len(inside), lambda: [small.contains(g) for g in inside])
    points = elements(INPUTS, 10**6, it.h0 + 8)
    if not all(envelope.contains(g) for g in points):
        failures.append("envelope box rejected a small element")
    out["kernel.box_contains_envelope.ops_per_s"] = rate(
        len(points), lambda: [envelope.contains(g) for g in points])

    sources = elements(INPUTS, 10**3, 8)
    out["kernel.apply_automorphism.ops_per_s"] = rate(
        len(sources), lambda: [apply_automorphism(ctx, phi, g) for g in sources])

    toy = lyapunov.shear_conjugated(matrix, [0.05])
    field = lyapunov.shear_conjugated_eigen(matrix, [0.05], "unstable")
    x0 = tuple(float(c) for c in rng.random(2))
    exponent = lyapunov.finite_time_exponent(toy, field, x0, COCYCLE_STEPS)
    if abs(exponent - math.log((3 + math.sqrt(5)) / 2)) > 1e-2:
        failures.append(f"cocycle exponent {exponent}")
    out["kernel.cocycle_step.ops_per_s"] = rate(
        COCYCLE_STEPS,
        lambda: lyapunov.finite_time_exponent(toy, field, x0, COCYCLE_STEPS))

    with open(result_path, "w") as fh:
        json.dump({"speed": probe.factor(), "rates": out}, fh)
    for message in failures:
        print(f"kernel check failed: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
