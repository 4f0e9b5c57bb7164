"""Benchmark of the unstretch experiments, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the directory holding ``src/unstretch``).
Each workload run is a child process that runs the workload's experiment
configs through the CLI entry point; runs go one at a time so that peak
memory belongs to one run and no run competes with another for the cores.
Every run's outputs are checked; a run that exits non-zero or fails its check
counts as failed.

Every time the benchmark reports is rescaled to the reference host speed:
the seconds measured in a child times that child's speed factor, which a
probe inside the child measures while it runs (see ``speed.py``). On a
shared 2-vCPU Intel Xeon host, raw medians of ten runs spread by 20 % while
rescaled ones spread by 2.5 to 3.5 %. The raw seconds and the factors are in
the detail line.

With ``--trace 0`` the benchmark makes SETUP_PROBES set-up-only runs, then
at least two workload runs, and more while they fit in S seconds, each after
one more set-up-only run. It reports the medians of

- ``wall_s``: child start to the last outputs written;
- ``setup_s``: child start to the first ``prepare()`` returning, which covers
  the imports, config load and every certificate ``prepare()`` computes,
  over the set-up-only and the workload runs;
- ``peak_rss_mb``: peak resident memory of the child (``ru_maxrss``).

With ``--trace 1`` it alternates plain and traced workload runs while they
fit in S seconds (at least one pair), then measures kernel rates once, and reports the
per-layer metrics of the traced runs (medians over pairs) together with the
tracing overhead, the traced minus the plain wall time, and the traced time
after set-up that no top-level span covers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
``{"detail": ...}``, holds sample counts, raw samples, the error rate and any
output problems. Exit code 2 means the tree holds no ``src/unstretch``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4
# Every run must end within 180 s: no child starts after this many seconds,
# and a child still running at it is killed and counts as failed.
DEADLINE_S = 165.0
POLL_S = 0.02

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "words.word_ball.s": "s",
    "words.word_ball.elements": "count",
    "words.word_ball.elements_per_s": "1/s",
    "words.oracle.bytes_per_element": "B",
    "words.restricted.s": "s",
    "words.oracle.lookups": "count",
    "words.oracle.hit_ratio": "ratio",
    "words.set_diameter.s": "s",
    "words.neighborhood.s": "s",
    "words.neighborhood.calls": "count",
    "words.neighborhood.elements": "count",
    "words.neighborhood.elements_per_s": "1/s",
    "words.box_contains.calls": "count",
    "words.box_contains.s": "s",
    "words.sample_box.s": "s",
    "words.inclusion.checks": "count",
    "words.inclusion.checks_per_s": "1/s",
    "group.multiply.calls": "count",
    "group.inverse.calls": "count",
    "matrices.matvec.calls": "count",
    "autos.apply.calls": "count",
    "autos.apply.s": "s",
    "dynamics.iterate_once.s": "s",
    "dynamics.iterate_once.calls": "count",
    "dynamics.iterate_once.s_per_step": "s",
    "dynamics.run_iteration.self_s": "s",
    "dynamics.abelian_control.s": "s",
    "suspension.qi_comparison.s": "s",
    "lyapunov.finite_time_exponent.s": "s",
    "lyapunov.orbit_steps": "count",
    "lyapunov.orbit_steps_per_s": "1/s",
    "lyapunov.center_integral.s": "s",
    "experiments.prepare.s": "s",
    "experiments.runner.self_s": "s",
    "kernel.group_multiply.ops_per_s": "1/s",
    "kernel.oracle_lookup.ops_per_s": "1/s",
    "kernel.box_contains_small.ops_per_s": "1/s",
    "kernel.box_contains_envelope.ops_per_s": "1/s",
    "kernel.apply_automorphism.ops_per_s": "1/s",
    "kernel.cocycle_step.ops_per_s": "1/s",
    "kernel.word_ball.elements_per_s": "1/s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.after_setup_untraced_s": "s",
    "trace.top_level_after_setup_s": "s",
    "trace.unaccounted_s": "s",
}


def run_process(argv: list, deadline: float) -> tuple:
    """Run argv to completion; return (exit code, peak RSS in MB).

    The child is reaped with wait4 so that its own rusage is read. A child
    still running at the deadline is killed and reported with exit code -9.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(POLL_S)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class Bench:
    """One benchmark run: a scratch directory, child runs and their records."""

    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.root = root
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.deadline = deadline
        self.scratch = HERE / ".runs" / f"{workload}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.configs = []
        self.scratch.mkdir(parents=True)
        for i, cfg in enumerate(self.workload.configs):
            path = self.scratch / f"config{i}.json"
            path.write_text(json.dumps(cfg, indent=2))
            self.configs.append(path)

    def _fail(self, label: str, problems: list):
        self.failed += 1
        self.problems.extend(f"{label}: {p}" for p in problems)

    def child(self, mode: str) -> dict | None:
        """One child run in mode plain, traced or setup; None if it failed."""
        self.attempted += 1
        label = f"{mode} run {self.attempted}"
        base = self.scratch / f"run{self.attempted}"
        base.mkdir()
        outs = [base / f"out{i}" for i in range(len(self.configs))]
        plan = {
            "src": str(self.root / "src"),
            "mode": mode,
            "run_id": f"{self.name}-{self.seed}-{self.attempted}",
            "result": str(base / "result.json"),
            "runs": [
                {"config": str(c), "seed": self.seed, "outdir": str(o)}
                for c, o in zip(self.configs, outs)
            ],
        }
        (base / "plan.json").write_text(json.dumps(plan))
        argv = [sys.executable, str(HERE / "child.py"), str(base / "plan.json")]
        spawned = time.monotonic()
        code, rss_mb = run_process(argv, self.deadline)
        try:
            if code != 0:
                self._fail(label, [f"exit code {code}"])
                return None
            result = json.loads((base / "result.json").read_text())
            if mode != "setup":
                problems = self.check(outs)
                if problems:
                    self._fail(label, problems)
                    return None
            speed = result["speed"]
            record = {
                "raw_setup_s": result["prepared"][0] - spawned,
                "raw_wall_s": result["done"] - spawned,
                "speed": speed,
                "peak_rss_mb": rss_mb,
            }
            record["setup_s"] = record["raw_setup_s"] * speed
            record["wall_s"] = record["raw_wall_s"] * speed
            if "trace" in result:
                record["trace"] = result["trace"]
            return record
        finally:
            shutil.rmtree(base)

    def check(self, outs: list) -> list:
        try:
            return self.workload.check(outs)
        except (OSError, ValueError, KeyError, IndexError, TypeError,
                StopIteration) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def kernels(self) -> dict:
        self.attempted += 1
        path = self.scratch / "kernels.json"
        argv = [sys.executable, str(HERE / "kernels.py"),
                str(self.root / "src"), str(self.seed), str(path)]
        code, _ = run_process(argv, self.deadline)
        if code != 0:
            self._fail("kernel run", [f"exit code {code}"])
            return {}
        result = json.loads(path.read_text())
        return {name: rate / result["speed"] for name, rate in result["rates"].items()}

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced run, from its span and count summary."""
    spans, counts, times = trace["spans"], trace["counts"], trace["times"]

    def total(name, key="s"):
        return spans.get(name, {}).get(key, 0.0)

    def per(num, den):
        return num / den if den else 0.0

    ball_elements = counts.get("words.word_ball.elements", 0)
    nbhd_elements = counts.get("words.neighborhood.elements", 0)
    checks = counts.get("words.inclusion.checks", 0)
    steps = counts.get("lyapunov.orbit_steps", 0)
    lookups = counts.get("words.oracle.lookups", 0)
    return {
        "words.word_ball.s": total("words.word_ball"),
        "words.word_ball.elements": ball_elements,
        "words.word_ball.elements_per_s": per(ball_elements, total("words.word_ball")),
        "words.oracle.bytes_per_element": per(
            counts.get("words.word_ball.rss_growth_bytes", 0), ball_elements),
        "words.restricted.s": total("words.restricted"),
        "words.oracle.lookups": lookups,
        "words.oracle.hit_ratio": per(counts.get("words.oracle.hits", 0), lookups),
        "words.set_diameter.s": total("words.set_diameter"),
        "words.neighborhood.s": total("words.neighborhood"),
        "words.neighborhood.calls": total("words.neighborhood", "calls"),
        "words.neighborhood.elements": nbhd_elements,
        "words.neighborhood.elements_per_s": per(
            nbhd_elements, total("words.neighborhood")),
        "words.box_contains.calls": counts.get("words.box_contains.calls", 0),
        "words.box_contains.s": times.get("words.box_contains", 0.0),
        "words.sample_box.s": total("words.sample_box"),
        "words.inclusion.checks": checks,
        "words.inclusion.checks_per_s": per(checks, total("words.inclusion")),
        "group.multiply.calls": counts.get("group.multiply.calls", 0),
        "group.inverse.calls": counts.get("group.inverse.calls", 0),
        "matrices.matvec.calls": counts.get("matrices.matvec.calls", 0),
        "autos.apply.calls": counts.get("autos.apply.calls", 0),
        "autos.apply.s": times.get("autos.apply", 0.0),
        "dynamics.iterate_once.s": total("dynamics.iterate_once"),
        "dynamics.iterate_once.calls": total("dynamics.iterate_once", "calls"),
        "dynamics.iterate_once.s_per_step": per(
            total("dynamics.iterate_once"), total("dynamics.iterate_once", "calls")),
        "dynamics.run_iteration.self_s": total("dynamics.run_iteration", "self_s"),
        "dynamics.abelian_control.s": total("dynamics.abelian_control"),
        "suspension.qi_comparison.s": total("suspension.qi_comparison"),
        "lyapunov.finite_time_exponent.s": total("lyapunov.finite_time_exponent"),
        "lyapunov.orbit_steps": steps,
        "lyapunov.orbit_steps_per_s": per(steps, total("lyapunov.finite_time_exponent")),
        "lyapunov.center_integral.s": total("lyapunov.center_integral"),
        "experiments.prepare.s": total("experiments.prepare"),
        "experiments.runner.self_s": total("experiments.runner", "self_s"),
    }


def repeat(step, start: float, seconds: float, deadline: float, at_least: int):
    """Call step() at least `at_least` times, then while the next call, if as
    long as the last one, would end within `seconds` of start."""
    done = 0
    while True:
        t0 = time.monotonic()
        step()
        done += 1
        now = time.monotonic()
        if now + (now - t0) > deadline:
            return
        if done >= at_least and now + (now - t0) > start + seconds:
            return


def measure_end_to_end(bench: Bench, seconds: float, start: float) -> tuple:
    samples = {name: [] for name in
               (*END_TO_END_UNITS, "raw_wall_s", "raw_setup_s", "speed")}

    def probe():
        rec = bench.child("setup")
        if rec:
            samples["setup_s"].append(rec["setup_s"])
            samples["raw_setup_s"].append(rec["raw_setup_s"])

    for _ in range(SETUP_PROBES):
        probe()

    def step():
        probe()
        rec = bench.child("plain")
        if rec:
            for name in samples:
                samples[name].append(rec[name])

    repeat(step, start, seconds, bench.deadline, at_least=2)
    metrics = {name: median(samples[name]) for name in END_TO_END_UNITS}
    return metrics, samples


def rescale(metrics: dict, speed: float) -> dict:
    """Times to reference-speed seconds, rates to reference-speed rates."""
    unit_power = {"s": 1, "1/s": -1}
    return {name: value * speed ** unit_power[PER_LAYER_UNITS[name]]
            if PER_LAYER_UNITS[name] in unit_power else value
            for name, value in metrics.items()}


def measure_layers(bench: Bench, seconds: float, start: float) -> tuple:
    plain, traced = [], []

    def step():
        a, b = bench.child("plain"), bench.child("traced")
        if a and b:
            plain.append(a)
            traced.append(b)

    repeat(step, start, seconds, bench.deadline, at_least=1)
    per_run = [rescale(layer_metrics(r["trace"]), r["speed"]) for r in traced]
    metrics = {name: median([m[name] for m in per_run])
               for name in (per_run[0] if per_run else {})}
    top_level = [r["trace"]["top_level_after_setup_s"] * r["speed"] for r in traced]
    untraced_wall = median([r["wall_s"] for r in plain])
    traced_wall = median([r["wall_s"] for r in traced])
    metrics.update({
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.after_setup_untraced_s": median(
            [r["wall_s"] - r["setup_s"] for r in plain]),
        "trace.top_level_after_setup_s": median(top_level),
        "trace.unaccounted_s": median(
            [r["wall_s"] - r["setup_s"] - t for r, t in zip(traced, top_level)]),
    })
    metrics.update(bench.kernels())
    samples = {"pairs": len(traced)}
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "unstretch" / "__init__.py").is_file():
        print(f"error: no src/unstretch under {root}; run from the source tree",
              file=sys.stderr)
        return 2
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    start = time.monotonic()
    bench = Bench(root, args.workload, args.seed, start + DEADLINE_S)
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, samples = measure(bench, args.seconds, start)
    finally:
        bench.close()
    missing = sorted(set(units) - set(metrics))
    if missing and not bench.failed:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_changes_inputs": bench.workload.seed_changes_inputs,
        "error_rate": bench.failed / bench.attempted,
        "samples": samples,
        "problems": bench.problems,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
