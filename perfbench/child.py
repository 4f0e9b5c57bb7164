"""One benchmark run of a workload, in its own process.

    python3 perfbench/child.py PLAN.json

The plan names the source tree, the configs with their seed and output
directories, a mode and a result file. Each config goes through the CLI entry
point exactly as ``unstretch run --config C --seed N --output-dir D`` would run
it. The child records on the system-wide monotonic clock when the first
``prepare()`` returns and when the last outputs are written, and exits with the
CLI's exit code. A speed probe (``speed.py``) samples the host's speed
throughout, and the result file carries its rescaling factor. Modes:

- ``plain``: no instrumentation beyond those two timestamps;
- ``traced``: public functions of every layer are wrapped where their callers
  look them up; spans and counts stay in memory and go to the result file at
  the end;
- ``setup``: load the config and ``prepare()`` it, the CLI's set-up, and stop.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import time
from collections import defaultdict

from speed import SpeedProbe

clock = time.monotonic


def _resident_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Tracer:
    """Spans at layer boundaries, plus counts and busy time of hot calls.

    A span is [name, start, end, parent index]; all spans of one process share
    the tracer's run id. Calls too frequent for a span each (group products,
    lookups, box tests) are counted, and some timed, at the same boundary.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.times: dict = defaultdict(float)
        self._stack: list = []

    def span(self, name, fn, on_return=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if on_return is not None:
                for key, value in on_return(args, kwargs, result).items():
                    counts[key] += value
            return result

        return wrapper

    def timed(self, name, fn):
        counts, times = self.counts, self.times
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] += clock() - t0
                counts[calls] += 1

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def oracle_lookup(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["words.oracle.lookups"] += 1
            if result is not None:
                counts["words.oracle.hits"] += 1
            return result

        return wrapper

    def ball_with_rss(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            before = _resident_bytes()
            oracle = fn(*args, **kwargs)
            counts["words.word_ball.rss_growth_bytes"] += _resident_bytes() - before
            counts["words.word_ball.elements"] += len(oracle)
            return oracle

        return wrapper

    def install(self):
        """Wrap the layers' public functions in every module that names them."""
        from unstretch import experiments, group, matrices, words
        from unstretch import autos, config, dynamics, lyapunov, suspension

        def patch_function(module, attr, make):
            original = getattr(module, attr)
            wrapped = make(original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("unstretch"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

        def patch_method(cls, attr, make):
            setattr(cls, attr, make(getattr(cls, attr)))

        def length_of(key):
            return lambda args, kwargs, result: {key: len(result)}

        def checked(args, kwargs, report):
            return {"words.inclusion.checks": report.checked}

        def steps(args, kwargs, result):
            return {"lyapunov.orbit_steps": kwargs.get("n", args[3] if len(args) > 3 else 0)}

        span = self.span
        patch_function(config, "load_config", lambda f: span("config.load_config", f))
        patch_function(experiments, "prepare", lambda f: span("experiments.prepare", f))
        for name, info in list(experiments.REGISTRY.items()):
            experiments.REGISTRY[name] = dataclasses.replace(
                info, runner=span("experiments.runner", info.runner)
            )
        patch_function(words, "word_ball",
                       lambda f: span("words.word_ball", self.ball_with_rss(f)))
        patch_method(words.WordLengthOracle, "restricted",
                     lambda f: span("words.restricted", f))
        patch_method(words.WordLengthOracle, "word_length", self.oracle_lookup)
        patch_function(words, "set_diameter", lambda f: span("words.set_diameter", f))
        patch_function(words, "neighborhood", lambda f: span(
            "words.neighborhood", f, length_of("words.neighborhood.elements")))
        patch_method(words.BoxSet, "contains",
                     lambda f: self.timed("words.box_contains", f))
        patch_function(words, "sample_box", lambda f: span("words.sample_box", f))
        for module, attr in ((words, "check_box_inclusion_u1"),
                             (words, "check_box_inclusion_un"),
                             (dynamics, "check_box_inclusion_phi")):
            patch_function(module, attr,
                           lambda f: span("words.inclusion", f, checked))
        patch_method(group.GroupContext, "multiply",
                     lambda f: self.counted("group.multiply.calls", f))
        patch_method(group.GroupContext, "inverse",
                     lambda f: self.counted("group.inverse.calls", f))
        patch_function(matrices, "matvec",
                       lambda f: self.counted("matrices.matvec.calls", f))
        patch_function(autos, "apply_automorphism", lambda f: self.timed("autos.apply", f))
        patch_function(dynamics, "iterate_once", lambda f: span("dynamics.iterate_once", f))
        patch_function(dynamics, "run_iteration", lambda f: span("dynamics.run_iteration", f))
        patch_function(dynamics, "abelian_control",
                       lambda f: span("dynamics.abelian_control", f))
        patch_function(suspension, "qi_comparison",
                       lambda f: span("suspension.qi_comparison", f))
        patch_function(lyapunov, "finite_time_exponent",
                       lambda f: span("lyapunov.finite_time_exponent", f, steps))
        patch_function(lyapunov, "center_integral",
                       lambda f: span("lyapunov.center_integral", f))

    def summary(self, setup_end: float) -> dict:
        """Per-name calls, total and self seconds; top-level time after set-up."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict = {}
        after_setup = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            agg = by_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            if parent < 0 and start >= setup_end:
                after_setup += end - start
        return {
            "run_id": self.run_id,
            "spans": by_name,
            "counts": dict(self.counts),
            "times": dict(self.times),
            "top_level_after_setup_s": after_setup,
        }


def main(plan_path: str) -> int:
    probe = SpeedProbe()
    probe.start()
    try:
        return run_plan(plan_path, probe)
    finally:
        probe.factor()


def run_plan(plan_path: str, probe: SpeedProbe) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from unstretch import cli

    tracer = None
    if plan["mode"] == "traced":
        tracer = Tracer(plan["run_id"])
        tracer.install()
    prepared = []
    prepare = cli.prepare

    def marked_prepare(cfg):
        prep = prepare(cfg)
        prepared.append(clock())
        return prep

    cli.prepare = marked_prepare
    for run in plan["runs"]:
        if plan["mode"] == "setup":
            cfg = cli.load_config(run["config"])
            cfg.seed = run["seed"]
            cfg.output_dir = run["outdir"]
            cli.prepare(cfg)
            break
        code = cli.main([
            "run", "--config", run["config"], "--seed", str(run["seed"]),
            "--output-dir", run["outdir"],
        ])
        if code != 0:
            return code
    done = clock()
    result = {"prepared": prepared, "done": done, "speed": probe.factor()}
    if tracer is not None:
        result["trace"] = tracer.summary(prepared[0])
        result["spans"] = tracer.spans
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
