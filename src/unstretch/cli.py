"""Command-line entry point.

    unstretch run --config cfg.json [--seed N] [--output-dir DIR]
    unstretch list

Exit codes: 0 success, 2 validation failure (the violated precondition is
named, no output files are written, and the directories the run created are
removed), 3 budget exhaustion (partial outputs are flagged partial=true in
the summary), 4 internal certification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

from . import __version__
from .config import load_config
from .errors import BudgetError, CertificationError, ValidationError
from .experiments import REGISTRY, list_experiments, prepare


def _own_peak_kb() -> int:
    """The process's own peak RSS in kB: VmHWM from /proc/self/status, which
    execve resets, or ru_maxrss where that file is absent. Linux carries
    ru_maxrss across execve, so it can be the peak of whatever launched
    the run."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _write_summary(outdir: Path, payload: dict, started: float):
    """summary.json, with the run's wall time and peak RSS (the process's
    own peak, in MB: every run is one process) beside the verdicts."""
    payload["wall_time_s"] = time.perf_counter() - started
    payload["peak_rss_mb"] = _own_peak_kb() / 1024
    (outdir / "summary.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def _remove(created: list):
    """Remove the directories a run created, deepest first; rmdir refuses a
    directory written into."""
    for d in created:
        with contextlib.suppress(OSError):
            d.rmdir()


def run_command(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.output_dir is not None:
            cfg.output_dir = args.output_dir
        prep = prepare(cfg)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2

    outdir = Path(cfg.output_dir)
    created = [d for d in (outdir, *outdir.parents) if not d.exists()]
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"validation error: cannot create output directory {outdir}: "
              f"{exc.strerror}", file=sys.stderr)
        _remove(created)
        return 2
    summary = {
        "experiment": cfg.experiment,
        "version": __version__,
        "config": cfg.to_dict(),
        "partial": False,
        "verdicts": {},
    }
    started = time.perf_counter()
    try:
        summary["verdicts"] = REGISTRY[cfg.experiment].runner(prep, outdir)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        _remove(created)
        return 2
    except BudgetError as exc:
        summary["partial"] = True
        summary["error"] = str(exc)
        if exc.completed_radius is not None:
            summary["completed_radius"] = exc.completed_radius
        _write_summary(outdir, summary, started)
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except CertificationError as exc:
        summary["error"] = str(exc)
        _write_summary(outdir, summary, started)
        print(f"certification failure: {exc}", file=sys.stderr)
        return 4
    _write_summary(outdir, summary, started)
    print(f"{cfg.experiment}: ok ({outdir})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="unstretch",
        description="Exact group-growth experiments on lattice-by-cyclic groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a JSON config")
    runp.add_argument("--config", required=True, help="path to the JSON config")
    runp.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    runp.add_argument(
        "--output-dir", default=None, help="override the output directory"
    )
    sub.add_parser("list", help="list experiments, their config keys, emitted files")
    args = parser.parse_args(argv)
    if args.command == "list":
        sys.stdout.write(list_experiments())
        return 0
    return run_command(args)


if __name__ == "__main__":
    sys.exit(main())
