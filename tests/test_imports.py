"""What a run loads: each experiment imports only the modules it uses, and the
package's names load on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unstretch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every name `from unstretch import ...` has offered since the seed.
EXPORTED = (
    "BoxSet", "BudgetError", "CAT_MAP", "CertificationError", "Diameter",
    "GeneratingSet", "GroupAutomorphism", "GroupContext", "GroupElement",
    "GrowthCurve", "GrowthVerdict", "HyperbolicSplitting", "IterationConfig",
    "ToralMatrix", "UnstretchError", "ValidationError", "WordLengthOracle",
    "abelian_control", "apply_automorphism", "check_hyperbolic", "choose_lambda",
    "classify_growth", "compute_splitting", "enumerate_commuting_matrices",
    "envelope_offset", "identity_element", "iterate_once", "lattice_element",
    "log_distance_bounds", "neighborhood", "qi_comparison", "run_iteration",
    "set_diameter", "validate_automorphism", "word_ball", "z_element",
)

LOADED = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def loaded_modules(code: str) -> set:
    """The modules a fresh interpreter has loaded after running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{LOADED}"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_by_run(config: str, outdir: Path) -> set:
    return loaded_modules(
        "from unstretch import cli\n"
        f"assert cli.main(['run', '--config', {config!r}, '--output-dir', {str(outdir)!r}]) == 0"
    )


def test_importing_the_package_loads_no_submodule():
    assert not {m for m in loaded_modules("import unstretch") if m.startswith("unstretch.")}


def test_birkhoff_loads_no_word_metric_module(tmp_path):
    loaded = loaded_by_run("configs/birkhoff.json", tmp_path / "out")
    unused = {f"unstretch.{m}" for m in
              ("words", "oracle", "packed", "dynamics", "suspension", "qicsv")}
    assert "unstretch.lyapunov" in loaded
    assert not loaded & unused


@pytest.mark.parametrize("config", ["set-dynamics", "abelian-control", "qi-compare"])
def test_exact_experiments_load_no_randomness_and_no_lyapunov(tmp_path, config):
    loaded = loaded_by_run(f"configs/{config}.json", tmp_path / "out")
    assert "unstretch.experiments" in loaded
    assert not loaded & {"numpy.random", "unstretch.lyapunov"}


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(unstretch)
    for name in EXPORTED:
        assert name in listed
        value = getattr(unstretch, name)
        if name != "CAT_MAP":
            assert value is getattr(sys.modules[value.__module__], name)
    namespace = {}
    exec(f"from unstretch import {', '.join(EXPORTED)}", namespace)
    assert set(EXPORTED) <= set(namespace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        unstretch.no_such_name
    with pytest.raises(ImportError):
        exec("from unstretch import no_such_name", {})
