import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from unstretch import (
    GeneratingSet,
    GroupContext,
    ToralMatrix,
    compute_splitting,
    qi_comparison,
    word_ball,
)
import unstretch
from unstretch import dynamics, packed, qicsv, words
from unstretch.cli import main
from unstretch.config import COMMON_KEYS, EXPERIMENT_NAMES, ExperimentConfig, load_config
from unstretch.errors import CertificationError, int_text
from unstretch.experiments import REGISTRY, ExperimentInfo, list_experiments, prepare

import qi_csv_sweep
import repr_sweep

CAT = [[2, 1], [1, 1]]


def write_cfg(tmp_path, name, data) -> Path:
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(data))
    return p


def run_cli(cfgpath, *extra):
    return main(["run", "--config", str(cfgpath), *extra])


def read_summary(outdir):
    return json.loads((Path(outdir) / "summary.json").read_text())


def test_list_has_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENT_NAMES:
        assert name in out
    assert out == list_experiments()
    assert len(EXPERIMENT_NAMES) == 9


def test_ball_census_row(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "census", {
        "experiment": "ball-census", "matrix": CAT,
        "bfs_radius": 3, "output_dir": str(out),
    })
    assert run_cli(cfg) == 0
    lines = (out / "census.csv").read_text().splitlines()
    assert lines[0] == "radius,ball_size,sphere_size"
    assert lines[1] == "0,1,1"
    assert lines[2] == "1,7,6"
    summary = read_summary(out)
    assert summary["verdicts"]["ball_size"] == 103
    assert summary["partial"] is False
    assert summary["config"]["matrix"] == CAT


def test_word_length_experiment(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "wl", {
        "experiment": "word-length", "matrix": CAT, "bfs_radius": 4,
        "elements": [[[1, 1], 0], [[2, 1], 1], [[500, 0], 0]],
        "output_dir": str(out),
    })
    assert run_cli(cfg) == 0
    rows = (out / "word_lengths.csv").read_text().splitlines()
    assert rows[1] == "1,1,0,exact,2"
    assert rows[2] == "2,1,1,exact,2"
    assert rows[3].startswith("500,0,0,gt_radius")


def test_word_length_requires_elements(tmp_path):
    cfg = write_cfg(tmp_path, "wl2", {
        "experiment": "word-length", "matrix": CAT,
        "output_dir": str(tmp_path / "o"),
    })
    assert run_cli(cfg) == 2
    assert not (tmp_path / "o").exists()


def test_word_length_elements_are_parsed_before_the_ball_is_built(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(words, "word_ball", lambda *a, **k: pytest.fail("ran"))
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "wl", {
        "experiment": "word-length", "matrix": CAT, "bfs_radius": 14,
        "elements": [[[1, 1], 0], [[1], 0]], "output_dir": str(out),
    })
    assert run_cli(cfg) == 2
    assert "has dimension 1" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_matrix_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "nope"
    for matrix in ([[2, 1, 0], [1, 1]], [[2, True], [1, 1]], [[2, 1.5], [1, 1]], [5]):
        cfg = write_cfg(tmp_path, "bad", {
            "experiment": "ball-census", "matrix": matrix,
            "output_dir": str(out),
        })
        assert run_cli(cfg) == 2
        assert "config key 'matrix': " in capsys.readouterr().err
        assert not out.exists()


def test_non_finite_shear_coefficients_exit_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "nope"
    for experiment in ("lyapunov", "birkhoff"):
        for bad in (float("inf"), float("-inf"), float("nan")):
            cfg = write_cfg(tmp_path, "shear", {
                "experiment": experiment, "matrix": CAT,
                "map_kind": "shear_conjugated", "shear_coefficients": [0.05, bad],
                "output_dir": str(out),
            })
            assert run_cli(cfg) == 2
            assert "config key 'shear_coefficients' must hold finite numbers" in (
                capsys.readouterr().err)
            assert not out.exists()


def test_non_hyperbolic_matrix_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "rot", {
        "experiment": "ball-census", "matrix": [[0, 1], [-1, 0]],
        "output_dir": str(tmp_path / "o"),
    })
    assert run_cli(cfg) == 2


def test_budget_exhaustion_exits_3_with_partial_flag(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "tiny", {
        "experiment": "ball-census", "matrix": CAT, "bfs_radius": 6,
        "budget_elements": 20, "output_dir": str(out),
    })
    assert run_cli(cfg) == 3
    summary = read_summary(out)
    assert summary["partial"] is True
    assert summary["completed_radius"] < 6


def test_certification_failure_exits_4(tmp_path, monkeypatch):
    def boom(prep, outdir):
        raise CertificationError("planted violation")

    monkeypatch.setitem(
        REGISTRY, "ball-census",
        ExperimentInfo(boom, "matrix", "summary.json"),
    )
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "cert", {
        "experiment": "ball-census", "matrix": CAT, "output_dir": str(out),
    })
    assert run_cli(cfg) == 4
    assert "planted violation" in read_summary(out)["error"]


def test_every_summary_records_peak_rss(tmp_path, monkeypatch):
    census = {"experiment": "ball-census", "matrix": CAT, "bfs_radius": 6}
    outs = {0: tmp_path / "ok", 3: tmp_path / "budget", 4: tmp_path / "cert"}
    assert run_cli(write_cfg(tmp_path, "ok", census), "--output-dir", str(outs[0])) == 0
    budget = write_cfg(tmp_path, "budget", {**census, "budget_elements": 20})
    assert run_cli(budget, "--output-dir", str(outs[3])) == 3

    def boom(prep, outdir):
        raise CertificationError("planted violation")

    monkeypatch.setitem(REGISTRY, "ball-census", ExperimentInfo(boom, (), "summary.json"))
    cert = write_cfg(tmp_path, "cert", {"experiment": "ball-census", "matrix": CAT})
    assert run_cli(cert, "--output-dir", str(outs[4])) == 4
    for out in outs.values():
        summary = read_summary(out)
        assert summary["peak_rss_mb"] > 0 and summary["wall_time_s"] > 0
        assert "peak_rss_mb" not in summary["verdicts"]


def test_set_dynamics_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "dyn", {
        "experiment": "set-dynamics", "matrix": CAT,
        "automorphism": {"b": CAT, "v": [0, 0], "e": 1},
        "a0": [[[0, 0], 0], [[0, 0], 1], [[1, 0], 0]],
        "k_max": 3, "bfs_radius": 5, "output_dir": str(out),
    })
    assert run_cli(cfg) == 0
    summary = read_summary(out)
    assert summary["verdicts"]["envelope"] == "certified"
    assert summary["verdicts"]["lambda"] == "131/50"
    rows = (out / "growth.csv").read_text().splitlines()
    assert rows[0] == "k,diam,diam_is_exact,set_size,envelope_ell,envelope_h"
    assert rows[1] == "0,2,1,3,0,1"


def test_abelian_control_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "ctl", {
        "experiment": "abelian-control", "matrix": CAT, "k_max": 6,
        "output_dir": str(out),
    })
    assert run_cli(cfg) == 0
    rows = (out / "growth.csv").read_text().splitlines()
    assert rows[1] == "0,1,1,2,,"
    assert rows[2] == "1,5,1,10,,"


def test_abelian_control_negative_k_max_exits_2(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "ctl", {
        "experiment": "abelian-control", "matrix": CAT, "k_max": -1,
        "output_dir": str(out),
    })
    assert run_cli(cfg) == 2
    assert not (out / "growth.csv").exists()


@pytest.mark.parametrize("name, data, step", [
    ("dyn", {
        "experiment": "set-dynamics", "matrix": CAT,
        "automorphism": {"b": CAT, "v": [0, 0], "e": 1},
        "a0": [[[2**28, 0], 0]], "k_max": 2, "bfs_radius": 4,
    }, "iteration step 1"),
    ("ctl", {
        "experiment": "abelian-control", "matrix": CAT,
        "control_a0": [[2**29, 0]], "k_max": 2,
    }, "control step 1"),
    # Beyond int64: the error names the element as given.
    ("dyn", {
        "experiment": "set-dynamics", "matrix": CAT,
        "automorphism": {"b": CAT, "v": [0, 0], "e": 1},
        "a0": [[[2**70, 0], 0]], "k_max": 2, "bfs_radius": 4,
    }, str(2**70)),
    # Far along z: phi's image of the seed takes (v z^e)^100000, which
    # GroupContext.power forms by squaring before the certificate refuses.
    ("dyn", {
        "experiment": "set-dynamics", "matrix": CAT,
        "automorphism": {"b": CAT, "v": [0, 0], "e": 1},
        "a0": [[[0, 0], 100000]], "k_max": 2, "bfs_radius": 6,
    }, "iteration step 1"),
])
def test_seed_leaving_the_key_layout_exits_2(tmp_path, capsys, name, data, step):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, name, {**data, "output_dir": str(out)})
    assert run_cli(cfg) == 2
    assert step in capsys.readouterr().err
    assert not (out / "growth.csv").exists()


def test_qi_compare_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "qi", {
        "experiment": "qi-compare", "matrix": CAT, "qi_radii": [6, 7],
        "output_dir": str(out),
    })
    assert run_cli(cfg) == 0
    summary = read_summary(out)
    per = summary["verdicts"]["per_radius"]
    assert per["6"]["coverage_ok"] and per["7"]["coverage_ok"]
    assert summary["verdicts"]["q_hat_relative_change"] is not None
    assert (out / "qi_r6.csv").exists() and (out / "qi_r7.csv").exists()


@pytest.mark.parametrize("block", [packed.BLOCK_KEYS, 1000])
def test_qi_csvs_match_csv_writer_over_each_radius(tmp_path, monkeypatch, block):
    # 8 repeats, and 1000-row blocks put block boundaries inside both files.
    monkeypatch.setattr(packed, "BLOCK_KEYS", block)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "qi", {
        "experiment": "qi-compare", "matrix": CAT, "qi_radii": [8, 6, 8],
        "bfs_radius": 8, "output_dir": str(out),
    })
    assert run_cli(cfg) == 0
    per = read_summary(out)["verdicts"]["per_radius"]
    assert sorted(per) == ["6", "8"]
    matrix = ToralMatrix(CAT)
    oracle = word_ball(GroupContext(matrix), GeneratingSet.standard(2), 8)
    split = compute_splitting(matrix)
    for r in (6, 8):
        rep = qi_comparison(oracle.restricted(r), split)
        want = qi_csv_sweep.csv_bytes(rep.lengths, rep.bounds)
        assert (out / f"qi_r{r}.csv").read_bytes() == want
        assert per[str(r)] == {
            "q_hat": rep.q_hat,
            "fitted_slope": rep.fitted_slope,
            "intercept": rep.intercept,
            "max_ratio": rep.max_ratio,
            "coverage_ok": rep.coverage_ok,
            "entries": rep.n_entries,
        }


def test_qi_csvs_of_hand_built_columns_match_csv_writer(tmp_path):
    # Length 0 gives the ratio 0.0, below the kernel's band. In length 3,
    # 1e-16 gives a ratio above the band, and 4e4 and 1e5 ratios below it,
    # which repr prints in exponent notation. In length 7, 3.3 and the float
    # after it give one ratio. The bound 2.5 repeats within and across lengths.
    tie = np.nextafter(3.3, 4.0)
    assert 7 / 3.3 == 7 / tie
    lengths = np.array([0, 3, 3, 3, 3, 3, 7, 7, 7, 7], dtype=np.uint8)
    bounds = np.array([2.0, 2.5, 1e-16, 1e5, 2.5, 4e4, 3.3, tie, 2.5, 3.3])
    sizes = {0: 1, 3: 6, 7: 10}
    qicsv.write_qi_csvs(tmp_path, SimpleNamespace(lengths=lengths, bounds=bounds), sizes)
    for r, n in sizes.items():
        want = qi_csv_sweep.csv_bytes(lengths[:n], bounds[:n])
        assert (tmp_path / f"qi_r{r}.csv").read_bytes() == want
    text = (tmp_path / "qi_r7.csv").read_bytes()
    assert b"0,2.0,0.0\r\n" in text and b"3,1e-16,3e+16\r\n" in text
    assert b"3,100000.0,3e-05\r\n" in text


def test_oracle_workload_qi_csvs_match_csv_writer(tmp_path, ctx, gens, cat_matrix):
    # The benchmark checks only the word_length column of these two files,
    # so every byte of its largest table is pinned here.
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "qi", {
        "experiment": "qi-compare", "matrix": CAT, "qi_radii": [12, 14],
        "bfs_radius": 14, "output_dir": str(out),
    })
    assert run_cli(cfg) == 0
    rep = qi_comparison(word_ball(ctx, gens, 14), compute_splitting(cat_matrix))
    for r in (12, 14):
        n = int(rep.lengths.searchsorted(r, side="right"))
        want = qi_csv_sweep.csv_bytes(rep.lengths[:n], rep.bounds[:n])
        assert (out / f"qi_r{r}.csv").read_bytes() == want


def test_qi_repeated_radius_is_one_radius(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "qi", {
        "experiment": "qi-compare", "matrix": CAT, "qi_radii": [6, 6],
        "output_dir": str(out),
    })
    assert run_cli(cfg) == 0
    verdicts = read_summary(out)["verdicts"]
    assert list(verdicts["per_radius"]) == ["6"]
    assert verdicts["q_hat_relative_change"] is None


def test_qi_radius_below_six_exits_2_before_building_a_ball(
    tmp_path, capsys, monkeypatch
):
    built = []
    monkeypatch.setattr(words, "word_ball", lambda *a, **k: built.append(a))
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "qi", {
        "experiment": "qi-compare", "matrix": CAT, "qi_radii": [4, 16],
        "output_dir": str(out),
    })
    assert run_cli(cfg) == 2
    assert "[4]" in capsys.readouterr().err
    assert not out.exists()
    assert built == []


def test_qi_bfs_radius_above_the_largest_radius_exits_2_before_building_a_ball(
    tmp_path, capsys, monkeypatch
):
    built = []
    monkeypatch.setattr(words, "word_ball", lambda *a, **k: built.append(a))
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "qi", {
        "experiment": "qi-compare", "matrix": CAT, "qi_radii": [6, 8],
        "bfs_radius": 14, "output_dir": str(out),
    })
    assert run_cli(cfg) == 2
    err = capsys.readouterr().err
    assert "largest radius 8" in err and "bfs_radius 14" in err
    assert not out.exists()
    assert built == []


# Traced bytes per ball row that qi_comparison and write_qi_csvs may hold at
# their peak, above what is held when they start. Measured at radius 14
# (600,617 rows): 105.0 with the whole table unpacked and every distinct
# float formatted at once, 64.4 with blockwise bounds and batched repr, 57.4
# with np.polyfit's float copies of both columns alive through its solve,
# 48.0 once the line fit allocates only its Vandermonde matrix, its
# squares and a float copy of the lengths, 42.0 once the ratio column is
# coded sphere by sphere from the bound column's rows, with no ratio array
# and no second argsort, 40.2 with one table of whole-row texts filled once
# every sphere's texts were formatted, and 34.4 with one such table per
# sphere, filled as its sphere is formatted, and gathered in blocks of
# BLOCK_KEYS // 4 rows. The CSV writer sets that peak, while it formats the
# last sphere; the comparison alone peaks at 33.4 with the scaled matrix
# written in place (41.4 with the squares, 57.4 with polyfit).
QI_PEAK_BYTES_PER_ROW = 36
QI_COMPARISON_PEAK_BYTES_PER_ROW = 37


def test_qi_compare_memory_per_row(tmp_path, ctx, gens, cat_matrix):
    oracle = word_ball(ctx, gens, 14)
    split = compute_splitting(cat_matrix)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rep = qi_comparison(oracle, split)
        comparison_peak = tracemalloc.get_traced_memory()[1]
        qicsv.write_qi_csvs(tmp_path, rep, {14: len(oracle)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (comparison_peak - start) / len(oracle) < QI_COMPARISON_PEAK_BYTES_PER_ROW
    assert (peak - start) / len(oracle) < QI_PEAK_BYTES_PER_ROW


def test_qi_compare_frees_the_ball_before_the_fit(tmp_path, monkeypatch):
    # Untraced, no frame holds the ball or its keys once the bounds exist,
    # so every line fit runs with them freed.
    balls = []
    build = words.word_ball

    def recorded(*args, **kwargs):
        oracle = build(*args, **kwargs)
        balls.extend([weakref.ref(oracle), weakref.ref(oracle.keys)])
        return oracle

    fits = []
    lstsq = np.linalg.lstsq

    def fit(*args, **kwargs):
        fits.append([ref() is None for ref in balls])
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(words, "word_ball", recorded)
    monkeypatch.setattr(np.linalg, "lstsq", fit)
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "qi", {
        "experiment": "qi-compare", "matrix": CAT, "qi_radii": [6, 8],
        "bfs_radius": 8, "output_dir": str(out),
    })
    assert run_cli(cfg) == 0
    assert fits == [[True, True]] * 2
    assert read_summary(out)["verdicts"]["per_radius"]["8"]["entries"] == 7277


def test_failing_row_tables_propagate_and_write_no_csv(
    tmp_path, monkeypatch, oracle8, cat_matrix
):
    # The row tables are built sphere by sphere before any file is opened; a
    # failure while the second sphere's texts are formatted leaves no file.
    rep = qi_comparison(oracle8, compute_splitting(cat_matrix))
    formatted = []
    texts = qicsv._texts

    def fail_on_the_second_sphere(values, start, stop):
        formatted.append(len(values))
        if len(formatted) == 3:
            raise MemoryError("planted row-tables failure")
        return texts(values, start, stop)

    monkeypatch.setattr(qicsv, "_texts", fail_on_the_second_sphere)
    with pytest.raises(MemoryError, match="planted row-tables failure"):
        qicsv.write_qi_csvs(tmp_path, rep, {8: rep.n_entries})
    assert len(formatted) == 3
    assert list(tmp_path.glob("qi_r*.csv")) == []


# A launcher that touches 256 MB, then execs the CLI in its own process.
LAUNCHER = """
import os, sys
held = b"x" * (256 << 20)
os.execv(sys.executable, [sys.executable, "-m", "unstretch.cli", "run", "--config", sys.argv[1]])
"""


def test_summary_peak_is_not_the_launchers(tmp_path):
    # Linux carries ru_maxrss across execve, so the run must report its own
    # peak (VmHWM), not the 256 MB its launcher held before the exec.
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "wl", {
        "experiment": "word-length", "matrix": CAT, "bfs_radius": 4,
        "elements": [[[1, 0], 0]], "output_dir": str(out),
    })
    env = {**os.environ, "PYTHONPATH": str(Path(unstretch.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", LAUNCHER, str(cfg)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    assert read_summary(out)["peak_rss_mb"] < 128


# A process that runs and reaps a child touching 256 MB, then runs the CLI
# in its own process.
REAPER = """
import subprocess, sys
from unstretch import cli
subprocess.run([sys.executable, "-c", "held = b'x' * (256 << 20)"], check=True)
sys.exit(cli.main(["run", "--config", sys.argv[1]]))
"""


def test_summary_peak_is_not_that_of_a_reaped_child(tmp_path):
    # RUSAGE_CHILDREN holds the 256 MB child reaped before the run; the run
    # reports the peak of its own process.
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "wl", {
        "experiment": "word-length", "matrix": CAT, "bfs_radius": 4,
        "elements": [[[1, 0], 0]], "output_dir": str(out),
    })
    env = {**os.environ, "PYTHONPATH": str(Path(unstretch.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", REAPER, str(cfg)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    assert read_summary(out)["peak_rss_mb"] < 128


# Exact ties between two shortest candidates, which round to the even one.
TIES = {950569045138165.75: "950569045138165.8", 209416943474789.375: "209416943474789.38"}
OUT_OF_BAND = [0.0, -0.0, 1e-05, 1e16, 2.0**50, 5e-324, -2.5, float("nan"), float("inf")]


def _band_powers():
    """Every power of two and of ten in [1e-4, 2**50), with the floats one
    ulp below and above each."""
    powers = np.array([2.0**p for p in range(-13, 50)] + [float(f"1e{p}") for p in range(-4, 16)])
    return np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])


def test_texts_are_repr_of_each_float():
    band = np.sort(np.concatenate([
        repr_sweep.band_sample(np.random.default_rng(0), 200_000),
        [12.5, 0.001, 100.0, 1e15, *TIES],
    ]))
    assert band[0] >= 1e-4 and band[-1] < 2.0**50
    assert [t.decode() for t in qicsv.shortest_text(np.array(list(TIES)))] == list(TIES.values())
    assert qicsv.shortest_text(band).tolist() == [repr(v).encode() for v in band.tolist()]
    # Distinct by their bits and in bit order, as row_tables passes them: the
    # band is one run, with the out-of-band values on either side of it.
    values = np.concatenate([band, _band_powers(), OUT_OF_BAND])
    distinct = np.unique(values.view(np.int64))
    table = qicsv._texts(distinct.view(np.float64), *distinct.searchsorted(qicsv.BAND).tolist())
    texts = [repr(v).encode() for v in distinct.view(np.float64).tolist()]
    assert table.tolist() == texts
    assert table.itemsize == max(map(len, texts))


def test_radius_14_row_tables_are_repr(ctx, gens, cat_matrix):
    rep = qi_comparison(word_ball(ctx, gens, 14), compute_splitting(cat_matrix))
    codes, spheres = qicsv.row_tables(rep.lengths, rep.bounds)
    edges = [0, *(np.flatnonzero(np.diff(rep.lengths)) + 1).tolist(), len(rep.lengths)]
    assert [(start, stop) for start, stop, _ in spheres] == list(zip(edges, edges[1:]))
    for start, stop, table in spheres:
        sphere = codes[start:stop]
        assert np.array_equal(np.unique(sphere), np.arange(len(table)))
        # One source row of each table row; every row with that code has the
        # bits of its bound.
        source = np.empty(len(table), dtype=np.intp)
        source[sphere] = np.arange(start, stop)
        bounds = rep.bounds[source]
        assert np.array_equal(bounds[sphere].view(np.int64), rep.bounds[start:stop].view(np.int64))
        length = int(rep.lengths[start])
        rows = [row.tobytes().replace(b"\0", b"") for row in table]
        assert rows == [f"{length},{b!r},{length / b!r}\r\n".encode() for b in bounds.tolist()]


def test_centralizer_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "cent", {
        "experiment": "centralizer", "matrix": CAT,
        "centralizer_bound": 3, "centralizer_e": 1, "output_dir": str(out),
    })
    assert run_cli(cfg) == 0
    rows = (out / "centralizer.csv").read_text().splitlines()
    assert "1,0,0,1" in rows  # identity matrix present
    assert read_summary(out)["verdicts"]["count"] == len(rows) - 1


def test_lyapunov_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "lyap", {
        "experiment": "lyapunov", "matrix": CAT, "orbit_steps": 200,
        "direction": "unstable", "output_dir": str(out), "seed": 5,
    })
    assert run_cli(cfg) == 0
    rec = read_summary(out)["verdicts"]["records"][0]
    assert abs(rec["estimate"] - 0.9624236501) < 1e-9
    assert rec["n"] == 200 and rec["seed"] == 5


def test_lyapunov_flow_direction_needs_suspension(tmp_path):
    cfg = write_cfg(tmp_path, "lyapbad", {
        "experiment": "lyapunov", "matrix": CAT, "direction": "flow",
        "output_dir": str(tmp_path / "o"),
    })
    assert run_cli(cfg) == 2


def test_birkhoff_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "birk", {
        "experiment": "birkhoff", "matrix": CAT, "map_kind": "shear_conjugated",
        "shear_coefficients": [0.05], "direction": "unstable",
        "birkhoff_starts": 8, "birkhoff_steps": 1500,
        "output_dir": str(out), "seed": 9,
    })
    assert run_cli(cfg) == 0
    v = read_summary(out)["verdicts"]
    assert v["discrepancy"] <= 3 * v["combined_se"] + 1e-12


def test_box_lemmas_small(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "box", {
        "experiment": "box-lemmas", "matrix": CAT,
        "automorphism": {"b": CAT, "v": [1, 0], "e": 1},
        "box_ell_values": [2], "box_h_values": [2], "box_n_values": [1, 2],
        "box_samples": 60, "output_dir": str(out), "seed": 13,
    })
    assert run_cli(cfg) == 0
    assert read_summary(out)["verdicts"]["zero_violations"] is True


def test_box_lemmas_with_no_neighborhood_rounds_runs_the_other_checks(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "box", {
        "experiment": "box-lemmas", "matrix": CAT,
        "automorphism": {"b": CAT, "v": [1, 0], "e": 1},
        "box_ell_values": [2], "box_h_values": [2], "box_n_values": [],
        "box_samples": 20, "output_dir": str(out), "seed": 13,
    })
    assert run_cli(cfg) == 0
    rows = (out / "box_checks.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["u1", "phi"]
    assert read_summary(out)["verdicts"]["checks"] == 2


def test_seed_and_output_dir_overrides(tmp_path):
    out = tmp_path / "somewhere"
    cfg = write_cfg(tmp_path, "ovr", {
        "experiment": "ball-census", "matrix": CAT, "bfs_radius": 2,
        "output_dir": str(tmp_path / "ignored"),
    })
    assert run_cli(cfg, "--seed", "99", "--output-dir", str(out)) == 0
    summary = read_summary(out)
    assert summary["config"]["seed"] == 99
    assert not (tmp_path / "ignored").exists()


def test_determinism_byte_identical_csvs(tmp_path):
    spec = {
        "experiment": "box-lemmas", "matrix": CAT,
        "automorphism": {"b": CAT, "v": [1, 0], "e": 1},
        "box_ell_values": [2, 3], "box_h_values": [2], "box_n_values": [1],
        "box_samples": 40, "seed": 21,
    }
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = write_cfg(tmp_path, f"det{tag}", dict(spec, output_dir=str(out)))
        assert run_cli(cfg) == 0
        outs.append((out / "box_checks.csv").read_bytes())
    assert outs[0] == outs[1]


def test_budget_exhaustion_writes_partial_census(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "budget", {
        "experiment": "ball-census", "matrix": CAT, "bfs_radius": 10,
        "budget_elements": 5000, "output_dir": str(out),
    })
    assert run_cli(cfg) == 3
    done = read_summary(out)["completed_radius"]
    assert 0 < done < 10
    full = out / "full"
    cfg = write_cfg(tmp_path, "full", {
        "experiment": "ball-census", "matrix": CAT, "bfs_radius": done,
        "output_dir": str(full),
    })
    assert run_cli(cfg) == 0
    lines = (out / "census.csv").read_text().splitlines()
    assert len(lines) == done + 2
    assert lines == (full / "census.csv").read_text().splitlines()


@pytest.mark.parametrize("data", [{
    "experiment": "abelian-control", "matrix": CAT, "k_max": 6,
    "budget_elements": 200,
}, {
    "experiment": "set-dynamics", "matrix": CAT,
    "automorphism": {"b": CAT, "v": [0, 0], "e": 1},
    "a0": [[[0, 0], 0], [[0, 0], 1], [[1, 0], 0]], "k_max": 5, "bfs_radius": 2,
    "budget_elements": 100,
}], ids=["abelian-control", "set-dynamics"])
def test_budget_exhaustion_writes_partial_growth(tmp_path, data):
    out = tmp_path / "out"
    assert run_cli(write_cfg(tmp_path, "budget", {**data, "output_dir": str(out)})) == 3
    assert read_summary(out)["partial"] is True
    rows = (out / "growth.csv").read_text().splitlines()
    full = tmp_path / "full"
    unbounded = {k: v for k, v in data.items() if k != "budget_elements"}
    assert run_cli(write_cfg(tmp_path, "full", {**unbounded, "output_dir": str(full)})) == 0
    expected = (full / "growth.csv").read_text().splitlines()
    assert 3 <= len(rows) < len(expected)
    assert rows == expected[:len(rows)]


@pytest.mark.parametrize("key, value", [
    ("bfs_radius", "7"),
    ("bfs_radius", 7.5),
    ("bfs_radius", True),
    ("k_max", None),
    ("qi_radii", 12),
    ("automorphism", [[2, 1], [1, 1]]),
    ("dump_orbit", 1),
    ("notes", 3),
    # list items are checked too
    ("qi_radii", ["x"]),
    ("qi_radii", [7.5, 8]),
    ("box_ell_values", ["2"]),
    ("box_ell_values", [2.5]),
    ("box_n_values", [1.5]),
    ("box_h_values", [True]),
    ("shear_coefficients", ["a"]),
    ("shear_coefficients", [True]),
])
def test_mistyped_config_field_exits_2_naming_it(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "typed", {
        "experiment": "ball-census", "matrix": CAT, key: value,
        "output_dir": str(out),
    })
    assert run_cli(cfg) == 2
    err = capsys.readouterr().err
    assert repr(key) in err
    # the type check, not the check that ball-census reads the key
    assert f"config key {key!r} must be" in err
    assert not out.exists()


def test_int_shear_coefficient_counts_as_a_float(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "shear", {
        "experiment": "lyapunov", "matrix": CAT, "map_kind": "shear_conjugated",
        "shear_coefficients": [0.05, 0], "output_dir": str(out),
    })
    assert run_cli(cfg) == 0


@pytest.mark.parametrize("data", [
    {"experiment": "qi-compare", "qi_radii": []},
    {"experiment": "box-lemmas", "box_ell_values": []},
    {"experiment": "box-lemmas", "box_h_values": []},
    {"experiment": "box-lemmas", "box_ell_values": [0]},
    {"experiment": "box-lemmas", "box_samples": 0},
    # lam^48 is about 1e20: the box's coordinates overflow int64.
    {"experiment": "box-lemmas", "box_ell_values": [48]},
    {"experiment": "lyapunov", "orbit_steps": 0},
    {"experiment": "centralizer", "centralizer_e": 2},
    {"experiment": "word-length", "elements": [[[1], 0]]},
    {"experiment": "abelian-control", "k_max": -1},
    {"experiment": "lyapunov", "orbit_starts": 0},
    {"experiment": "lyapunov", "orbit_starts": -3},
    {"experiment": "word-length", "elements": [[[0.5, 1.9], 0]]},
    {"experiment": "word-length", "elements": [[[True, 0], 0]]},
    {"experiment": "set-dynamics", "a0": [[[0.7, 0], 0]]},
    {"experiment": "set-dynamics", "a0": [5]},
    {"experiment": "box-lemmas", "automorphism": {"b": CAT, "v": [0, 0], "e": 1.5}},
    {"experiment": "box-lemmas", "automorphism": {"v": [0, 0]}},
    {"experiment": "box-lemmas", "automorphism": {"b": 5, "v": [0, 0], "e": 1}},
    {"experiment": "box-lemmas", "automorphism": {"b": [5, 6], "v": [0, 0], "e": 1}},
    {"experiment": "box-lemmas", "automorphism": {"b": None, "v": [0, 0], "e": 1}},
    {"experiment": "box-lemmas", "automorphism": {"b": CAT, "v": 3, "e": 1}},
    {"experiment": "box-lemmas", "automorphism": {"b": CAT, "v": None, "e": 1}},
    {"experiment": "abelian-control", "control_a0": [[True, 0], [1, 0]]},
    {"experiment": "abelian-control", "control_a0": [5]},
    {"experiment": "abelian-control", "control_a0": [None]},
    {"experiment": "abelian-control", "control_a0": [[1, 0, 0]]},
    # Past the float horizon of a stable-direction run: 11 steps on the cat map.
    {"experiment": "lyapunov", "orbit_steps": 12, "direction": "stable"},
    {"experiment": "birkhoff", "birkhoff_steps": 12, "direction": "stable"},
    # Shear coefficients are read by the shear-conjugated map only.
    {"experiment": "lyapunov", "map_kind": "linear_toral", "shear_coefficients": [0.3]},
    {"experiment": "birkhoff", "map_kind": "suspension_time_one", "shear_coefficients": [0.3]},
    {"experiment": "ball-census", "bfs_radius": -1},
    {"experiment": "centralizer", "centralizer_bound": 0},
    {"experiment": "birkhoff", "birkhoff_starts": 1},
], ids=lambda d: next(f"{k}={v}" for k, v in d.items() if k != "experiment"))
def test_validation_failure_leaves_no_output_directory(tmp_path, capsys, data):
    out = tmp_path / "runs" / "out"
    cfg = write_cfg(tmp_path, "bad", {**data, "matrix": CAT, "output_dir": str(out)})
    assert run_cli(cfg) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    if "automorphism" in data:
        assert "config key 'automorphism': " in err
        assert "b" in data["automorphism"] or "'b'" in err
    for key in ("control_a0", "a0", "elements"):
        if key in data:
            assert f"config key {key!r}: " in err
    if "shear_coefficients" in data:
        assert "config key 'shear_coefficients'" in err
    for key in ("box_ell_values", "box_h_values"):
        if data.get(key) == []:
            assert f"config key {key!r} must list at least one value" in err
    if data.get("box_ell_values") == [48]:
        assert "u1 inclusion check does not fit the int64 key layout" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key, message", [
    # lam^20000 has thousands of digits, more than Python turns into text;
    # the refusal gives the size of its lower bound 2^20000 instead. A^20001
    # has as many, but the certificate refuses at the first exponent row
    # past the layout, nearest k = 0, whose bound prints.
    ("box_ell_values", r"reaches \|x_i\| = more than 2\^19999, "),
    ("box_h_values", r"coordinates may reach \d+ > 4194303\n"),
], ids=["ell", "h"])
def test_box_bound_too_long_to_print_exits_2(tmp_path, capsys, key, message):
    out = tmp_path / "runs" / "out"
    cfg = write_cfg(tmp_path, "box", {
        "experiment": "box-lemmas", "matrix": CAT,
        "automorphism": {"b": CAT, "v": [1, 0], "e": 1},
        "box_ell_values": [2], "box_h_values": [2], "box_n_values": [1],
        "box_samples": 10, key: [20000], "output_dir": str(out),
    })
    assert run_cli(cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: u1 inclusion check does not fit")
    assert re.search(message, err)
    assert not (tmp_path / "runs").exists()


def test_box_with_an_ell_of_a_million_exits_2_without_forming_its_bound(tmp_path):
    # lam^(2 ell) at ell = 10^6 takes about a minute to form exactly; the
    # box's lower bound 2^ell already passes the key layout.
    out = tmp_path / "runs" / "out"
    cfg = json.loads((Path(__file__).parent.parent / "configs/box-lemmas.json").read_text())
    cfg = write_cfg(tmp_path, "box", {**cfg, "box_ell_values": [10**6], "output_dir": str(out)})
    env = {**os.environ, "PYTHONPATH": str(Path(unstretch.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-m", "unstretch.cli", "run", "--config", str(cfg)],
                         env=env, capture_output=True, text=True, timeout=30)
    assert run.returncode == 2
    assert "ell=1000000, h=2) reaches |x_i| = more than 2^999999, " in run.stderr
    assert not (tmp_path / "runs").exists()


# Runs the CLI under a 4 GB address-space cap, so a run that allocates
# arrays of 2R + 1 exponent rows fails at once instead of swapping.
CAPPED = """
import resource, sys
from unstretch import cli
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
sys.exit(cli.main(["run", "--config", sys.argv[1]]))
"""


@pytest.mark.parametrize("name, changes", [
    ("box-lemmas", {"box_h_values": [10**9]}),
    ("set-dynamics", {"k_max": 10**9}),
    ("set-dynamics", {"a0": [[[0, 0], 10**9]]}),
], ids=["box-h", "k-max", "a0"])
def test_key_layout_of_a_billion_exponent_rows_exits_2(tmp_path, name, changes):
    out = tmp_path / "runs" / "out"
    cfg = json.loads((Path(__file__).parent.parent / f"configs/{name}.json").read_text())
    cfg = write_cfg(tmp_path, name, {**cfg, **changes, "output_dir": str(out)})
    env = {**os.environ, "PYTHONPATH": str(Path(unstretch.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", CAPPED, str(cfg)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert re.search(r"radius 100000000\d needs 20000000\d\d exponent rows in the int64 key "
                     r"layout, more than the element budget 50000000\n", run.stderr)
    assert not (tmp_path / "runs").exists()


def test_set_dynamics_from_an_exponent_of_ten_million_exits_2_without_forming_its_power(
    tmp_path
):
    # A^(10^7) has entries of about 14 million bits and took about a minute
    # to form; the lower bound from |tr A^8| refuses its row without it.
    out = tmp_path / "runs" / "out"
    cfg = json.loads((Path(__file__).parent.parent / "configs/set-dynamics.json").read_text())
    cfg = write_cfg(tmp_path, "far", {**cfg, "a0": [[[0, 0], 10**7]], "output_dir": str(out)})
    env = {**os.environ, "PYTHONPATH": str(Path(unstretch.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", CAPPED, str(cfg)],
                         env=env, capture_output=True, text=True, timeout=20)
    assert run.returncode == 2
    assert run.stderr == (
        "validation error: iteration step 1 does not fit the int64 key layout: "
        "coordinates may reach more than 2^12499998 > 262143\n")
    assert not (tmp_path / "runs").exists()


# Runs the CLI as the only child of a fresh process and prints that child's
# peak RSS in kB: RUSAGE_CHILDREN holds the peaks of reaped children only.
CHILD_PEAK = """
import resource, subprocess, sys
run = subprocess.run([sys.executable, "-m", "unstretch.cli", "run", "--config", sys.argv[1]])
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(run.returncode)
"""


def test_box_with_an_h_of_ten_million_exits_2_below_100_mb(tmp_path):
    # The layout's 2R + 1 exponent rows are 20 million here: a reach list or
    # a row count of that length costs about 150 MB before the refusal.
    out = tmp_path / "runs" / "out"
    cfg = json.loads((Path(__file__).parent.parent / "configs/box-lemmas.json").read_text())
    cfg = write_cfg(tmp_path, "box", {**cfg, "box_h_values": [10**7], "output_dir": str(out)})
    env = {**os.environ, "PYTHONPATH": str(Path(unstretch.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", CHILD_PEAK, str(cfg)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert "u1 inclusion check does not fit the int64 key layout" in run.stderr
    assert int(run.stdout.split()[-1]) < 100 << 10
    assert not (tmp_path / "runs").exists()


def test_int_text_gives_the_size_only_of_an_integer_too_long_to_print():
    limit = sys.get_int_max_str_digits()
    for n in (0, 7, 10**limit - 1):
        assert int_text(n) == str(n)
    assert int_text(10**limit) == f"more than 2^{(10**limit).bit_length() - 1}"
    assert int_text(1 << 20000) == "more than 2^19999"
    assert int_text((1 << 20000) + 1) == "more than 2^20000"


def test_config_integer_too_long_to_parse_exits_2(tmp_path, capsys):
    # json raises a plain ValueError, not a JSONDecodeError, for an integer
    # literal past Python's digit limit.
    out = tmp_path / "runs" / "out"
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({
        "experiment": "ball-census", "matrix": CAT, "bfs_radius": 2, "seed": 0,
        "output_dir": str(out),
    }).replace('"seed": 0', '"seed": 1' + "0" * 5000))
    assert run_cli(cfg) == 2
    err = capsys.readouterr().err
    assert err == (f"validation error: config file {cfg} holds an integer of more than "
                   f"{sys.get_int_max_str_digits()} digits\n")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("experiment", [
    "qi-compare", "ball-census", "set-dynamics", "abelian-control", "word-length",
])
@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, experiment, budget
):
    # Not a budget exhausted by the first sphere (exit 3, partial summary),
    # but a validation error before any ball or neighborhood is built.
    monkeypatch.setattr(words, "word_ball", lambda *a, **k: pytest.fail("ran"))
    monkeypatch.setattr(dynamics, "abelian_control", lambda *a, **k: pytest.fail("ran"))
    out = tmp_path / "out"
    data = {"experiment": experiment, "matrix": CAT, "budget_elements": budget,
            "output_dir": str(out)}
    if experiment == "word-length":
        data["elements"] = [[[1, 0], 0]]
    assert run_cli(write_cfg(tmp_path, "budget", data)) == 2
    assert f"'budget_elements' must be at least 1, not {budget}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, flag", [(-1, []), (0, ["--seed", "-5"])], ids=["key", "flag"])
def test_negative_seed_exits_2_without_outputs(tmp_path, capsys, key, flag):
    out = tmp_path / "runs" / "out"
    cfg = write_cfg(tmp_path, "seed", {
        "experiment": "ball-census", "matrix": CAT, "bfs_radius": 2, "seed": key,
        "output_dir": str(out),
    })
    assert run_cli(cfg, *flag) == 2
    seed = flag[1] if flag else key
    assert f"seed must be at least 0, not {seed}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("config, output_dir, named, reason", [
    ("cfgdir", "out", "cfgdir", "cannot be read: Is a directory"),
    ("latin1.json", "out", "latin1.json", "is not UTF-8 text"),
    ("ok.json", "taken", "taken", "File exists"),
    ("ok.json", "taken/runs/out", "taken/runs/out", "Not a directory"),
], ids=["config-is-a-directory", "config-is-latin-1", "output-dir-is-a-file",
        "output-dir-under-a-file"])
def test_unreadable_config_or_bad_output_dir_exits_2(
    tmp_path, capsys, config, output_dir, named, reason
):
    (tmp_path / "cfgdir").mkdir()
    (tmp_path / "taken").write_text("a file\n")
    data = {"experiment": "ball-census", "matrix": CAT, "bfs_radius": 2,
            "notes": "caf\u00e9", "output_dir": str(tmp_path / output_dir)}
    (tmp_path / "ok.json").write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    (tmp_path / "latin1.json").write_text(json.dumps(data, ensure_ascii=False), encoding="latin-1")
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(tmp_path / config) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and reason in err
    assert str(tmp_path / named) in err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "taken").read_text() == "a file\n"


def test_validation_failure_keeps_an_existing_output_directory(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    cfg = write_cfg(tmp_path, "bad", {
        "experiment": "qi-compare", "matrix": CAT, "qi_radii": [],
        "output_dir": str(out),
    })
    assert run_cli(cfg) == 2
    assert out.is_dir()


def test_key_read_only_by_another_experiment_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "census", {
        "experiment": "ball-census", "matrix": CAT, "birkhoff_steps": 5,
        "output_dir": str(out),
    })
    assert run_cli(cfg) == 2
    err = capsys.readouterr().err
    assert repr("birkhoff_steps") in err and repr("ball-census") in err
    assert not out.exists()


def test_summary_echoes_only_the_keys_the_experiment_reads(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, "census", {
        "experiment": "ball-census", "matrix": CAT, "bfs_radius": 2,
        "output_dir": str(out),
    })
    assert run_cli(cfg) == 0
    assert set(read_summary(out)["config"]) == {
        "experiment", "matrix", "notes", "seed", "output_dir",
        "bfs_radius", "budget_elements",
    }


def test_every_config_field_is_read_by_some_experiment():
    declared = {key for info in REGISTRY.values() for key in info.keys}
    extra = {f.name for f in fields(ExperimentConfig)} - set(COMMON_KEYS)
    assert extra == declared
    assert sum(len(COMMON_KEYS) + len(info.keys) for info in REGISTRY.values()) == 81


@pytest.mark.parametrize(
    "path", sorted(Path(__file__).parent.parent.glob("configs/*.json")),
    ids=lambda p: p.stem,
)
def test_shipped_configs_load_and_prepare(path, tmp_path):
    prep = prepare(load_config(path))
    assert [f.name for f in fields(prep)] == ["cfg", "matrix", "phi"]
    assert "ctx" not in vars(prep)
    REGISTRY[prep.cfg.experiment].runner(prep, tmp_path)
    # Only the runners that work in the group build its context.
    in_group = {"ball-census", "box-lemmas", "qi-compare", "set-dynamics", "word-length"}
    assert ("ctx" in vars(prep)) == (prep.cfg.experiment in in_group)


def test_list_shows_each_experiments_keys():
    lines = list_experiments().splitlines()
    assert "required" not in lines[0]
    for name, info in REGISTRY.items():
        (row,) = [line for line in lines if line.split()[0] == name]
        for key in info.keys:
            assert key in row
