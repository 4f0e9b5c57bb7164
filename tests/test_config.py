import json

import pytest

from unstretch.config import ExperimentConfig, load_config
from unstretch.errors import ValidationError


def round_trip(cfg):
    return ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))


def minimal(experiment="ball-census", **extra):
    data = {"experiment": experiment, "matrix": [[2, 1], [1, 1]]}
    data.update(extra)
    return data


def test_round_trip_minimal():
    cfg = ExperimentConfig.from_dict(minimal())
    again = round_trip(cfg)
    assert again == cfg


def test_round_trip_full():
    cfg = ExperimentConfig.from_dict(
        minimal(
            "set-dynamics",
            automorphism={"b": [[2, 1], [1, 1]], "v": [0, 0], "e": 1},
            a0=[[[0, 0], 0], [[0, 0], 1], [[1, 0], 0]],
            k_max=4,
            bfs_radius=6,
            seed=11,
            notes="annotated",
        )
    )
    assert round_trip(cfg) == cfg


def test_unknown_key_is_named():
    with pytest.raises(ValidationError) as info:
        ExperimentConfig.from_dict(minimal(bfs_radiuss=3))
    assert "bfs_radiuss" in str(info.value)
    assert "bfs_radius" in str(info.value)


def test_missing_required_key():
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"experiment": "ball-census"})


def test_unknown_experiment_nearest_match():
    with pytest.raises(ValidationError) as info:
        ExperimentConfig.from_dict(minimal("set-dynamic"))
    assert "set-dynamics" in str(info.value)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ValidationError):
        load_config(tmp_path / "nope.json")


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ValidationError):
        load_config(p)


def test_load_config_round_trip_file(tmp_path):
    cfg = ExperimentConfig.from_dict(minimal(seed=3, bfs_radius=2))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()))
    assert load_config(p) == cfg
