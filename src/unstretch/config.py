"""Experiment configuration: a single JSON document per run.

The schema is flat key/value with nested arrays for the matrix, the
automorphism triple, and element lists. `ExperimentConfig` is the one table of
types and defaults; which keys an experiment reads is declared once, on its
`experiments.REGISTRY` entry. A run accepts the five common keys (`experiment`,
`matrix`, `notes`, `seed`, `output_dir`) plus the keys of its experiment, and
every key but the experiment name and the matrix has a default, so small
configs stay small. Unknown keys are rejected with the nearest known key
named, keys the chosen experiment does not read are rejected, and every value
must have the type of its field, which catches typos before any computation
starts. `to_dict` echoes only the keys the experiment reads, and
round-tripping is exact: from_dict(to_dict(c)) == c.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DEFAULT_ELEMENT_BUDGET, ValidationError
from .experiments import REGISTRY

EXPERIMENT_NAMES = tuple(sorted(REGISTRY))
COMMON_KEYS = ("experiment", "matrix", "notes", "seed", "output_dir")


@dataclass
class ExperimentConfig:
    experiment: str
    matrix: list
    notes: str = ""
    seed: int = 0
    output_dir: str = "runs"

    # group / automorphism / iteration
    automorphism: dict | None = None  # {"b": rows, "v": vec, "e": +-1}
    neighborhood_n: int = 1
    a0: list = field(default_factory=list)  # [[x..., ], k] pairs; empty -> identity
    k_max: int = 6

    # ball enumeration
    bfs_radius: int = 8
    budget_elements: int = DEFAULT_ELEMENT_BUDGET

    # box lemma checks
    box_ell_values: list[int] = field(default_factory=lambda: [2, 3, 4, 5, 6])
    box_h_values: list[int] = field(default_factory=lambda: [2, 3, 4, 5, 6])
    box_n_values: list[int] = field(default_factory=lambda: [1, 2, 3])
    box_samples: int = 1000

    # word-length queries
    elements: list = field(default_factory=list)

    # quasi-isometry comparison
    qi_radii: list[int] = field(default_factory=lambda: [10, 12])

    # centralizer scan
    centralizer_bound: int = 8
    centralizer_e: int = 1

    # lyapunov / birkhoff
    map_kind: str = "linear_toral"  # linear_toral | suspension_time_one | shear_conjugated
    direction: str = "unstable"  # unstable | stable | flow
    shear_coefficients: list[float] = field(default_factory=list)
    orbit_steps: int = 1000
    orbit_starts: int = 1
    birkhoff_starts: int = 100
    birkhoff_steps: int = 10000
    dump_orbit: bool = False

    # lattice control
    control_a0: list | None = None

    def read_keys(self) -> tuple:
        """The keys this run reads: the common five plus its experiment's."""
        return COMMON_KEYS + tuple(REGISTRY[self.experiment].keys)

    def to_dict(self) -> dict:
        read = self.read_keys()
        return {k: v for k, v in dataclasses.asdict(self).items() if k in read}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValidationError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        for key in data:
            if key not in known:
                import difflib  # only on this error path: a valid config never loads it

                hint = difflib.get_close_matches(key, known, n=1)
                extra = f" (did you mean {hint[0]!r}?)" if hint else ""
                raise ValidationError(f"unknown config key {key!r}{extra}")
        for required in ("experiment", "matrix"):
            if required not in data:
                raise ValidationError(f"config is missing required key {required!r}")
        hints = typing.get_type_hints(cls)
        for key, value in data.items():
            _check_type(key, value, hints[key])
        cfg = cls(**data)
        if cfg.experiment not in REGISTRY:
            import difflib

            hint = difflib.get_close_matches(cfg.experiment, EXPERIMENT_NAMES, n=1)
            extra = f"; nearest match is {hint[0]!r}" if hint else ""
            raise ValidationError(f"unknown experiment {cfg.experiment!r}{extra}")
        read = cfg.read_keys()
        for key in data:
            if key not in read:
                raise ValidationError(
                    f"config key {key!r} is not read by experiment {cfg.experiment!r}"
                )
        return cfg


def _check_type(key: str, value, annotation):
    """Reject a value whose JSON type does not match the field annotation,
    or a list item that does not match its item type; a bool is not accepted
    as an int or a float, an int is accepted as a float, and a float must be
    finite (JSON as Python reads it admits Infinity and NaN)."""
    if typing.get_origin(annotation) is list:
        _check_type(key, value, list)
        (item,) = typing.get_args(annotation)
        bad = [v for v in value if isinstance(v, bool) or not isinstance(v, (int, item))]
        if bad:
            raise ValidationError(f"config key {key!r} must be a list of {item.__name__}, "
                                  f"not one holding {type(bad[0]).__name__} {bad[0]!r}")
        nonfinite = [v for v in value if isinstance(v, float) and not math.isfinite(v)]
        if nonfinite:
            raise ValidationError(f"config key {key!r} must hold finite numbers, "
                                  f"not {nonfinite[0]!r}")
        return
    allowed = typing.get_args(annotation) or (annotation,)
    if isinstance(value, bool) and bool not in allowed or not isinstance(value, allowed):
        names = " or ".join(
            "null" if t is type(None) else t.__name__ for t in allowed
        )
        raise ValidationError(
            f"config key {key!r} must be {names}, not {type(value).__name__} {value!r}"
        )


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValidationError(f"config file {p} does not exist") from None
    except OSError as exc:
        raise ValidationError(f"config file {p} cannot be read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"config file {p} is not UTF-8 text: {exc.reason} "
                              f"at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {p} is not valid JSON: {exc}") from None
    except ValueError:  # json's integer parse past the digit limit
        raise ValidationError(
            f"config file {p} holds an integer of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    return ExperimentConfig.from_dict(data)
