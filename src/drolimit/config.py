"""Experiment configuration: JSON schema, validation, dotted overrides."""

from __future__ import annotations

import copy
import json
from typing import Any, Dict, List, Optional

import numpy as np

from .errors import InputError
from .fields import CompactWindow, Grid
from .models import Action, ReferenceModel
from .operators import MAX_LEVEL, OperatorConfig

DEFAULT_CONFIG: Dict[str, Any] = {
    "model": {
        "actions": [{"label": "a0", "drift": [0.0], "sigma": [[1.0]]}],
    },
    "ambiguity": {"m": 0.5, "p": 2.0},
    "grid": {
        "dim": 1,
        "lo": [-8.0],
        "hi": [8.0],
        "n": [513],
        "window": {"lo": [-4.0], "hi": [4.0]},
    },
    "numerics": {
        "quad_order": 16,
        "cand_per_side": 12,
        "stop_tol": 1e-3,
        "max_level": 8,
        "cfl_safety": 0.8,
    },
    # each subcommand checks its own parameters against its defaults (cli)
    "experiment": {"parameters": {}},
    "output": {"directory": "out"},
}

# the keys an action may set, each with a value of its type; none is a
# default: ``ReferenceModel`` requires every key but the label and theta
_ACTION_KEYS = {"label": "", "drift": [0.0], "sigma": [[0.0]], "theta": [[0.0]]}


def check_values(values, defaults: dict, path: str) -> dict:
    """``values`` laid over ``defaults``: a key left out takes its default at
    every depth, and a value that is not an object (the action list among
    them) replaces its default whole.

    Refuses a key with no default, a non-object where the default is an
    object, a non-list where it is a list, a non-number where it is a number,
    a fraction where it is an int, and a non-string where it is a string,
    naming the key.  A nonempty default object is checked recursively, an
    empty one (``experiment.parameters``) only has to be an object, and list
    items are checked against the default's first item unless it is an object."""
    if not isinstance(values, dict):
        raise InputError(f"{path} must be an object, got {values!r}")
    out = copy.deepcopy(defaults)
    for key, value in values.items():
        name = f"{path}.{key}" if path else key
        if key not in defaults:
            raise InputError(f"unknown configuration key {name}")
        default = defaults[key]
        if isinstance(default, dict):
            if default or not isinstance(value, dict):
                value = check_values(value, default, name)
        elif isinstance(default, list):
            if not isinstance(value, list):
                raise InputError(f"{name} must be a list, got {value!r}")
            if default and not isinstance(default[0], dict):
                check_values(dict(enumerate(value)), dict.fromkeys(range(len(value)), default[0]), name)
        elif isinstance(default, (int, float)) and (
            isinstance(value, bool) or not isinstance(value, (int, float))
        ):
            raise InputError(f"{name} must be a number, got {value!r}")
        elif isinstance(default, int) and isinstance(value, float) and not value.is_integer():
            raise InputError(f"{name} must be an integer, got {value!r}")
        elif isinstance(default, str) and not isinstance(value, str):
            raise InputError(f"{name} must be a string, got {value!r}")
        out[key] = value
    return out


def load_config(path: Optional[str], overrides: Optional[List[str]] = None) -> dict:
    """The config at ``path`` (none: the defaults) with the dotted
    ``overrides`` applied, laid over the defaults and checked."""
    cfg = {}
    if path is not None:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise InputError(f"cannot read config {path}: {e}") from e
        if not isinstance(cfg, dict):
            raise InputError(f"config {path} must hold an object")
    for item in overrides or []:
        _apply_override(cfg, item)
    # after the overrides, so that an override of a whole section keeps the
    # defaults of the keys it leaves out
    cfg = check_values(cfg, DEFAULT_CONFIG, "")
    for i, act in enumerate(cfg["model"]["actions"]):
        check_values(act, _ACTION_KEYS, f"model.actions[{i}]")
    if cfg["ambiguity"]["m"] < 0:
        raise InputError("ambiguity.m must be nonnegative")
    if not cfg["ambiguity"]["p"] > 1:
        raise InputError("ambiguity.p must exceed 1")
    g, num = cfg["grid"], cfg["numerics"]
    if g["dim"] != len(g["lo"]):
        raise InputError(f"grid.dim is {g['dim']} but grid.lo has {len(g['lo'])} entries")
    # the ranges that ``law``, ``OperatorConfig``, ``scaling_limit`` and the PDE solver check
    for key, lo, hi in (("quad_order", 4, 64), ("cand_per_side", 1, np.inf),
                        ("max_level", 0, MAX_LEVEL), ("stop_tol", 0, np.inf)):
        if not lo <= num[key] <= hi:
            raise InputError(f"numerics.{key} must lie in [{lo}, {hi}], got {num[key]!r}")
    if not 0 < num["cfl_safety"] <= 1:
        raise InputError(f"numerics.cfl_safety must lie in (0, 1], got {num['cfl_safety']!r}")
    return cfg


def _apply_override(cfg: dict, item: str) -> None:
    if "=" not in item:
        raise InputError(f"override {item!r} is not of the form key.path=value")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        if part not in node or not isinstance(node[part], dict):
            node[part] = {}
        node = node[part]
    node[parts[-1]] = value


def build_window(cfg: dict) -> CompactWindow:
    w = cfg["grid"]["window"]
    return CompactWindow(tuple(w["lo"]), tuple(w["hi"]))


def build_operator_config(cfg: dict) -> OperatorConfig:
    g, num = cfg["grid"], cfg["numerics"]
    actions = [Action(**{"label": f"a{i}", **spec}) for i, spec in enumerate(cfg["model"]["actions"])]
    return OperatorConfig(
        model=ReferenceModel(actions, dim=int(g["dim"])),
        m=float(cfg["ambiguity"]["m"]),
        grid=Grid(tuple(g["lo"]), tuple(g["hi"]), tuple(g["n"])),
        p=float(cfg["ambiguity"]["p"]),
        quad_order=int(num["quad_order"]),
        cand_per_side=int(num["cand_per_side"]),
    )


def build_scheme(cfg: dict) -> float:
    """The PDE solver's ``cfl_safety``."""
    return float(cfg["numerics"]["cfl_safety"])
