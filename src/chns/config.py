"""Experiment configuration: JSON files plus command-line overrides."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .experiments import coarsening_params, default_cross_polygon, polygon_is_simple, \
    relaxation_params, tau_rule
from .scheme import Params


class ConfigError(ValueError):
    pass


# each command's keys and defaults: its driver's preset (constants, time step,
# final time) plus the settings the command reads
_DEFAULTS = {kind: {**asdict(preset()), **extra, "out_dir": "out"} for kind, preset, extra in [
    ("converge", Params, dict(levels=[4, 8, 16], tau_factor=0.1)),
    ("coarsen", coarsening_params,
     dict(nx=64, seed=2024, snapshot_times=[0.001, 0.05, 0.1, 0.15, 0.3, 1.0, 3.0, 5.0])),
    # the prose and the figure caption disagree on the early snapshot
    # instants, so both sets are emitted
    ("relax", relaxation_params,
     dict(nx=64, snapshot_times=[0.0, 0.01, 0.02, 0.05, 0.08, 0.1, 0.2, 0.3, 0.5],
          polygon=default_cross_polygon().tolist())),
    ("stability", coarsening_params, dict(nx=64, seed=2024, tau_list=[1e-3, 1e-2, 1e-1])),
]}
# these two take each run's time step from tau_factor and tau_list
del _DEFAULTS["converge"]["tau"], _DEFAULTS["stability"]["tau"]


@dataclass(frozen=True)
class ExperimentConfig:
    """A command's constants, with the time step of its first run, and its other
    settings: the keys of `_DEFAULTS[kind]` that are not `Params` fields."""

    kind: str
    params: Params
    settings: dict


# element types of the list keys that hold numbers
_ITEM_TYPES = {"tau_list": float, "snapshot_times": float, "levels": int}


def _is_a(value, kind: type) -> bool:
    """isinstance, but an int passes for a float, and a bool or a NaN or inf fails."""
    kinds = (int, float) if kind is float else kind
    return isinstance(value, kinds) and not isinstance(value, bool) \
        and not (isinstance(value, float) and not math.isfinite(value))


def parse_config(kind: str, path: str | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    """Build a command's configuration from its defaults, an optional JSON file, and overrides.

    A key the kind does not read, a file whose "kind" names another command
    and a value of the wrong type are rejected. The built-in defaults replicate the
    published experiment settings verbatim; user-supplied stabilization shifts
    must additionally satisfy c1 > gamma, which those presets are exempt from.
    """
    data: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
    if overrides:
        data = {**data, **{k: v for k, v in overrides.items() if v is not None}}

    named = data.pop("kind", kind)
    if named != kind:
        raise ConfigError(f"the config is for kind {named!r}, not {kind!r}")
    if kind not in _DEFAULTS:
        raise ConfigError(f"experiment kind must be one of {sorted(_DEFAULTS)}, got {kind!r}")

    defaults = _DEFAULTS[kind]
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys for {kind}: {sorted(unknown)}")
    for key, value in data.items():
        want, items = type(defaults[key]), _ITEM_TYPES.get(key)
        if not _is_a(value, want) or items and not all(_is_a(v, items) for v in value):
            what = f"a list of {items.__name__}" if items else want.__name__
            raise ConfigError(f"{key} must be {what}, got {value!r}")
    settings = {**defaults, **data}

    explicit_shift = "c1" in data or "gamma" in data
    if explicit_shift and settings["c1"] <= settings["gamma"]:
        raise ConfigError(f"c1 must exceed gamma, got c1={settings['c1']}, "
                          f"gamma={settings['gamma']}")
    # splitmix64 takes the seed as one unsigned 64-bit word
    if not 0 <= settings.get("seed", 0) < 2 ** 64:
        raise ConfigError(f"seed must lie in [0, 2^64), got {settings['seed']!r}")
    for key in ("levels", "tau_list"):  # one run per value
        if key in settings and not settings[key]:
            raise ConfigError(f"{key} must hold at least one value")
    if any(n < 1 for n in settings.get("levels", [settings.get("nx")])):
        raise ConfigError("mesh subdivisions (nx, levels) must be at least 1")
    if kind == "converge" and settings["levels"] != sorted(settings["levels"]):
        raise ConfigError("levels must be sorted coarse to fine")

    if kind == "converge":
        rule = tau_rule(settings["tau_factor"])
        taus = [rule(1.0 / n) for n in settings["levels"]]
    else:
        taus = settings["tau_list"] if kind == "stability" else [settings["tau"]]
    constants = {f.name: settings.pop(f.name) for f in fields(Params) if f.name in settings}
    try:
        runs = [Params(**{**constants, "tau": tau}) for tau in taus]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for run in runs:
        # the drivers march round(t_end / tau) steps
        if abs(round(run.t_end / run.tau) * run.tau - run.t_end) > 1e-9 * run.t_end:
            raise ConfigError(f"t_end {run.t_end} is not a whole number of time steps "
                              f"{run.tau:g}")
    if kind == "relax":
        _check_polygon(settings["polygon"])
    return ExperimentConfig(kind=kind, params=runs[0], settings=settings)


def _check_polygon(polygon: list) -> None:
    pairs = all(isinstance(v, list) and len(v) == 2 and all(_is_a(c, float) for c in v)
                for v in polygon)
    if not (pairs and len(polygon) >= 3):
        raise ConfigError(f"polygon must be a list of at least 3 [x, y] number pairs, "
                          f"got {polygon!r}")
    if not polygon_is_simple(np.asarray(polygon, dtype=float)):
        raise ConfigError("polygon must be simple (non self-intersecting)")
