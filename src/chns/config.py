"""Experiment configuration: JSON files plus command-line overrides."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .experiments import coarsening_params, polygon_is_simple, relaxation_params
from .scheme import Params


class ConfigError(ValueError):
    pass


# each kind starts from its driver's preset (constants, time step, final time)
_DEFAULTS = {kind: {**asdict(preset()), **extra} for kind, preset, extra in [
    ("converge", Params, dict(levels=[4, 8, 16], tau_factor=0.1)),
    ("coarsen", coarsening_params,
     dict(nx=64, seed=2024, snapshot_times=[0.001, 0.05, 0.1, 0.15, 0.3, 1.0, 3.0, 5.0])),
    # the prose and the figure caption disagree on the early snapshot
    # instants, so both sets are emitted
    ("relax", relaxation_params,
     dict(nx=64, seed=2024, snapshot_times=[0.0, 0.01, 0.02, 0.05, 0.08, 0.1, 0.2, 0.3, 0.5])),
    ("stability", coarsening_params, dict(nx=64, seed=2024, tau_list=[1e-3, 1e-2, 1e-1])),
]}


@dataclass
class ExperimentConfig:
    kind: str
    mobility: float = 0.0
    lam: float = 0.0
    nu: float = 0.0
    eps: float = 0.0
    gamma: float = 1.0
    c1: float = 0.0
    c2: float = 0.0
    t_end: float = 0.0
    tau: float = 0.001
    tau_factor: float = 0.1
    tau_list: list = field(default_factory=list)
    levels: list = field(default_factory=list)
    nx: int = 64
    seed: int = 2024
    snapshot_times: list = field(default_factory=list)
    out_dir: str = "out"
    solver_tol: float = 1e-10
    polygon: list | None = None

    def params(self) -> Params:
        values = {f.name: getattr(self, f.name) for f in fields(Params)}
        if self.kind == "stability" and self.tau_list:
            # the sweep runs each tau of its list, never the preset's own
            values["tau"] = min(self.tau_list)
        return Params(**values)


# element types of the list keys that hold numbers
_ITEM_TYPES = {"tau_list": float, "snapshot_times": float, "levels": int}


def _is_a(value, kind: type) -> bool:
    """isinstance, but an int passes for a float, and a bool or a NaN or inf fails."""
    kinds = (int, float) if kind is float else kind
    return isinstance(value, kinds) and not isinstance(value, bool) \
        and not (isinstance(value, float) and not math.isfinite(value))


def parse_config(path: str | None = None, kind: str | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    """Build a configuration from defaults, an optional JSON file, and overrides.

    Unknown keys and values of the wrong type are rejected. The built-in
    defaults replicate the published experiment settings verbatim;
    user-supplied stabilization shifts must additionally satisfy c1 > gamma,
    which those presets are exempt from.
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

    kind = data.pop("kind", kind)
    if kind not in _DEFAULTS:
        raise ConfigError(f"experiment kind must be one of {sorted(_DEFAULTS)}, got {kind!r}")

    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    template = ExperimentConfig(kind=kind)
    for key, value in data.items():
        default = getattr(template, key)
        want = list if default is None else type(default)  # polygon: None selects the cross
        items = _ITEM_TYPES.get(key)
        if not (_is_a(value, want) or default is value is None) \
                or items and not all(_is_a(v, items) for v in value):
            what = f"a list of {items.__name__}" if items else want.__name__
            raise ConfigError(f"{key} must be {what}, got {value!r}")

    merged = {**_DEFAULTS[kind], **data}
    cfg = ExperimentConfig(kind=kind, **merged)
    try:
        cfg.params()  # the physical constants, tau, t_end and solver_tol
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    explicit_shift = "c1" in data or "gamma" in data
    if explicit_shift and cfg.c1 <= cfg.gamma:
        raise ConfigError(f"c1 must exceed gamma, got c1={cfg.c1}, gamma={cfg.gamma}")
    if cfg.tau_factor <= 0 or any(t <= 0 for t in cfg.tau_list):
        raise ConfigError("tau_factor and every tau in tau_list must be positive")
    # splitmix64 takes the seed as one unsigned 64-bit word
    if not 0 <= cfg.seed < 2 ** 64:
        raise ConfigError(f"seed must lie in [0, 2^64), got {cfg.seed!r}")
    taus = cfg.tau_list if cfg.kind == "stability" else [cfg.tau]
    if any(t > cfg.t_end for t in taus):
        raise ConfigError(f"time step exceeds the final time {cfg.t_end}")
    if cfg.kind == "stability" and not cfg.tau_list:  # one run per value
        raise ConfigError("tau_list must hold at least one value")
    if cfg.kind == "converge" and not cfg.levels:
        raise ConfigError("levels must hold at least one value")
    if cfg.nx < 1 or any(n < 1 for n in cfg.levels):
        raise ConfigError("mesh subdivisions (nx, levels) must be at least 1")
    if cfg.kind == "converge" and list(cfg.levels) != sorted(cfg.levels):
        raise ConfigError("levels must be sorted coarse to fine")
    if cfg.kind == "converge":
        # the study's time step at each level, as `cli` hands it to the driver
        taus = [cfg.tau_factor * (1.0 / n) ** 3 for n in cfg.levels]
    for tau in taus:
        # the drivers march round(t_end / tau) steps
        if abs(round(cfg.t_end / tau) * tau - cfg.t_end) > 1e-9 * cfg.t_end:
            raise ConfigError(f"t_end {cfg.t_end} is not a whole number of time steps {tau:g}")
    if cfg.polygon is not None:
        _check_polygon(cfg.polygon)
    return cfg


def _check_polygon(polygon: list) -> None:
    pairs = all(isinstance(v, list) and len(v) == 2 and all(_is_a(c, float) for c in v)
                for v in polygon)
    if not (pairs and len(polygon) >= 3):
        raise ConfigError(f"polygon must be a list of at least 3 [x, y] number pairs, "
                          f"got {polygon!r}")
    if not polygon_is_simple(np.asarray(polygon, dtype=float)):
        raise ConfigError("polygon must be simple (non self-intersecting)")
