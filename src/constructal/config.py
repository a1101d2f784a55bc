"""Flat key-value run configuration with dotted section names.

Format: one ``section.key = value`` per line, ``#`` comments, blank lines
ignored.  Values are floats, integers, booleans, bare words, or
``[v1, v2, ...]`` lists of floats.  Unknown keys are rejected and every
tolerance must be positive; validation happens before any computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import hierarchy as hm
from .cones import Box
from .dynamics import (
    BOUNDARY_LAYER,
    EQUIVALENT_CONTROL,
    DynamicsMode,
    IntegrationOptions,
    ProjectedGradient,
    SignDescent,
)
from .errors import ConfigError, DomainError

__all__ = ["RunConfig", "parse_config_text", "load_config", "format_value"]

_KNOWN_KEYS = {
    "costs.K",
    "assembly.A1",
    "assembly.gamma",
    "assembly.alpha",
    "assembly.beta",
    "assembly.kappa",
    "box.r_lo",
    "box.r_hi",
    "box.n_hi",
    "mode.kind",
    "mode.gradient",
    "mode.mobility",
    "mode.eta",
    "mode.zeta",
    "mode.sliding",
    "mode.epsilon",
    "run.h",
    "run.t_end",
    "run.x0",
    "run.x1",
    "run.seed",
    "tol.switch",
    "tol.boundary",
    "tol.event",
    "tol.converge",
    "sampling.count",
    "sampling.rel_halfwidth",
    "sampling.subbox_lo",
    "sampling.subbox_hi",
    "out.dir",
}


def _parse_value(raw: str, key: str):
    raw = raw.strip()
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ConfigError(f"{key}: unterminated list {raw!r}")
        body = raw[1:-1].strip()
        if not body:
            return []
        try:
            return [float(tok.strip()) for tok in body.split(",")]
        except ValueError as exc:
            raise ConfigError(f"{key}: bad list entry in {raw!r}") from exc
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def parse_config_text(text: str) -> dict:
    """Parse the flat key-value format into a dict; reject unknown keys."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = _parse_value(raw, key)
    return out


def format_value(v) -> str:
    """Byte-stable text of a config or report value: booleans as
    true/false, floats (and list entries) in shortest round-trip form."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(repr(float(x)) for x in v) + "]"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_config(data: dict, path: str | Path) -> None:
    lines = [f"{k} = {format_value(v)}" for k, v in data.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


@dataclass
class RunConfig:
    """Fully validated run description shared by all subcommands."""

    costs: hm.TransportCosts
    cfg: hm.AssemblyConfig
    mode: DynamicsMode
    options: IntegrationOptions
    h: float = 1e-3
    t_end: float | None = None
    x0: np.ndarray | None = None
    x1: np.ndarray | None = None
    seed: int = 0
    sampling_count: int = 10_000
    sampling_rel_halfwidth: float = 0.1
    sampling_subbox: tuple[np.ndarray, np.ndarray] | None = None
    out_dir: str | None = None
    gradient_mode: str = "decoupled"

    @property
    def box(self) -> Box:
        return hm.state_box(self.costs, self.cfg)


def _require(data: dict, key: str):
    if key not in data:
        raise ConfigError(f"missing required key {key!r}")
    return data[key]


def _positive(name: str, value: float) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be positive and finite, got {value}")
    return value


def _numbers(name: str, value, scalar_ok: bool = False):
    """A list value as a tuple of floats; with ``scalar_ok`` a single
    number passes through as a float."""
    if scalar_ok and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, list):
        kind = "a number or a list of numbers" if scalar_ok else "a list of numbers"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    try:
        return tuple(float(v) for v in value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}") from None


def build_run_config(data: dict) -> RunConfig:
    K = _numbers("costs.K", _require(data, "costs.K"))
    if len(K) < 2:
        raise ConfigError("costs.K must be a list with at least two entries")
    costs = hm.TransportCosts(K=K)
    p = costs.p

    gamma = _positive("assembly.gamma", data.get("assembly.gamma", 1.0))
    A1 = _positive("assembly.A1", data.get("assembly.A1", 1.0))
    kappa = data.get("assembly.kappa")
    if kappa is not None:
        kappa = _numbers("assembly.kappa", kappa)
    r_lo = _positive("box.r_lo", data.get("box.r_lo", 0.05))
    r_hi = _positive("box.r_hi", data.get("box.r_hi", 4.0))
    n_hi = _positive("box.n_hi", data.get("box.n_hi", 64.0))

    alpha = data.get("assembly.alpha")
    beta = data.get("assembly.beta")
    if (alpha is None) != (beta is None):
        raise ConfigError("assembly.alpha and assembly.beta must be given together")
    if alpha is None:
        cfg = hm.AssemblyConfig.bejan(
            costs, gamma=gamma, A1=A1, kappa=kappa, r_lo=r_lo, r_hi=r_hi, n_hi=n_hi
        )
    else:
        cfg = hm.AssemblyConfig(
            gamma=gamma,
            A1=A1,
            alpha=_numbers("assembly.alpha", alpha),
            beta=_numbers("assembly.beta", beta),
            kappa=kappa if kappa is not None else (1.0,) * (p - 1),
            r_lo=r_lo,
            r_hi=r_hi,
            n_hi=n_hi,
        )
        hm.check_optimum_in_box(costs, cfg)

    gradient_mode = str(data.get("mode.gradient", "decoupled"))
    if gradient_mode not in ("decoupled", "coupled"):
        raise ConfigError(f"mode.gradient must be decoupled|coupled, got {gradient_mode!r}")
    kind = str(data.get("mode.kind", "projected_gradient"))
    if kind == "projected_gradient":
        mobility = data.get("mode.mobility", 1.0)
        if isinstance(mobility, list):
            mobility = _numbers("mode.mobility", mobility)
        else:
            mobility = _positive("mode.mobility", mobility)
        try:
            mode: DynamicsMode = ProjectedGradient(mobility=mobility, gradient_mode=gradient_mode)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
    elif kind == "sign_descent":
        sliding = str(data.get("mode.sliding", BOUNDARY_LAYER))
        if sliding not in (BOUNDARY_LAYER, EQUIVALENT_CONTROL):
            raise ConfigError(f"mode.sliding must be boundary_layer|equivalent_control, got {sliding!r}")
        eta = _numbers("mode.eta", data.get("mode.eta", 1.0), scalar_ok=True)
        zeta = _numbers("mode.zeta", data.get("mode.zeta", 1.0), scalar_ok=True)
        epsilon = _positive("mode.epsilon", data.get("mode.epsilon", 1e-4))
        try:
            mode = SignDescent(
                eta=eta, zeta=zeta, sliding=sliding, epsilon=epsilon, gradient_mode=gradient_mode
            )
            mode.gains(p)  # validate lengths now, not at run time
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        raise ConfigError(f"mode.kind must be projected_gradient|sign_descent, got {kind!r}")

    options = IntegrationOptions(
        switch_tol=_positive("tol.switch", data.get("tol.switch", 1e-9)),
        boundary_tol=_positive("tol.boundary", data.get("tol.boundary", 1e-9)),
        event_tol=_positive("tol.event", data.get("tol.event", 1e-10)),
        converge_tol=_positive("tol.converge", data.get("tol.converge", 1e-10)),
    )

    h = _positive("run.h", data.get("run.h", 1e-3))
    t_end = data.get("run.t_end")
    if t_end is not None:
        t_end = _positive("run.t_end", t_end)
    seed = data.get("run.seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"run.seed must be a nonnegative integer, got {seed!r}")

    box = hm.state_box(costs, cfg)
    d = 2 * p - 1

    def _state(key: str):
        vec = data.get(key)
        if vec is None:
            return None
        if not isinstance(vec, list) or len(vec) != d:
            raise ConfigError(f"{key} must be a list of {d} coordinates")
        arr = np.asarray(_numbers(key, vec))
        if not box.contains(arr):
            raise ConfigError(f"{key} = {vec} lies outside the admissible box")
        return arr

    x0 = _state("run.x0")
    x1 = _state("run.x1")

    count = data.get("sampling.count", 10_000)
    if not isinstance(count, int) or count < 1:
        raise ConfigError(f"sampling.count must be a positive integer, got {count!r}")
    rel_halfwidth = _positive(
        "sampling.rel_halfwidth", data.get("sampling.rel_halfwidth", 0.1)
    )
    sub_lo = data.get("sampling.subbox_lo")
    sub_hi = data.get("sampling.subbox_hi")
    if (sub_lo is None) != (sub_hi is None):
        raise ConfigError("sampling.subbox_lo and sampling.subbox_hi must be given together")
    subbox = None
    if sub_lo is not None:
        if not isinstance(sub_lo, list) or not isinstance(sub_hi, list) \
                or len(sub_lo) != d or len(sub_hi) != d:
            raise ConfigError(f"sampling sub-box bounds must be lists of {d} coordinates")
        lo_arr = np.asarray(sub_lo, dtype=float)
        hi_arr = np.asarray(sub_hi, dtype=float)
        if np.any(lo_arr > hi_arr):
            raise ConfigError("sampling sub-box needs lo <= hi componentwise")
        if not (box.contains(lo_arr) and box.contains(hi_arr)):
            raise ConfigError("sampling sub-box must lie inside the admissible box")
        subbox = (lo_arr, hi_arr)

    out_dir = data.get("out.dir")
    if out_dir is not None:
        out_dir = str(out_dir)

    return RunConfig(
        costs=costs,
        cfg=cfg,
        mode=mode,
        options=options,
        h=h,
        t_end=t_end,
        x0=x0,
        x1=x1,
        seed=seed,
        sampling_count=count,
        sampling_rel_halfwidth=rel_halfwidth,
        sampling_subbox=subbox,
        out_dir=out_dir,
        gradient_mode=gradient_mode,
    )


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return build_run_config(parse_config_text(text))
