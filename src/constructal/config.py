"""Flat key-value run configuration with dotted section names.

Format: one ``section.key = value`` per line, ``#`` comments, blank lines
ignored.  Values are floats, integers, booleans, bare words, or
``[v1, v2, ...]`` lists of floats.  Every key, its kind and its default
are listed once, in ``KEYS``; unknown keys are rejected, no numeric key
takes a boolean, and validation happens before any computation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import hierarchy as hm
from .cones import Box
from .dynamics import DynamicsMode, IntegrationOptions, ProjectedGradient, SignDescent
from .errors import ConfigError, DomainError

__all__ = ["KEYS", "RunConfig", "parse_config_text", "load_config", "format_value", "write_config"]

# largest certificate sample count (analysis.certify_contraction): about
# 30 s at d = 5; below it, the sampler's k * alpha keeps at least 29
# fractional bits
SAMPLE_LIMIT = 10**7


def _is_number(v) -> bool:
    """A float, or an int (not a bool) within the float range."""
    return isinstance(v, float) or (type(v) is int and abs(v) <= sys.float_info.max)


def _positive(key: str, v) -> float:
    if not (_is_number(v) and math.isfinite(v) and v > 0):
        raise ConfigError(f"{key} must be a positive finite number, got {v!r}")
    return float(v)


def _integer(minimum: int, maximum: int | None = None):
    def convert(key: str, v) -> int:
        if not (type(v) is int and v >= minimum):
            raise ConfigError(f"{key} must be an integer >= {minimum}, got {v!r}")
        if maximum is not None and v > maximum:
            raise ConfigError(f"{key} must be an integer <= {maximum}, got {v!r}")
        return v

    return convert


def _word(key: str, v) -> str:
    if isinstance(v, (bool, list)):
        raise ConfigError(f"{key} must be a word, got {v!r}")
    return str(v)


def _numbers(key: str, v) -> tuple[float, ...]:
    if not (isinstance(v, list) and all(_is_number(x) for x in v)):
        raise ConfigError(f"{key} must be a list of numbers, got {v!r}")
    return tuple(float(x) for x in v)


def _speed(key: str, v):
    """A number, or a list of numbers; the law checks their values."""
    if _is_number(v):
        return float(v)
    if not isinstance(v, list):
        raise ConfigError(f"{key} must be a number or a list of numbers, got {v!r}")
    return _numbers(key, v)


# the declared field defaults of the dataclasses that own the box, mode and tolerance keys
_BOX, _PG, _SD, _TOL = ({f.name: f.default for f in fields(c)}
                        for c in (hm.AssemblyConfig, ProjectedGradient, SignDescent, IntegrationOptions))

# key -> (converter, default); None: no default (costs.K is required)
KEYS = {
    "costs.K": (_numbers, None),
    "assembly.A1": (_positive, 1.0),
    "assembly.kappa": (_numbers, None),
    "assembly.alpha": (_numbers, None),
    "assembly.beta": (_numbers, None),
    "box.r_lo": (_positive, _BOX["r_lo"]),
    "box.r_hi": (_positive, _BOX["r_hi"]),
    "box.n_hi": (_positive, _BOX["n_hi"]),
    "mode.kind": (_word, "projected_gradient"),
    "mode.gradient": (_word, _PG["gradient_mode"]),
    "mode.mobility": (_speed, _PG["mobility"]),
    "mode.sliding": (_word, _SD["sliding"]),
    "mode.epsilon": (_positive, _SD["epsilon"]),
    "mode.eta": (_speed, _SD["eta"]),
    "mode.zeta": (_speed, _SD["zeta"]),
    "run.h": (_positive, 1e-3),
    "run.t_end": (_positive, None),
    "run.x0": (_numbers, None),
    "run.x1": (_numbers, None),
    "run.seed": (_integer(0), 0),
    "tol.switch": (_positive, _TOL["switch_tol"]),
    "tol.boundary": (_positive, _TOL["boundary_tol"]),
    "tol.event": (_positive, _TOL["event_tol"]),
    "tol.converge": (_positive, _TOL["converge_tol"]),
    "sampling.count": (_integer(1, SAMPLE_LIMIT), 10_000),
    "sampling.rel_halfwidth": (_positive, 0.1),
    "sampling.subbox_lo": (_numbers, None),
    "sampling.subbox_hi": (_numbers, None),
    "out.dir": (_word, None),
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
        if key not in KEYS:
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


def write_config(data, path: str | Path) -> None:
    """Write a config or a report: one ``key = value`` line per item of
    data (a dict or a list of pairs), in order."""
    lines = [f"{k} = {format_value(v)}" for k, v in dict(data).items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


@dataclass
class RunConfig:
    """Fully validated run description shared by all subcommands."""

    costs: hm.TransportCosts
    cfg: hm.AssemblyConfig
    mode: DynamicsMode
    options: IntegrationOptions
    h: float
    t_end: float | None
    x0: np.ndarray | None
    x1: np.ndarray | None
    seed: int
    sampling_count: int
    sampling_rel_halfwidth: float
    sampling_subbox: tuple[np.ndarray, np.ndarray] | None
    out_dir: str | None

    @property
    def box(self) -> Box:
        return hm.state_box(self.costs, self.cfg)

    @property
    def gradient_mode(self) -> str:
        return self.mode.gradient_mode


def _paired(v: dict, a: str, b: str) -> bool:
    """Whether the keys a and b are given; they must be given together."""
    if (v[a] is None) != (v[b] is None):
        raise ConfigError(f"{a} and {b} must be given together")
    return v[a] is not None


def _in_box(v: dict, key: str, box: Box) -> np.ndarray | None:
    """The state of key, if given: box.dim coordinates inside the box."""
    if v[key] is None:
        return None
    if len(v[key]) != box.dim:
        raise ConfigError(f"{key} must be a list of {box.dim} coordinates")
    arr = np.asarray(v[key])
    if not box.contains(arr):
        raise ConfigError(f"{key} = {format_value(arr)} lies outside the admissible box")
    return arr


def _mode(v: dict, p: int) -> DynamicsMode:
    kind, gradient_mode = v["mode.kind"], v["mode.gradient"]
    if kind == "projected_gradient":
        mode = ProjectedGradient(mobility=v["mode.mobility"], gradient_mode=gradient_mode)
        mode.mobility_vector(2 * p - 1)  # check lengths now, not at run time
    elif kind == "sign_descent":
        mode = SignDescent(eta=v["mode.eta"], zeta=v["mode.zeta"], sliding=v["mode.sliding"],
                           epsilon=v["mode.epsilon"], gradient_mode=gradient_mode)
        mode.gains(p)
    else:
        raise ConfigError(f"mode.kind must be projected_gradient|sign_descent, got {kind!r}")
    return mode


def build_run_config(data: dict) -> RunConfig:
    v = {}
    for key, (convert, default) in KEYS.items():
        value = data.get(key, default)
        v[key] = None if value is None else convert(key, value)
    if v["costs.K"] is None:
        raise ConfigError("missing required key 'costs.K'")

    costs = hm.TransportCosts(K=v["costs.K"])
    if _paired(v, "assembly.alpha", "assembly.beta"):
        alpha, beta = v["assembly.alpha"], v["assembly.beta"]
    else:
        alpha, beta = hm.bejan_prefactors(costs)
    kappa = v["assembly.kappa"]
    cfg = hm.AssemblyConfig(
        A1=v["assembly.A1"],
        alpha=alpha,
        beta=beta,
        kappa=(1.0,) * (costs.p - 1) if kappa is None else kappa,
        r_lo=v["box.r_lo"],
        r_hi=v["box.r_hi"],
        n_hi=v["box.n_hi"],
    )
    hm.check_optimum_in_box(costs, cfg)
    try:
        mode = _mode(v, costs.p)
    except DomainError as exc:
        raise ConfigError(f"mode: {exc}") from exc

    box = hm.state_box(costs, cfg)
    subbox = None
    if _paired(v, "sampling.subbox_lo", "sampling.subbox_hi"):
        subbox = (_in_box(v, "sampling.subbox_lo", box), _in_box(v, "sampling.subbox_hi", box))
        if np.any(subbox[0] > subbox[1]):
            raise ConfigError("sampling sub-box needs lo <= hi componentwise")

    return RunConfig(
        costs=costs,
        cfg=cfg,
        mode=mode,
        options=IntegrationOptions(
            switch_tol=v["tol.switch"],
            boundary_tol=v["tol.boundary"],
            event_tol=v["tol.event"],
            converge_tol=v["tol.converge"],
        ),
        h=v["run.h"],
        t_end=v["run.t_end"],
        x0=_in_box(v, "run.x0", box),
        x1=_in_box(v, "run.x1", box),
        seed=v["run.seed"],
        sampling_count=v["sampling.count"],
        sampling_rel_halfwidth=v["sampling.rel_halfwidth"],
        sampling_subbox=subbox,
        out_dir=v["out.dir"],
    )


def load_config(path: str | Path, seed: int | None = None) -> RunConfig:
    """The run config in the file at path; a seed, if given, replaces run.seed."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    data = parse_config_text(text)
    if seed is not None:
        data["run.seed"] = seed
    return build_run_config(data)
