"""Closed-form area-to-point transport hierarchy.

The architectural state collects the per-level aspect ratios ``r_1..r_p``
and the branching numbers ``n_2..n_p``.  Areas follow the assembly
recursion ``A_1 = A1``, ``A_i = n_i A_{i-1}``; the flow a level carries is
proportional to its area, and costs are per unit of flow.

The per-unit-flow cost of level ``i`` is

    c_i(r, A) = sqrt(A) * (alpha_i K_{i-1} r + beta_i K_i / r),

whose minimizer over ``r`` is ``sqrt(beta_i/alpha_i) * sqrt(K_i/K_{i-1})``
and whose minimum is ``2 sqrt(alpha_i beta_i) sqrt(K_{i-1} K_i A)``.  The
default ("Bejan") prefactors are identified so that the minimizer equals
the classical hierarchy ratios ``2 K_1/K_0`` and ``K_i/K_{i-1}`` and the
minima equal ``sqrt(A_1 K_0 K_1 / 2)`` and ``sqrt(A_i K_{i-1} K_i)``, for
*every* admissible cost ladder.

The total resistance weighs each per-flow cost by its area (equivalently
by flow at unit areal generation) and adds strictly convex branching
penalties centered on the optimal branching numbers:

    R(x) = sum_i A_i^{3/2} (alpha_i K_{i-1} r_i + beta_i K_i / r_i)
         + sum_{i>=2} (kappa_i / 2) (n_i - n_i_opt)^2.

Every model formula (``resistance_vec``, ``resistance_lyapunov_vec``,
``gradient_vec``, ``grad_jacobian``, ``imbalance_vec``) takes a state of
shape (d,) or a stack of shape (..., d), d = 2p-1, through one body, so a
single state gives bit for bit its row of a stack.  A state whose last
axis is not 2p-1 raises DomainError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cones import Box
from .errors import ConfigError, DomainError

__all__ = [
    "TransportCosts",
    "AssemblyConfig",
    "ArchState",
    "bejan_prefactors",
    "areas_from_n",
    "resistance_vec",
    "resistance_lyapunov_vec",
    "gradient_vec",
    "grad_jacobian",
    "imbalance_vec",
    "level_cost",
    "min_cost_per_flow",
    "optimal_ratios",
    "optimal_branching",
    "optimum_state",
    "state_box",
]


@dataclass(frozen=True)
class TransportCosts:
    """Strictly decreasing ladder of transport-cost coefficients K_0..K_p."""

    K: tuple[float, ...]

    def __post_init__(self):
        K = tuple(float(k) for k in self.K)
        object.__setattr__(self, "K", K)
        if len(K) < 2:
            raise ConfigError("need at least two cost levels (p >= 1)")
        if len(K) > 33:
            raise ConfigError(f"at most 32 levels (p <= 32), got p = {len(K) - 1}: the regime mask "
                              "holds each of the 2p-1 coordinates as one bit of a 64-bit integer")
        if not all(math.isfinite(k) for k in K):
            raise ConfigError(f"cost coefficients must be finite, got {K}")
        if K[-1] <= 0.0:
            raise ConfigError("cost coefficients must be positive")
        for a, b in zip(K, K[1:]):
            if not a > b:
                raise ConfigError(f"cost ladder must be strictly decreasing, got {K}")

    @property
    def p(self) -> int:
        return len(self.K) - 1

    def as_array(self) -> np.ndarray:
        return np.asarray(self.K, dtype=float)


def bejan_prefactors(costs: TransportCosts) -> tuple[np.ndarray, np.ndarray]:
    """Prefactors identified so the per-level minimizers and minima match
    the classical hierarchy exactly, for any admissible ladder.

    Level 1: alpha = sqrt(K_0/(32 K_1)), beta = sqrt(K_1/(2 K_0)), so that
    r_opt = 2 K_1/K_0 and 2 sqrt(alpha beta) = 1/sqrt(2).  Levels >= 2:
    alpha = sqrt(K_{i-1}/K_i)/2, beta = sqrt(K_i/K_{i-1})/2, so that
    r_opt = K_i/K_{i-1} and 2 sqrt(alpha beta) = 1.  On the canonical
    ratio-1/2 ladder the level-1 pair reduces to (1/4, 1/2).
    """
    K = costs.as_array()
    alpha = np.empty(costs.p)
    beta = np.empty(costs.p)
    alpha[0] = math.sqrt(K[0] / (32.0 * K[1]))
    beta[0] = math.sqrt(K[1] / (2.0 * K[0]))
    if costs.p > 1:
        ratio = K[2:] / K[1:-1]
        alpha[1:] = 0.5 / np.sqrt(ratio)
        beta[1:] = 0.5 * np.sqrt(ratio)
    return alpha, beta


@dataclass(frozen=True)
class AssemblyConfig:
    """Geometry prefactors, branching penalties and admissible bounds."""

    A1: float
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    kappa: tuple[float, ...]
    r_lo: float = 0.05
    r_hi: float = 4.0
    n_hi: float = 64.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "kappa", tuple(float(k) for k in self.kappa))
        scalars = (self.A1, self.r_lo, self.r_hi, self.n_hi)
        if not all(math.isfinite(v) for v in scalars + self.alpha + self.beta + self.kappa):
            raise ConfigError("assembly parameters and box bounds must be finite")
        if self.A1 <= 0.0:
            raise ConfigError("A1 must be positive")
        if len(self.alpha) != len(self.beta):
            raise ConfigError("alpha and beta must have equal length")
        if len(self.kappa) != len(self.alpha) - 1:
            raise ConfigError("kappa must have one entry per assembly level (p-1)")
        if any(a <= 0 for a in self.alpha) or any(b <= 0 for b in self.beta):
            raise ConfigError("prefactors must be positive")
        if any(k <= 0 for k in self.kappa):
            raise ConfigError("branching penalty weights must be positive")
        if not (0.0 < self.r_lo < self.r_hi):
            raise ConfigError("need 0 < r_lo < r_hi")
        if not self.n_hi > 1.0:
            raise ConfigError("need n_hi > 1")

    @property
    def p(self) -> int:
        return len(self.alpha)

    @classmethod
    def bejan(
        cls,
        costs: TransportCosts,
        A1: float = 1.0,
        kappa: tuple[float, ...] | None = None,
        **bounds: float,
    ) -> "AssemblyConfig":
        """Bejan's prefactors for the ladder (:func:`bejan_prefactors`), unit
        branching penalties unless ``kappa`` is given, and the box bounds
        ``r_lo``, ``r_hi`` and ``n_hi`` given in ``bounds``, else the fields'
        defaults.  The optimum must lie in the box."""
        alpha, beta = bejan_prefactors(costs)
        if kappa is None:
            kappa = (1.0,) * (costs.p - 1)
        cfg = cls(A1=A1, alpha=tuple(alpha), beta=tuple(beta), kappa=tuple(kappa), **bounds)
        check_optimum_in_box(costs, cfg)
        return cfg


@dataclass(frozen=True)
class ArchState:
    """Aspect ratios r_1..r_p and branching numbers n_2..n_p."""

    r: tuple[float, ...]
    n: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(float(v) for v in self.r))
        object.__setattr__(self, "n", tuple(float(v) for v in self.n))
        if len(self.r) < 1:
            raise DomainError("state needs at least one aspect ratio")
        if len(self.n) != len(self.r) - 1:
            raise DomainError("need exactly p-1 branching numbers")

    @property
    def p(self) -> int:
        return len(self.r)

    def vector(self) -> np.ndarray:
        return np.asarray(self.r + self.n, dtype=float)


def state_box(costs: TransportCosts, cfg: AssemblyConfig) -> Box:
    """Admissible box for the flat state vector (r-block, then n-block)."""
    p = costs.p
    lo = np.concatenate([np.full(p, cfg.r_lo), np.ones(p - 1)])
    hi = np.concatenate([np.full(p, cfg.r_hi), np.full(p - 1, cfg.n_hi)])
    return Box(lo=lo, hi=hi)


def check_optimum_in_box(costs: TransportCosts, cfg: AssemblyConfig) -> None:
    if cfg.p != costs.p:
        raise ConfigError(f"config is for p={cfg.p} levels but costs have p={costs.p}")
    r_opt = optimal_ratios(costs, cfg)
    n_opt = optimal_branching(costs)
    if np.any(r_opt <= cfg.r_lo) or np.any(r_opt >= cfg.r_hi):
        raise ConfigError(
            f"optimal ratios {r_opt.tolist()} not strictly inside [{cfg.r_lo}, {cfg.r_hi}]"
        )
    if n_opt.size and (np.any(n_opt <= 1.0) or np.any(n_opt >= cfg.n_hi)):
        raise ConfigError(
            f"optimal branching numbers {n_opt.tolist()} not strictly inside (1, {cfg.n_hi})"
        )


# ---------------------------------------------------------------------------
# model formulas; every one takes a state (d,) or a stack (..., d), d = 2p-1,
# through one body
# ---------------------------------------------------------------------------

_last_consts = (None, None, None)


def _model_consts(costs: TransportCosts, cfg: AssemblyConfig):
    """Per-model constants of the formulas, read-only.  The last (costs, cfg)
    pair is held by identity, so the calls of one run build them once."""
    global _last_consts
    if _last_consts[0] is costs and _last_consts[1] is cfg:
        return _last_consts[2]
    K = costs.as_array()
    aK = np.asarray(cfg.alpha) * K[:-1]
    bK = np.asarray(cfg.beta) * K[1:]
    n_opt = optimal_branching(costs)
    x_opt = np.concatenate([optimal_ratios(costs, cfg), n_opt])
    wA = areas_from_n(cfg, n_opt) ** 1.5
    arrays = (aK, bK, np.asarray(cfg.kappa, dtype=float), n_opt, x_opt, wA)
    for a in arrays:
        a.flags.writeable = False
    _last_consts = (costs, cfg, (costs.p,) + arrays)
    return _last_consts[2]


def _checked_state(X, p: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[-1:] != (2 * p - 1,):
        raise DomainError(f"state has shape {X.shape}, expected (..., {2 * p - 1})")
    return X


def _as_vector(x, p: int) -> np.ndarray:
    """Flat state vector of an ArchState or array-like of 2p-1 entries."""
    v = x.vector() if isinstance(x, ArchState) else np.asarray(x, dtype=float).ravel()
    if v.size != 2 * p - 1:
        raise DomainError(f"state has dimension {v.size}, expected {2 * p - 1}")
    return v


def areas_from_n(cfg: AssemblyConfig, n: np.ndarray) -> np.ndarray:
    """A_1 = A1, A_i = n_i A_{i-1}; shape (..., p-1) -> (..., p)."""
    n = np.asarray(n, dtype=float)
    return _areas(cfg.A1, n, np.empty(n.shape[:-1] + (n.shape[-1] + 1,)))


def _areas(A1: float, n: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The areas of the branching numbers n (..., p-1), written into A (..., p)."""
    A[..., 0] = 1.0
    np.multiply.accumulate(n, axis=-1, out=A[..., 1:])
    A *= A1
    return A


def _suffix_sums(T: np.ndarray) -> np.ndarray:
    """S_i = sum_{j>=i} T_j along the last axis, accumulated from the end."""
    return np.add.accumulate(T[..., ::-1], axis=-1)[..., ::-1]


def resistance_vec(costs: TransportCosts, cfg: AssemblyConfig, X: np.ndarray) -> np.ndarray:
    """Total resistance R(x), the coupled-mode resistance_lyapunov_vec."""
    return resistance_lyapunov_vec(costs, cfg, X, "coupled")


def gradient_vec(
    costs: TransportCosts, cfg: AssemblyConfig, X: np.ndarray, mode: str = "decoupled"
) -> np.ndarray:
    """Gradient field of the selected mode.

    "decoupled": the n-components carry only the branching penalty, so the
    classical optimum is the exact zero.  "coupled": the n-components include
    the literal area coupling d(A_j^{3/2})/dn_i, which shifts the minimizer.
    """
    if mode not in ("decoupled", "coupled"):
        raise DomainError(f"unknown gradient mode {mode!r}")
    p, aK, bK, kappa, n_opt, _, _ = _model_consts(costs, cfg)
    X = _checked_state(X, p)
    r, n = X[..., :p], X[..., p:]
    out = np.empty(X.shape)
    A32 = _areas(cfg.A1, n, out[..., :p]) ** 1.5   # the r-block holds the areas until the end
    gn = kappa * (n - n_opt)
    if mode == "coupled":
        gn = gn + 1.5 * _suffix_sums(A32 * (aK * r + bK / r))[..., 1:] / n
    out[..., p:] = gn
    out[..., :p] = A32 * (aK - bK / r ** 2)
    return out


def imbalance_vec(costs: TransportCosts, cfg: AssemblyConfig, X: np.ndarray) -> np.ndarray:
    p, _, _, _, _, x_opt, _ = _model_consts(costs, cfg)
    d = _checked_state(X, p) - x_opt
    return np.add.reduce(d * d, axis=-1)


def resistance_lyapunov_vec(
    costs: TransportCosts, cfg: AssemblyConfig, X: np.ndarray, mode: str = "decoupled"
) -> np.ndarray:
    """Resistance functional dissipated by the selected adjustment mode.

    Coupled mode descends the literal total resistance, so that is
    returned.  The decoupled surrogate flow does not dissipate the literal
    functional (its area part grows whenever n climbs toward the optimum
    from below); its Lyapunov functional weighs the per-level costs by the
    reference areas of the optimal assembly instead.  Both coincide at the
    optimum and anywhere on the optimal-branching manifold.
    """
    if mode not in ("decoupled", "coupled"):
        raise DomainError(f"unknown gradient mode {mode!r}")
    p, aK, bK, kappa, n_opt, _, wA = _model_consts(costs, cfg)
    X = _checked_state(X, p)
    r, n = X[..., :p], X[..., p:]
    w = areas_from_n(cfg, n) ** 1.5 if mode == "coupled" else wA
    access = np.add.reduce(w * (aK * r + bK / r), axis=-1)
    return access + 0.5 * np.add.reduce(kappa * (n - n_opt) ** 2, axis=-1)


@lru_cache(maxsize=32)
def _jacobian_pattern(p: int):
    """Read-only index arrays of the entries of the gradient Jacobian at p
    levels, in flat coordinates (r-block 0..p-1, n-block p..2p-2):

    - the r-diagonal;
    - (i, m), m < i: row r_{i+1}, column n_{m+2};
    - the n-diagonal;
    - (i, j), i < j: row n_{i+2}, column r_{j+1} (coupled);
    - (i, k, top), i != k: row n_{i+2}, column n_{k+2}, reading the suffix
      sum at top = max(i, k) + 1 (coupled).
    """
    diag_r, diag_n = np.arange(p), p + np.arange(p - 1)
    rn, nr = np.tril_indices(p, -1), np.triu_indices(p, 1)
    nn_i, nn_k = np.nonzero(~np.eye(p - 1, dtype=bool))
    nn = (nn_i, nn_k, np.maximum(nn_i, nn_k) + 1)
    for a in (diag_r, diag_n, *rn, *nr, *nn):
        a.flags.writeable = False
    return diag_r, rn, diag_n, nr, nn


def grad_jacobian(
    costs: TransportCosts, cfg: AssemblyConfig, x: np.ndarray, mode: str = "decoupled"
) -> np.ndarray:
    """Jacobian of the selected gradient field.

    A state of shape (d,) gives a (d, d) matrix, a stack (..., d) gives
    (..., d, d).  Symmetric (the true Hessian of R) in coupled mode; in
    decoupled mode the r-rows keep their area coupling to n while the
    n-rows are diag(kappa), so the matrix is generally nonsymmetric.
    """
    if mode not in ("decoupled", "coupled"):
        raise DomainError(f"unknown gradient mode {mode!r}")
    p, aK, bK, kappa, _, _, _ = _model_consts(costs, cfg)
    x = _checked_state(x, p)
    r, n = x[..., :p], x[..., p:]
    A = areas_from_n(cfg, n)
    A32 = A * np.sqrt(A)
    c1 = aK - bK / (r * r)
    d = 2 * p - 1
    diag_r, (i, m), diag_n, nr, nn = _jacobian_pattern(p)
    J = np.zeros(r.shape[:-1] + (d, d))
    J[..., diag_r, diag_r] = A32 * 2.0 * bK / r ** 3
    J[..., i, p + m] = 1.5 * (A32[..., i] / n[..., m]) * c1[..., i]   # n_{m+2} with level m+2 <= i+1
    J[..., diag_n, diag_n] = kappa
    if mode == "coupled":
        S = _suffix_sums(A32 * (aK * r + bK / r))        # S_i = sum_{j>=i} T_j
        i, j = nr
        J[..., p + i, j] = 1.5 * (A32[..., j] / n[..., i]) * c1[..., j]
        J[..., diag_n, diag_n] += 0.75 * S[..., 1:] / (n * n)
        i, k, top = nn
        J[..., p + i, p + k] = 2.25 * S[..., top] / (n[..., i] * n[..., k])
    return J


# ---------------------------------------------------------------------------
# per-level costs and the analytic optimum
# ---------------------------------------------------------------------------

def level_cost(costs: TransportCosts, cfg: AssemblyConfig, i: int, A_i: float, r_i):
    """Per-unit-flow cost of level i (1-based) at area A_i and ratio (or ratios) r_i."""
    if not 1 <= i <= costs.p:
        raise DomainError(f"level {i} outside 1..{costs.p}")
    if A_i <= 0 or np.any(r_i <= 0):
        raise DomainError("level_cost needs positive area and ratio")
    K = costs.K
    a = cfg.alpha[i - 1] * K[i - 1]
    b = cfg.beta[i - 1] * K[i]
    return math.sqrt(A_i) * (a * r_i + b / r_i)


def min_cost_per_flow(costs: TransportCosts, cfg: AssemblyConfig, i: int, A_i: float) -> float:
    """Minimum of level_cost over the ratio: 2 sqrt(alpha beta K_{i-1} K_i A_i)."""
    if not 1 <= i <= costs.p:
        raise DomainError(f"level {i} outside 1..{costs.p}")
    if A_i <= 0:
        raise DomainError("min_cost_per_flow needs a positive area")
    K = costs.K
    return 2.0 * math.sqrt(cfg.alpha[i - 1] * cfg.beta[i - 1] * K[i - 1] * K[i] * A_i)


def optimal_ratios(costs: TransportCosts, cfg: AssemblyConfig) -> np.ndarray:
    """Per-level minimizers sqrt(beta_i/alpha_i) sqrt(K_i/K_{i-1}).

    With the identified Bejan prefactors these equal 2 K_1/K_0 and
    K_i/K_{i-1} exactly.
    """
    K = costs.as_array()
    alpha = np.asarray(cfg.alpha)
    beta = np.asarray(cfg.beta)
    return np.sqrt(beta / alpha) * np.sqrt(K[1:] / K[:-1])


def optimal_branching(costs: TransportCosts) -> np.ndarray:
    """n_2_opt = 2 K_0/K_2 and n_i_opt = 4 K_{i-2}/K_i for i >= 3."""
    K = costs.as_array()
    p = costs.p
    if p == 1:
        return np.empty(0)
    out = np.empty(p - 1)
    out[0] = 2.0 * K[0] / K[2]
    if p > 2:
        out[1:] = 4.0 * K[1:p - 1] / K[3:]
    return out


def optimum_state(costs: TransportCosts, cfg: AssemblyConfig) -> ArchState:
    return ArchState(
        r=tuple(optimal_ratios(costs, cfg)),
        n=tuple(optimal_branching(costs)),
    )
