"""Autonomous Filippov dynamics on the admissible box.

Two adjustment laws are realized: discontinuous sign descent (with either
equivalent-control or boundary-layer sliding) and projected gradient flow.
Both report states on a fixed nominal output grid 0, h, 2h, ..., but they
are stepped differently.

Projected gradient is stiff near the optimum (Jacobian eigenvalues from
0.5 to 1024 on the canonical ladder).  It is integrated by a linearly
implicit Rosenbrock pair, RODAS4 (Hairer & Wanner, *Solving ODEs II*,
Sec. IV.7), fed with the analytic Jacobian.  Its embedded error estimate
and a bound on the change of velocity per step set the step size, which
does not depend on h; a continuous dense output fills the grid rows a
step covers, and box-face contact and release are located as roots of
it.  The same (N, d) stepper drives single runs, paired runs and
ensembles; every row has its own step size and error norm.

Sign descent stays on classical RK4 steps within each nominal step, with
a deterministic step-doubling error control.  It locates regime changes
(switching-manifold crossings, sliding entry/exit, box-face contact and
release) by bisection along the frozen-regime flow and re-takes the
remainder in the new regime.

Both paths are float-pure, so identical inputs give bit-identical
trajectories.  Coordinate indices in events and masks are flat: 0..p-1
are the aspect ratios r_1..r_p, p..2p-2 are the branching numbers
n_2..n_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import hierarchy as hm
from .cones import Box, kkt_residual, tangent_project_batch
from .errors import DomainError, SingularSlidingError, StepFailureError

__all__ = [
    "ProjectedGradient",
    "SignDescent",
    "IntegrationOptions",
    "Regime",
    "EventRecord",
    "Trajectory",
    "PairedRun",
    "EnsembleResult",
    "velocity",
    "slide_velocity",
    "step",
    "integrate",
    "two_trajectory_run",
    "integrate_ensemble",
]

EQUIVALENT_CONTROL = "equivalent_control"
BOUNDARY_LAYER = "boundary_layer"

SWITCH_CROSS = "SwitchCross"
SLIDE_ENTER = "SlideEnter"
SLIDE_EXIT = "SlideExit"
BOUNDARY_CONTACT = "BoundaryContact"
BOUNDARY_RELEASE = "BoundaryRelease"


def _positive_finite(v: float) -> bool:
    return math.isfinite(v) and v > 0.0


@dataclass(frozen=True)
class ProjectedGradient:
    """x' = P_T(-M grad R); mobility is a positive scalar or diagonal."""

    mobility: float | tuple[float, ...] = 1.0
    gradient_mode: str = "decoupled"

    def __post_init__(self):
        mob = self.mobility
        if np.ndim(mob) == 0:
            if not _positive_finite(float(mob)):
                raise DomainError("mobility must be positive and finite")
        else:
            mob = tuple(float(v) for v in mob)
            if not all(_positive_finite(v) for v in mob):
                raise DomainError("mobility entries must be positive and finite")
            object.__setattr__(self, "mobility", mob)
        if self.gradient_mode not in ("decoupled", "coupled"):
            raise DomainError(f"unknown gradient mode {self.gradient_mode!r}")

    def mobility_vector(self, d: int) -> np.ndarray:
        if np.ndim(self.mobility) == 0:
            return np.full(d, float(self.mobility))
        m = np.asarray(self.mobility, dtype=float)
        if m.size != d:
            raise DomainError(f"diagonal mobility has {m.size} entries, state has {d}")
        return m


@dataclass(frozen=True)
class SignDescent:
    """x'_j = -gain_j sgn(d_j R) with Filippov sliding on the manifolds.

    ``sliding`` selects the numerical realization: "equivalent_control"
    solves the sliding system exactly, "boundary_layer" replaces sgn(u)
    with clip(u/epsilon, -1, 1).
    """

    eta: float | tuple[float, ...] = 1.0
    zeta: float | tuple[float, ...] = 1.0
    sliding: str = BOUNDARY_LAYER
    epsilon: float = 1e-4
    gradient_mode: str = "decoupled"

    def __post_init__(self):
        if self.sliding not in (EQUIVALENT_CONTROL, BOUNDARY_LAYER):
            raise DomainError(f"unknown sliding realization {self.sliding!r}")
        if not _positive_finite(self.epsilon):
            raise DomainError("boundary layer width must be positive and finite")
        for name in ("eta", "zeta"):
            v = getattr(self, name)
            if np.ndim(v) == 0:
                if not _positive_finite(float(v)):
                    raise DomainError(f"{name} gains must be positive and finite")
            else:
                v = tuple(float(x) for x in v)
                if not all(_positive_finite(g) for g in v):
                    raise DomainError(f"{name} gains must be positive and finite")
                object.__setattr__(self, name, v)
        if self.gradient_mode not in ("decoupled", "coupled"):
            raise DomainError(f"unknown gradient mode {self.gradient_mode!r}")

    def gains(self, p: int) -> np.ndarray:
        eta = np.full(p, self.eta) if np.ndim(self.eta) == 0 else np.asarray(self.eta, dtype=float)
        zeta = (
            np.full(p - 1, self.zeta)
            if np.ndim(self.zeta) == 0
            else np.asarray(self.zeta, dtype=float)
        )
        if eta.size != p or zeta.size != p - 1:
            raise DomainError(f"gains sized ({eta.size}, {zeta.size}), need ({p}, {p - 1})")
        return np.concatenate([eta, zeta])


DynamicsMode = ProjectedGradient | SignDescent


@dataclass(frozen=True)
class IntegrationOptions:
    switch_tol: float = 1e-9
    boundary_tol: float = 1e-9
    event_tol: float = 1e-10
    converge_tol: float = 1e-10
    stop_on_convergence: bool = True
    max_events_per_step: int = 64
    substep_rtol: float = 1e-9
    substep_atol: float = 1e-12
    cond_threshold: float = 1e12


@dataclass(frozen=True)
class Regime:
    """Active structure of the right-hand side at a point."""

    sliding: tuple[int, ...]
    lower: tuple[int, ...]
    upper: tuple[int, ...]
    signs: tuple[int, ...]
    velocity: np.ndarray

    def mask(self) -> int:
        bits = 0
        for j in self.sliding:
            bits |= 1 << j
        for j in self.lower:
            bits |= 1 << j
        for j in self.upper:
            bits |= 1 << j
        return bits


@dataclass(frozen=True)
class EventRecord:
    time: float
    kind: str
    index: int


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    R_values: np.ndarray
    Psi_values: np.ndarray
    regime_masks: np.ndarray
    events: list[EventRecord]
    step_events: list[str]
    status: str
    max_clip: float
    notes: list[str] = field(default_factory=list)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def event_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out


@dataclass
class PairedRun:
    first: Trajectory
    second: Trajectory
    times: np.ndarray
    separation: np.ndarray


@dataclass
class EnsembleResult:
    times: np.ndarray
    final_states: np.ndarray
    R_values: np.ndarray
    Psi_values: np.ndarray
    max_clip: float


def _as_vector(x, p: int) -> np.ndarray:
    if isinstance(x, hm.ArchState):
        return x.vector()
    v = np.asarray(x, dtype=float).ravel()
    if v.size != 2 * p - 1:
        raise DomainError(f"state has dimension {v.size}, expected {2 * p - 1}")
    return v


# ---------------------------------------------------------------------------
# regime evaluation and frozen-regime fields
# ---------------------------------------------------------------------------

def _face_freeze(box: Box, x: np.ndarray, v: np.ndarray, tol: float):
    """Zero outward components at active faces; return (v, lower, upper)."""
    lower = []
    upper = []
    out = v.copy()
    at_lo = box.active_lower(x, tol)
    at_hi = box.active_upper(x, tol)
    for j in range(x.size):
        if at_lo[j] and out[j] < 0.0:
            out[j] = 0.0
            lower.append(j)
        elif at_hi[j] and out[j] > 0.0:
            out[j] = 0.0
            upper.append(j)
    return out, tuple(lower), tuple(upper)


def _slide_solve(
    mode: SignDescent,
    costs,
    cfg,
    x: np.ndarray,
    S: list[int],
    v_ext: np.ndarray,
    opts: IntegrationOptions,
    check_cond: bool = False,
) -> np.ndarray:
    """Solve the sliding system on the active set S with externals frozen."""
    H = hm.grad_jacobian(costs, cfg, x, mode.gradient_mode)
    in_S = np.zeros(x.size, dtype=bool)
    in_S[S] = True
    A = H[S][:, S]
    if check_cond and np.linalg.cond(A) > opts.cond_threshold:
        raise SingularSlidingError(
            f"sliding block on coordinates {S} has condition number beyond "
            f"{opts.cond_threshold:g}"
        )
    rhs = -(H[S][:, ~in_S] @ v_ext[~in_S]) if len(S) < x.size else np.zeros(len(S))
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSlidingError(f"sliding block on coordinates {S} is singular") from exc


def _slide_iterate(
    mode: SignDescent,
    costs,
    cfg,
    x: np.ndarray,
    S0: list[int],
    signs: np.ndarray,
    gains: np.ndarray,
    opts: IntegrationOptions,
):
    """Clamp-and-drop iteration of the Filippov sliding condition.

    Returns (velocity, surviving set, drop directions) where drop
    directions record the saturated sign for coordinates expelled from S.
    """
    S = sorted(S0)
    v = -gains * signs
    dropped: dict[int, int] = {}
    while S:
        vS = _slide_solve(mode, costs, cfg, x, S, v, opts, check_cond=True)
        over = np.abs(vS) / gains[S]
        worst = int(np.argmax(over))
        if over[worst] <= 1.0 + 1e-12:
            for idx, j in enumerate(S):
                v[j] = vS[idx]
            return v, S, dropped
        j = S[worst]
        direction = 1 if vS[worst] > 0 else -1
        v[j] = direction * gains[j]
        dropped[j] = direction
        S.pop(worst)
    return v, S, dropped


def _regime_at(mode: DynamicsMode, costs, cfg, box: Box, x: np.ndarray, opts: IntegrationOptions) -> Regime:
    g = hm.gradient_vec(costs, cfg, x, mode.gradient_mode)
    d = x.size
    if isinstance(mode, ProjectedGradient):
        raw = -mode.mobility_vector(d) * g
        v, lower, upper = _face_freeze(box, x, raw, opts.boundary_tol)
        return Regime(sliding=(), lower=lower, upper=upper, signs=(0,) * d, velocity=v)

    gains = mode.gains(costs.p)
    if mode.sliding == BOUNDARY_LAYER:
        raw = -gains * np.clip(g / mode.epsilon, -1.0, 1.0)
        in_layer = tuple(int(j) for j in np.flatnonzero(np.abs(g) <= mode.epsilon))
        signs = tuple(int(s) for s in np.sign(np.where(np.abs(g) <= mode.epsilon, 0.0, g)))
        v, lower, upper = _face_freeze(box, x, raw, opts.boundary_tol)
        return Regime(sliding=in_layer, lower=lower, upper=upper, signs=signs, velocity=v)

    # equivalent control
    on_manifold = np.abs(g) <= opts.switch_tol
    signs_arr = np.where(on_manifold, 0, np.sign(g)).astype(int)
    S0 = [int(j) for j in np.flatnonzero(on_manifold)]
    if S0:
        v, S, dropped = _slide_iterate(mode, costs, cfg, x, S0, signs_arr, gains, opts)
        for j, direction in dropped.items():
            signs_arr[j] = -direction  # so that -gain*sign reproduces the escape velocity
    else:
        v, S = -gains * signs_arr, []
    v, lower, upper = _face_freeze(box, x, v, opts.boundary_tol)
    return Regime(
        sliding=tuple(S),
        lower=lower,
        upper=upper,
        signs=tuple(int(s) for s in signs_arr),
        velocity=v,
    )


def _frozen_field(mode: SignDescent, costs, cfg, box: Box, regime: Regime, opts: IntegrationOptions):
    """Smooth sign-descent field valid while the regime stays frozen."""
    frozen = list(regime.lower) + list(regime.upper)
    gradient = hm.gradient_vec
    gmode = mode.gradient_mode
    gains = mode.gains(costs.p)
    if mode.sliding == BOUNDARY_LAYER:
        neg_gains_over_eps = -gains / mode.epsilon
        lim = gains

        def f(y: np.ndarray) -> np.ndarray:
            v = np.clip(neg_gains_over_eps * gradient(costs, cfg, y, gmode), -lim, lim)
            if frozen:
                v[frozen] = 0.0
            return v

        return f

    S = list(regime.sliding)
    signs = np.asarray(regime.signs, dtype=float)

    def f(y: np.ndarray) -> np.ndarray:
        v = -gains * signs
        if S:
            vS = _slide_solve(mode, costs, cfg, y, S, v, opts)
            v[S] = vS
        v[frozen] = 0.0
        return v

    return f


# ---------------------------------------------------------------------------
# public velocity operations
# ---------------------------------------------------------------------------

def velocity(mode: DynamicsMode, costs, cfg, box: Box, x, options: IntegrationOptions | None = None):
    """Filippov velocity selection and regime descriptor at a state."""
    opts = options or IntegrationOptions()
    xv = _as_vector(x, costs.p)
    if not box.contains(xv, opts.boundary_tol):
        raise DomainError(f"state {xv.tolist()} outside the box")
    regime = _regime_at(mode, costs, cfg, box, xv, opts)
    return regime.velocity, regime


def slide_velocity(mode: SignDescent, costs, cfg, x, active_set, options: IntegrationOptions | None = None) -> np.ndarray:
    """Equivalent-control sliding velocity on the given active set.

    External coordinates keep their sign-descent values; solved components
    are clamped to the gain bounds and the set shrinks when the Filippov
    condition fails.
    """
    if not isinstance(mode, SignDescent) or mode.sliding != EQUIVALENT_CONTROL:
        raise DomainError("slide_velocity requires SignDescent with equivalent control")
    opts = options or IntegrationOptions()
    xv = _as_vector(x, costs.p)
    g = hm.gradient_vec(costs, cfg, xv, mode.gradient_mode)
    S0 = sorted(int(j) for j in active_set)
    gains = mode.gains(costs.p)
    signs = np.where(np.abs(g) <= opts.switch_tol, 0, np.sign(g)).astype(int)
    v, _, _ = _slide_iterate(mode, costs, cfg, xv, S0, signs, gains, opts)
    return v


# ---------------------------------------------------------------------------
# projected gradient: stiff dense-output stepping core on (N, d) stacks
# ---------------------------------------------------------------------------

# RODAS4 (Hairer & Wanner, Solving ODEs II, Sec. IV.7) in the transformed
# variables of its reference code.  With W = I/(dt*gamma) - J the stage
# increments solve
#     W u_i = f(y + sum_j a_ij u_j) + sum_j (c_ij/dt) u_j,   i = 1..6.
# The sixth stage point is the embedded third-order solution and the
# fourth-order solution is that point plus u_6, so u_6 is the error
# estimate.
#
# Dense output: the quartic in s in [0, 1] that matches y0, dt f(y0) and
# dt^2 J f(y0) (the second derivative of the autonomous flow) at s = 0 and
# y1, dt f(y1) at s = 1.  This Hermite-Birkhoff interpolant has local error
# O(dt^5), one order better than the method's own dense formula; it needs
# no extra model evaluation, since f(y1) starts the next step anyway.
#
# Velocity-change bound: on slow components (diagonal Jacobian rate within
# a factor 1/_VELOCITY_CHANGE of the slowest), a step may change the
# velocity by at most _VELOCITY_CHANGE of itself, plus substep_atol per
# unit time so that a velocity at rounding level holds nothing back.  Error
# control relative to |y| lets the steps grow without limit as the state
# nears its equilibrium, until grid rows stop resolving the exponential
# tail that the dissipation audit and the rate fits read; the bound keeps
# a fixed number of steps per e-folding of the slow motion.  Faster
# components relax onto the slow manifold and are left to error control,
# so stiff transients cost no more than error control asks.
_ROS_GAMMA = 0.25
_ROS_A = (
    (1.544,),
    (0.9466785280815826, 0.2557011698983284),
    (3.314825187068521, 2.896124015972201, 0.9986419139977817),
    (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.687886036105895),
    (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.687886036105895, 1.0),
)
_ROS_C = (
    (-5.6688,),
    (-2.430093356833875, -0.2063599157091915),
    (-0.1073529058151375, -9.594562251023355, -20.47028614809616),
    (7.496443313967647, -10.24680431464352, -33.99990352819905, 11.7089089320616),
    (8.083246795921522, -7.981132988064893, -31.52159432874371, 16.3193054312314,
     -6.058818238834054),
)
_SAFETY = 0.9
_VELOCITY_CHANGE = 0.04
_FAC_MIN = 0.2
_FAC_MAX = 6.0


class _PGField:
    """Projected-gradient field on (N, d) stacks with per-row frozen faces.

    A coordinate is frozen for a whole step when it starts the step on a
    box face with an outward raw velocity.  Its velocity and its Jacobian
    row and column are zero, so it stays exactly on the face.
    """

    def __init__(self, mode: ProjectedGradient, costs, cfg, box: Box, opts: IntegrationOptions):
        self.costs, self.cfg, self.box, self.opts = costs, cfg, box, opts
        self.gmode = mode.gradient_mode
        self.neg_mob = -mode.mobility_vector(box.dim)

    def grad(self, Y: np.ndarray) -> np.ndarray:
        return hm.gradient_vec(self.costs, self.cfg, Y, self.gmode)

    def frozen(self, Y: np.ndarray, G: np.ndarray) -> np.ndarray:
        raw = self.neg_mob * G
        tol = self.opts.boundary_tol
        return ((Y <= self.box.lo + tol) & (raw < 0.0)) | ((Y >= self.box.hi - tol) & (raw > 0.0))

    def velocity(self, G: np.ndarray, frozen: np.ndarray) -> np.ndarray:
        return np.where(frozen, 0.0, self.neg_mob * G)

    def jacobian(self, Y: np.ndarray, frozen: np.ndarray) -> np.ndarray:
        J = self.neg_mob[:, None] * hm.grad_jacobian(self.costs, self.cfg, Y, self.gmode)
        free = ~frozen
        return np.where(free[:, :, None] & free[:, None, :], J, 0.0)


@dataclass
class _Step:
    """Accepted RODAS4 steps, one per row."""

    y1: np.ndarray      # (N, d) end states
    g1: np.ndarray      # (N, d) raw gradients at y1
    dt: np.ndarray      # (N,) step sizes taken
    h_next: np.ndarray  # (N,) proposed next step sizes
    dense: np.ndarray   # (4, N, d): coefficients of s, s^2, s^3, s^4


def _dense_eval(y0: np.ndarray, dense, s: np.ndarray) -> np.ndarray:
    """Dense output at fractions s (shape (M, 1)) of the step from y0."""
    a, b, c, e = dense
    return y0 + s * (a + s * (b + s * (c + s * e)))


def _grid_rows(box: Box, times, t0, Y0, st: _Step, first, stop, s_cap):
    """Grid rows first[i] <= k < stop[i] covered by each row's step, read
    off its dense output (at most at fraction s_cap[i]) and clipped to the
    box.  Returns (step row of each grid row, k, states, largest clip)."""
    counts = np.maximum(stop - first, 0)
    which = np.repeat(np.arange(first.size), counts)
    k = np.arange(which.size) - np.repeat(np.cumsum(counts) - counts, counts)
    k += np.repeat(first, counts)
    s = np.minimum((times[k] - t0[which]) / st.dt[which], s_cap[which])[:, None]
    X = np.where(s == 1.0, st.y1[which], _dense_eval(Y0[which], st.dense[:, which], s))
    Xc = box.clip(X)
    return which, k, Xc, float(np.max(np.abs(Xc - X))) if X.size else 0.0


def _inverse(W: np.ndarray) -> np.ndarray:
    """Row-wise inverses of a (N, d, d) stack; a singular row yields NaN."""
    try:
        return np.linalg.inv(W)
    except np.linalg.LinAlgError:
        out = np.full_like(W, np.nan)
        for i in range(W.shape[0]):
            try:
                out[i] = np.linalg.inv(W[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _ros_attempt(fld: _PGField, Y, F0, J, frozen, dt, opts: IntegrationOptions):
    """One RODAS4 step per row; returns (y1, g1, dense, err).

    err is the larger of the error estimate over the error scale and the
    fourth power of the velocity-change ratio, so that both are accepted
    at err <= 1 and steer the step size with the same exponent.  It is
    inf wherever a stage or the result is not finite.
    """
    W_inv = _inverse(np.eye(Y.shape[1]) / (dt * _ROS_GAMMA)[:, None, None] - J)
    inv_dt = (1.0 / dt)[:, None]
    U = [(W_inv @ F0[..., None])[..., 0]]
    for a_row, c_row in zip(_ROS_A, _ROS_C):
        Yi = Y + sum(a * u for a, u in zip(a_row, U))
        Fi = fld.velocity(fld.grad(Yi), frozen)
        rhs = Fi + inv_dt * sum(c * u for c, u in zip(c_row, U))
        U.append((W_inv @ rhs[..., None])[..., 0])
    y1 = Yi + U[5]
    g1 = fld.grad(y1)
    F1 = fld.velocity(g1, frozen)
    dt_col = dt[:, None]
    a = dt_col * F0
    b = (0.5 * dt_col * dt_col) * (J @ F0[..., None])[..., 0]
    r1 = (y1 - Y) - a - b
    r2 = dt_col * F1 - a - 2.0 * b
    e = r2 - 3.0 * r1
    dense = np.stack([a, b, r1 - e, e])
    scale = opts.substep_atol + opts.substep_rtol * np.maximum(1.0, np.maximum(np.abs(Y), np.abs(y1)))
    err = np.max(np.abs(U[5]) / scale, axis=1)
    bend = np.abs(F1 - F0) / (_VELOCITY_CHANGE * np.maximum(np.abs(F0), np.abs(F1)) + opts.substep_atol * inv_dt)
    rate = np.abs(np.diagonal(J, axis1=1, axis2=2))
    slowest = np.min(np.where(rate > 0.0, rate, np.inf), axis=1, keepdims=True)
    bend[rate * _VELOCITY_CHANGE > slowest] = 0.0
    err = np.maximum(err, np.max(bend, axis=1) ** 4)
    err[~(np.isfinite(err) & np.isfinite(y1).all(axis=1))] = np.inf
    return y1, g1, dense, err


def _ros_advance(fld: _PGField, Y, G, frozen, H, limit, t, opts: IntegrationOptions) -> _Step:
    """Advance every row of Y by one accepted RODAS4 step.

    G is the raw gradient at Y, H the preferred step sizes, ``limit`` the
    remaining time of each row and t its current time.  Each row has its
    own step size and error norm: a rejected row retries with a smaller
    step while the accepted rows wait, so no row's steps depend on another
    row.  A row whose step underflows raises StepFailureError.
    """
    with np.errstate(all="ignore"):
        F0 = fld.velocity(G, frozen)
        J = fld.jacobian(Y, frozen)
        dt = np.minimum(H, limit)
        capped = dt < H
        fac_max = np.full(dt.size, _FAC_MAX)
        y1 = np.empty_like(Y)
        g1 = np.empty_like(Y)
        dense = np.empty((4,) + Y.shape)
        h_next = np.empty_like(dt)
        todo = np.arange(dt.size)
        while todo.size:
            yt, gt, dn, err = _ros_attempt(fld, Y[todo], F0[todo], J[todo], frozen[todo], dt[todo], opts)
            fac = np.clip(_SAFETY * err ** -0.25, _FAC_MIN, fac_max[todo])
            ok = err <= 1.0
            acc, rej = todo[ok], todo[~ok]
            y1[acc] = yt[ok]
            g1[acc] = gt[ok]
            dense[:, acc] = dn[:, ok]
            grown = dt[acc] * fac[ok]
            h_next[acc] = np.where(capped[acc], np.maximum(grown, H[acc]), grown)
            dt[rej] *= fac[~ok]
            fac_max[rej] = 1.0
            capped[rej] = False
            tiny = ~(dt[rej] >= 1e-15 * np.maximum(1.0, np.abs(t[rej])))  # NaN counts as tiny
            if np.any(tiny):
                raise StepFailureError(
                    "substep size underflow (field too stiff or non-finite)",
                    float(t[rej][tiny][0]),
                )
            todo = rej
    return _Step(y1=y1, g1=g1, dt=dt, h_next=h_next, dense=dense)


def _initial_step(fld: _PGField, Y, G, frozen, span, opts: IntegrationOptions) -> np.ndarray:
    """Starting step size per row for an order-4 pair (Hairer, Norsett &
    Wanner, Solving ODEs I, Sec. II.4); one extra field evaluation."""
    with np.errstate(all="ignore"):
        F0 = fld.velocity(G, frozen)
        y_max = np.abs(Y).max(axis=1)
        scale = opts.substep_atol + opts.substep_rtol * np.maximum(1.0, y_max)
        d0 = y_max / scale
        d1 = np.abs(F0).max(axis=1) / scale
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, span)
        F1 = fld.velocity(fld.grad(Y + h0[:, None] * F0), frozen)
        d2 = np.abs(F1 - F0).max(axis=1) / scale / h0
        dm = np.maximum(d1, d2)
        h1 = np.where(dm <= 1e-15, np.maximum(1e-6, 1e-3 * h0), (0.01 / dm) ** 0.2)
        h = np.minimum(np.minimum(100.0 * h0, h1), span)
    # a non-finite field leaves the choice to the controller's rejections
    return np.where(np.isfinite(h) & (h > 0.0), h, np.minimum(1e-6, span))


def _settle(fld: _PGField, st: _Step):
    """Clip accepted end states to the box; returns (Y, G, clip per row)."""
    Y = fld.box.clip(st.y1)
    clip = np.abs(Y - st.y1).max(axis=1)
    G = st.g1
    moved = clip > 0.0
    if np.any(moved):
        G = G.copy()
        G[moved] = fld.grad(Y[moved])
    return Y, G, clip


def _mask_bits(frozen_row: np.ndarray) -> int:
    return sum(1 << int(j) for j in np.flatnonzero(frozen_row))


def _bisect_fraction(phi, event_tol: float) -> float:
    """First root of phi on [0, 1] (phi(0) > 0 >= phi(1)) by bisection.

    Returns a fraction on the crossed side (phi <= 0), as close to the
    root as the value tolerance allows, so that the regime re-evaluated
    there sees the transition.
    """
    a, b = 0.0, 1.0
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = phi(m)
        if fm > 0.0:
            a = m
        else:
            b = m
            if -fm <= event_tol:
                break
        if b - a <= 64.0 * np.finfo(float).eps:
            break
    return b


def _face_events(fld: _PGField, y0, frozen, st: _Step, opts: IntegrationOptions):
    """Box-face contact and release within one accepted single-row step.

    Returns None, or (s, x_e, events) with s the step fraction of the
    earliest transition, x_e the state there (contact coordinates snapped
    to their face) and events the (kind, index) pairs that occur at s.
    """
    box = fld.box
    y1, g1 = st.y1[0], st.g1[0]
    fz = frozen[0]
    tol = opts.boundary_tol
    at_lo = y0 <= box.lo + tol
    mob = -fld.neg_mob
    # monitors (kind, j, face, phi): phi(x) starts > 0 and signals the
    # transition at <= 0; release monitors read the raw velocity, contact
    # monitors the distance to the face (snapped to at the event)
    monitors = []
    for j in np.flatnonzero(fz & (np.where(at_lo, mob * g1, -mob * g1) <= 0.0)):
        c = mob[j] if at_lo[j] else -mob[j]
        monitors.append((BOUNDARY_RELEASE, j, None, lambda x, j=j, c=c: c * fld.grad(x[None])[0, j]))
    for j in np.flatnonzero(~fz & (y0 > box.lo) & (y1 <= box.lo)):
        monitors.append((BOUNDARY_CONTACT, j, box.lo[j], lambda x, j=j: x[j] - box.lo[j]))
    for j in np.flatnonzero(~fz & (y0 < box.hi) & (y1 >= box.hi)):
        monitors.append((BOUNDARY_CONTACT, j, box.hi[j], lambda x, j=j: box.hi[j] - x[j]))
    if not monitors:
        return None

    def state_at(s: float) -> np.ndarray:
        return _dense_eval(y0, st.dense[:, 0], np.array([[s]]))[0]

    located = [(_bisect_fraction(lambda s, phi=m[3]: phi(state_at(s)), opts.event_tol), i)
               for i, m in enumerate(monitors)]
    s, first = min(located)
    x_e = state_at(s)
    events = []
    for i in [first] + [i for i in range(len(monitors)) if i != first]:
        kind, j, face, phi = monitors[i]
        if i == first or phi(x_e) <= 0.0:
            if face is not None:
                x_e[j] = face
            events.append((kind, int(j)))
    return s, x_e, events


def _first_converged(fld: _PGField, X: np.ndarray, psi: np.ndarray, opts: IntegrationOptions):
    """Index of the first row with imbalance and decoupled KKT residual
    both within the convergence tolerance, or None."""
    tol = opts.converge_tol
    cand = np.flatnonzero(psi <= tol)
    if cand.size == 0:
        return None
    g = hm.gradient_vec(fld.costs, fld.cfg, X[cand], "decoupled")
    t = tangent_project_batch(fld.box, X[cand], -g, opts.boundary_tol)
    ok = np.flatnonzero(np.sum(t * t, axis=1) <= tol)
    return int(cand[ok[0]]) if ok.size else None


def _integrate_pg(mode: ProjectedGradient, costs, cfg, box: Box, x: np.ndarray,
                  t_end: float, h: float, opts: IntegrationOptions, stop: bool) -> Trajectory:
    """Single projected-gradient run on the RODAS4 core with face events."""
    fld = _PGField(mode, costs, cfg, box, opts)
    t0 = np.arange(max(1, int(math.ceil(t_end / h - 1e-12)))) * h
    times = np.concatenate([[0.0], t0 + np.minimum(h, t_end - t0)])
    n_rows = times.size
    states = np.empty((n_rows, x.size))
    psis = np.empty(n_rows)
    masks = np.zeros(n_rows, dtype=np.int64)
    y = x[None, :].copy()
    G = fld.grad(y)
    frozen = fld.frozen(y, G)
    H = _initial_step(fld, y, G, frozen, np.array([t_end]), opts)
    states[0] = x
    psis[0] = hm.imbalance_vec(costs, cfg, x)
    masks[0] = _mask_bits(frozen[0])
    t = 0.0
    filled = 1
    events: list[EventRecord] = []
    since_row = 0
    max_clip = 0.0
    status = "finished"
    while filled < n_rows:
        frozen = fld.frozen(y, G)
        st = _ros_advance(fld, y, G, frozen, H, np.array([t_end - t]), np.array([t]), opts)
        dt = float(st.dt[0])
        hit = _face_events(fld, y[0], frozen, st, opts)
        if hit is not None:
            s_end, t_next = hit[0], t + hit[0] * dt
            stop_row = int(np.searchsorted(times, t_next, side="right"))
        elif dt >= t_end - t:
            s_end, t_next, stop_row = 1.0, t_end, n_rows
        else:
            s_end, t_next = 1.0, t + dt
            stop_row = int(np.searchsorted(times, t_next, side="right"))
        if stop_row > filled:
            _, _, X, clip = _grid_rows(box, times, np.array([t]), y, st, np.array([filled]),
                                       np.array([stop_row]), np.array([s_end]))
            max_clip = max(max_clip, clip)
            states[filled:stop_row] = X
            psis[filled:stop_row] = hm.imbalance_vec(costs, cfg, X)
            masks[filled:stop_row] = _mask_bits(frozen[0])
            since_row = 0
            if stop:
                k = _first_converged(fld, X, psis[filled:stop_row], opts)
                if k is not None:
                    filled += k + 1
                    status = "converged"
                    break
            filled = stop_row
        if hit is None:
            y, G, clip = _settle(fld, st)
            max_clip = max(max_clip, float(clip[0]))
        else:
            _, x_e, evs = hit
            events += [EventRecord(time=t_next, kind=kind, index=j) for kind, j in evs]
            since_row += len(evs)
            if since_row > opts.max_events_per_step:
                raise StepFailureError(
                    f"more than {opts.max_events_per_step} events within one nominal step "
                    f"at t={t_next:.6g}: likely chattering at a box face",
                    t_next,
                )
            y = x_e[None, :]
            G = fld.grad(y)
        H = st.h_next
        t = t_next

    times = times[:filled]
    states = states[:filled]
    events = [e for e in events if e.time <= times[-1]]
    rows = np.maximum(np.searchsorted(times, [e.time for e in events], side="left"), 1)
    step_events = [""] * filled
    for e, k in zip(events, rows):
        tag = f"{e.kind}:{e.index}"
        step_events[k] = f"{step_events[k]};{tag}" if step_events[k] else tag
    return Trajectory(
        times=times,
        states=states,
        R_values=np.asarray(hm.resistance_lyapunov_vec(costs, cfg, states, mode.gradient_mode)),
        Psi_values=psis[:filled],
        regime_masks=masks[:filled],
        events=events,
        step_events=step_events,
        status=status,
        max_clip=max_clip,
    )


# ---------------------------------------------------------------------------
# sign descent: RK4 stepping with bisected events
# ---------------------------------------------------------------------------

def _rk4(f, x: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _StepController:
    """Deterministic step-doubling control within nominal steps.

    ``dt`` is the preferred substep: it shrinks only on genuine error
    failures and doubles after comfortably accurate substeps; the
    remaining-time limit is applied per use so end-of-step slivers do not
    collapse the preferred size.
    """

    def __init__(self, dt: float):
        self.dt = dt

    def advance(self, f, x: np.ndarray, limit: float, opts: IntegrationOptions, t_abs: float):
        dt = min(self.dt, limit)
        capped = dt < self.dt
        while True:
            y_full = _rk4(f, x, dt)
            y_half = _rk4(f, _rk4(f, x, 0.5 * dt), 0.5 * dt)
            err = float(np.max(np.abs(y_full - y_half)))
            scale = opts.substep_atol + opts.substep_rtol * max(
                1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y_half)))
            )
            if np.all(np.isfinite(y_half)) and err <= scale:
                break
            dt *= 0.5
            capped = False
            self.dt = dt
            if dt < 1e-15 * max(1.0, limit):
                raise StepFailureError(
                    "substep size underflow (field too stiff or non-finite)", t_abs
                )
        if not capped and err <= scale / 64.0:
            self.dt = 2.0 * dt
        return y_half, dt


def _crossing_tests(mode: SignDescent, costs, cfg, box, regime: Regime, opts: IntegrationOptions):
    """Crossing monitors for the frozen sign-descent regime.

    Each test is (kind, index, band, needs_grad, phi) with phi(y, g) a
    scalar that starts above ``band`` and signals a regime change when it
    falls to ``band`` or below.  ``g`` is the mode gradient at y, computed
    once per scan point and shared across tests.
    """
    tests = []
    d = box.dim
    frozen = set(regime.lower) | set(regime.upper)
    gains = mode.gains(costs.p)

    if mode.sliding == EQUIVALENT_CONTROL:
        S = list(regime.sliding)
        for j in range(d):
            if j in regime.sliding or j in frozen:
                continue
            s = regime.signs[j]
            if s == 0:
                continue
            tests.append(
                ("switch", j, opts.switch_tol, True, lambda y, g, j=j, s=s: s * g[j])
            )
        if S:
            signs = np.asarray(regime.signs, dtype=float)

            def slide_feasibility(y, g):
                v = -gains * signs
                vS = _slide_solve(mode, costs, cfg, y, S, v, opts)
                return float(np.min(gains[S] - np.abs(vS)))

            tests.append(("slide_exit", -1, 0.0, True, slide_feasibility))
    else:
        eps = mode.epsilon
        for j in range(d):
            if j in regime.sliding:
                tests.append(
                    ("layer_exit", j, 0.0, True, lambda y, g, j=j: eps - abs(g[j]))
                )
            else:
                tests.append(
                    ("layer_enter", j, 0.0, True, lambda y, g, j=j: abs(g[j]) - eps)
                )

    # box faces: contact for inactive coordinates, release for active ones
    def raw_velocity(y, g):
        gains = mode.gains(costs.p)
        if mode.sliding == BOUNDARY_LAYER:
            return -gains * np.clip(g / mode.epsilon, -1.0, 1.0)
        signs = np.asarray(regime.signs, dtype=float)
        v = -gains * signs
        S = list(regime.sliding)
        if S:
            v[S] = _slide_solve(mode, costs, cfg, y, S, v, opts)
        return v

    for j in range(d):
        if j in regime.lower:
            tests.append(("release_lo", j, 0.0, True, lambda y, g, j=j: -raw_velocity(y, g)[j]))
        elif j in regime.upper:
            tests.append(("release_hi", j, 0.0, True, lambda y, g, j=j: raw_velocity(y, g)[j]))
        else:
            tests.append(("face_lo", j, 0.0, False, lambda y, g, j=j: y[j] - box.lo[j]))
            tests.append(("face_hi", j, 0.0, False, lambda y, g, j=j: box.hi[j] - y[j]))
    return tests


def _locate_zero(f, grad, x0, dt, phi, phi0, opts: IntegrationOptions):
    """Bisect the first zero of phi along the frozen-regime flow from x0.

    Returns a point strictly on the crossed side (phi <= 0), as close to
    the zero as the value tolerance allows, so the regime re-evaluation
    at the returned state actually sees the transition.
    """
    a, b = 0.0, dt
    xb = None
    for _ in range(200):
        m = 0.5 * (a + b)
        xm = _rk4(f, x0, m)
        fm = phi(xm, grad(xm))
        if fm > 0.0:
            a = m
        else:
            b, xb = m, xm
            if -fm <= opts.event_tol:
                return m, xm
        if b - a <= 64.0 * np.finfo(float).eps * max(dt, 1e-30):
            break
    if xb is None:
        xb = _rk4(f, x0, b)
    return b, xb


def _classify_transition(kind, j, mode, costs, cfg, box, x_e, regime, opts):
    """Map a raw crossing to (event kind, index, snapped state)."""
    if kind in ("face_lo", "face_hi"):
        x_e = x_e.copy()
        x_e[j] = box.lo[j] if kind == "face_lo" else box.hi[j]
        return BOUNDARY_CONTACT, j, x_e
    if kind in ("release_lo", "release_hi"):
        return BOUNDARY_RELEASE, j, x_e
    if kind == "layer_enter":
        return SLIDE_ENTER, j, x_e
    if kind == "layer_exit":
        return SLIDE_EXIT, j, x_e
    if kind == "slide_exit":
        # identify the coordinate whose equivalent control saturates
        gains = mode.gains(costs.p)
        signs = np.asarray(regime.signs, dtype=float)
        S = list(regime.sliding)
        v = -gains * signs
        vS = _slide_solve(mode, costs, cfg, x_e, S, v, opts)
        worst = int(np.argmin(gains[S] - np.abs(vS)))
        return SLIDE_EXIT, S[worst], x_e
    # switching-manifold crossing: sliding entry iff the Filippov condition
    # accepts the coordinate at the located point
    new_regime = _regime_at(mode, costs, cfg, box, x_e, opts)
    return (SLIDE_ENTER if j in new_regime.sliding else SWITCH_CROSS), j, x_e


def _advance_nominal(mode, costs, cfg, box, x, t0, h, opts, ctrl: _StepController):
    """Advance one nominal step; returns (x, events, regime, clip_mag)."""
    events: list[EventRecord] = []
    t_rel = 0.0
    regime = _regime_at(mode, costs, cfg, box, x, opts)
    f = _frozen_field(mode, costs, cfg, box, regime, opts)
    tests = _crossing_tests(mode, costs, cfg, box, regime, opts)
    gmode = mode.gradient_mode

    def grad(y):
        return hm.gradient_vec(costs, cfg, y, gmode)

    tiny = 1e-12 * max(1.0, h)
    while t_rel < h - tiny:
        need_grad = any(t[3] for t in tests)
        g_x = grad(x) if need_grad else None
        keep = []
        for test in tests:
            v0 = test[4](x, g_x)
            if v0 > test[2]:
                keep.append((test, v0))
            # values at or below the band at segment start were already
            # absorbed into the regime evaluation; skip monitoring them
        try:
            y, dt = ctrl.advance(f, x, h - t_rel, opts, t0 + t_rel)
        except SingularSlidingError:
            # fall back to a boundary-layer step for this nominal step
            fallback = replace(mode, sliding=BOUNDARY_LAYER)
            fb_regime = _regime_at(fallback, costs, cfg, box, x, opts)
            fb_field = _frozen_field(fallback, costs, cfg, box, fb_regime, opts)
            y, dt = ctrl.advance(fb_field, x, h - t_rel, opts, t0 + t_rel)
            x, t_rel = y, t_rel + dt
            events.append(EventRecord(time=t0 + t_rel, kind=SLIDE_EXIT, index=-1))
            regime = _regime_at(mode, costs, cfg, box, x, opts)
            f = _frozen_field(mode, costs, cfg, box, regime, opts)
            tests = _crossing_tests(mode, costs, cfg, box, regime, opts)
            continue

        g_y = grad(y) if need_grad else None
        crossed = []
        for test, v0 in keep:
            if test[4](y, g_y) <= test[2]:
                crossed.append((test, v0))
        if not crossed:
            x, t_rel = y, t_rel + dt
            continue

        # locate the earliest transition among the candidates; a monitor
        # that ends inside its band without a sign change transitions at
        # the substep end
        best = None
        for test, v0 in crossed:
            kind, j, band, _, phi = test
            phi_end = phi(y, g_y)
            if phi_end <= 0.0 and v0 > 0.0:
                tau, x_e = _locate_zero(f, grad, x, dt, phi, v0, opts)
            else:
                tau, x_e = dt, y
            if best is None or tau < best[0]:
                best = (tau, x_e, kind, j)
        tau, x_e, kind, j = best
        ev_kind, ev_index, x_e = _classify_transition(
            kind, j, mode, costs, cfg, box, x_e, regime, opts
        )
        x, t_rel = x_e, t_rel + tau
        events.append(EventRecord(time=t0 + t_rel, kind=ev_kind, index=ev_index))
        # simultaneous transitions: other monitors already past their band
        # at the located point share the event time
        g_e = grad(x) if need_grad else None
        for test, v0 in crossed:
            t_kind, t_j, t_band, _, t_phi = test
            if t_kind == kind and t_j == j:
                continue
            if t_phi(x, g_e) <= t_band:
                co_kind, co_index, x = _classify_transition(
                    t_kind, t_j, mode, costs, cfg, box, x, regime, opts
                )
                events.append(EventRecord(time=t0 + t_rel, kind=co_kind, index=co_index))
        if len(events) > opts.max_events_per_step:
            raise StepFailureError(
                f"more than {opts.max_events_per_step} events within one nominal step "
                f"at t={t0 + t_rel:.6g}: likely chattering; enable the boundary-layer "
                "sliding realization or reduce the step h",
                t0 + t_rel,
            )
        regime = _regime_at(mode, costs, cfg, box, x, opts)
        f = _frozen_field(mode, costs, cfg, box, regime, opts)
        tests = _crossing_tests(mode, costs, cfg, box, regime, opts)

    clipped = box.clip(x)
    clip_mag = float(np.max(np.abs(clipped - x))) if x.size else 0.0
    return clipped, events, regime, clip_mag



def _check_horizon(t_end: float, h: float) -> None:
    if not (_positive_finite(t_end) and _positive_finite(h)):
        raise DomainError(f"t_end and h must be positive and finite, got t_end={t_end}, h={h}")


def step(mode: DynamicsMode, costs, cfg, box: Box, x, h: float, options: IntegrationOptions | None = None):
    """One nominal step of size h; returns (x_next, events)."""
    if not _positive_finite(h):
        raise DomainError(f"step size must be positive and finite, got {h}")
    opts = options or IntegrationOptions()
    xv = _as_vector(x, costs.p)
    if not box.contains(xv, opts.boundary_tol):
        raise DomainError(f"state {xv.tolist()} outside the box")
    if isinstance(mode, ProjectedGradient):
        traj = _integrate_pg(mode, costs, cfg, box, box.clip(xv), h, h, opts, stop=False)
        return traj.final_state, traj.events
    ctrl = _StepController(h)
    x_next, events, _, _ = _advance_nominal(mode, costs, cfg, box, xv, 0.0, h, opts, ctrl)
    return x_next, events


def integrate(
    mode: DynamicsMode,
    costs,
    cfg,
    box: Box,
    x0,
    t_end: float,
    h: float,
    options: IntegrationOptions | None = None,
) -> Trajectory:
    """Integrate the inclusion on the fixed nominal grid 0, h, 2h, ...

    Terminates early with status "converged" when both the KKT residual of
    the decoupled gradient and the imbalance fall below the convergence
    tolerance.  Step failures propagate with a timestamp.  The recorded
    R series is the resistance Lyapunov functional of the active gradient
    mode (see :func:`hierarchy.resistance_lyapunov_vec`), nonincreasing
    along every admissible run.
    """
    _check_horizon(t_end, h)
    opts = options or IntegrationOptions()
    x = _as_vector(x0, costs.p)
    if not box.contains(x, opts.boundary_tol):
        raise DomainError(f"initial state {x.tolist()} outside the box")
    x = box.clip(x)

    if isinstance(mode, ProjectedGradient):
        try:
            return _integrate_pg(mode, costs, cfg, box, x, t_end, h, opts, opts.stop_on_convergence)
        except StepFailureError as exc:
            raise StepFailureError(f"integration failed at t={exc.time:.6g}: {exc}", exc.time) from exc

    n_steps = max(1, int(math.ceil(t_end / h - 1e-12)))
    times = [0.0]
    states = [x.copy()]
    rvals = [float(hm.resistance_lyapunov_vec(costs, cfg, x, mode.gradient_mode))]
    psis = [float(hm.imbalance_vec(costs, cfg, x))]
    masks = [_regime_at(mode, costs, cfg, box, x, opts).mask()]
    step_events: list[str] = [""]
    events: list[EventRecord] = []
    notes: list[str] = []
    status = "finished"
    max_clip = 0.0
    ctrl = _StepController(h)

    for k in range(n_steps):
        t0 = k * h
        h_k = min(h, t_end - t0)
        try:
            x, evs, regime, clip_mag = _advance_nominal(
                mode, costs, cfg, box, x, t0, h_k, opts, ctrl
            )
        except StepFailureError as exc:
            raise StepFailureError(
                f"integration failed at t={exc.time if exc.time is not None else t0:.6g}: {exc}",
                exc.time if exc.time is not None else t0,
            ) from exc
        max_clip = max(max_clip, clip_mag)
        events.extend(evs)
        step_events.append(";".join(f"{e.kind}:{e.index}" for e in evs))
        times.append(t0 + h_k)
        states.append(x.copy())
        rvals.append(float(hm.resistance_lyapunov_vec(costs, cfg, x, mode.gradient_mode)))
        psis.append(float(hm.imbalance_vec(costs, cfg, x)))
        masks.append(regime.mask())
        if opts.stop_on_convergence:
            g_dec = hm.gradient_vec(costs, cfg, x, "decoupled")
            if (
                kkt_residual(box, x, g_dec, opts.boundary_tol) <= opts.converge_tol
                and psis[-1] <= opts.converge_tol
            ):
                status = "converged"
                break

    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        R_values=np.asarray(rvals),
        Psi_values=np.asarray(psis),
        regime_masks=np.asarray(masks, dtype=np.int64),
        events=events,
        step_events=step_events,
        status=status,
        max_clip=max_clip,
        notes=notes,
    )


def two_trajectory_run(
    mode: DynamicsMode,
    costs,
    cfg,
    box: Box,
    x0,
    y0,
    t_end: float,
    h: float,
    options: IntegrationOptions | None = None,
) -> PairedRun:
    """Integrate two initial states on a common grid with their separation."""
    opts = options or IntegrationOptions()
    opts_pair = replace(opts, stop_on_convergence=False)
    ta = integrate(mode, costs, cfg, box, x0, t_end, h, opts_pair)
    tb = integrate(mode, costs, cfg, box, y0, t_end, h, opts_pair)
    n = min(ta.times.size, tb.times.size)
    sep = np.linalg.norm(ta.states[:n] - tb.states[:n], axis=1)
    return PairedRun(first=ta, second=tb, times=ta.times[:n], separation=sep)


def integrate_ensemble(
    mode: ProjectedGradient,
    costs,
    cfg,
    box: Box,
    X0: np.ndarray,
    t_end: float,
    h: float,
    options: IntegrationOptions | None = None,
) -> EnsembleResult:
    """Projected-gradient integration of a batch of states.

    Same law, stepping core and nominal grid as :func:`integrate`; every
    row has its own step size and error norm, so a row follows the steps
    a single run from its state would take.  The box is enforced by
    freezing faces at step starts and clipping, without event location.
    Intended for ensemble studies (many interior initial states).
    """
    if not isinstance(mode, ProjectedGradient):
        raise DomainError("ensemble integration supports projected gradient only")
    _check_horizon(t_end, h)
    opts = options or IntegrationOptions()
    X = np.array(X0, dtype=float, ndmin=2)
    d = 2 * costs.p - 1
    if X.shape[1] != d:
        raise DomainError(f"states have dimension {X.shape[1]}, expected {d}")
    for row in X:
        if not box.contains(row, opts.boundary_tol):
            raise DomainError(f"initial state {row.tolist()} outside the box")
    X = box.clip(X)
    fld = _PGField(mode, costs, cfg, box, opts)

    n_steps = max(1, int(math.ceil(t_end / h - 1e-12)))
    times = np.arange(n_steps + 1) * h
    times[-1] = t_end
    N = X.shape[0]
    Rs = np.empty((N, n_steps + 1))
    Ps = np.empty_like(Rs)
    Rs[:, 0] = hm.resistance_lyapunov_vec(costs, cfg, X, mode.gradient_mode)
    Ps[:, 0] = hm.imbalance_vec(costs, cfg, X)
    G = fld.grad(X)
    t = np.zeros(N)
    H = _initial_step(fld, X, G, fld.frozen(X, G), np.full(N, t_end), opts)
    next_row = np.ones(N, dtype=np.int64)
    max_clip = 0.0

    active = np.arange(N)
    while active.size:
        Y, t_a = X[active], t[active]
        frozen = fld.frozen(Y, G[active])
        st = _ros_advance(fld, Y, G[active], frozen, H[active], t_end - t_a, t_a, opts)
        at_end = st.dt >= t_end - t_a
        t_new = np.where(at_end, t_end, t_a + st.dt)
        stop = np.where(at_end, n_steps + 1, np.searchsorted(times, t_new, side="right"))
        which, k, Xr, clip = _grid_rows(box, times, t_a, Y, st, next_row[active], stop, np.ones(active.size))
        max_clip = max(max_clip, clip)
        Rs[active[which], k] = hm.resistance_lyapunov_vec(costs, cfg, Xr, mode.gradient_mode)
        Ps[active[which], k] = hm.imbalance_vec(costs, cfg, Xr)
        next_row[active] = np.maximum(stop, next_row[active])

        X[active], G[active], clip = _settle(fld, st)
        max_clip = max(max_clip, float(np.max(clip)))
        t[active] = t_new
        H[active] = st.h_next
        active = active[~at_end]

    return EnsembleResult(times=times, final_states=X, R_values=Rs, Psi_values=Ps, max_clip=max_clip)
