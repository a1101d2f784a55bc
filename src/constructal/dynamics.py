"""Autonomous Filippov dynamics on the admissible box.

Three adjustment laws are realized: projected gradient flow and
discontinuous sign descent, the latter with either equivalent-control or
boundary-layer sliding.  All three report states on a fixed nominal
output grid 0, h, 2h, ... and are stepped by one core.

Between regime changes each law is a smooth frozen-regime field
M y' = f(y) with a diagonal mass matrix M:

- projected gradient: f = -M_mob grad R, M = I;
- boundary layer: f_j = -(gain_j/eps) d_j R inside the layer
  |d_j R| <= eps and -gain_j sgn(d_j R) outside it, M = I;
- equivalent control: the index-1 DAE x_ext' = -gain sgn(d R) on the
  coordinates off their switching manifolds and 0 = d_S R on the sliding
  set S (M_jj = 0 there), so the state slides exactly on the manifolds.

Each law is one small class that owns ``regime`` (the frozen-regime
field found at a state), ``monitors`` (the regime changes to watch over a
step) and ``classify`` (the event a fired monitor stands for); the core
sees nothing else of the law.  Projected gradient and the boundary layer
form their regimes on whole (N, d) stacks; equivalent control forms its
regime row by row, by the clamp-and-drop iteration of the Filippov
condition.

Coordinates held on a box face have zero velocity.  Projected gradient
is stiff near the optimum (Jacobian eigenvalues from 0.5 to 1024 on the
canonical ladder), and so is the boundary layer (rates gain/eps times the
curvature).  Every field is integrated by a linearly implicit Rosenbrock
pair, RODAS4 (Hairer & Wanner, *Solving ODEs II*, Sec. IV.7 and VI.4),
fed with the analytic Jacobian.  Its embedded error estimate and a bound
on the change of velocity per step set the step size, which does not
depend on h; a continuous dense output fills the grid rows a step covers.
Regime changes (box-face contact and release, boundary-layer entry and
exit, switching-manifold crossings and sliding exit) are located by
bisection on the dense output, in the event-driven style of Piiroinen &
Kuznetsov (ACM TOMS 34(3), 2008), and the run restarts in the regime
found at the event.  One run loop steps (N, d) stacks of any law:
single runs are N = 1, paired runs N = 2 and ensembles N rows.  Every
row has its own time, step size, error norm, events and regime.

The core is float-pure, so identical inputs give bit-identical
trajectories.  Coordinate indices in events and masks are flat: 0..p-1
are the aspect ratios r_1..r_p, p..2p-2 are the branching numbers
n_2..n_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import hierarchy as hm
from .cones import Box, outward, tangent_project_batch
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


def _speeds(name: str, value):
    """A law's speed factor, checked positive and finite: a float, or a
    tuple of per-coordinate floats."""
    scalar = np.ndim(value) == 0
    speeds = (float(value),) if scalar else tuple(float(v) for v in value)
    if not all(_positive_finite(v) for v in speeds):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return speeds[0] if scalar else speeds


def _expand(name: str, speeds, n: int) -> np.ndarray:
    """Checked speeds (see :func:`_speeds`) as n per-coordinate entries."""
    if np.ndim(speeds) == 0:
        return np.full(n, speeds)
    if len(speeds) != n:
        raise DomainError(f"{name} has {len(speeds)} entries, need {n}")
    return np.asarray(speeds, dtype=float)


def _check_gradient_mode(gradient_mode: str) -> None:
    if gradient_mode not in ("decoupled", "coupled"):
        raise DomainError(f"gradient mode must be decoupled|coupled, got {gradient_mode!r}")


@dataclass(frozen=True)
class ProjectedGradient:
    """x' = P_T(-M grad R); mobility is a positive scalar or diagonal."""

    mobility: float | tuple[float, ...] = 1.0
    gradient_mode: str = "decoupled"

    def __post_init__(self):
        object.__setattr__(self, "mobility", _speeds("mobility", self.mobility))
        _check_gradient_mode(self.gradient_mode)

    def mobility_vector(self, d: int) -> np.ndarray:
        return _expand("mobility", self.mobility, d)


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
            raise DomainError(f"sliding must be {BOUNDARY_LAYER}|{EQUIVALENT_CONTROL}, got {self.sliding!r}")
        if not _positive_finite(self.epsilon):
            raise DomainError("boundary layer width must be positive and finite")
        object.__setattr__(self, "eta", _speeds("eta", self.eta))
        object.__setattr__(self, "zeta", _speeds("zeta", self.zeta))
        _check_gradient_mode(self.gradient_mode)

    def gains(self, p: int) -> np.ndarray:
        return np.concatenate([_expand("eta", self.eta, p), _expand("zeta", self.zeta, p - 1)])


DynamicsMode = ProjectedGradient | SignDescent


@dataclass(frozen=True)
class IntegrationOptions:
    switch_tol: float = 1e-9
    boundary_tol: float = 1e-9
    event_tol: float = 1e-10
    converge_tol: float = 1e-10
    stop_on_convergence: bool = True
    max_events_per_step: int = 64
    cond_threshold: float = 1e12


@dataclass(frozen=True)
class Regime:
    """Active structure of the right-hand side at a point."""

    sliding: tuple[int, ...]
    lower: tuple[int, ...]
    upper: tuple[int, ...]
    signs: tuple[int, ...]
    velocity: np.ndarray


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


# ---------------------------------------------------------------------------
# equivalent-control sliding solves
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# frozen-regime fields, one per law, on (N, d) stacks
# ---------------------------------------------------------------------------

@dataclass
class _Frozen:
    """Frozen-regime field of one step: M y' = f(y) with

        f(y) = coef * grad R(y)  on ``active`` coordinates,
        f(y) = const             elsewhere,

    and M = diag(mass), mass 0 marking algebraic rows (None: M = I).
    Coordinates in ``frozen`` are held on a box face (const 0).
    ``sliding`` marks the coordinates in their boundary layer or on their
    switching manifold, face-held ones included, and ``signs`` the signs
    of d_j R that set the saturated velocities (0 where none does).
    """

    frozen: np.ndarray              # (N, d) bool
    active: np.ndarray              # (N, d) bool
    sliding: np.ndarray             # (N, d) bool
    signs: np.ndarray               # (N, d)
    coef: np.ndarray                # (1, d), shared by all rows
    const: np.ndarray               # (N, d)
    mass: np.ndarray | None = None  # (N, d)

    def take(self, rows) -> _Frozen:
        mass = None if self.mass is None else self.mass[rows]
        return _Frozen(self.frozen[rows], self.active[rows], self.sliding[rows], self.signs[rows],
                       self.coef, self.const[rows], mass)

    def bits(self) -> np.ndarray:
        """Regime mask of each row: sliding and face-held coordinates."""
        return (self.frozen | self.sliding) @ (1 << np.arange(self.frozen.shape[1], dtype=np.int64))


class _Monitor(NamedTuple):
    """A regime change: ``phi(x, g)`` (g the mode gradient at x) starts
    above ``band`` and the transition is phi <= band.  ``face`` is the
    value coordinate j snaps to at the event, or None; a face monitor
    reads only x, and is located without the gradient, which is not
    defined past every face."""

    label: str
    j: int
    face: float | None
    band: float
    phi: Callable[[np.ndarray, np.ndarray], float]


class _Field:
    """Model access and the frozen-regime field shared by the three laws;
    each law adds its ``regime`` and may extend ``monitors`` and ``classify``.

    A coordinate is held on a box face for a whole step when it starts the
    step on the face with an outward velocity (:func:`cones.outward`).
    ``scale`` is the positive per-coordinate speed factor of the law
    (mobility or gains): the raw velocity of coordinate j has the sign of
    -d_j R, so a face-held coordinate is released when d_j R turns.
    ``slaved_fast`` exempts fast components from the velocity-change bound
    (see the notes on the core); ``fallback`` is the field that takes a
    step whose own regime cannot be formed.
    """

    fallback: _Field | None = None
    slaved_fast = False

    def __init__(self, mode: DynamicsMode, costs, cfg, box: Box, opts: IntegrationOptions, scale):
        self.mode, self.costs, self.cfg, self.box, self.opts = mode, costs, cfg, box, opts
        self.gmode = mode.gradient_mode
        self.scale = scale

    def grad(self, Y: np.ndarray) -> np.ndarray:
        return hm.gradient_vec(self.costs, self.cfg, Y, self.gmode)

    def rhs(self, G: np.ndarray, fz: _Frozen) -> np.ndarray:
        return np.where(fz.active, fz.coef * G, fz.const)

    def velocity(self, Y: np.ndarray, G: np.ndarray, fz: _Frozen) -> np.ndarray:
        """State velocity y'; differs from rhs only on algebraic rows."""
        return self.rhs(G, fz)

    def jacobian(self, Y: np.ndarray, fz: _Frozen) -> np.ndarray:
        J = fz.coef[..., None] * hm.grad_jacobian(self.costs, self.cfg, Y, self.gmode)
        return np.where(fz.active[:, :, None] & ~fz.frozen[:, None, :], J, 0.0)

    def project(self, Y: np.ndarray, active: np.ndarray, tol: float) -> np.ndarray:
        """States put back on the sliding manifolds (none here); ``active``
        is the (N, d) mask of the frozen regime's solved coordinates."""
        return Y

    def may_change(self, Y1: np.ndarray, fz: _Frozen) -> np.ndarray:
        """Rows whose step to Y1 has a monitor, and so may change regime."""
        return np.ones(len(Y1), dtype=bool)

    def monitors(self, y0: np.ndarray, y1: np.ndarray, fz: _Frozen) -> list[_Monitor]:
        """Regime-change monitors of a frozen single-row regime for a step
        from y0 to y1: box-face release of held coordinates (the gradient
        turns) and contact of free ones that end the step past a face."""
        box = self.box
        at_lo = y0 <= box.lo + self.opts.boundary_tol
        free = ~fz.frozen[0]
        out = []
        for j in np.flatnonzero(fz.frozen[0]):
            c = self.scale[j] if at_lo[j] else -self.scale[j]
            out.append(_Monitor(BOUNDARY_RELEASE, j, None, 0.0, lambda x, g, j=j, c=c: c * g[j]))
        for j in np.flatnonzero(free & (y1 <= box.lo)):
            out.append(_Monitor(BOUNDARY_CONTACT, j, box.lo[j], 0.0, lambda x, g, j=j: x[j] - box.lo[j]))
        for j in np.flatnonzero(free & (y1 >= box.hi)):
            out.append(_Monitor(BOUNDARY_CONTACT, j, box.hi[j], 0.0, lambda x, g, j=j: box.hi[j] - x[j]))
        return out

    def classify(self, label: str, j: int, x_e: np.ndarray, fz: _Frozen) -> tuple[str, int]:
        """Event (kind, index) of a monitor that fired at x_e."""
        return label, int(j)


class _PGField(_Field):
    """Projected gradient: f = -mobility * grad R on free coordinates.

    A face-held coordinate has zero velocity and a zero Jacobian row and
    column, so it stays exactly on the face.
    """

    slaved_fast = True

    def __init__(self, mode: ProjectedGradient, costs, cfg, box: Box, opts: IntegrationOptions):
        super().__init__(mode, costs, cfg, box, opts, mode.mobility_vector(box.dim))
        self.neg_mob = -self.scale

    def regime(self, Y: np.ndarray, G: np.ndarray) -> _Frozen:
        frozen = outward(self.box, Y, self.neg_mob * G, self.opts.boundary_tol)
        zeros = np.zeros_like(Y)
        return _Frozen(frozen, ~frozen, np.zeros_like(frozen), zeros, self.neg_mob[None], zeros)

    def may_change(self, Y1: np.ndarray, fz: _Frozen) -> np.ndarray:
        """Only face monitors here: rows with a face-held coordinate, or
        with an end state not strictly inside the box."""
        inside = np.all((Y1 > self.box.lo) & (Y1 < self.box.hi), axis=1)
        return fz.frozen.any(axis=1) | ~inside


class _LayerField(_Field):
    """Boundary-layer sign descent: f_j = -(gain_j/eps) d_j R inside the
    layer |d_j R| <= eps, -gain_j sgn(d_j R) on saturated coordinates."""

    def __init__(self, mode: SignDescent, costs, cfg, box: Box, opts: IntegrationOptions):
        super().__init__(mode, costs, cfg, box, opts, mode.gains(costs.p))
        self.coef = (-self.scale / mode.epsilon)[None]

    def regime(self, Y: np.ndarray, G: np.ndarray) -> _Frozen:
        eps = self.mode.epsilon
        sliding = np.abs(G) <= eps
        signs = np.sign(np.where(sliding, 0.0, G))
        frozen = outward(self.box, Y, -self.scale * np.clip(G / eps, -1.0, 1.0), self.opts.boundary_tol)
        const = np.where(frozen, 0.0, -self.scale * signs)
        return _Frozen(frozen, sliding & ~frozen, sliding, signs, self.coef, const)

    def monitors(self, y0: np.ndarray, y1: np.ndarray, fz: _Frozen) -> list[_Monitor]:
        """Face monitors plus layer exit (inside) and entry (saturated)."""
        out = super().monitors(y0, y1, fz)
        eps, sliding, signs = self.mode.epsilon, fz.sliding[0], fz.signs[0]
        for j in range(y0.size):
            if sliding[j]:
                out.append(_Monitor(SLIDE_EXIT, j, None, 0.0, lambda x, g, j=j: eps - abs(g[j])))
            else:
                s = signs[j]
                out.append(_Monitor(SLIDE_ENTER, j, None, 0.0, lambda x, g, j=j, s=s: s * g[j] - eps))
        return out


class _SlideField(_Field):
    """Equivalent-control sign descent as the index-1 DAE

        x_ext' = -gain sgn(d R)  (0 on face-held coordinates),
        0      = d_S R           on the sliding set S,

    with Jacobian rows [0; H_S,:].  Its velocity on S is the equivalent
    control -H_SS^-1 H_S,ext x_ext'.  The regime of each row is formed by
    the clamp-and-drop iteration of the Filippov condition.  A row whose
    sliding block is too ill-conditioned to solve hands its step to the
    boundary-layer field (``fallback``).
    """

    def __init__(self, mode: SignDescent, costs, cfg, box: Box, opts: IntegrationOptions):
        super().__init__(mode, costs, cfg, box, opts, mode.gains(costs.p))
        self.fallback = _LayerField(replace(mode, sliding=BOUNDARY_LAYER), costs, cfg, box, opts)
        self.coef = np.ones((1, box.dim))

    def regime(self, Y: np.ndarray, G: np.ndarray) -> _Frozen:
        """Raises SingularSlidingError if the sliding block of a row cannot
        be solved."""
        sliding = np.abs(G) <= self.opts.switch_tol
        signs = np.where(sliding, 0.0, np.sign(G))
        V = -self.scale * signs
        for i in np.flatnonzero(sliding.any(axis=1)):
            S0 = [int(j) for j in np.flatnonzero(sliding[i])]
            V[i], S, dropped = _slide_iterate(self.mode, self.costs, self.cfg, Y[i], S0, signs[i], self.scale, self.opts)
            sliding[i] = False
            sliding[i, S] = True
            for j, direction in dropped.items():
                signs[i, j] = -direction  # so that -gain*sign reproduces the escape velocity
        frozen = outward(self.box, Y, V, self.opts.boundary_tol)
        active = sliding & ~frozen
        const = np.where(frozen, 0.0, -self.scale * signs)
        return _Frozen(frozen, active, sliding, signs, self.coef, const, np.where(active, 0.0, 1.0))

    def velocity(self, Y: np.ndarray, G, fz: _Frozen) -> np.ndarray:
        V = fz.const.copy()
        for i in np.flatnonzero(fz.active.any(axis=1)):
            S = np.flatnonzero(fz.active[i]).tolist()
            V[i, S] = _slide_solve(self.mode, self.costs, self.cfg, Y[i], S, V[i], self.opts)
        return V

    def project(self, Y: np.ndarray, active: np.ndarray, tol: float) -> np.ndarray:
        """One Newton correction delta_S = -H_SS^-1 d_S R on the rows of Y
        whose sliding coordinates are off their manifolds by more than tol,
        solved together for the rows that share a sliding set S."""
        if not active.any():
            return Y
        G = self.grad(Y)
        off = np.any(active & (np.abs(G) > tol), axis=1)
        if not off.any():
            return Y
        Y = Y.copy()
        for pattern in np.unique(active[off], axis=0):
            S = np.flatnonzero(pattern)
            rows = np.flatnonzero(off & np.all(active == pattern, axis=1))
            H = hm.grad_jacobian(self.costs, self.cfg, Y[rows], self.gmode)
            try:
                delta = np.linalg.solve(H[:, S][:, :, S], G[rows][:, S][..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise SingularSlidingError(f"sliding block on coordinates {S.tolist()} is singular") from exc
            Y[np.ix_(rows, S)] -= delta
        return Y

    def monitors(self, y0: np.ndarray, y1: np.ndarray, fz: _Frozen) -> list[_Monitor]:
        """Face monitors plus switching-manifold crossings of the external
        coordinates and the saturation of the equivalent control."""
        out = super().monitors(y0, y1, fz)
        signs = fz.signs[0]
        for j in np.flatnonzero(~fz.active[0] & ~fz.frozen[0]):
            s = signs[j]
            out.append(_Monitor("switch", j, None, self.opts.switch_tol, lambda x, g, j=j, s=s: s * g[j]))
        S = np.flatnonzero(fz.active[0])
        if S.size:
            gains = self.scale[S]

            def margin(x, g):
                return float(np.min(gains - np.abs(self.velocity(x[None], None, fz)[0, S])))

            out.append(_Monitor("slide_exit", -1, None, 0.0, margin))
        return out

    def classify(self, label: str, j: int, x_e: np.ndarray, fz: _Frozen) -> tuple[str, int]:
        if label == "slide_exit":
            # the coordinate whose equivalent control saturates
            S = np.flatnonzero(fz.active[0])
            v = self.velocity(x_e[None], None, fz)[0]
            return SLIDE_EXIT, int(S[np.argmin(self.scale[S] - np.abs(v[S]))])
        if label == "switch":
            # sliding entry iff the Filippov condition accepts the coordinate;
            # an unsolvable block counts as entry and the next step falls back
            y = x_e[None]
            try:
                sliding = self.regime(y, self.grad(y)).sliding[0]
            except SingularSlidingError:
                return SLIDE_ENTER, int(j)
            return (SLIDE_ENTER if sliding[j] else SWITCH_CROSS), int(j)
        return label, int(j)


def _field(mode: DynamicsMode, costs, cfg, box: Box, opts: IntegrationOptions) -> _Field:
    if isinstance(mode, ProjectedGradient):
        return _PGField(mode, costs, cfg, box, opts)
    if mode.sliding == BOUNDARY_LAYER:
        return _LayerField(mode, costs, cfg, box, opts)
    return _SlideField(mode, costs, cfg, box, opts)


# ---------------------------------------------------------------------------
# public velocity operations
# ---------------------------------------------------------------------------

def _indices(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(j) for j in np.flatnonzero(mask))


def _start(mode: DynamicsMode, costs, cfg, box: Box, X: np.ndarray, options: IntegrationOptions | None):
    """The law's field under the options (defaulted) for a run from the
    rows of the (N, d) stack X, each of which must lie in the box."""
    opts = options or IntegrationOptions()
    for x in X:
        if not box.contains(x, opts.boundary_tol):
            raise DomainError(f"state {x.tolist()} outside the box")
    return _field(mode, costs, cfg, box, opts)


def velocity(mode: DynamicsMode, costs, cfg, box: Box, x, options: IntegrationOptions | None = None):
    """Filippov velocity selection at a state, the field the core
    integrates from there, and the regime descriptor it freezes."""
    xv = hm._as_vector(x, costs.p)
    Y = xv[None]
    fld = _start(mode, costs, cfg, box, Y, options)
    G = fld.grad(Y)
    fz = fld.regime(Y, G)
    v = fld.velocity(Y, G, fz)[0]
    held = fz.frozen[0]
    lower = held & (xv <= box.lo + fld.opts.boundary_tol)
    regime = Regime(sliding=_indices(fz.sliding[0]), lower=_indices(lower), upper=_indices(held & ~lower),
                    signs=tuple(int(s) for s in fz.signs[0]), velocity=v)
    return v, regime


def slide_velocity(mode: SignDescent, costs, cfg, x, active_set, options: IntegrationOptions | None = None) -> np.ndarray:
    """Equivalent-control sliding velocity on the given active set.

    External coordinates keep their sign-descent values; solved components
    are clamped to the gain bounds and the set shrinks when the Filippov
    condition fails.
    """
    if not isinstance(mode, SignDescent) or mode.sliding != EQUIVALENT_CONTROL:
        raise DomainError("slide_velocity requires SignDescent with equivalent control")
    opts = options or IntegrationOptions()
    xv = hm._as_vector(x, costs.p)
    g = hm.gradient_vec(costs, cfg, xv, mode.gradient_mode)
    S0 = [int(j) for j in active_set]
    signs = np.where(np.abs(g) <= opts.switch_tol, 0, np.sign(g)).astype(int)
    v, _, _ = _slide_iterate(mode, costs, cfg, xv, S0, signs, mode.gains(costs.p), opts)
    return v


# ---------------------------------------------------------------------------
# the stiff dense-output stepping core on (N, d) stacks
# ---------------------------------------------------------------------------

# RODAS4 (Hairer & Wanner, Solving ODEs II, Sec. IV.7) in the transformed
# variables of its reference code.  With W = M/(dt*gamma) - J the stage
# increments solve
#     W u_i = f(y + sum_j a_ij u_j) + M sum_j (c_ij/dt) u_j,   i = 1..6.
# The sixth stage point is the embedded third-order solution and the
# fourth-order solution is that point plus u_6, so u_6 is the error
# estimate.  The method is stiffly accurate, so with M singular it solves
# index-1 DAEs (Sec. VI.4): algebraic rows are Newton-corrected by every
# stage.
#
# Dense output: the quartic in s in [0, 1] that matches y0, dt y'(0) and
# dt^2 J y'(0) (the second derivative of the autonomous flow) at s = 0 and
# y1, dt y'(1) at s = 1.  This Hermite-Birkhoff interpolant has local error
# O(dt^5), one order better than the method's own dense formula; it needs
# no extra model evaluation, since f(y1) starts the next step anyway.  It
# falls back to the cubic Hermite interpolant (no second derivative) on
# algebraic rows, where J y' is not the second derivative, and wherever the
# two differ by more than the step moves: for a stiff component J y'(0)
# magnifies any velocity not yet on its slow manifold.
#
# Velocity-change bound: on slow components (diagonal Jacobian rate within
# a factor 1/_VELOCITY_CHANGE of the slowest), a step may change the
# velocity by at most _VELOCITY_CHANGE of itself, plus _ATOL per
# unit time so that a velocity at rounding level holds nothing back.  Error
# control relative to |y| lets the steps grow without limit as the state
# nears its equilibrium, until grid rows stop resolving the exponential
# tail that the dissipation audit and the rate fits read; the bound keeps
# a fixed number of steps per e-folding of the slow motion.  Under a
# gradient flow (``slaved_fast``) faster components relax onto the slow
# manifold and are left to error control, so stiff transients cost no more
# than error control asks.  Under sign descent a coordinate enters its
# boundary layer at full speed, so every component is bounded; a velocity
# change within the rounding of rate * |y| counts as none.
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
_ROUNDING = 8.0 * np.finfo(float).eps
_SAFETY = 0.9
# substep error scale: _ATOL + _RTOL * max(1, |y|)
_RTOL = 1e-9
_ATOL = 1e-12
_VELOCITY_CHANGE = 0.04
_FAC_MIN = 0.2
_FAC_MAX = 6.0


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
    box.  Returns (step row of each grid row, k, states, clip of each)."""
    counts = np.maximum(stop - first, 0)
    which = np.repeat(np.arange(first.size), counts)
    k = np.arange(which.size) - np.repeat(np.cumsum(counts) - counts, counts)
    k += np.repeat(first, counts)
    s = np.minimum((times[k] - t0[which]) / st.dt[which], s_cap[which])[:, None]
    X = np.where(s == 1.0, st.y1[which], _dense_eval(Y0[which], st.dense[:, which], s))
    Xc = box.clip(X)
    return which, k, Xc, np.abs(Xc - X).max(axis=1)


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


def _ros_attempt(fld: _Field, Y, F0, V0, J, fz: _Frozen, dt):
    """One RODAS4 step per row; returns (y1, g1, dense, err).

    F0 is f(Y) and V0 the velocity y' at Y.  err is the larger of the
    error estimate over the error scale and the fourth power of the
    velocity-change ratio, so that both are accepted at err <= 1 and steer
    the step size with the same exponent.  It is inf wherever a stage or
    the result is not finite.
    """
    eye = np.eye(Y.shape[1]) if fz.mass is None else np.eye(Y.shape[1]) * fz.mass[:, None, :]
    W_inv = _inverse(eye / (dt * _ROS_GAMMA)[:, None, None] - J)
    inv_dt = (1.0 / dt)[:, None]
    U = [(W_inv @ F0[..., None])[..., 0]]
    for a_row, c_row in zip(_ROS_A, _ROS_C):
        Yi = Y + sum(a * u for a, u in zip(a_row, U))
        Fi = fld.rhs(fld.grad(Yi), fz)
        corr = inv_dt * sum(c * u for c, u in zip(c_row, U))
        rhs = Fi + (corr if fz.mass is None else fz.mass * corr)
        U.append((W_inv @ rhs[..., None])[..., 0])
    y1 = fld.project(Yi + U[5], fz.active, 0.1 * fld.opts.switch_tol)
    g1 = fld.grad(y1)
    V1 = fld.velocity(y1, g1, fz)
    dt_col = dt[:, None]
    step = y1 - Y
    size = np.maximum(1.0, np.maximum(np.abs(Y), np.abs(y1)))
    scale = _ATOL + _RTOL * size
    a = dt_col * V0
    b = (0.5 * dt_col * dt_col) * (J @ V0[..., None])[..., 0]
    b_cubic = 3.0 * step - 2.0 * a - dt_col * V1
    cubic = np.abs(b - b_cubic) > np.abs(step) + scale
    if fz.mass is not None:
        cubic |= fz.mass == 0.0
    b = np.where(cubic, b_cubic, b)
    r1 = step - a - b
    r2 = dt_col * V1 - a - 2.0 * b
    e = r2 - 3.0 * r1
    dense = np.stack([a, b, r1 - e, e])
    err = np.max(np.abs(U[5]) / scale, axis=1)
    rate = np.abs(np.diagonal(J, axis1=1, axis2=2))
    noise = (_ROUNDING * rate) * size
    resolved = _VELOCITY_CHANGE * np.maximum(np.abs(V0), np.abs(V1)) + _ATOL * inv_dt
    bend = np.abs(V1 - V0) / np.maximum(resolved, noise)
    if fld.slaved_fast:
        slowest = np.min(np.where(rate > 0.0, rate, np.inf), axis=1, keepdims=True)
        bend[rate * _VELOCITY_CHANGE > slowest] = 0.0
    err = np.maximum(err, np.max(bend, axis=1) ** 4)
    err[~(np.isfinite(err) & np.isfinite(y1).all(axis=1))] = np.inf
    return y1, g1, dense, err


def _ros_advance(fld: _Field, Y, G, fz: _Frozen, H, limit, t) -> _Step:
    """Advance every row of Y by one accepted RODAS4 step.

    G is the raw gradient at Y, fz the frozen-regime field, H the
    preferred step sizes, ``limit`` the remaining time of each row and t
    its current time.  Each row has its own step size and error norm: a
    rejected row retries with a smaller step while the accepted rows wait,
    so no row's steps depend on another row.  A row whose step underflows
    raises StepFailureError.
    """
    with np.errstate(all="ignore"):
        F0 = fld.rhs(G, fz)
        V0 = fld.velocity(Y, G, fz)
        J = fld.jacobian(Y, fz)
        dt = np.minimum(H, limit)
        capped = dt < H
        fac_max = np.full(dt.size, _FAC_MAX)
        y1 = np.empty_like(Y)
        g1 = np.empty_like(Y)
        dense = np.empty((4,) + Y.shape)
        h_next = np.empty_like(dt)
        todo = np.arange(dt.size)
        while todo.size:
            part = fz if todo.size == dt.size else fz.take(todo)
            yt, gt, dn, err = _ros_attempt(fld, Y[todo], F0[todo], V0[todo], J[todo], part, dt[todo])
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


def _initial_step(fld: _Field, Y, G, fz: _Frozen, span) -> np.ndarray:
    """Starting step size per row for an order-4 pair (Hairer, Norsett &
    Wanner, Solving ODEs I, Sec. II.4); one extra field evaluation."""
    with np.errstate(all="ignore"):
        F0 = fld.velocity(Y, G, fz)
        y_max = np.abs(Y).max(axis=1)
        scale = _ATOL + _RTOL * np.maximum(1.0, y_max)
        d0 = y_max / scale
        d1 = np.abs(F0).max(axis=1) / scale
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, span)
        Y1 = Y + h0[:, None] * F0
        F1 = fld.velocity(Y1, fld.grad(Y1), fz)
        d2 = np.abs(F1 - F0).max(axis=1) / scale / h0
        dm = np.maximum(d1, d2)
        h1 = np.where(dm <= 1e-15, np.maximum(1e-6, 1e-3 * h0), (0.01 / dm) ** 0.2)
        h = np.minimum(np.minimum(100.0 * h0, h1), span)
    # a non-finite field leaves the choice to the controller's rejections
    return np.where(np.isfinite(h) & (h > 0.0), h, np.minimum(1e-6, span))


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


def _locate_events(fld: _Field, Y0, G0, fz: _Frozen, st: _Step, row: int):
    """Regime changes within the accepted step of one row of a stack.

    Returns None, or (s, x_e, events) with s the step fraction of the
    earliest transition, x_e the state there (contact coordinates snapped
    to their face) and events the (kind, index) pairs that occur at s.
    Box-face contact is located first: the frozen-regime flow beyond a
    face is not the model's, so the other monitors are read only up to
    the earliest contact.  A monitor that ends inside its band without a
    sign change fires at that end.
    """
    y0, g0, y1, g1, dense = Y0[row], G0[row], st.y1[row], st.g1[row], st.dense[:, row]
    fz = fz if len(Y0) == 1 else fz.take([row])
    live = [m for m in fld.monitors(y0, y1, fz) if m.phi(y0, g0) > m.band]
    if not live:
        return None

    def state_at(s: float) -> np.ndarray:
        if s == 1.0:
            return y1.copy()
        return _dense_eval(y0, dense, np.array([[s]]))[0]

    def fraction(m: _Monitor, s_end: float) -> float:
        def at(u: float) -> float:
            x = state_at(u * s_end)
            return m.phi(x, None if m.face is not None else fld.grad(x[None])[0])

        return s_end * _bisect_fraction(at, fld.opts.event_tol)

    located = [(fraction(m, 1.0), i) for i, m in enumerate(live)
               if m.face is not None and m.phi(y1, g1) <= 0.0]
    s_end, x_end, g_end = 1.0, y1, g1
    if located:
        s_end = min(located)[0]
        x_end = state_at(s_end)
        g_end = fld.grad(x_end[None])[0]
    for i, m in enumerate(live):
        if m.face is None and m.phi(x_end, g_end) <= m.band:
            located.append((s_end if m.phi(x_end, g_end) > 0.0 else fraction(m, s_end), i))
    if not located:
        return None
    s, first = min(located)
    x_e = state_at(s)
    g_e = fld.grad(x_e[None])[0]
    fired = [first] + [i for _, i in located if i != first and live[i].phi(x_e, g_e) <= live[i].band]
    for i in fired:
        if live[i].face is not None:
            x_e[live[i].j] = live[i].face
    return s, x_e, [fld.classify(live[i].label, live[i].j, x_e, fz) for i in fired]


def _nominal_grid(t_end: float, h: float) -> np.ndarray:
    """Output times 0, h, 2h, ..., the last step cut to end at t_end."""
    t0 = np.arange(max(1, int(math.ceil(t_end / h - 1e-12)))) * h
    return np.concatenate([[0.0], t0 + np.minimum(h, t_end - t0)])


def _first_converged(fld: _Field, X: np.ndarray, psi: np.ndarray):
    """Index of the first row with imbalance and decoupled KKT residual
    both within the convergence tolerance, or None."""
    tol = fld.opts.converge_tol
    cand = np.flatnonzero(psi <= tol)
    if cand.size == 0:
        return None
    g = hm.gradient_vec(fld.costs, fld.cfg, X[cand], "decoupled")
    t = tangent_project_batch(fld.box, X[cand], -g, fld.opts.boundary_tol)
    ok = np.flatnonzero(np.sum(t * t, axis=1) <= tol)
    return int(cand[ok[0]]) if ok.size else None


def _regimes(fld: _Field, rows: np.ndarray, Y: np.ndarray, G: np.ndarray):
    """Frozen regimes of the run rows ``rows`` at states Y as a list of
    (field, rows, regime) groups: a row whose sliding block cannot be
    solved goes to the fallback field, in a group of its own."""
    try:
        return [(fld, rows, fld.regime(Y, G))]
    except SingularSlidingError:
        if rows.size == 1:
            return [(fld.fallback, rows, fld.fallback.regime(Y, G))]
    half = rows.size // 2
    return _regimes(fld, rows[:half], Y[:half], G[:half]) + _regimes(fld, rows[half:], Y[half:], G[half:])


def _run(fld: _Field, X: np.ndarray, t_end: float, h: float, stop: bool, keep: bool):
    """Run every row of the (N, d) stack X on the RODAS4 core with located
    events.  Returns one Trajectory per row with ``keep``, else an
    EnsembleResult, which holds no state history.

    Each row has its own time, step size, next grid row, events,
    chattering guard and convergence stop (with ``stop``), so it takes the
    steps of a run of that row alone.  Each step integrates the
    frozen-regime field found at its start and ends at the row's first
    regime change; rows that can have none (``may_change``) skip event
    location.  While a row's sliding block cannot be solved, its steps of
    at most h go through the boundary-layer field; each such episode is
    recorded once, as SlideExit at index -1, in place of the layer's own
    events.
    """
    box, costs, cfg, opts = fld.box, fld.costs, fld.cfg, fld.opts
    times = _nominal_grid(t_end, h)
    n_rows = times.size
    N = X.shape[0]
    states = np.empty((N, n_rows, X.shape[1])) if keep else None
    masks = np.zeros((N, n_rows), dtype=np.int64) if keep else None
    Rs = None if keep else np.empty((N, n_rows))  # a trajectory's R is taken from its states
    psis = np.empty((N, n_rows))
    events: list[list[EventRecord]] = [[] for _ in range(N)]
    filled = np.ones(N, dtype=np.int64)
    since_row = np.zeros(N, dtype=np.int64)
    converged = np.zeros(N, dtype=bool)
    fell_before = np.zeros(N, dtype=bool)
    max_clip = np.zeros(N)

    def record(rows, k, Xg, bits):
        if keep:
            states[rows, k] = Xg
            masks[rows, k] = bits
        else:
            Rs[rows, k] = hm.resistance_lyapunov_vec(costs, cfg, Xg, fld.gmode)
        psis[rows, k] = hm.imbalance_vec(costs, cfg, Xg)

    Y = X.copy()
    G = fld.grad(Y)
    t = np.zeros(N)
    H = np.empty(N)
    groups = _regimes(fld, np.arange(N), Y, G)
    for stepper, rows, fz in groups:
        H[rows] = _initial_step(stepper, Y[rows], G[rows], fz, np.full(rows.size, t_end))
        record(rows, 0, Y[rows], fz.bits())
    while groups:
        for stepper, rows, fz in groups:
            y0, g0, t0, first = Y[rows], G[rows], t[rows], filled[rows]
            fell = stepper is not fld
            limit = np.minimum(t_end - t0, h) if fell else t_end - t0
            st = _ros_advance(stepper, y0, g0, fz, H[rows], limit, t0)
            hits = {}
            for i in np.flatnonzero(stepper.may_change(st.y1, fz)):
                found = _locate_events(stepper, y0, g0, fz, st, i)
                if found is not None:
                    hits[i] = found
            hit = np.zeros(rows.size, dtype=bool)
            s_end = np.ones(rows.size)
            for i, (s, _, _) in hits.items():
                hit[i], s_end[i] = True, s
            at_end = ~hit & (st.dt >= t_end - t0)
            t_next = np.where(at_end, t_end, t0 + s_end * st.dt)
            stop_row = np.where(at_end, n_rows, np.searchsorted(times, t_next, side="right"))
            wrote = stop_row > first
            if wrote.any():
                which, k, Xg, clip = _grid_rows(box, times, t0, y0, st, first, stop_row, s_end)
                Xg = stepper.project(Xg, fz.active[which], 10.0 * opts.switch_tol)
                record(rows[which], k, Xg, fz.bits()[which] if keep else None)
                np.maximum.at(max_clip, rows[which], clip)
                since_row[rows[wrote]] = 0
                filled[rows] = np.maximum(first, stop_row)
            if stop:  # a step ending in an event records it first
                for i in np.flatnonzero(wrote & ~hit):
                    j = _first_converged(fld, Xg[which == i], psis[rows[i], first[i]:stop_row[i]])
                    if j is not None:
                        filled[rows[i]] = first[i] + j + 1
                        converged[rows[i]] = True
            done = converged[rows]

            # the next step starts at the event state, or else at the end
            # state clipped to the box
            Y1 = box.clip(st.y1)
            clip = np.where(hit | done, 0.0, np.abs(Y1 - st.y1).max(axis=1))
            max_clip[rows] = np.maximum(max_clip[rows], clip)
            for i, (_, x_e, _) in hits.items():
                Y1[i] = x_e
            moved = hit | (clip > 0.0)
            G1 = st.g1
            if moved.any():
                G1[moved] = fld.grad(Y1[moved])
            Y[rows], G[rows], H[rows], t[rows] = Y1, G1, st.h_next, t_next

            new = {i: found for i, (_, _, found) in hits.items()}
            if fell:
                new = {i: [(SLIDE_EXIT, -1)] for i in np.flatnonzero(~done & ~fell_before[rows])}
            fell_before[rows] = fell
            for i, pairs in new.items():
                r, te = rows[i], float(t_next[i])
                events[r] += [EventRecord(time=te, kind=kind, index=j) for kind, j in pairs]
                since_row[r] += len(pairs)
                if since_row[r] > opts.max_events_per_step:
                    raise StepFailureError(
                        f"more than {opts.max_events_per_step} events within one nominal step "
                        f"at t={te:.6g}: likely chattering",
                        te,
                    )
        live = np.flatnonzero((filled < n_rows) & ~converged)
        groups = _regimes(fld, live, Y[live], G[live]) if live.size else []

    if not keep:
        return EnsembleResult(times=times, final_states=Y, R_values=Rs, Psi_values=psis,
                              max_clip=float(np.max(max_clip)))
    out = []
    for i, n in enumerate(filled):
        kept = [e for e in events[i] if e.time <= times[n - 1]]
        rows = np.maximum(np.searchsorted(times[:n], [e.time for e in kept], side="left"), 1)
        step_events = [""] * n
        for e, k in zip(kept, rows):
            tag = f"{e.kind}:{e.index}"
            step_events[k] = f"{step_events[k]};{tag}" if step_events[k] else tag
        out.append(Trajectory(
            times=times[:n],
            states=states[i, :n],
            R_values=np.asarray(hm.resistance_lyapunov_vec(costs, cfg, states[i, :n], fld.gmode)),
            Psi_values=psis[i, :n],
            regime_masks=masks[i, :n],
            events=kept,
            step_events=step_events,
            status="converged" if converged[i] else "finished",
            max_clip=float(max_clip[i]),
        ))
    return out


# ---------------------------------------------------------------------------
# public integration entry points
# ---------------------------------------------------------------------------

def _integrate(mode: DynamicsMode, costs, cfg, box: Box, X: np.ndarray, t_end: float, h: float,
               options: IntegrationOptions | None, stop: bool, keep: bool = True):
    """Checked run of the rows of X (see :func:`_run`).  Step failures
    propagate with a timestamp."""
    if not (_positive_finite(t_end) and _positive_finite(h)):
        raise DomainError(f"t_end and h must be positive and finite, got t_end={t_end}, h={h}")
    fld = _start(mode, costs, cfg, box, X, options)
    try:
        return _run(fld, box.clip(X), t_end, h, stop, keep)
    except StepFailureError as exc:
        raise StepFailureError(f"integration failed at t={exc.time:.6g}: {exc}", exc.time) from exc


def step(mode: DynamicsMode, costs, cfg, box: Box, x, h: float, options: IntegrationOptions | None = None):
    """One nominal step of size h; returns (x_next, events)."""
    (traj,) = _integrate(mode, costs, cfg, box, hm._as_vector(x, costs.p)[None], h, h, options, False)
    return traj.final_state, traj.events


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
    stop = (options or IntegrationOptions()).stop_on_convergence
    (traj,) = _integrate(mode, costs, cfg, box, hm._as_vector(x0, costs.p)[None], t_end, h, options, stop)
    return traj


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
    X = np.stack([hm._as_vector(x0, costs.p), hm._as_vector(y0, costs.p)])
    ta, tb = _integrate(mode, costs, cfg, box, X, t_end, h, options, False)
    sep = np.linalg.norm(ta.states - tb.states, axis=1)
    return PairedRun(first=ta, second=tb, times=ta.times, separation=sep)


def integrate_ensemble(
    mode: DynamicsMode,
    costs,
    cfg,
    box: Box,
    X0: np.ndarray,
    t_end: float,
    h: float,
    options: IntegrationOptions | None = None,
) -> EnsembleResult:
    """Integrate a batch of states (the rows of X0) to t_end under any law.

    Each row takes the steps and events of a single :func:`integrate` run
    from its state that does not stop on convergence.  Only the final
    states and the R and Psi series on the nominal grid are kept.
    """
    X = hm._checked_state(np.array(X0, dtype=float, ndmin=2), costs.p)
    return _integrate(mode, costs, cfg, box, X, t_end, h, options, False, keep=False)
