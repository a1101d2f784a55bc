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
field found at a state) and ``monitors`` (the regime changes to watch over
a step); the core sees nothing else of the law.  A regime is data
(coefficients, constant velocities and the mass matrix of each row), so
rows in different regimes advance in one batched step.  Every law forms its regimes on
whole (N, d) stacks; equivalent control runs the clamp-and-drop
iteration of the Filippov condition on all rows at once, with one
batched solve of every row's sliding block.  Uniform contraction keeps
every sliding block nonsingular, so a block too ill-conditioned to solve
raises SingularSlidingError.

Coordinates held on a box face have zero velocity.  Projected gradient
is stiff near the optimum (Jacobian eigenvalues from 0.5 to 1024 on the
canonical ladder), and so is the boundary layer (rates gain/eps times the
curvature).  Every field is integrated by a linearly implicit Rosenbrock
pair, RODAS4 (Hairer & Wanner, *Solving ODEs II*, Sec. IV.7 and VI.4),
fed with the analytic Jacobian.  Its embedded error estimate and a bound
on the change of velocity per output interval h set the step size: a step
of h or longer may change the velocity by a fixed fraction of itself, a
shorter step dt by h/dt times that fraction, so a transient that settles
within a grid interval is left to error control.  A continuous dense
output fills the grid rows a step covers.  The steps, the dense output
and the location of events on it are in :mod:`constructal.stepping`.
Regime changes (box-face contact and release, boundary-layer entry and
exit, switching-manifold crossings and sliding exit) are located by
bisection on the dense output, in the event-driven style of Piiroinen &
Kuznetsov (ACM TOMS 34(3), 2008), and the run restarts in the regime
found at the event, which names the event: each coordinate whose regime
it changes is logged (``_changes``).  One run loop steps (N, d) stacks
of any law: single runs are N = 1, paired runs N = 2 and ensembles N
rows.  Every row has its own time, step size, error norm, events and
regime.

The core is float-pure, so identical inputs give bit-identical
trajectories.  Coordinate indices in events and masks are flat: 0..p-1
are the aspect ratios r_1..r_p, p..2p-2 are the branching numbers
n_2..n_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import hierarchy as hm
from .cones import BOUNDARY_TOL, Box, _check_membership, kkt_residual, outward
from .errors import DomainError, SingularSlidingError, StepFailureError
from .stepping import _grid_rows, _initial_step, _locate_events, _ros_advance

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
    "integrate",
    "two_trajectory_run",
    "integrate_ensemble",
]

EQUIVALENT_CONTROL = "equivalent_control"
BOUNDARY_LAYER = "boundary_layer"

EVENT_KINDS = ("SwitchCross", "SlideEnter", "SlideExit", "BoundaryContact", "BoundaryRelease")
SWITCH_CROSS, SLIDE_ENTER, SLIDE_EXIT, BOUNDARY_CONTACT, BOUNDARY_RELEASE = EVENT_KINDS

_COND_MAX = 1e12  # a sliding block beyond this condition (rows equilibrated) raises SingularSlidingError
_MAX_EVENTS = 64  # more located events in one nominal step raise the chattering guard
_GRID_BLOCK = 4096  # queued grid rows filled by one _grid_rows call
_SCREEN_ROOM = 2.0**-40  # rounding allowance of the Psi screen, per unit of the box's magnitude


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
    """Run tolerances and the convergence stop; the sliding-block condition
    bound and the chattering guard are fixed (``_COND_MAX``, ``_MAX_EVENTS``)."""

    switch_tol: float = 1e-9
    boundary_tol: float = BOUNDARY_TOL
    event_tol: float = 1e-10
    converge_tol: float = 1e-10
    stop_on_convergence: bool = True


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
    events: list[list[EventRecord]]  # of each row


# ---------------------------------------------------------------------------
# equivalent-control sliding solves on (n, d) stacks
# ---------------------------------------------------------------------------

def _on_manifold(G: np.ndarray, H: np.ndarray, tol: float) -> np.ndarray:
    """Coordinates on their switching manifolds, |d_j R| <= tol max(1, H_jj):
    scaled by the curvature, the test holds somewhere even where one ulp of
    x_j moves d_j R by more than tol."""
    return np.abs(G) <= tol * np.maximum(1.0, np.diagonal(H, axis1=-2, axis2=-1))


def _embedded(H: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Each row's sliding block H_SS embedded in the identity: the entries
    of H where row and column are both in S, those of I elsewhere."""
    return np.where(S[..., :, None] & S[..., None, :], H, np.eye(S.shape[-1]))


def _solve_blocks(H: np.ndarray, S: np.ndarray, B: np.ndarray) -> np.ndarray:
    """z with H_SS z_S = B_S and zero off S on each row of the stacks H, S
    and B, in one solve of the blocks embedded in the identity (the right
    side 0 off S).  An exactly singular block raises SingularSlidingError."""
    M = _embedded(H, S)
    try:
        return np.linalg.solve(M, np.where(S, B, 0.0)[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        s = np.flatnonzero(S[np.argmin(np.abs(np.linalg.slogdet(M).sign))])  # a row with a zero pivot
        raise SingularSlidingError(f"sliding block on coordinates {s.tolist()} is singular") from exc


def _equivalent_control(H: np.ndarray, S: np.ndarray, V: np.ndarray) -> np.ndarray:
    """V with the sliding coordinates S of each row set to the equivalent
    control -H_SS^-1 H_S,ext V_ext."""
    B = np.where(S, -(H @ np.where(S, 0.0, V)[..., None])[..., 0], 0.0)
    return np.where(S, _solve_blocks(H, S, B), V)


def _clamp_and_drop(H: np.ndarray, S: np.ndarray, signs: np.ndarray, gains: np.ndarray):
    """Clamp-and-drop iteration of the Filippov sliding condition on the
    rows of (n, d) stacks: each sliding set S is solved for its equivalent
    control and, while a component exceeds its gain, the most saturated
    coordinate leaves S at its saturated velocity (its sign is set so that
    -gain*sign is that velocity).  Updates S and signs in place and returns
    the velocities.  A block whose condition number is beyond ``_COND_MAX``
    raises SingularSlidingError naming the coordinates of the first such
    row.  The equations 0 = d_j R of the block may be scaled freely, and
    their curvatures H_jj span many decades on deep ladders, so the
    condition number is that of the block embedded in the identity
    (:func:`_embedded`) with each row divided by its |diagonal entry|; the
    solve is unscaled.
    """
    V = -gains * signs
    live = np.flatnonzero(S.any(axis=1))
    while live.size:
        M = _embedded(H[live], S[live])
        scale = np.abs(np.diagonal(M, axis1=-2, axis2=-1))[..., None]
        bad = np.flatnonzero(np.linalg.cond(M / scale) > _COND_MAX)
        if bad.size:
            s = np.flatnonzero(S[live[bad[0]]])
            raise SingularSlidingError(f"sliding block on coordinates {s.tolist()} is ill-conditioned")
        Vl = _equivalent_control(H[live], S[live], V[live])
        over = np.where(S[live], np.abs(Vl) / gains, -np.inf)
        j = np.argmax(over, axis=1)
        done = over[np.arange(live.size), j] <= 1.0 + 1e-12
        V[live[done]] = Vl[done]
        rows, j = live[~done], j[~done]
        direction = np.where(Vl[~done, j] > 0.0, 1.0, -1.0)
        V[rows, j] = direction * gains[j]
        signs[rows, j] = -direction
        S[rows, j] = False
        live = rows[S[rows].any(axis=1)]
    return V


# ---------------------------------------------------------------------------
# frozen-regime fields, one per law, on (N, d) stacks
# ---------------------------------------------------------------------------

@dataclass
class _Frozen:
    """Frozen regime of each row of a stack, as data: M y' = f(y) with

        f(y) = coef * grad R(y)  on ``active`` coordinates,
        f(y) = const             elsewhere,

    and M = diag(mass).  Coordinates of mass 0 (``algebraic``) are the
    sliding set S of equivalent control, where 0 = d_S R and the state
    velocity is the equivalent control; all ones make the row an ODE.
    Coordinates in ``frozen`` are held on a box face (const 0).
    ``sliding`` marks the coordinates in their boundary layer or on their
    switching manifold, face-held ones included, and ``signs`` the signs
    of d_j R that set the saturated velocities (0 where none does).
    ``dae`` tells whether any row has algebraic coordinates; ``plain`` that
    every coordinate of every row is active, none held on a face and none
    algebraic, so that f = coef * grad R and M = I.
    """

    frozen: np.ndarray    # (N, d) bool
    active: np.ndarray    # (N, d) bool
    sliding: np.ndarray   # (N, d) bool
    signs: np.ndarray     # (N, d)
    coef: np.ndarray      # (N, d)
    const: np.ndarray     # (N, d)
    mass: np.ndarray      # (N, d)

    def __post_init__(self):
        self.algebraic = self.mass == 0.0
        self.dae = bool(self.algebraic.any())
        self.plain = not self.dae and bool(self.active.all()) and not self.frozen.any()

    def take(self, rows) -> _Frozen:
        return _Frozen(*(getattr(self, f.name)[rows] for f in fields(self)))

    @cached_property
    def bits(self) -> np.ndarray:
        """Regime mask of each row: sliding and face-held coordinates."""
        return (self.frozen | self.sliding) @ (1 << np.arange(self.frozen.shape[1], dtype=np.int64))


class _Monitor(NamedTuple):
    """A regime change: ``phi(x, g)`` (g the mode gradient at x) starts
    above ``band`` and the transition is phi <= band.  ``face`` is the
    value coordinate j snaps to at the event, or None; a face monitor
    reads only x, and is located without the gradient, which is not
    defined past every face."""

    j: int
    face: float | None
    band: float
    phi: Callable[[np.ndarray, np.ndarray], float]


class _Field:
    """Model access and the frozen-regime field shared by the three laws;
    each law adds its ``regime`` and may extend ``monitors``.
    ``regime(Y, G)`` returns the frozen regime of each row of the stack Y
    as data (:class:`_Frozen`): it sets a step's field and names its events.

    A coordinate is held on a box face for a whole step when it starts the
    step on the face with an outward velocity (:func:`cones.outward`).
    ``scale`` is the positive per-coordinate speed factor of the law
    (mobility or gains): the raw velocity of coordinate j has the sign of
    -d_j R, so a face-held coordinate is released when d_j R turns.
    ``slaved_fast`` exempts fast components from the velocity-change bound
    (see the notes on the core).  ``faces_only`` tells that the law changes
    regime only on the box faces: its monitors are the face monitors, and
    at states off the face bands (see :meth:`near_face`) its regime is the
    all-free one.
    """

    slaved_fast = False
    faces_only = False

    def __init__(self, mode: DynamicsMode, costs, cfg, box: Box, opts: IntegrationOptions, scale):
        self.mode, self.costs, self.cfg, self.box, self.opts = mode, costs, cfg, box, opts
        self.gmode = mode.gradient_mode
        self.scale = scale
        self.lo_band, self.hi_band = box.lo + opts.boundary_tol, box.hi - opts.boundary_tol

    def near_face(self, Y: np.ndarray) -> bool:
        """Whether a coordinate of the stack Y is within boundary_tol of a
        face (in its face band) or past it.  Only such a coordinate can be
        held on a face (:func:`cones.outward`), fire a face monitor or be
        clipped."""
        return not np.logical_and.reduce((Y > self.lo_band) & (Y < self.hi_band), axis=None)

    def grad(self, Y: np.ndarray) -> np.ndarray:
        return hm.gradient_vec(self.costs, self.cfg, Y, self.gmode)

    def hess(self, Y: np.ndarray) -> np.ndarray:
        return hm.grad_jacobian(self.costs, self.cfg, Y, self.gmode)

    def rhs(self, G: np.ndarray, fz: _Frozen) -> np.ndarray:
        return fz.coef * G if fz.plain else np.where(fz.active, fz.coef * G, fz.const)

    def velocity(self, Y: np.ndarray, G: np.ndarray, fz: _Frozen) -> np.ndarray:
        """State velocity y': f, with the equivalent control
        -H_SS^-1 H_S,ext y'_ext on the algebraic coordinates S."""
        V = self.rhs(G, fz)
        return _equivalent_control(self.hess(Y), fz.algebraic, V) if fz.dae else V

    def jacobian(self, Y: np.ndarray, fz: _Frozen) -> np.ndarray:
        J = fz.coef[..., None] * self.hess(Y)
        return J if fz.plain else np.where(fz.active[:, :, None] & ~fz.frozen[:, None, :], J, 0.0)

    def project(self, Y: np.ndarray, algebraic: np.ndarray, tol: float) -> np.ndarray:
        """States put back on their sliding manifolds: one Newton correction
        delta_S = -H_SS^-1 d_S R on the rows of Y whose algebraic coordinates
        S (the (N, d) mask ``algebraic``) are off by more than tol."""
        if not algebraic.any():
            return Y
        G = self.grad(Y)
        off = np.any(algebraic & (np.abs(G) > tol), axis=1)
        if not off.any():
            return Y
        Y = Y.copy()
        Y[off] -= _solve_blocks(self.hess(Y[off]), algebraic[off], G[off])
        return Y

    def monitors(self, y0: np.ndarray, y1: np.ndarray, fz: _Frozen) -> list[_Monitor]:
        """Regime-change monitors of a frozen single-row regime for a step
        from y0 to y1: box-face release of held coordinates (the gradient
        turns) and contact of free ones that end the step past a face."""
        box = self.box
        at_lo = y0 <= self.lo_band
        free = ~fz.frozen[0]
        out = []
        for j in np.flatnonzero(fz.frozen[0]):
            c = self.scale[j] if at_lo[j] else -self.scale[j]
            out.append(_Monitor(j, None, 0.0, lambda x, g, j=j, c=c: c * g[j]))
        for j in np.flatnonzero(free & (y1 <= box.lo)):
            out.append(_Monitor(j, box.lo[j], 0.0, lambda x, g, j=j: x[j] - box.lo[j]))
        for j in np.flatnonzero(free & (y1 >= box.hi)):
            out.append(_Monitor(j, box.hi[j], 0.0, lambda x, g, j=j: box.hi[j] - x[j]))
        return out


class _PGField(_Field):
    """Projected gradient: f = -mobility * grad R on free coordinates.

    A face-held coordinate has zero velocity and a zero Jacobian row and
    column, so it stays exactly on the face.  Each ``regime`` call forms
    the regime anew; _run keeps the one it has over quiet iterations,
    where no coordinate is near a face and so none is held.
    """

    slaved_fast = True
    faces_only = True

    def __init__(self, mode: ProjectedGradient, costs, cfg, box: Box, opts: IntegrationOptions):
        super().__init__(mode, costs, cfg, box, opts, mode.mobility_vector(box.dim))
        self.neg_mob = -self.scale

    def regime(self, Y: np.ndarray, G: np.ndarray) -> _Frozen:
        frozen = outward(self.box, Y, self.neg_mob * G, self.opts.boundary_tol)
        zeros = np.zeros(Y.shape)
        return _Frozen(frozen, ~frozen, np.zeros(Y.shape, dtype=bool), zeros, zeros + self.neg_mob,
                       zeros, zeros + 1.0)


class _LayerField(_Field):
    """Boundary-layer sign descent: f_j = -(gain_j/eps) d_j R inside the
    layer |d_j R| <= eps, -gain_j sgn(d_j R) on saturated coordinates."""

    def __init__(self, mode: SignDescent, costs, cfg, box: Box, opts: IntegrationOptions):
        super().__init__(mode, costs, cfg, box, opts, mode.gains(costs.p))
        self.coef = -self.scale / mode.epsilon

    def regime(self, Y: np.ndarray, G: np.ndarray) -> _Frozen:
        eps = self.mode.epsilon
        sliding = np.abs(G) <= eps
        signs = np.sign(np.where(sliding, 0.0, G))
        frozen = outward(self.box, Y, -self.scale * np.clip(G / eps, -1.0, 1.0), self.opts.boundary_tol)
        const = np.where(frozen, 0.0, -self.scale * signs)
        ones = np.ones(Y.shape)
        return _Frozen(frozen, sliding & ~frozen, sliding, signs, ones * self.coef, const, ones)

    def monitors(self, y0: np.ndarray, y1: np.ndarray, fz: _Frozen) -> list[_Monitor]:
        """Face monitors plus layer exit (inside) and entry (saturated)."""
        out = super().monitors(y0, y1, fz)
        eps, sliding, signs = self.mode.epsilon, fz.sliding[0], fz.signs[0]
        for j in range(y0.size):
            if sliding[j]:
                out.append(_Monitor(j, None, 0.0, lambda x, g, j=j: eps - abs(g[j])))
            else:
                s = signs[j]
                out.append(_Monitor(j, None, 0.0, lambda x, g, j=j, s=s: s * g[j] - eps))
        return out


class _SlideField(_Field):
    """Equivalent-control sign descent as the index-1 DAE

        x_ext' = -gain sgn(d R)  (0 on face-held coordinates),
        0      = d_S R           on the sliding set S,

    with Jacobian rows [0; H_S,:].  The regime of each row is formed by
    the clamp-and-drop iteration of the Filippov condition
    (:func:`_clamp_and_drop`).
    """

    def __init__(self, mode: SignDescent, costs, cfg, box: Box, opts: IntegrationOptions):
        super().__init__(mode, costs, cfg, box, opts, mode.gains(costs.p))

    def regime(self, Y: np.ndarray, G: np.ndarray) -> _Frozen:
        H = self.hess(Y)
        sliding = _on_manifold(G, H, self.opts.switch_tol)
        signs = np.where(sliding, 0.0, np.sign(G))
        V = _clamp_and_drop(H, sliding, signs, self.scale)
        frozen = outward(self.box, Y, V, self.opts.boundary_tol)
        active = sliding & ~frozen
        const = np.where(frozen, 0.0, -self.scale * signs)
        return _Frozen(frozen, active, sliding, signs, np.ones_like(Y), const, np.where(active, 0.0, 1.0))

    def monitors(self, y0: np.ndarray, y1: np.ndarray, fz: _Frozen) -> list[_Monitor]:
        """Face monitors plus switching-manifold crossings of the external
        coordinates and the saturation of the equivalent control."""
        out = super().monitors(y0, y1, fz)
        signs = fz.signs[0]
        for j in np.flatnonzero(~fz.active[0] & ~fz.frozen[0]):
            s = signs[j]
            out.append(_Monitor(j, None, self.opts.switch_tol, lambda x, g, j=j, s=s: s * g[j]))
        S = np.flatnonzero(fz.active[0])
        if S.size:
            gains = self.scale[S]
            out.append(_Monitor(-1, None, 0.0, lambda x, g: float(
                np.min(gains - np.abs(self.velocity(x[None], g[None], fz)[0, S])))))
        return out


def _changes(old: _Frozen, new: _Frozen) -> np.ndarray:
    """The event kind of each coordinate whose regime differs from ``old`` to
    ``new`` ("" elsewhere): BoundaryContact/Release where its face hold
    changes, else SlideEnter/Exit where its sliding membership does, else
    SwitchCross where its saturated sign does."""
    return np.select(
        [old.frozen != new.frozen, old.sliding != new.sliding, old.signs != new.signs],
        [np.where(new.frozen, BOUNDARY_CONTACT, BOUNDARY_RELEASE), np.where(new.sliding, SLIDE_ENTER, SLIDE_EXIT),
         SWITCH_CROSS], "")


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
    _check_membership(box, X, opts.boundary_tol)
    return _field(mode, costs, cfg, box, opts)


def velocity(mode: DynamicsMode, costs, cfg, box: Box, x, options: IntegrationOptions | None = None):
    """Filippov velocity selection at a state, the field the core
    integrates from there, and the regime descriptor it freezes.  An
    ill-conditioned sliding block of equivalent control raises
    SingularSlidingError."""
    xv = hm._as_vector(x, costs.p)
    Y = xv[None]
    fld = _start(mode, costs, cfg, box, Y, options)
    G = fld.grad(Y)
    fz = fld.regime(Y, G)
    v = fld.velocity(Y, G, fz)[0]
    held = fz.frozen[0]
    lower = held & (xv <= fld.lo_band)
    regime = Regime(sliding=_indices(fz.sliding[0]), lower=_indices(lower), upper=_indices(held & ~lower),
                    signs=tuple(int(s) for s in fz.signs[0]), velocity=v)
    return v, regime


def nominal_rows(t_end: float, h: float) -> float:
    """Rows of the output grid to t_end at interval h: the start and
    max(1, ceil(t_end/h)) steps; inf when t_end/h overflows."""
    q = t_end / h - 1e-12
    return 1 + max(1, math.ceil(q)) if math.isfinite(q) else math.inf


def _nominal_grid(t_end: float, h: float) -> np.ndarray:
    """Output times 0, h, 2h, ..., the last step cut to end at t_end."""
    t0 = np.arange(nominal_rows(t_end, h) - 1) * h
    return np.concatenate([[0.0], t0 + np.minimum(h, t_end - t0)])


# Grid rows are filled per block of steps, not per step: _run queues each
# step's start, dense coefficients, end and grid-row range and fills about
# _GRID_BLOCK grid rows with one _grid_rows call, and the rest at the end
# of the run.  Each grid row's arithmetic is its own, so the values are
# those of one call per step.  A step is filled at once only when it has
# algebraic rows (its grid states are projected onto their manifolds) or
# when the run stops on convergence and the Psi screen (_psi_screen)
# cannot rule out a grid row with Psi <= 2 converge_tol: only a row with
# Psi <= converge_tol can stop the run.  The screen bounds |x_j - x*_j|
# over s in [0, 1] from below by |y0_j - x*_j| - sum_k |c_kj|, which
# holds for the clipped state too: clipping onto the box, which holds y0,
# moves no coordinate farther from y0.  Where that bound is positive,
# sum_k |c_kj| < 2B for B the magnitude of the box and x*, and the
# rounding of the dense output (Horner's scheme, about 8u sum_k |c_kj|,
# u = 2^-53), of y0 + p(s), of the end state read at s = 1 and of the
# bound itself is a few tens of u*B; the screen takes off _SCREEN_ROOM * B
# = 2^13 u*B.  Rounding is monotone, so float lower bounds on every
# |x_j - x*_j| bound the computed Psi from below.


def _psi_screen(costs, cfg, box: Box):
    """``floor(Y0, dense)``: a lower bound of the computed Psi = |x - x*|^2
    of every grid row that _grid_rows reads off the steps from the rows of
    Y0 with (N, 4, d) dense coefficients (see the notes above)."""
    x_opt = hm._model_consts(costs, cfg)[5]  # the x* of hm.imbalance_vec
    room = _SCREEN_ROOM * np.maximum(box.hi, x_opt)  # states and x* are positive

    def floor(Y0, dense):
        L = np.fmax(np.abs(Y0 - x_opt) - np.add.reduce(np.abs(dense), axis=1) - room, 0.0)
        return np.add.reduce(L * L, axis=1)

    return floor


def _first_converged(fld: _Field, X: np.ndarray, psi: np.ndarray):
    """Index of the first row with imbalance and decoupled KKT residual
    both within the convergence tolerance, or None."""
    tol = fld.opts.converge_tol
    cand = (psi <= tol).nonzero()[0]
    if cand.size == 0:
        return None
    g = hm.gradient_vec(fld.costs, fld.cfg, X[cand], "decoupled")
    ok = np.flatnonzero(kkt_residual(fld.box, X[cand], g, fld.opts.boundary_tol) <= tol)
    return int(cand[ok[0]]) if ok.size else None


def _run(fld: _Field, X: np.ndarray, t_end: float, h: float, stop: bool, keep: bool):
    """Run every row of the (N, d) stack X on the RODAS4 core with located
    events.  Returns one Trajectory per row with ``keep``, else an
    EnsembleResult, which holds no state history.

    Each row has its own time, step size, next grid row, events,
    chattering guard and convergence stop (with ``stop``), so it takes the
    steps of a run of that row alone.  Every loop iteration advances all
    live rows by one step, each through the frozen regime found at its
    start, and ends it at the row's first regime change (a row with no
    live monitor returns from ``_locate_events`` at once).  An iteration
    is quiet when no end state is near a face (``near_face``) and no row
    hits an event: it then has nothing to clip, re-evaluate, record or
    guard, and under a law that changes regime only on the faces
    (``faces_only``, projected gradient) it locates no events and keeps
    its all-free regime.  Every other iteration takes the full path, and
    both give the same bits.

    A row that hits an event records each coordinate whose regime differs
    between its step and the regime it restarts in (:func:`_changes`).
    The per-row stacks hold the live rows only (``ids`` maps them to rows
    of X), so they are cut when a row finishes and never gathered or
    scattered per step.  A step's grid rows are queued and filled with
    those of other steps, about _GRID_BLOCK at a time, and at once only
    where a DAE projection or the convergence stop needs them (see the
    notes before _psi_screen).
    """
    box, costs, cfg, opts = fld.box, fld.costs, fld.cfg, fld.opts
    times = _nominal_grid(t_end, h)
    n_rows = times.size
    N = X.shape[0]
    states = np.empty((N, n_rows, X.shape[1])) if keep else None
    masks = np.zeros((N, n_rows), dtype=np.int64) if keep else None
    Rs = np.empty((N, n_rows))
    psis = np.empty((N, n_rows))
    events: list[list[EventRecord]] = [[] for _ in range(N)]
    converged = np.zeros(N, dtype=bool)
    # each row's last state and grid rows filled, written as it finishes
    final = np.empty_like(X)
    rows_filled = np.empty(N, dtype=np.int64)
    max_clip = np.zeros(N)
    psi_floor = _psi_screen(costs, cfg, box) if stop else None

    def record(rows, k, Xg, bits):
        if keep:
            states[rows, k] = Xg
            masks[rows, k] = bits
        Rs[rows, k] = hm.resistance_lyapunov_vec(costs, cfg, Xg, fld.gmode)
        psis[rows, k] = hm.imbalance_vec(costs, cfg, Xg)

    def fill(rows, t0, Y0, dt, dense, y1, first, stop_row, s_cap, bits, algebraic=None):
        """Record the grid rows of steps of the rows ``rows`` of X (see
        _grid_rows), projected onto their sliding manifolds with
        ``algebraic``, and fold their clips into max_clip."""
        which, k, Xg, clip = _grid_rows(box, times, t0, Y0, dt, dense, y1, first, stop_row, s_cap)
        if algebraic is not None:
            Xg = fld.project(Xg, algebraic[which], 10.0 * opts.switch_tol)
        rows = rows[which]
        record(rows, k, Xg, bits[which])
        np.maximum.at(max_clip, rows, clip)
        return which, Xg

    queue = []  # fill's arguments of the steps whose grid rows wait
    queued = 0  # and their number of grid rows

    def flush():
        if queue:
            fill(*map(np.concatenate, zip(*queue)))
            queue.clear()

    # the live rows: their rows of X, states, gradients, step sizes, times,
    # next grid rows and events since the last grid row
    ids = np.arange(N)
    Y = X.copy()
    G = fld.grad(Y)
    t = np.zeros(N)
    filled = np.ones(N, dtype=np.int64)
    since_row = np.zeros(N, dtype=np.int64)
    fz = fld.regime(Y, G)
    H = _initial_step(fld, Y, G, fz, np.full(N, t_end))
    record(ids, 0, Y, fz.bits)
    ones = np.ones(N)  # the end fraction of steps that hit no event
    while ids.size:
        n = ids.size
        st = _ros_advance(fld, Y, G, fz, H, t_end - t, t, h)
        near = fld.near_face(st.y1)
        hits = {}
        if near or not fld.faces_only:
            for i in range(n):
                found = _locate_events(fld, Y, G, fz, st, i)
                if found is not None:
                    hits[i] = found
        # a quiet iteration: no end state near a face and no event, so
        # there is nothing to clip, record or guard
        quiet = not (near or hits)
        if quiet:
            s_end, at_end = ones[:n], st.dt >= t_end - t
        else:
            hit, s_end = np.zeros(n, dtype=bool), np.ones(n)
            for i, (s, _, _) in hits.items():
                hit[i], s_end[i] = True, s
            at_end = ~hit & (st.dt >= t_end - t)
        t_next = np.where(at_end, t_end, t + s_end * st.dt)
        stop_row = np.where(at_end, n_rows, times.searchsorted(t_next, side="right"))
        first = filled
        wrote = stop_row > first
        done = np.zeros(n, dtype=bool)
        if wrote.any():
            since_row[wrote] = 0
            filled = np.maximum(first, stop_row)
            step = (ids, t, Y, st.dt, st.dense, st.y1, first, stop_row, s_end, fz.bits)
            # the rows that may stop converged; a step ending in an event records it first
            check = (wrote if quiet else wrote & ~hit).nonzero()[0] if stop else ()
            if fz.dae or len(check) and np.logical_or.reduce(
                    psi_floor(Y[check], st.dense[check]) <= 2.0 * opts.converge_tol):  # fill it now
                which, Xg = fill(*step, fz.algebraic if fz.dae else None)
                for i in check:
                    j = _first_converged(fld, Xg[which == i], psis[ids[i], first[i]:stop_row[i]])
                    if j is not None:
                        filled[i] = first[i] + j + 1
                        done[i] = True
                converged[ids[done]] = True
            else:
                queue.append(step)
                queued += np.add.reduce(filled - first)
                if queued >= _GRID_BLOCK:
                    flush()
                    queued = 0

        if quiet:
            Y, G = st.y1, st.g1
        else:
            # the next step starts at the event state, or else at the end
            # state clipped to the box (fill folds in the clips of grid rows)
            Y = box.clip(st.y1)
            clip = np.where(hit | done, 0.0, np.maximum.reduce(np.abs(Y - st.y1), axis=1))
            max_clip[ids] = np.maximum(max_clip[ids], clip)
            for i, (_, x_e, _) in hits.items():
                Y[i] = x_e
            moved = hit | (clip > 0.0)
            G = st.g1
            if moved.any():
                G[moved] = fld.grad(Y[moved])

            for i, (_, _, located) in hits.items():
                since_row[i] += located
            over = (since_row > _MAX_EVENTS).nonzero()[0]
            if over.size:
                te = float(t_next[over[0]])
                raise StepFailureError(
                    f"more than {_MAX_EVENTS} events within one nominal step "
                    f"at t={te:.6g}: likely chattering",
                    te,
                )
        H, t = st.h_next, t_next
        # the regime each row restarts in (a quiet step of projected
        # gradient keeps its all-free one) names the events of its step
        if not (quiet and fld.faces_only):
            at = fld.regime(Y, G)
            if hits:
                kinds = _changes(fz, at)
                for i in hits:
                    events[ids[i]] += [EventRecord(time=float(t_next[i]), kind=str(kinds[i, j]), index=int(j))
                                       for j in np.flatnonzero(kinds[i])]
            fz = at
        live = (filled < n_rows) & ~done
        if not live.all():
            gone = ~live
            left = ids[gone]
            final[left], rows_filled[left] = Y[gone], filled[gone]
            ids, Y, G, H, t, filled, since_row = (a[live] for a in (ids, Y, G, H, t, filled, since_row))
            fz = fz.take(live)
    flush()

    if not keep:
        return EnsembleResult(times=times, final_states=final, R_values=Rs, Psi_values=psis,
                              max_clip=float(np.max(max_clip, initial=0.0)), events=events)
    out = []
    for i, n in enumerate(rows_filled):
        kept = [e for e in events[i] if e.time <= times[n - 1]]
        rows = np.maximum(np.searchsorted(times[:n], [e.time for e in kept], side="left"), 1)
        step_events = [""] * n
        for e, k in zip(kept, rows):
            tag = f"{e.kind}:{e.index}"
            step_events[k] = f"{step_events[k]};{tag}" if step_events[k] else tag
        out.append(Trajectory(
            times=times[:n],
            states=states[i, :n],
            R_values=Rs[i, :n],
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
    states, the R and Psi series on the nominal grid and each row's events
    are kept.
    """
    X = hm._checked_state(np.array(X0, dtype=float, ndmin=2), costs.p)
    return _integrate(mode, costs, cfg, box, X, t_end, h, options, False, keep=False)
