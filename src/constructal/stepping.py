"""The stiff dense-output stepping core on (N, d) stacks.

RODAS4 steps with a quartic dense output, the grid rows read off that
output, and the regime changes located on it.  The core sees a law only
through its frozen-regime field (``rhs``, ``grad``, ``velocity``,
``jacobian``, ``project`` and ``monitors``; see :mod:`constructal.dynamics`),
and ``dynamics._run`` is its caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg import _umath_linalg

from .cones import Box
from .errors import StepFailureError

if TYPE_CHECKING:
    from .dynamics import _Field, _Frozen, _Monitor

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
# Velocity-change bound, set per output interval h: on slow components
# (diagonal Jacobian rate within a factor 1/_VELOCITY_CHANGE of the
# slowest), a step of length dt >= h may change the velocity by at most
# _VELOCITY_CHANGE of itself and a shorter step by _VELOCITY_CHANGE * h/dt
# of itself, plus _ATOL per unit time so that a velocity at rounding level
# holds nothing back.  Error control relative to |y| lets the steps grow
# without limit as the state nears its equilibrium, until grid rows stop
# resolving the exponential tail that the dissipation audit and the rate
# fits read; the bound keeps a fixed number of steps per e-folding of the
# slow motion once that motion is slow on the scale of h.  Below h the
# bound loosens with the step; from dt = _VELOCITY_CHANGE * h down it
# allows any change that keeps the velocity's sign.  So a transient that
# settles within a grid interval, such as a coordinate relaxing into its
# boundary layer at rate gain/eps times the curvature, is left to error
# control.  Under a gradient flow (``slaved_fast``) faster components
# relax onto the slow manifold and are left to error control at every
# step size.  Under sign descent a coordinate enters its boundary layer at
# full speed, so every component is bounded; a velocity change within the
# rounding of rate * |y| counts as none.
#
# Per-step cost.  A run steps (1, 5) stacks, where each NumPy call costs
# more than its arithmetic, so the step loop gathers, scatters and stacks
# no rows: the run loop (dynamics._run) holds only the live rows in its
# stacks, cuts them when a row finishes and fills grid rows per block of
# steps; _ros_advance keeps the first attempt's arrays when every row
# passes it and gathers only the rejected rows for their retries; the
# values that depend on the start state alone (|diag J|, the slowest
# rate) are formed once per step; and a regime with every coordinate free
# (``_Frozen.plain``) skips the masks of f and J.  A quiet iteration of
# the run loop (no end state near a face, which one face-band test
# decides, no event and no fallback) skips clipping, re-gradients, event
# records and the chattering guard, and under projected gradient event
# location and the new regime too: the all-free regime of the last
# iteration is kept.  A canonical step makes about 115 Python and C
# calls, 200 with every iteration on the full path, where every row is
# searched for events and the regime is formed anew.  The float
# operations and their order are an invariant: every trajectory, report
# and ensemble stays bit for bit the same, so a change here may drop
# calls but not reorder arithmetic.  There is no
# scalar path for N = 1: it would be a second path to keep equal to this
# one, and Python's float power rounds differently from NumPy's (about 5 %
# of random r ** 1.5 differ in the last bit).
#
# W is inverted by the LAPACK gufunc that np.linalg.inv wraps, without
# the wrapper's checks and its own errstate, which turns a singular row
# into LinAlgError.  _ros_advance runs under errstate(all="ignore"),
# where a singular row comes out as NaN; its stages and error norm are
# then not finite, and the row is rejected like any failed attempt.
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
# each stage's (a_ij, c_ij) pairs as (2, 1, 1) arrays, to form both sums at once
_ROS_AC = [[np.array(ac)[:, None, None] for ac in zip(*rows)] for rows in zip(_ROS_A, _ROS_C)]
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
    dense: np.ndarray   # (N, 4, d): coefficients of s, s^2, s^3, s^4


def _dense_eval(y0: np.ndarray, dense, s: np.ndarray) -> np.ndarray:
    """Dense output at fractions s (shape (M, 1)) of the step from y0;
    ``dense`` holds the four coefficients on its first axis."""
    a, b, c, e = dense
    return y0 + s * (a + s * (b + s * (c + s * e)))


def _grid_rows(box: Box, times, t0, Y0, dt, dense, y1, first, stop, s_cap):
    """Grid rows first[i] <= k < stop[i] covered by step i, from t0[i] and
    Y0[i] over dt[i] to y1[i] with (N, 4, d) dense coefficients, read off
    its dense output (at most at fraction s_cap[i]) and clipped to the box.
    The steps may be those of any rows and runs' iterations, gathered; each
    grid row's arithmetic is its own, so one call over many steps gives
    the values of one call per step.  Returns (step of each grid row, k,
    states, clip of each)."""
    counts = np.maximum(stop - first, 0)
    which = np.arange(first.size).repeat(counts)
    k = np.arange(which.size) - (counts.cumsum() - counts)[which] + first[which]
    s = np.minimum((times[k] - t0[which]) / dt[which], s_cap[which])[:, None]
    X = np.where(s == 1.0, y1[which], _dense_eval(Y0[which], dense[which].swapaxes(0, 1), s))
    Xc = box.clip(X)
    return which, k, Xc, np.maximum.reduce(np.abs(Xc - X), axis=1)


def _inverse(W: np.ndarray) -> np.ndarray:
    """Row-wise inverses of a (N, d, d) stack: the LAPACK gufunc that
    ``np.linalg.inv`` wraps, without the wrapper's checks and ``errstate``.
    Under the caller's ``errstate(all="ignore")`` a singular row comes out
    as NaN, which no finite error norm accepts."""
    return _umath_linalg.inv(W, signature="d->d")


def _ros_attempt(fld: _Field, Y, F0, V0, J, noise_rate, fast, fz: _Frozen, dt, h: float):
    """One RODAS4 step per row; returns (y1, g1, dense, err).

    F0 is f(Y), V0 the velocity y' at Y, J the Jacobian and h the output
    interval, which sets the velocity-change bound of steps shorter than
    h.  ``noise_rate`` (rounding times |diag J|) and ``fast`` (the
    components exempt from the bound, or None) depend on the start state
    alone, so a retry reuses them.  err is the larger of the error
    estimate over the error scale and the fourth power of the
    velocity-change ratio, so that both are accepted at err <= 1 and steer
    the step size with the same exponent.  It is inf wherever a stage or
    the result is not finite.
    """
    n, d = Y.shape
    W = np.zeros(J.shape)
    W.reshape(n, d * d)[:, :: d + 1] = fz.mass / (dt * _ROS_GAMMA)[:, None]
    W -= J
    W_inv = _inverse(W)
    inv_dt = (1.0 / dt)[:, None]
    U = [(W_inv @ F0[..., None])[..., 0]]
    for ac_row in _ROS_AC:
        # both stage sums at once, in stage order from the first term: a
        # zero sum may differ in sign from 0 + sum, which changes no state
        # (nonzero plus zero) and no error norm (absolute values)
        sums = ac_row[0] * U[0]
        for ac, u in zip(ac_row[1:], U[1:]):
            sums += ac * u
        ua, uc = sums
        Yi = Y + ua
        Fi = fld.rhs(fld.grad(Yi), fz)
        corr = inv_dt * uc
        U.append((W_inv @ (Fi + (fz.mass * corr if fz.dae else corr))[..., None])[..., 0])
    y1 = Yi + U[5]
    if fz.dae:
        y1 = fld.project(y1, fz.algebraic, 0.1 * fld.opts.switch_tol)
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
    if fz.dae:
        cubic |= fz.algebraic
    b = np.where(cubic, b_cubic, b)
    r1 = step - a - b
    r2 = dt_col * V1 - a - 2.0 * b
    e = r2 - 3.0 * r1
    dense = np.empty((n, 4, d))
    dense[:, 0], dense[:, 1], dense[:, 2], dense[:, 3] = a, b, r1 - e, e
    err = np.maximum.reduce(np.abs(U[5]) / scale, axis=1)
    allowed = (_VELOCITY_CHANGE * np.maximum(1.0, h / dt))[:, None]
    resolved = allowed * np.maximum(np.abs(V0), np.abs(V1)) + _ATOL * inv_dt
    bend = np.abs(V1 - V0) / np.maximum(resolved, noise_rate * size)
    if fast is not None:
        bend[fast] = 0.0
    err = np.maximum(err, np.maximum.reduce(bend, axis=1) ** 4)
    err[~(np.isfinite(err) & np.logical_and.reduce(np.isfinite(y1), axis=1))] = np.inf
    return y1, g1, dense, err


def _ros_advance(fld: _Field, Y, G, fz: _Frozen, H, limit, t, h: float) -> _Step:
    """Advance every row of Y by one accepted RODAS4 step.

    G is the raw gradient at Y, fz the frozen-regime field, H the
    preferred step sizes, ``limit`` the remaining time of each row, t its
    current time and h the output interval.  Each row has its own step
    size and error norm: a rejected row retries with a smaller step while
    the accepted rows wait, so no row's steps depend on another row.  A
    row whose step underflows raises StepFailureError.  When every row
    passes its first attempt, that attempt's arrays are the step.
    """
    with np.errstate(all="ignore"):
        F0 = fld.rhs(G, fz)
        V0 = fld.velocity(Y, G, fz) if fz.dae else F0  # f is y' on an ODE
        J = fld.jacobian(Y, fz)
        rate = np.abs(J.diagonal(axis1=1, axis2=2))
        fast = None
        if fld.slaved_fast:
            slowest = np.minimum.reduce(np.where(rate > 0.0, rate, np.inf), axis=1, keepdims=True)
            fast = rate * _VELOCITY_CHANGE > slowest
        noise_rate = _ROUNDING * rate
        dt = np.minimum(H, limit)
        y1, g1, dense, err = _ros_attempt(fld, Y, F0, V0, J, noise_rate, fast, fz, dt, h)
        fac = np.minimum(np.maximum(_SAFETY * err ** -0.25, _FAC_MIN), _FAC_MAX)
        grown = dt * fac
        h_next = np.where(dt < H, np.maximum(grown, H), grown)
        rej = (err > 1.0).nonzero()[0]
        fac = fac[rej]
        while rej.size:  # retries take no step cap and never grow the step
            dt[rej] *= fac
            tiny = ~(dt[rej] >= 1e-15 * np.maximum(1.0, np.abs(t[rej])))  # NaN counts as tiny
            if tiny.any():
                raise StepFailureError(
                    "substep size underflow (field too stiff or non-finite)",
                    float(t[rej][tiny][0]),
                )
            yt, gt, dn, err = _ros_attempt(fld, Y[rej], F0[rej], V0[rej], J[rej], noise_rate[rej],
                                           None if fast is None else fast[rej], fz.take(rej), dt[rej], h)
            fac = np.minimum(np.maximum(_SAFETY * err ** -0.25, _FAC_MIN), 1.0)
            ok = err <= 1.0
            acc = rej[ok]
            y1[acc], g1[acc], dense[acc] = yt[ok], gt[ok], dn[ok]
            h_next[acc] = dt[acc] * fac[ok]
            rej, fac = rej[~ok], fac[~ok]
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

    Returns None, or (s, x_e, located) with s the step fraction of the
    earliest transition, x_e the state there (contact coordinates snapped
    to their face) and located the number of monitors that fire there.
    Box-face contact is located first: the frozen-regime flow beyond a
    face is not the model's, so the other monitors are read only up to
    the earliest contact.  A monitor that ends inside its band without a
    sign change fires at that end.
    """
    y0, g0, y1, g1, dense = Y0[row], G0[row], st.y1[row], st.g1[row], st.dense[row]
    fz = fz if len(Y0) == 1 else fz.take(slice(row, row + 1))
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
    return s, x_e, len(fired)
