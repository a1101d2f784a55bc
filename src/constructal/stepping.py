"""The stiff dense-output stepping core on (N, d) stacks.

RODAS4 steps with a quartic dense output, the grid rows read off that
output, and the regime changes located on it.  The core sees a law only
through its frozen-regime field (``rhs``, ``grad``, ``velocity``,
``jacobian``, ``project``) and its monitors as data (see
:mod:`constructal.dynamics`), and ``dynamics._run`` is its caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.linalg import _umath_linalg

from .cones import Box
from .errors import StepFailureError

if TYPE_CHECKING:
    from .dynamics import _Field, _Frozen

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
# decides, and no event) skips clipping, re-gradients, event records and
# the chattering guard, and under projected gradient event location and
# the new regime too: the all-free regime of the last iteration is kept.
# A canonical step makes about 123 Python and C calls, 175 with every
# iteration on the full path, where one dense test reads every row's
# monitors and the regime is formed anew (sys.setprofile's "call" and
# "c_call" events, which no ufunc call makes, by name or by operator).
# Every law and regime takes one attempt: on an ODE stack the mass factor
# (1.0), the projection and the algebraic cubic fallback change nothing,
# nor does the fast mask off projected gradient (all false).  The float
# operations and their order are an invariant: every trajectory, report
# and ensemble stays bit for bit the same, so a change here may drop
# calls but not reorder arithmetic.  There is no scalar path for N = 1:
# it would be a second path to keep equal to this one, and Python's float
# power rounds differently from NumPy's (about 5 % of random r ** 1.5
# differ in the last bit).
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
# The stage increments are one (6, N, d) array; stage i + 1 forms both its
# sums as the product of its (2, i) block of a_ij and c_ij (j <= i, held as
# (2, i, 1, 1)) with the first i increments, reduced over the stage axis.
_ROS_AC = [np.array(ac)[..., None, None] for ac in zip(_ROS_A, _ROS_C)]
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
    """Accepted RODAS4 steps, one per row, with the velocities that monitors read."""

    y1: np.ndarray      # (N, d) end states
    g1: np.ndarray      # (N, d) raw gradients at y1
    v0: np.ndarray      # (N, d) velocities y' at the start states (f on an ODE stack)
    v1: np.ndarray      # (N, d) velocities y' at y1, of the accepted attempts
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
    """One RODAS4 step per row; returns (y1, g1, V1, dense, err).

    F0 is f(Y), V0 and V1 the velocities y' at Y and y1, J the Jacobian and
    h the output interval, which sets the velocity-change bound of steps
    shorter than h.  ``noise_rate`` (rounding times |diag J|) and ``fast`` (the
    (N, d) mask of components exempt from the bound) depend on the start
    state alone, so a retry reuses them.  err is the larger of the error
    estimate over the error scale and the fourth power of the
    velocity-change ratio, so that both are accepted at err <= 1 and steer
    the step size with the same exponent.  It is inf wherever a stage or
    the result is not finite; the model reads the start state of such a
    row in place of its trial state, so no sliding solve meets a NaN.
    """
    n, d = Y.shape
    W = np.zeros(J.shape)
    W.reshape(n, d * d)[:, :: d + 1] = fz.mass / (dt * _ROS_GAMMA)[:, None]
    W -= J
    W_inv = _inverse(W)
    inv_dt = (1.0 / dt)[:, None]
    U = np.empty((6, n, d))
    np.matmul(W_inv, F0[..., None], out=U[0, ..., None])
    for i, ac in enumerate(_ROS_AC, 1):
        # both stage sums at once, in stage order: the reduce starts from
        # +0 where a sum from its first term starts from that term, so a
        # zero sum may differ in sign, which changes no state (nonzero plus
        # zero) and no error norm (absolute values)
        ua, uc = np.add.reduce(ac * U[:i], axis=1)
        Yi = Y + ua
        Fi = fld.rhs(fld.grad(Yi), fz)
        np.matmul(W_inv, (Fi + fz.mass * (inv_dt * uc))[..., None], out=U[i, ..., None])
    y1 = Yi + U[5]
    finite = np.logical_and.reduce(np.isfinite(y1), axis=1)
    y1 = fld.project(np.where(finite[:, None], y1, Y), fz.algebraic, 0.1 * fld.opts.switch_tol)
    g1 = fld.grad(y1)
    V1 = fld.velocity(y1, g1, fz)
    dt_col = dt[:, None]
    step = y1 - Y
    size = np.maximum(1.0, np.maximum(np.abs(Y), np.abs(y1)))
    scale = _ATOL + _RTOL * size
    a = dt_col * V0
    b = (0.5 * dt_col * dt_col) * (J @ V0[..., None])[..., 0]
    b_cubic = 3.0 * step - 2.0 * a - dt_col * V1
    cubic = (np.abs(b - b_cubic) > np.abs(step) + scale) | fz.algebraic
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
    bend[fast] = 0.0
    err = np.maximum(err, np.maximum.reduce(bend, axis=1) ** 4)
    err[~(np.isfinite(err) & finite)] = np.inf
    return y1, g1, V1, dense, err


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
        fast = np.zeros(Y.shape, dtype=bool)
        if fld.slaved_fast:
            slowest = np.minimum.reduce(np.where(rate > 0.0, rate, np.inf), axis=1, keepdims=True)
            fast = rate * _VELOCITY_CHANGE > slowest
        noise_rate = _ROUNDING * rate
        dt = np.minimum(H, limit)
        y1, g1, V1, dense, err = _ros_attempt(fld, Y, F0, V0, J, noise_rate, fast, fz, dt, h)
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
            yt, gt, vt, dn, err = _ros_attempt(fld, Y[rej], F0[rej], V0[rej], J[rej], noise_rate[rej], fast[rej],
                                               fz.take(rej), dt[rej], h)
            fac = np.minimum(np.maximum(_SAFETY * err ** -0.25, _FAC_MIN), 1.0)
            ok = err <= 1.0
            acc = rej[ok]
            y1[acc], g1[acc], V1[acc], dense[acc] = yt[ok], gt[ok], vt[ok], dn[ok]
            h_next[acc] = dt[acc] * fac[ok]
            rej, fac = rej[~ok], fac[~ok]
    return _Step(y1=y1, g1=g1, v0=V0, v1=V1, dt=dt, h_next=h_next, dense=dense)


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


_FACE, _GRAD, _ABS_GRAD, _SPEED = range(4)  # what a monitor reads (see dynamics._Field)
_WIDTH = 64.0 * np.finfo(float).eps  # a bisection bracket this narrow stops


def _bisect(at, pairs: list, tol: float) -> np.ndarray:
    """First roots on [0, 1] of functions with phi(0) > 0 >= phi(1), each to
    ``tol`` at or below 0 or to a bracket _WIDTH wide, on the crossed side:
    ``at(pairs, m)`` gives each at its own fraction from per-pair arrays.
    Each bracket [a, a + width] halves exactly, so all share one width."""
    out = np.ones(len(pairs[0]))
    left, a, width = np.arange(out.size), np.zeros(out.size), 1.0
    while left.size and width > _WIDTH:
        width *= 0.5
        m = a + width
        fm = at(pairs, m)
        up = fm > 0.0
        a = np.where(up, m, a)
        stop = ~up & (fm >= -tol)
        if np.count_nonzero(stop):
            out[left[stop]], keep = m[stop], ~stop
            left, a, pairs = left[keep], a[keep], [p[keep] for p in pairs]
    out[left] = a + width
    return out


def _locate_events(fld: _Field, Y0, G0, fz: _Frozen, st: _Step):
    """Regime changes within the accepted steps of a stack's rows: None if
    none, else (hit, s, x_e, located), hit the rows with one, s (N,) the
    fraction of each row's earliest one (1 if none), x_e the states there
    (contacts snapped to their face) and located the monitors fired there.
    A dense test reads the monitors at both step ends, with no model call
    (the step formed their gradients and velocities).  Box-face contacts
    are located first (the flow beyond a face is not the model's), the
    others up to each row's earliest contact, where one within its band
    fires; each phase bisects all its firing (row, monitor) pairs at once."""
    reads, S, C, band = fld.planes
    n, tol, y1, dense, speed = len(Y0), fld.opts.event_tol, st.y1, st.dense, _SPEED in reads

    def read(X, G, V):  # x, d_j R, |d_j R| and, with V, |v_j| at the states X, (R, M, d)
        return np.array([X] if G is None else [X, G, np.abs(G)] + ([] if V is None else [np.abs(V)]))

    def values(X, G, V):  # phi of every monitor at the states X of the rows, (K, N, d)
        return S * read(X, G, V if speed else None)[reads] - C

    on = np.array(fld.monitors(Y0, y1, fz))
    live = on & (values(Y0, G0, st.v0) > band)
    with np.errstate(all="ignore"):  # the end state of a row with a contact may lie past a face
        end = values(y1, st.g1, st.v1)
    fire = live & (end <= band)
    if not fire.any():
        return None

    def phi(r, i, j, s, c, X, grad):  # phi of monitors reading r at (i, j), each at its state of X
        G = fld.grad(X) if grad else None
        V = fld.velocity(X, G, fz.take(i)) if grad and speed and (r == _SPEED).any() else None
        return s * read(X, G, V)[r, np.arange(r.size), j] - c

    def fractions(k, i, j, scale, grad):  # bisected step fractions of monitors (k, i, j) on [0, scale]
        at = lambda Q, m: phi(*Q[3:], _dense_eval(Q[0], Q[1].swapaxes(0, 1), (m * Q[2])[:, None]), grad)
        return scale * _bisect(at, [Y0[i], dense[i], scale, reads[k], i, j, S[k, 0, j], C[k, 0, j]], tol)

    def state_at(s):  # the rows' states at fractions s (N, 1): y1 at s = 1, else the dense output
        return np.where(s == 1.0, y1, _dense_eval(Y0, dense.swapaxes(0, 1), s))

    face = (reads == _FACE)[:, None, None]
    k, i, j = (fire & face).nonzero()
    s_end = np.ones(n)
    if k.size:  # the other monitors are read at each row's earliest contact; the rest end at y1 as read
        np.minimum.at(s_end, i, fractions(k, i, j, np.ones(k.size), False))
        c = s_end < 1.0
        x_c = _dense_eval(Y0[c], dense[c].swapaxes(0, 1), s_end[c, None])
        with np.errstate(all="ignore"):  # as at y1
            G_c = fld.grad(x_c)
            fresh = live[reads == _SPEED][:, c].any()  # a row with a contact may saturate
            end[:, c] = values(x_c, G_c, fld.velocity(x_c, G_c, fz.take(c)) if fresh else st.v1[c])
        fire = fire & face | live & ~face & (end <= band)
    gk, gi, gj = (fire & ~face).nonzero()
    frac2 = s_end[gi]
    cross = end[gk, gi, gj] <= 0.0  # the others end inside their band and fire at s_end
    frac2[cross] = fractions(gk[cross], gi[cross], gj[cross], frac2[cross], True)
    s = s_end.copy()
    np.minimum.at(s, gi, frac2)
    k, i, j = (np.concatenate(v) for v in ((k, gk), (i, gi), (j, gj)))
    x_e = state_at(s[:, None])
    fired = phi(reads[k], i, j, S[k, 0, j], C[k, 0, j], x_e[i], True) <= band[k, 0, 0]
    snap = fired & (reads[k] == _FACE)
    x_e[i[snap], j[snap]] = (S * C)[k[snap], 0, j[snap]]
    located = np.bincount(i[fired], minlength=n)
    return located > 0, s, x_e, located
