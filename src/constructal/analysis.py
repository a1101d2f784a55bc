"""Contraction certification, dissipation verification and search oracles."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hierarchy as hm
from .cones import Box
from .config import SAMPLE_LIMIT
from .dynamics import ProjectedGradient, Trajectory
from .errors import DegenerateFitError, DomainError, TooFewSamplesError

__all__ = [
    "ContractionCertificate",
    "ConvergenceFit",
    "DissipationReport",
    "OracleTable",
    "matrix_measure",
    "jacobian",
    "certify_contraction",
    "dissipation_report",
    "fit_rate",
    "grid_oracle",
    "golden_section",
]

PSI_FLOOR = 1e-8
CERT_SLACK = 1e-8
CERT_CHUNK = 2**10  # samples whose Jacobians are held at once


def matrix_measure(A):
    """Largest eigenvalue of the symmetric part, of a matrix or of each matrix of a stack."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DomainError("matrix measure needs square matrices")
    # min and max see NaN and +-inf without a boolean temporary the size of A
    if A.size and not (np.isfinite(A.min()) and np.isfinite(A.max())):
        raise DomainError("matrix measure needs finite entries")
    mu = np.linalg.eigvalsh(0.5 * (A + A.swapaxes(-1, -2)))[..., -1]
    return float(mu) if A.ndim == 2 else mu


def jacobian(mode: ProjectedGradient, costs, cfg, x) -> np.ndarray:
    """Jacobian of the projected-gradient velocity at an interior state."""
    if not isinstance(mode, ProjectedGradient):
        raise DomainError("jacobian is defined for the projected-gradient mode")
    xv = hm._as_vector(x, costs.p)
    box = hm.state_box(costs, cfg)
    if not box.interior_point(xv):
        raise DomainError("jacobian requires a box-interior state (smooth regime)")
    Dg = hm.grad_jacobian(costs, cfg, xv, mode.gradient_mode)
    return -mode.mobility_vector(xv.size)[:, None] * Dg


def _kronecker(d: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Points k = start+1..stop of a shifted Kronecker sequence in [0, 1)^d.

    Point k is frac(shift + k alpha) with alpha_j = phi^-j, j = 1..d, where
    phi is the positive root of x^(d+1) = x + 1 (Cranley & Patterson, SIAM
    J. Numer. Anal. 13(6), 1976); the shift is ``default_rng(seed)``.
    """
    phi = 2.0
    for _ in range(60):  # a contraction with factor below 1/2
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alpha = phi ** -np.arange(1.0, d + 1)
    shift = np.random.default_rng(seed).random(d)
    k = np.arange(start + 1.0, stop + 1)
    return (shift + k[:, None] * alpha) % 1.0


@dataclass(frozen=True)
class ContractionCertificate:
    samples: int
    nu_estimate: float
    worst_mu: float
    curvature_lambda: float
    mobility_m: float
    margin: float
    generator: str
    seed: int
    subbox_lo: tuple[float, ...]
    subbox_hi: tuple[float, ...]
    gradient_mode: str
    witnesses: tuple[tuple[float, ...], ...] = ()

    @property
    def passed(self) -> bool:
        return self.curvature_lambda > 0.0 and self.margin <= CERT_SLACK


@dataclass(frozen=True)
class ConvergenceFit:
    rate: float
    prefactor: float
    r_squared: float
    window: tuple[float, float]
    samples: int


@dataclass(frozen=True)
class DissipationReport:
    alpha_hat: float
    violations: int
    psi_integral: float
    r_gap: float
    samples: int


@dataclass(frozen=True)
class OracleTable:
    r_opt: tuple[float, ...]
    n_opt: tuple[float, ...]
    min_costs: tuple[float, ...]


def certify_contraction(
    mode: ProjectedGradient,
    costs,
    cfg,
    box: Box,
    subbox=None,
    count: int = 10_000,
    seed: int = 0,
    rel_halfwidth: float = 0.1,
) -> ContractionCertificate:
    """Sampled matrix-measure certificate on a sub-box around the optimum.

    Draws ``count`` points of a randomly shifted Kronecker sequence
    (``_kronecker``), evaluates mu(J(x)) and the minimum eigenvalue of the
    mode Hessian at each, and passes iff the worst measure stays below
    -m * (min curvature) + slack with positive curvature throughout.
    With a scalar mobility m, sym(J) = -m sym(Dg), so mu(J) = -m lambda_min
    at every sample: the margin is 0 up to rounding and the certificate
    tests positive curvature alone; the measure bound has content only for
    a per-coordinate mobility.  Sampler, count and seed are recorded so the
    certificate is reproducible.  Samples are evaluated CERT_CHUNK at a
    time; a failing certificate takes a second pass for its witnesses.
    ``count`` is at most SAMPLE_LIMIT = 10**7 (about 3 us per sample at d = 5).

    ``subbox`` is an (lo, hi) pair of arrays; degenerate intervals (lo ==
    hi, pinning a coordinate) are allowed.  By default the sub-box spans
    +/- rel_halfwidth around the optimum, clipped to the admissible box.
    """
    if not isinstance(mode, ProjectedGradient):
        raise DomainError("certification requires the projected-gradient mode")
    if not 1 <= count <= SAMPLE_LIMIT:
        raise DomainError(f"sample count must be in [1, {SAMPLE_LIMIT}], got {count}")
    if subbox is None:
        x_opt = hm.optimum_state(costs, cfg).vector()
        half = rel_halfwidth * np.abs(x_opt)
        lo = np.maximum(box.lo, x_opt - half)
        hi = np.minimum(box.hi, x_opt + half)
    else:
        lo = np.asarray(subbox[0], dtype=float)
        hi = np.asarray(subbox[1], dtype=float)
        if lo.shape != (box.dim,) or hi.shape != (box.dim,) or np.any(lo > hi):
            raise DomainError("sampling sub-box needs lo <= hi of full dimension")
    d = box.dim
    m = float(np.min(mode.mobility))

    def chunks():
        for start in range(0, count, CERT_CHUNK):
            X = lo + _kronecker(d, seed, start, min(count, start + CERT_CHUNK)) * (hi - lo)
            Dg = hm.grad_jacobian(costs, cfg, X, mode.gradient_mode)
            J = -mode.mobility_vector(d)[:, None] * Dg
            mus = matrix_measure(J)
            lams = np.linalg.eigvalsh(0.5 * (Dg + Dg.swapaxes(1, 2)))[:, 0]
            yield X, mus, lams

    extremes = np.array([(np.max(mus), np.min(lams)) for _, mus, lams in chunks()])
    worst_mu = float(np.max(extremes[:, 0]))
    lam_min = float(np.min(extremes[:, 1]))
    margin = worst_mu + m * lam_min
    witnesses: list[tuple[float, ...]] = []
    if lam_min <= 0.0 or worst_mu > -m * lam_min + CERT_SLACK:  # some sample breaks the bound
        for X, mus, lams in chunks():
            bad = (lams <= 0.0) | (mus > -m * lam_min + CERT_SLACK)
            witnesses += [tuple(float(v) for v in x) for x in X[bad][:8]]
            if len(witnesses) >= 8:
                break
    return ContractionCertificate(
        samples=count,
        nu_estimate=m * lam_min,
        worst_mu=worst_mu,
        curvature_lambda=lam_min,
        mobility_m=m,
        margin=margin,
        generator="kronecker-shifted",
        seed=seed,
        subbox_lo=tuple(float(v) for v in lo),
        subbox_hi=tuple(float(v) for v in hi),
        gradient_mode=mode.gradient_mode,
        witnesses=tuple(witnesses[:8]),
    )


def dissipation_report(traj: Trajectory, r_star: float) -> DissipationReport:
    """Per-interval dissipation audit of a trajectory.

    alpha_hat is the smallest observed (-dR/dt)/Psi over intervals with
    Psi above the floor (inf when no interval qualifies); violations count
    steps with a resistance increase beyond the per-step tolerance.  A run
    needs 10 samples, or 2 if it stopped converged (a run from the optimum
    stops after one step).
    """
    t = np.asarray(traj.times)
    R = np.asarray(traj.R_values)
    Psi = np.asarray(traj.Psi_values)
    need = 2 if traj.converged else 10
    if t.size < need:
        raise TooFewSamplesError(f"need at least {need} samples, got {t.size}")
    dt = np.diff(t)
    dR = np.diff(R)
    tol = 1e-9 * (1.0 + np.abs(R[:-1]))
    violations = int(np.sum(dR > tol))
    rates = -dR / dt
    mask = Psi[:-1] >= PSI_FLOOR
    alpha_hat = float(np.min(rates[mask] / Psi[:-1][mask])) if np.any(mask) else math.inf
    psi_integral = float(np.trapezoid(Psi, t))
    return DissipationReport(
        alpha_hat=alpha_hat,
        violations=violations,
        psi_integral=psi_integral,
        r_gap=abs(float(R[-1]) - r_star),
        samples=int(t.size),
    )


def fit_rate(times, values) -> ConvergenceFit:
    """Log-linear decay fit on the post-transient window.

    Fits log(values) ~ intercept + slope * t on strictly positive samples
    after dropping the first tenth of the series; returns
    rate = -slope, prefactor = exp(intercept)/values[0] and the fit's R^2.
    """
    t = np.asarray(times, dtype=float).ravel()
    v = np.asarray(values, dtype=float).ravel()
    if t.size != v.size or t.size == 0:
        raise DomainError("times and values must be equal-length, nonempty")
    if not np.any(v > 1e-14):
        raise DegenerateFitError("all values below 1e-14; nothing to fit")
    start = int(math.ceil(0.1 * t.size))
    tw, vw = t[start:], v[start:]
    keep = vw > 1e-14
    tw, vw = tw[keep], vw[keep]
    if tw.size < 20:
        raise DegenerateFitError(
            f"only {tw.size} positive samples after the transient window; need >= 20"
        )
    logv = np.log(vw)
    slope, intercept = np.polyfit(tw, logv, 1)
    fitted = intercept + slope * tw
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    v0 = float(v[0]) if v[0] > 0 else float(vw[0])
    return ConvergenceFit(
        rate=float(-slope),
        prefactor=float(math.exp(intercept) / v0),
        r_squared=r2,
        window=(float(tw[0]), float(tw[-1])),
        samples=int(tw.size),
    )


def golden_section(f, a: float, b: float) -> float:
    """Minimize a unimodal scalar function on [a, b] to interval width 1e-10."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(200):
        if b - a <= 1e-10:
            break
        if f1 > f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return 0.5 * (a + b)


def _bisect_root(f, a: float, b: float) -> float:
    """Root of f bracketed by [a, b], to interval width 1e-12."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise DomainError("root not bracketed")
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = f(m)
        if abs(fm) == 0.0 or b - a <= 1e-12:
            return m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


def grid_oracle(costs, cfg) -> OracleTable:
    """Search-based verification of the analytic optima.

    Branching numbers come from a bisection root of the penalty gradient
    (cross-checked against a golden-section minimization of the penalty);
    aspect ratios from a 100,000-point grid plus golden-section refinement
    of the per-level cost.  No analytic minimizer formulas are consulted.
    """
    p = costs.p
    kappa = np.asarray(cfg.kappa)
    n_centers = hm.optimal_branching(costs)
    n_loc = []
    for i in range(p - 1):
        g = lambda v, i=i: kappa[i] * (v - n_centers[i])
        root = _bisect_root(g, 1.0, cfg.n_hi)
        pen = lambda v, i=i: 0.5 * kappa[i] * (v - n_centers[i]) ** 2
        check = golden_section(pen, 1.0, cfg.n_hi)
        if abs(root - check) > 1e-6 * max(1.0, abs(root)):
            raise DomainError(
                f"branching oracle mismatch at level {i + 2}: {root} vs {check}"
            )
        n_loc.append(root)
    n_loc = np.asarray(n_loc)

    A = hm.areas_from_n(cfg, n_loc)
    grid = np.linspace(cfg.r_lo, cfg.r_hi, 100_000)
    r_loc = []
    costs_min = []
    for i in range(1, p + 1):
        f = lambda r, i=i: hm.level_cost(costs, cfg, i, float(A[i - 1]), r)
        k = int(np.argmin(f(grid)))
        lo = grid[max(0, k - 1)]
        hi = grid[min(grid.size - 1, k + 1)]
        r_best = golden_section(f, lo, hi)
        r_loc.append(r_best)
        costs_min.append(f(r_best))
    return OracleTable(
        r_opt=tuple(float(v) for v in r_loc),
        n_opt=tuple(float(v) for v in n_loc),
        min_costs=tuple(float(v) for v in costs_min),
    )
