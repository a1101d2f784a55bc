"""Contraction certification, dissipation verification and search oracles."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import hierarchy as hm
from .cones import Box
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
    "structural_bound",
    "dissipation_report",
    "fit_rate",
    "grid_oracle",
    "golden_section",
]

PSI_FLOOR = 1e-8
CERT_SLACK = 1e-8


def matrix_measure(A) -> float:
    """Euclidean matrix measure: largest eigenvalue of the symmetric part."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError("matrix measure needs a square matrix")
    if not np.all(np.isfinite(A)):
        raise DomainError("matrix measure needs finite entries")
    sym = 0.5 * (A + A.T)
    return float(np.linalg.eigvalsh(sym)[-1])


def _mobility_scalar(mode: ProjectedGradient) -> float:
    if np.ndim(mode.mobility) == 0:
        return float(mode.mobility)
    return float(min(mode.mobility))


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


def mode_hessian(mode: ProjectedGradient, costs, cfg, x) -> np.ndarray:
    """Symmetrized Jacobian of the mode's gradient field (the true Hessian
    in coupled mode)."""
    xv = hm._as_vector(x, costs.p)
    Dg = hm.grad_jacobian(costs, cfg, xv, mode.gradient_mode)
    return 0.5 * (Dg + Dg.T)


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
    r_final: float
    r_gap: float | None
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

    Draws ``count`` scrambled-Sobol points, evaluates mu(J(x)) and the
    minimum eigenvalue of the mode Hessian at each, and passes iff the
    worst measure stays below -m * (min curvature) + slack with positive
    curvature throughout.  Sampler, count and seed are recorded so the
    certificate is reproducible.

    ``subbox`` may be a Box or an (lo, hi) pair of arrays; degenerate
    intervals (lo == hi, pinning a coordinate) are allowed.  By default
    the sub-box spans +/- rel_halfwidth around the optimum, clipped to
    the admissible box.
    """
    if not isinstance(mode, ProjectedGradient):
        raise DomainError("certification requires the projected-gradient mode")
    if count < 1:
        raise DomainError("sample count must be >= 1")
    if subbox is None:
        x_opt = hm.optimum_state(costs, cfg).vector()
        half = rel_halfwidth * np.abs(x_opt)
        lo = np.maximum(box.lo, x_opt - half)
        hi = np.minimum(box.hi, x_opt + half)
    elif isinstance(subbox, Box):
        lo, hi = subbox.lo, subbox.hi
    else:
        lo = np.asarray(subbox[0], dtype=float)
        hi = np.asarray(subbox[1], dtype=float)
        if lo.shape != (box.dim,) or hi.shape != (box.dim,) or np.any(lo > hi):
            raise DomainError("sampling sub-box needs lo <= hi of full dimension")
    d = box.dim
    m = _mobility_scalar(mode)
    from scipy.stats import qmc  # slow to import, and only the certificate needs it

    sampler = qmc.Sobol(d=d, scramble=True, seed=seed)
    with warnings.catch_warnings():
        # balance only holds for power-of-two counts; irrelevant for extrema
        warnings.simplefilter("ignore", UserWarning)
        unit = sampler.random(count)
    X = lo + unit * (hi - lo)

    Dg = hm.grad_jacobian(costs, cfg, X, mode.gradient_mode)
    J = -mode.mobility_vector(d)[:, None] * Dg
    mus = np.linalg.eigvalsh(0.5 * (J + J.swapaxes(1, 2)))[:, -1]
    lams = np.linalg.eigvalsh(0.5 * (Dg + Dg.swapaxes(1, 2)))[:, 0]

    worst_mu = float(np.max(mus))
    lam_min = float(np.min(lams))
    margin = worst_mu + m * lam_min
    bad = np.flatnonzero((lams <= 0.0) | (mus > -m * lam_min + CERT_SLACK))
    witnesses = tuple(tuple(float(v) for v in X[i]) for i in bad[:8])
    return ContractionCertificate(
        samples=count,
        nu_estimate=m * lam_min,
        worst_mu=worst_mu,
        curvature_lambda=lam_min,
        mobility_m=m,
        margin=margin,
        generator="sobol-scrambled",
        seed=seed,
        subbox_lo=tuple(float(v) for v in lo),
        subbox_hi=tuple(float(v) for v in hi),
        gradient_mode=mode.gradient_mode,
        witnesses=witnesses,
    )


def structural_bound(mode: ProjectedGradient, costs, cfg, x, L_M: float) -> float:
    """-m lambda_min(H(x)) + (L_M/2) ||grad R(x)||; for constant mobility
    (L_M = 0) this upper-bounds the matrix measure of the Jacobian exactly."""
    xv = hm._as_vector(x, costs.p)
    m = _mobility_scalar(mode)
    H = mode_hessian(mode, costs, cfg, xv)
    lam_min = float(np.linalg.eigvalsh(H)[0])
    g = hm.gradient_vec(costs, cfg, xv, mode.gradient_mode)
    return -m * lam_min + 0.5 * L_M * float(np.linalg.norm(g))


def dissipation_report(traj: Trajectory, r_star: float | None = None) -> DissipationReport:
    """Per-interval dissipation audit of a trajectory.

    alpha_hat is the smallest observed (-dR/dt)/Psi over intervals with
    Psi above the floor (inf when no interval qualifies); violations count
    steps with a resistance increase beyond the per-step tolerance.
    """
    t = np.asarray(traj.times)
    R = np.asarray(traj.R_values)
    Psi = np.asarray(traj.Psi_values)
    if t.size < 10:
        raise TooFewSamplesError(f"need at least 10 samples, got {t.size}")
    dt = np.diff(t)
    dR = np.diff(R)
    tol = 1e-9 * (1.0 + np.abs(R[:-1]))
    violations = int(np.sum(dR > tol))
    rates = -dR / dt
    mask = Psi[:-1] >= PSI_FLOOR
    alpha_hat = float(np.min(rates[mask] / Psi[:-1][mask])) if np.any(mask) else math.inf
    psi_integral = float(np.trapezoid(Psi, t))
    r_gap = abs(float(R[-1]) - r_star) if r_star is not None else None
    return DissipationReport(
        alpha_hat=alpha_hat,
        violations=violations,
        psi_integral=psi_integral,
        r_final=float(R[-1]),
        r_gap=r_gap,
        samples=int(t.size),
    )


def fit_rate(times, values, transient_fraction: float = 0.1) -> ConvergenceFit:
    """Log-linear decay fit on the post-transient window.

    Fits log(values) ~ intercept + slope * t on strictly positive samples
    after dropping the first ``transient_fraction`` of the series; returns
    rate = -slope, prefactor = exp(intercept)/values[0] and the fit's R^2.
    """
    t = np.asarray(times, dtype=float).ravel()
    v = np.asarray(values, dtype=float).ravel()
    if t.size != v.size or t.size == 0:
        raise DomainError("times and values must be equal-length, nonempty")
    if not np.any(v > 1e-14):
        raise DegenerateFitError("all values below 1e-14; nothing to fit")
    start = int(math.ceil(transient_fraction * t.size))
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


def golden_section(f, a: float, b: float, tol: float = 1e-10, max_iter: int = 200) -> float:
    """Minimize a unimodal scalar function on [a, b] to interval width tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if b - a <= tol:
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


def _bisect_root(f, a: float, b: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise DomainError("root not bracketed")
    for _ in range(max_iter):
        m = 0.5 * (a + b)
        fm = f(m)
        if abs(fm) == 0.0 or b - a <= tol:
            return m
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


def grid_oracle(costs, cfg, grid_points: int = 100_000) -> OracleTable:
    """Search-based verification of the analytic optima.

    Branching numbers come from a bisection root of the penalty gradient
    (cross-checked against a golden-section minimization of the penalty);
    aspect ratios from a dense grid plus golden-section refinement of the
    per-level cost.  No analytic minimizer formulas are consulted.
    """
    p = costs.p
    kappa = np.asarray(cfg.kappa)
    n_centers = hm.optimal_branching(costs)
    n_loc = []
    for i in range(p - 1):
        g = lambda v, i=i: kappa[i] * (v - n_centers[i])
        root = _bisect_root(g, 1.0, cfg.n_hi)
        pen = lambda v, i=i: 0.5 * kappa[i] * (v - n_centers[i]) ** 2
        check = golden_section(pen, 1.0, cfg.n_hi, tol=1e-10)
        if abs(root - check) > 1e-6 * max(1.0, abs(root)):
            raise DomainError(
                f"branching oracle mismatch at level {i + 2}: {root} vs {check}"
            )
        n_loc.append(root)
    n_loc = np.asarray(n_loc)

    A = hm.areas_from_n(cfg, n_loc)
    grid = np.linspace(cfg.r_lo, cfg.r_hi, grid_points)
    K = costs.as_array()
    alpha = np.asarray(cfg.alpha)
    beta = np.asarray(cfg.beta)
    r_loc = []
    costs_min = []
    for i in range(1, p + 1):
        vals = math.sqrt(A[i - 1]) * (
            alpha[i - 1] * K[i - 1] * grid + beta[i - 1] * K[i] / grid
        )
        k = int(np.argmin(vals))
        lo = grid[max(0, k - 1)]
        hi = grid[min(grid_points - 1, k + 1)]
        f = lambda r, i=i: hm.level_cost(costs, cfg, i, float(A[i - 1]), r)
        r_best = golden_section(f, lo, hi, tol=1e-10)
        r_loc.append(r_best)
        costs_min.append(f(r_best))
    return OracleTable(
        r_opt=tuple(float(v) for v in r_loc),
        n_opt=tuple(float(v) for v in n_loc),
        min_costs=tuple(float(v) for v in costs_min),
    )
