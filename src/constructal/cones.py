"""Box tangent/normal cones, Moreau decomposition and stationarity residuals.

The admissible set is always a coordinate box, so every cone is a product
of half-lines and the Euclidean projections are componentwise clips.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Box",
    "ConeDecomposition",
    "SignInterval",
    "outward",
    "tangent_project",
    "moreau_decompose",
    "kkt_residual",
    "sign_set",
    "clarke_directional",
]

BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {x : lo <= x <= hi}."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DomainError("box bounds must be 1-d arrays of equal length")
        if not np.all(lo < hi):
            raise DomainError("box needs lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def contains(self, x, tol: float = BOUNDARY_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def clip(self, x) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lo, self.hi)

    def active_lower(self, x, tol: float = BOUNDARY_TOL) -> np.ndarray:
        return np.asarray(x, dtype=float) <= self.lo + tol

    def active_upper(self, x, tol: float = BOUNDARY_TOL) -> np.ndarray:
        return np.asarray(x, dtype=float) >= self.hi - tol

    def interior_point(self, x, tol: float = BOUNDARY_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x > self.lo + tol) and np.all(x < self.hi - tol))


@dataclass(frozen=True)
class ConeDecomposition:
    """Orthogonal split v = tangent + normal with tangent in T_K(x),
    normal in N_K(x)."""

    tangent: np.ndarray
    normal: np.ndarray


def _check_membership(box: Box, x, tol: float = BOUNDARY_TOL) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (box.dim,):
        raise DomainError(f"point has shape {x.shape}, box has dimension {box.dim}")
    if not box.contains(x, tol):
        raise DomainError(f"point {x.tolist()} outside the box beyond tolerance {tol}")
    return x


def outward(box: Box, X, V, tol: float = BOUNDARY_TOL) -> np.ndarray:
    """Mask of the coordinates that sit on a box face with a velocity
    pointing out of the box, for states and velocities of shape (..., d)."""
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    return ((X <= box.lo + tol) & (V < 0.0)) | ((X >= box.hi - tol) & (V > 0.0))


def tangent_project(box: Box, x, v, tol: float = BOUNDARY_TOL) -> np.ndarray:
    """Euclidean projection of v onto the tangent cone of the box at x.

    Componentwise: outward components at active bounds are zeroed, all
    others pass through.  Idempotent by construction.
    """
    return tangent_project_batch(box, _check_membership(box, x, tol), v, tol)


def tangent_project_batch(box: Box, X: np.ndarray, V: np.ndarray, tol: float = BOUNDARY_TOL) -> np.ndarray:
    """Vectorized tangent projection for (..., d) stacks (no membership check)."""
    return np.where(outward(box, X, V, tol), 0.0, np.asarray(V, dtype=float))


def moreau_decompose(box: Box, x, v, tol: float = BOUNDARY_TOL) -> ConeDecomposition:
    """Moreau split of v at x: tangent part plus normal-cone residual."""
    tangent = tangent_project(box, x, v, tol)
    normal = np.asarray(v, dtype=float) - tangent
    return ConeDecomposition(tangent=tangent, normal=normal)


def kkt_residual(box: Box, x, g, tol: float = BOUNDARY_TOL) -> float:
    """Squared distance from 0 to g + N_K(x); zero exactly at constrained
    stationary points.  For a box this is ||P_{T_K(x)}(-g)||^2."""
    t = tangent_project(box, x, -np.asarray(g, dtype=float), tol)
    return float(t @ t)


@dataclass(frozen=True)
class SignInterval:
    """Componentwise set-valued sign: each component is {-1}, {+1} or [-1, 1].

    Follows the inverted orientation of the inclusion's sign map: a positive
    argument selects {-1} and a negative one {+1}, so applying a positive
    gain directly to a selection already descends the argument.
    """

    lo: np.ndarray
    hi: np.ndarray

    def is_singleton(self) -> np.ndarray:
        return self.lo == self.hi

    def selection(self) -> np.ndarray:
        """Midpoint selection (0 on switching components)."""
        return 0.5 * (self.lo + self.hi)


def sign_set(u, tol: float) -> SignInterval:
    """Set-valued sign of u with switching tolerance tol (> 0)."""
    if tol <= 0:
        raise DomainError("switching tolerance must be positive")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    lo = np.where(u > tol, -1.0, np.where(u < -tol, 1.0, -1.0))
    hi = np.where(u > tol, -1.0, np.where(u < -tol, 1.0, 1.0))
    return SignInterval(lo=lo, hi=hi)


def clarke_directional(grad, v) -> float:
    """Directional derivative <grad, v> (R is smooth on the box interior)."""
    return float(np.asarray(grad, dtype=float) @ np.asarray(v, dtype=float))
