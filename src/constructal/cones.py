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
    "outward",
    "tangent_project",
    "moreau_decompose",
    "kkt_residual",
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
        return np.asarray(x, dtype=float).clip(self.lo, self.hi)

    def active_lower(self, x, tol: float = BOUNDARY_TOL) -> np.ndarray:
        return np.asarray(x, dtype=float) <= self.lo + tol

    def active_upper(self, x, tol: float = BOUNDARY_TOL) -> np.ndarray:
        return np.asarray(x, dtype=float) >= self.hi - tol

    def interior_point(self, x, tol: float = BOUNDARY_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.logical_and.reduce((x > self.lo + tol) & (x < self.hi - tol), axis=None))


@dataclass(frozen=True)
class ConeDecomposition:
    """Orthogonal split v = tangent + normal with tangent in T_K(x),
    normal in N_K(x)."""

    tangent: np.ndarray
    normal: np.ndarray


def _check_membership(box: Box, X, tol: float = BOUNDARY_TOL) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[-1:] != (box.dim,):
        raise DomainError(f"point has shape {X.shape}, box has dimension {box.dim}")
    outside = ~np.all((X >= box.lo - tol) & (X <= box.hi + tol), axis=-1)
    if outside.any():
        raise DomainError(f"point {X[outside][0].tolist()} outside the box beyond tolerance {tol}")
    return X


def outward(box: Box, X, V, tol: float = BOUNDARY_TOL) -> np.ndarray:
    """Mask of the coordinates that sit on a box face with a velocity
    pointing out of the box, for states and velocities of shape (..., d)."""
    X = np.asarray(X, dtype=float)
    V = np.asarray(V, dtype=float)
    return ((X <= box.lo + tol) & (V < 0.0)) | ((X >= box.hi - tol) & (V > 0.0))


def tangent_project(box: Box, x, v, tol: float = BOUNDARY_TOL) -> np.ndarray:
    """Euclidean projection of v onto the tangent cone of the box at x, for
    a point or a stack of points (each checked to lie in the box).

    Componentwise: outward components at active bounds are zeroed, all
    others pass through.  Idempotent by construction.
    """
    x = _check_membership(box, x, tol)
    return np.where(outward(box, x, v, tol), 0.0, np.asarray(v, dtype=float))


def moreau_decompose(box: Box, x, v, tol: float = BOUNDARY_TOL) -> ConeDecomposition:
    """Moreau split of v at x: tangent part plus normal-cone residual."""
    tangent = tangent_project(box, x, v, tol)
    normal = np.asarray(v, dtype=float) - tangent
    return ConeDecomposition(tangent=tangent, normal=normal)


def kkt_residual(box: Box, x, g, tol: float = BOUNDARY_TOL) -> float | np.ndarray:
    """Squared distance from 0 to g + N_K(x); zero exactly at constrained
    stationary points.  For a box this is ||P_{T_K(x)}(-g)||^2: a float for
    a point, an array of one value per row for a stack of shape (..., d)."""
    t = tangent_project(box, x, -np.asarray(g, dtype=float), tol)
    return np.add.reduce(t * t, axis=-1)
