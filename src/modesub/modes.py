"""Hermite-Gauss mode functions, quadrature grids and inner products.

Mode functions are real and carry the continuum normalization
``integral |f|^2 dx = 1``; order 0 is (s/sqrt(pi))^(1/2) exp(-s^2 x^2 / 2)
for a scale parameter s (tau in fs for spectral modes, w in um for
transverse ones).  Integrals are trapezoid sums on uniform grids, which
converge superalgebraically for the smooth Gaussian-decaying integrands
used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# grid half-spans reach this many 1/scale widths past the center
SPAN_SIGMAS = 5.0


class GridAdequacyError(ValueError):
    """Grid span too small to hold the requested mode function."""


@dataclass(frozen=True)
class QuadGrid:
    """Quadrature abscissae and weights along one axis."""

    points: np.ndarray
    weights: np.ndarray
    label: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.ndim != 1 or pts.shape != wts.shape:
            raise ValueError("points and weights must be 1-D arrays of equal length")
        if pts.size < 2 or np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")
        if np.any(wts <= 0):
            raise ValueError("quadrature weights must be strictly positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def span(self) -> float:
        return float(self.points[-1] - self.points[0])


def uniform_grid(half_span: float, n: int, center: float = 0.0, label: str = "") -> QuadGrid:
    """Uniform symmetric grid with trapezoid weights.

    Points are built as integer offsets times the step so that a grid
    centered at 0 is antisymmetric to the last bit.
    """
    if half_span <= 0 or n < 2:
        raise ValueError("half_span must be > 0 and n >= 2")
    offsets = np.arange(n) - (n - 1) / 2.0
    dx = 2.0 * half_span / (n - 1)
    points = center + offsets * dx
    weights = np.full(n, dx)
    weights[0] = weights[-1] = dx / 2.0
    return QuadGrid(points, weights, label)


@dataclass(frozen=True)
class HermiteGaussSpec:
    """Order, scale and center of one Hermite-Gauss mode function."""

    order: int
    scale: float
    center: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.order) and self.order >= 0
                and int(self.order) == self.order):
            raise ValueError(f"order must be a non-negative integer, got {self.order}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def hermite_gauss_values(order: int, scale: float, x, center: float = 0.0) -> np.ndarray:
    """Continuum-normalized HG_n(scale * (x - center)) at arbitrary points.

    Evaluated with the orthonormal three-term recurrence; the per-step
    renormalization keeps values bounded at high order.
    """
    u = scale * (np.asarray(x, dtype=float) - center)
    h_prev = np.pi ** -0.25 * np.exp(-u * u / 2.0)
    if order == 0:
        return np.sqrt(scale) * h_prev
    h = u * np.sqrt(2.0) * h_prev
    for n in range(2, order + 1):
        h_prev, h = h, u * np.sqrt(2.0 / n) * h - np.sqrt((n - 1) / n) * h_prev
    return np.sqrt(scale) * h


def hermite_gauss(spec: HermiteGaussSpec, grid: QuadGrid, *,
                  renormalize: bool = True, adequacy_tol: float = 1e-6) -> np.ndarray:
    """Sample a mode function on a grid, L2-normalized under its weights.

    Raises :class:`GridAdequacyError` when the grid truncates the function
    (normalization defect above ``adequacy_tol``).  With
    ``renormalize=False`` the raw continuum-normalized samples are returned
    and no adequacy check is made; use that for functions that extend past
    the grid on purpose (e.g. high-order comb modes entering overlap
    integrals against compactly supported partners).
    """
    values = hermite_gauss_values(spec.order, spec.scale, grid.points, spec.center)
    if not renormalize:
        return values
    norm_sq = float(np.sum(grid.weights * values * values))
    if abs(norm_sq - 1.0) > adequacy_tol:
        raise GridAdequacyError(
            f"grid span {grid.span:.4g} inadequate for HG order {spec.order} "
            f"at scale {spec.scale:.4g}: normalization defect {abs(norm_sq - 1.0):.2e}")
    return values / np.sqrt(norm_sq)


def inner_product(f: np.ndarray, g: np.ndarray, grid: QuadGrid) -> complex:
    """Quadrature inner product sum_k w_k f*(x_k) g(x_k).

    Conjugate-symmetric in its arguments; both samples must live on the
    same grid.
    """
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != (grid.size,) or g.shape != (grid.size,):
        raise ValueError(
            f"samples must match the grid size {grid.size}, got {f.shape} and {g.shape}")
    return complex(np.sum(grid.weights * np.conjugate(f) * g))


def default_half_span(scale: float, max_order: int = 0) -> float:
    """Default half-span for an HG family: +-5/scale, widened with order."""
    return SPAN_SIGMAS / scale * (1.0 + max_order / 2.0)
