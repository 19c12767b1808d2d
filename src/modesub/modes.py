"""Hermite-Gauss mode functions and quadrature grids.

Mode functions are real and carry the continuum normalization
``integral |f|^2 dx = 1``; order 0 is (s/sqrt(pi))^(1/2) exp(-s^2 x^2 / 2)
for a scale parameter s (tau in fs for spectral modes, w in um for
transverse ones).  Integrals are trapezoid sums on uniform grids.  Their
step error is O(h^2) wherever the integrand has not decayed at the box
edge, as on the kernel's Omega axes, whose sinc tails the box truncates.
Where the box holds the whole integrand the error is aliasing, which falls
exponentially in 1/h.  A derived q_c span holds the beam wherever its
centre drifts over the Omega box (:func:`~modesub.kernel._axes`), and a
derived q_c axis (:func:`~modesub.kernel.q_axis_size`) takes the largest
step that keeps the aliases of the beam Gaussian times the phase matching
under :data:`~modesub.kernel.Q_ALIAS_TOL`.  What is left there is the
O(h^2) endpoint term of the beam tail, where the drift brings the beam
near the q_c edge.  Against 128 points the derived axis moves K,
lambda_1, purity and probability by at most 2e-9.  In the worst case found
(phi = 1 deg co, l = 1 mm, w_s = 200 um) the shift against 256 points is
1.8e-9, 1.5e-9 and 6.5e-10 at 19, 21 and 33 points: it falls as h^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# grid half-spans reach this many 1/scale widths past the center
SPAN_SIGMAS = 5.0
# largest normalization defect of a mode function sampled by hermite_gauss
ADEQUACY_TOL = 1e-6


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


def uniform_grid(half_span: float, n: int, label: str = "") -> QuadGrid:
    """Uniform grid on [-half_span, half_span] with trapezoid weights.

    Points are built as integer offsets times the step so that the grid is
    antisymmetric to the last bit.
    """
    if half_span <= 0 or n < 2:
        raise ValueError("half_span must be > 0 and n >= 2")
    offsets = np.arange(n) - (n - 1) / 2.0
    dx = 2.0 * half_span / (n - 1)
    points = offsets * dx
    weights = np.full(n, dx)
    weights[0] = weights[-1] = dx / 2.0
    return QuadGrid(points, weights, label)


@dataclass(frozen=True)
class HermiteGaussSpec:
    """Order and scale of one carrier-centred Hermite-Gauss mode function."""

    order: int
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.order) and self.order >= 0
                and int(self.order) == self.order):
            raise ValueError(f"order must be a non-negative integer, got {self.order}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def _hermite_functions(order: int, u: np.ndarray):
    """Yield the orthonormal Hermite functions h_0(u) .. h_order(u) in turn.

    Three-term recurrence; the per-step renormalization keeps values
    bounded at high order.
    """
    h_prev = np.pi ** -0.25 * np.exp(-u * u / 2.0)
    yield h_prev
    if order == 0:
        return
    h = u * np.sqrt(2.0) * h_prev
    yield h
    for n in range(2, order + 1):
        h_prev, h = h, u * np.sqrt(2.0 / n) * h - np.sqrt((n - 1) / n) * h_prev
        yield h


def hermite_gauss_values(order: int, scale: float, x) -> np.ndarray:
    """Continuum-normalized HG_n(scale * x) at arbitrary points."""
    u = scale * np.asarray(x, dtype=float)
    for h in _hermite_functions(order, u):
        pass
    return np.sqrt(scale) * h


def hermite_gauss_table(n_modes: int, scale: float, x) -> np.ndarray:
    """Rows n = 0 .. n_modes - 1 of :func:`hermite_gauss_values`, bit for bit,
    from one pass of the recurrence."""
    u = scale * np.asarray(x, dtype=float)
    return np.stack([np.sqrt(scale) * h for h in _hermite_functions(n_modes - 1, u)])


def hermite_gauss(spec: HermiteGaussSpec, grid: QuadGrid) -> np.ndarray:
    """Sample a mode function on a grid, L2-normalized under its weights.

    Raises :class:`GridAdequacyError` when the grid truncates the function
    (normalization defect above :data:`ADEQUACY_TOL`).  For the raw
    continuum-normalized samples, unchecked, call :func:`hermite_gauss_values`.
    """
    values = hermite_gauss_values(spec.order, spec.scale, grid.points)
    norm_sq = float(np.sum(grid.weights * values * values))
    if abs(norm_sq - 1.0) > ADEQUACY_TOL:
        raise GridAdequacyError(
            f"grid span {grid.span:.4g} inadequate for HG order {spec.order} "
            f"at scale {spec.scale:.4g}: normalization defect {abs(norm_sq - 1.0):.2e}")
    return values / np.sqrt(norm_sq)


def default_half_span(scale: float, max_order: int = 0) -> float:
    """Default half-span for an HG family: +-5/scale, widened with order."""
    return SPAN_SIGMAS / scale * (1.0 + max_order / 2.0)
