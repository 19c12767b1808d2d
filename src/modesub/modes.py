"""Hermite-Gauss mode functions and quadrature grids.

Mode functions are real and carry the continuum normalization
``integral |f|^2 dx = 1``; order 0 is (s/sqrt(pi))^(1/2) exp(-s^2 x^2 / 2)
for a scale parameter s (tau in fs for spectral modes, w in um for
transverse ones).  They are sampled as they are, never renormalized to a
grid, so a grid that cuts one off shows it as a grid norm under 1.
Integrals are quadrature sums.  A derived Omega axis holds Gauss-Legendre
nodes (:func:`gauss_legendre_grid`), sized by
:func:`~modesub.kernel.omega_axis_size`.  The kernel is entire in Omega_c
and Omega_s, so their error falls exponentially in the node count even
where the box cuts the sinc tails (Trefethen, SIAM Rev. 50, 2008).  An
Omega axis of a given size, and every q_c axis, is a uniform trapezoid
(:func:`uniform_grid`), whose step error is O(h^2) wherever the integrand
has not decayed at the box edge.  Where the box holds the whole integrand
the error is aliasing, which falls exponentially in 1/h.  A derived q_c
span holds the beam wherever its centre drifts over the Omega box
(:func:`~modesub.kernel._axes`), and a derived q_c axis
(:func:`~modesub.kernel.q_axis_size`) takes the largest step that keeps
the aliases of the beam Gaussian times the phase matching under
:data:`~modesub.kernel.Q_ALIAS_TOL`.  What is left there is the O(h^2)
endpoint term of the beam tail, where the drift brings the beam near the
q_c edge.  Against 128 points the derived axis moves K, lambda_1, purity
and probability by at most 2e-9.  In the worst case found (phi = 1 deg
co, l = 1 mm, w_s = 200 um) the shift against 256 points is 1.8e-9,
1.5e-9 and 6.5e-10 at 19, 21 and 33 points: it falls as h^2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


# grid half-spans reach this many 1/scale widths past the center
SPAN_SIGMAS = 5.0


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
        if pts.size < 2 or not (np.all(np.isfinite(pts)) and np.all(np.diff(pts) > 0)):
            raise ValueError("grid points must be finite and strictly increasing")
        if not np.all((wts > 0) & (wts < np.inf)):
            raise ValueError("quadrature weights must be strictly positive and finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def size(self) -> int:
        return self.points.size


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


def _legendre_and_slope(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1], nodes exactly
    antisymmetric and weights exactly palindromic; read-only, as every
    grid of n nodes shares them.

    Newton's method on P_n from the estimates cos(pi (k - 1/4) / (n + 1/2))
    of its roots takes three or four steps to rounding, and the weights
    are 2 / ((1 - x^2) P_n'(x)^2).  The rule costs a few ms at a hundred
    nodes, so it is built once per n.  numpy's ``leggauss`` would import
    ``numpy.polynomial`` (3 ms and 1.6 MB on every run that derives an
    axis), and its weights are less exact (1e-12 relative at 61 nodes,
    1e-9 at 601).
    """
    x = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(10):
        p, slope = _legendre_and_slope(n, x)
        step = p / slope
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    _, slope = _legendre_and_slope(n, x)
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_grid(half_span: float, n: int, label: str = "") -> QuadGrid:
    """n Gauss-Legendre nodes on [-half_span, half_span] with their weights.

    The nodes are antisymmetric and the weights palindromic to the last
    bit, as on :func:`uniform_grid`, so a point-symmetric integrand stays
    point-symmetric on the grid.
    """
    if half_span <= 0 or n < 2:
        raise ValueError("half_span must be > 0 and n >= 2")
    x, w = _legendre_rule(n)
    return QuadGrid(half_span * x, half_span * w, label)


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


def default_half_span(scale: float, max_order: int = 0) -> float:
    """Default half-span for an HG family: +-5/scale, widened with order."""
    return SPAN_SIGMAS / scale * (1.0 + max_order / 2.0)
