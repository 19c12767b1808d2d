"""Reduced transfer function of non-collinear sum-frequency generation.

The kernel L(Omega_c, q_c, Omega_s) is the product of the gate spectral
amplitude evaluated at Omega_c - Omega_s, the signal transverse profile
evaluated at the momentum consumed from the signal beam, and the
phase-matching factor sinc(delta_k * l / 2).  The gate transverse profile is
a plane wave (valid for a gate beam much wider than the signal), which is
what reduces the problem to these three variables.

Amplitudes are unnormalized: the gate spectrum and signal profile carry unit
L2 norm, the sinc is dimensionless, so ||L||^2 has units rad/fs and feeds the
absolute probability scale of the conditioning stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .dispersion import CrystalPreset, kernel_forms
from .modes import (SPAN_SIGMAS, HermiteGaussSpec, QuadGrid, default_half_span,
                    hermite_gauss_values, uniform_grid)

# sinc(x) ~ exp(-GAMMA_SINC x^2) matches the full width at half maximum
GAMMA_SINC = 0.193
# largest share of the kernel mass a boundary cell may hold
BOUNDARY_TOL = 1e-3
# fewest grid points across the phase-matching main lobe on a coupled axis
MIN_LOBE_POINTS = 8.0

PhaseMatching = Literal["sinc", "gaussian"]


class KernelResolutionError(ValueError):
    """Grid too coarse to resolve the phase-matching main lobe."""


class KernelSpanError(ValueError):
    """Grid box cuts off a non-negligible fraction of the kernel."""


@dataclass(frozen=True)
class GateSpec:
    """Gate pulse: HG spectral profile, transverse waist, pulse energy."""

    spectral: HermiteGaussSpec                  # tau_g in fs
    waist_g_um: float = 1000.0
    energy_j: float = 10e-9
    rep_rate_hz: float = 80e6

    def __post_init__(self):
        if self.waist_g_um <= 0 or self.energy_j < 0 or self.rep_rate_hz <= 0:
            raise ValueError("gate waist, energy and repetition rate must be positive")

    @property
    def tau_g(self) -> float:
        return self.spectral.scale

    @property
    def order(self) -> int:
        return self.spectral.order


@dataclass(frozen=True)
class SignalBeamSpec:
    """Signal beam: transverse Gaussian width and comb-mode time scale."""

    waist_s_um: float
    spectral_tau_fs: float

    def __post_init__(self):
        if self.waist_s_um <= 0 or self.spectral_tau_fs <= 0:
            raise ValueError("signal waist and spectral tau must be positive")


@dataclass(frozen=True)
class GridConfig:
    """Axis sizes, span scaling, optional explicit half-spans, sinc treatment.

    Derived half-spans (:func:`derive_grids`) are scaled by ``span_scale``;
    the ``span_*`` fields replace them per axis.
    """

    n_omega_c: int = 128
    n_q: int = 128
    n_omega_s: int = 128
    span_scale: float = 1.0
    span_omega_c: float | None = None   # half-span overrides, internal units
    span_q: float | None = None
    span_omega_s: float | None = None
    phase_matching: PhaseMatching = "sinc"

    def __post_init__(self):
        if min(self.n_omega_c, self.n_q, self.n_omega_s) < 8:
            raise ValueError("each axis needs at least 8 points")
        if self.span_scale <= 0:
            raise ValueError("span_scale must be positive")
        if self.phase_matching not in ("sinc", "gaussian"):
            raise ValueError(f"phase_matching must be 'sinc' or 'gaussian'")


@dataclass(frozen=True)
class KernelGrid:
    """Sampled transfer function with its quadrature axes."""

    values: np.ndarray            # complex [n_omega_c, n_q, n_omega_s]
    omega_c: QuadGrid
    q_c: QuadGrid
    omega_s: QuadGrid
    norm_sq: float
    phase_matching: PhaseMatching = "sinc"
    diagnostics: dict = field(default_factory=dict)

    def converted_weights(self) -> np.ndarray:
        """Flattened (Omega_c, q_c) product quadrature weights."""
        return np.outer(self.omega_c.weights, self.q_c.weights).ravel()


def sinc(x) -> np.ndarray:
    """sin(x)/x with sinc(0) = 1; series fallback below |x| = 1e-4."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    out = np.sin(safe) / safe
    x2 = x * x
    return np.where(small, 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0), out)


def phase_match_factor(arg, kind: PhaseMatching) -> np.ndarray:
    if kind == "gaussian":
        return np.exp(-GAMMA_SINC * np.square(arg))
    return sinc(arg)


def derive_grids(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
                 config: GridConfig) -> tuple[QuadGrid, QuadGrid, QuadGrid]:
    """Default quadrature axes for a kernel build.

    Omega spans come from the gate and comb time scales and from the
    phase-matching bandwidth 2 pi / (k'_c - k'_s) l (widest wins); the
    momentum span from the signal waist.  For the Gaussian surrogate the
    phase-matching contribution is its 5-sigma width instead of the sinc
    main lobe, since the surrogate has no side lobes to truncate but a wider
    central peak.
    """
    l = preset.length_um
    d_group = preset.kp_c - preset.kp_s
    if config.phase_matching == "gaussian":
        pm_halfwidth = SPAN_SIGMAS / (np.sqrt(2.0 * GAMMA_SINC) * d_group * l / 2.0)
    else:
        pm_halfwidth = 2.0 * np.pi / (d_group * l)
    span_omega = max(default_half_span(gate.tau_g, gate.order),
                     default_half_span(signal.spectral_tau_fs),
                     pm_halfwidth) * config.span_scale
    span_q = default_half_span(signal.waist_s_um) * config.span_scale

    s_wc = config.span_omega_c if config.span_omega_c is not None else span_omega
    s_q = config.span_q if config.span_q is not None else span_q
    s_ws = config.span_omega_s if config.span_omega_s is not None else span_omega
    return (uniform_grid(s_wc, config.n_omega_c, label="omega_c"),
            uniform_grid(s_q, config.n_q, label="q_c"),
            uniform_grid(s_ws, config.n_omega_s, label="omega_s"))


def _boundary_fractions(intensity_mass: np.ndarray) -> list[float]:
    """Fraction of total quadrature mass in the outermost cell of each axis."""
    total = float(intensity_mass.sum())
    fractions = []
    for axis in range(intensity_mass.ndim):
        other = tuple(a for a in range(intensity_mass.ndim) if a != axis)
        marginal = intensity_mass.sum(axis=other)
        fractions.append(float((marginal[0] + marginal[-1]) / total))
    return fractions


def _evaluate_form(coeffs, axes):
    """c0 Omega_c + c1 q_c + c2 Omega_s, broadcast over only the axes it uses."""
    return sum(c * x for c, x in zip(coeffs, axes) if c != 0.0)


def build_kernel(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
                 config: GridConfig | None = None, *, check: bool = True) -> KernelGrid:
    """Sample the reduced transfer function on a 3-D quadrature grid.

    Raises :class:`KernelResolutionError` when fewer than
    :data:`MIN_LOBE_POINTS` grid points fall across the phase-matching main
    lobe along any coupled axis, and :class:`KernelSpanError` when more than
    :data:`BOUNDARY_TOL` of the kernel mass sits in a boundary cell.
    """
    config = config or GridConfig()
    g_wc, g_q, g_ws = derive_grids(preset, gate, signal, config)

    gate_form, beam_form, match_form = kernel_forms(preset.kp_s, preset.kp_c,
                                                    preset.phi, preset.rho)
    half_l = preset.length_um / 2.0
    pm_form = tuple(c * half_l for c in match_form)

    if check:
        for grid, c in zip((g_wc, g_q, g_ws), pm_form):
            if c == 0.0:
                continue
            dx = grid.points[1] - grid.points[0]
            lobe_points = (2.0 * np.pi / abs(c)) / dx
            if lobe_points < MIN_LOBE_POINTS:
                raise KernelResolutionError(
                    f"{grid.label}: {lobe_points:.1f} points across the "
                    f"phase-matching main lobe, need >= {MIN_LOBE_POINTS}")

    n_c, n_q, n_s = g_wc.size, g_q.size, g_ws.size
    values = np.empty((n_c, n_q, n_s), dtype=complex)
    w_s = signal.waist_s_um
    us_norm = np.sqrt(w_s) / np.pi**0.25

    wc = g_wc.points[:, None, None]
    qc = g_q.points[None, :, None]
    # chunk over the signal-frequency axis to bound peak memory
    chunk = max(1, int(4e6) // (n_c * n_q))
    for start in range(0, n_s, chunk):
        axes = (wc, qc, g_ws.points[None, None, start:start + chunk])
        gate_vals = hermite_gauss_values(gate.order, gate.tau_g,
                                         _evaluate_form(gate_form, axes),
                                         gate.spectral.center)
        us_arg = _evaluate_form(beam_form, axes)
        us_vals = us_norm * np.exp(-0.5 * (w_s * us_arg) ** 2)
        pm_arg = _evaluate_form(pm_form, axes)
        values[:, :, start:start + chunk] = (
            gate_vals * us_vals * phase_match_factor(pm_arg, config.phase_matching))

    mass = (np.abs(values) ** 2
            * g_wc.weights[:, None, None]
            * g_q.weights[None, :, None]
            * g_ws.weights[None, None, :])
    norm_sq = float(mass.sum())
    if norm_sq <= 0 or not np.isfinite(norm_sq):
        raise KernelSpanError("kernel norm vanished or overflowed; check spans")

    fractions = _boundary_fractions(mass)
    if check and max(fractions) > BOUNDARY_TOL:
        raise KernelSpanError(
            f"boundary cells hold {max(fractions):.2e} of the kernel mass "
            f"(limit {BOUNDARY_TOL:.1e}); widen the grid spans")

    return KernelGrid(values=values, omega_c=g_wc, q_c=g_q, omega_s=g_ws,
                      norm_sq=norm_sq, phase_matching=config.phase_matching,
                      diagnostics={"boundary_fractions": fractions})
