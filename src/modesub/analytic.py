"""Closed-form Gaussian model of the up-conversion Schmidt spectrum.

Approximating the phase-matching sinc by a Gaussian of equal FWHM
(exp(-GAMMA_SINC x^2), GAMMA_SINC = 0.193) makes the transfer kernel an exact
three-variable Gaussian, for which the Schmidt number follows from
covariance-matrix determinants.  This module provides

* the characteristic scales of the single-mode regime (walk-off length,
  characteristic non-collinear angle, optimal length and focusing, minimal
  Schmidt number) in the small-angle expansion,
* the small-angle closed-form K(l, w_s),
* the exact covariance-matrix route, valid for any Gaussian kernel and used
  as the oracle for the numerical decomposition,
* the single-mode margins and rate.

The small-angle formulas conventionally use the collinear-limit value of
the up-converted group velocity; pass ``kp_c`` accordingly (see
``GaussianModelParams.from_preset``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import C_M_PER_S, EPS0_F_PER_M, CrystalPreset, kernel_forms
from .kernel import GAMMA_SINC, GateSpec, SignalBeamSpec

# fs/um -> s/m
_KP_TO_SI = 1e-9
# 1/fs -> 1/s
_PER_FS_TO_SI = 1e15


class DomainError(ValueError):
    """Input outside the validity domain (non-PD matrix, zero angle, ...)."""


@dataclass(frozen=True)
class GaussianModelParams:
    """Parameter set of the Gaussian kernel model (internal units)."""

    kp_s: float
    kp_c: float
    phi: float
    rho: float
    tau_g: float
    w_s: float
    l: float

    def __post_init__(self):
        if not (self.kp_c > self.kp_s > 0):
            raise DomainError("requires kp_c > kp_s > 0")
        if min(self.tau_g, self.w_s, self.l) <= 0:
            raise DomainError("tau_g, w_s and l must be positive")

    @classmethod
    def from_preset(cls, preset: CrystalPreset, gate: GateSpec,
                    signal: SignalBeamSpec, *,
                    collinear: bool = True) -> "GaussianModelParams":
        """Build from artifact types.

        ``collinear=True`` (default) inserts the collinear-limit up-converted
        group velocity, the convention under which the closed-form scales
        reproduce their reference values.  Use ``collinear=False`` to match a
        numerically built Gaussian-surrogate kernel, which runs on the
        preset's own cut-dependent value.
        """
        return cls(kp_s=preset.kp_s,
                   kp_c=preset.kp_c_collinear if collinear else preset.kp_c,
                   phi=preset.phi, rho=preset.rho, tau_g=gate.tau_g,
                   w_s=signal.waist_s_um, l=preset.length_um)


@dataclass(frozen=True)
class CharacteristicScales:
    phi0_rad: float
    l0_um: float
    l_opt_um: float
    w_opt_um: float
    k_min: float


def _phi0(kp_s: float, kp_c: float) -> float:
    """Characteristic non-collinear angle of the small-angle model, rad."""
    return math.sqrt((kp_c / kp_s - 1.0) / 2.0)


def _walk_off_length(kp_s: float, kp_c: float, tau_g: float) -> float:
    """Temporal walk-off length l0 of gate and up-converted pulse, um."""
    return tau_g / (math.sqrt(GAMMA_SINC / 2.0) * (kp_c - kp_s))


def _angle_margin(kp_s: float, kp_c: float, phi: float, rho: float) -> float:
    """(phi^2 + |phi (phi - rho)|) / phi0^2; the minimal Schmidt number is 1 + it."""
    return (phi**2 + abs(phi * (phi - rho))) / _phi0(kp_s, kp_c) ** 2


def single_mode_margins(preset: CrystalPreset, tau_g: float) -> tuple[float, float, bool]:
    """Angle margin, length margin l0/l, and whether the single-mode regime holds.

    Both margins must be well below one; the regime holds "within a factor
    three" when both are <= 1/3.  Uses the collinear-limit up-converted
    group velocity and does not depend on the signal beam.
    """
    kp_s, kp_c = preset.kp_s, preset.kp_c_collinear
    angle = _angle_margin(kp_s, kp_c, preset.phi, preset.rho)
    length = _walk_off_length(kp_s, kp_c, tau_g) / preset.length_um
    return angle, length, angle <= 1.0 / 3.0 and length <= 1.0 / 3.0


def characteristic_scales(p: GaussianModelParams) -> CharacteristicScales:
    """Single-mode-regime scales of the small-angle Gaussian model.

    At phi = 0 the optimum moves to infinite length and waist; those entries
    come back as ``inf``.
    """
    phi0 = _phi0(p.kp_s, p.kp_c)
    l0 = _walk_off_length(p.kp_s, p.kp_c, p.tau_g)
    if p.phi == 0.0:
        l_opt = math.inf
        w_opt = math.inf
    else:
        l_opt = (p.tau_g / p.kp_s) / (math.sqrt(2.0 * GAMMA_SINC) * phi0 * abs(p.phi))
        w_opt = (p.tau_g / p.kp_s) * math.sqrt(abs(p.rho / p.phi - 1.0)) / (2.0 * phi0)
    k_min = 1.0 + _angle_margin(p.kp_s, p.kp_c, p.phi, p.rho)
    return CharacteristicScales(phi0, l0, l_opt, w_opt, k_min)


def schmidt_number_closed_form(p: GaussianModelParams) -> float:
    """Small-angle closed-form K(l, w_s).

    Returned without clamping: a value below one signals a bug, not physics.
    """
    d_group = p.kp_c - p.kp_s
    a = 1.0 + 2.0 * p.tau_g**2 / (GAMMA_SINC * d_group**2 * p.l**2)
    b = (p.phi - p.rho) ** 2 * p.tau_g**2 / d_group**2
    c = 1.0 + 2.0 * p.phi**4 * GAMMA_SINC * p.kp_s**2 * p.l**2 / p.tau_g**2
    d = 4.0 * p.phi**2 * p.kp_s**2 / p.tau_g**2
    return math.sqrt((a * p.w_s**2 + b) * (c / p.w_s**2 + d))


@dataclass(frozen=True)
class CovarianceForm:
    """Quadratic forms of the Gaussian kernel and its Gram two-copy product."""

    U: np.ndarray                 # 3x3 over (Omega_c, q_c, Omega_s)
    V: np.ndarray                 # 6x6 over (Omega_c, q_c, Omega_s, primed)
    rank_deficient: bool


def assemble_two_copy_form(U: np.ndarray) -> np.ndarray:
    """6x6 exponent matrix of L*(y,s) L(y,s') L(y',s) L*(y',s').

    Derived from the block partition U = [[A, b], [b^T, u]] over
    y = (Omega_c, q_c) and s = Omega_s: summing the four single-copy
    exponents doubles the diagonal blocks and couples each s to both copies
    of y through b, with no y-y' or s-s' coupling.
    """
    A = U[:2, :2]
    b = U[:2, 2]
    u = U[2, 2]
    V = np.zeros((6, 6))
    V[:2, :2] = 2.0 * A
    V[3:5, 3:5] = 2.0 * A
    V[2, 2] = 2.0 * u
    V[5, 5] = 2.0 * u
    for rows, col in (((0, 2), 2), ((0, 2), 5), ((3, 5), 2), ((3, 5), 5)):
        V[rows[0]:rows[1], col] = b
        V[col, rows[0]:rows[1]] = b
    return V


def build_covariance(p: GaussianModelParams) -> CovarianceForm:
    """Exponent matrices of the Gaussian-surrogate kernel.

    U is the sum of rank-one contributions from the gate spectrum, the
    signal transverse profile and the Gaussian-approximated phase matching;
    it is rank deficient only for degenerate geometries (flagged, not
    raised -- the Schmidt number may still exist on a reduced block).
    """
    gate, beam, match = map(np.array, kernel_forms(p.kp_s, p.kp_c, p.phi, p.rho))
    U = (p.tau_g**2 * np.outer(gate, gate)
         + p.w_s**2 * np.outer(beam, beam)
         + 2.0 * GAMMA_SINC * (p.l / 2.0) ** 2 * np.outer(match, match))
    evals = np.linalg.eigvalsh(U)
    deficient = bool(evals[0] <= 1e-12 * evals[-1])
    return CovarianceForm(U=U, V=assemble_two_copy_form(U), rank_deficient=deficient)


def covariance_schmidt_number(U: np.ndarray) -> float:
    """Exact Schmidt number of a Gaussian kernel from determinants.

    For a rank-deficient U whose transverse-momentum coordinate decouples
    (degenerate collinear geometry), the computation falls back to the
    coupled 2x2 frequency block.
    """
    U = np.asarray(U, dtype=float)
    if U.shape != (3, 3) or not np.allclose(U, U.T, rtol=0, atol=1e-10 * max(1.0, np.abs(U).max())):
        raise DomainError("U must be a symmetric 3x3 matrix")
    evals = np.linalg.eigvalsh(U)
    scale = float(np.abs(U).max())
    if evals[0] < -1e-12 * max(scale, 1.0):
        raise DomainError("U must be positive (semi-)definite")
    if evals[0] <= 1e-12 * max(evals[-1], 1.0):
        decoupled = max(abs(U[0, 1]), abs(U[1, 2])) <= 1e-12 * scale
        if not decoupled:
            raise DomainError("U is singular and its momentum coordinate does "
                              "not decouple; Schmidt number undefined")
        reduced = U[np.ix_((0, 2), (0, 2))]
        if np.linalg.eigvalsh(reduced)[0] <= 1e-12 * scale:
            raise DomainError("reduced frequency block is not positive definite")
        a, b, u = reduced[0, 0], reduced[0, 1], reduced[1, 1]
        return 1.0 / math.sqrt(1.0 - b * b / (a * u))
    if evals[0] <= 0:
        raise DomainError("U must be positive definite")
    V = assemble_two_copy_form(U)
    return float(np.sqrt(np.linalg.det(V)) / np.linalg.det(2.0 * U))


def single_mode_lambda_sq(preset: CrystalPreset) -> float:
    """Squared Schmidt coefficient of the single-mode regime, 1/fs."""
    return math.pi / ((preset.kp_c - preset.kp_s) * preset.length_um / 2.0)


def normalized_probability_m2_per_j(preset: CrystalPreset) -> float:
    """Subtraction probability per photon per unit gate fluence, m^2/J.

    chi2^2 omega_s0 omega_c0 l / (8 eps0 n_s n_c n_g c^3 (kp_c - kp_s)),
    all in SI.  This is the reduced form of the single-mode probability
    divided by N_s W_g / (pi w_g^2).
    """
    chi2 = 2.0 * preset.d_eff_pm_v * 1e-12
    omega_s0 = preset.omega_s0 * _PER_FS_TO_SI
    omega_c0 = preset.omega_c0 * _PER_FS_TO_SI
    l_m = preset.length_um * 1e-6
    d_group_si = (preset.kp_c - preset.kp_s) * _KP_TO_SI
    return (chi2**2 * omega_s0 * omega_c0 * l_m
            / (8.0 * EPS0_F_PER_M * preset.n_s * preset.n_c * preset.n_g
               * C_M_PER_S**3 * d_group_si))


def conversion_prefactor_fs(preset: CrystalPreset, gate: GateSpec) -> float:
    """|C'|^2 of the plane-wave-gate interaction, expressed in fs.

    Multiplying it by a kernel-side weight in 1/fs (e.g. a raw squared
    Schmidt coefficient times a photon number) gives a dimensionless
    probability per pulse.  Includes the Gaussian gate transverse profile,
    |C'|^2 = 4 pi |C|^2 / w_g^2.
    """
    chi2 = 2.0 * preset.d_eff_pm_v * 1e-12
    omega_s0 = preset.omega_s0 * _PER_FS_TO_SI
    omega_c0 = preset.omega_c0 * _PER_FS_TO_SI
    l_m = preset.length_um * 1e-6
    w_g_m = gate.waist_g_um * 1e-6
    pref_s = (chi2**2 * l_m**2 * gate.energy_j * omega_s0 * omega_c0
              / (16.0 * math.pi**2 * EPS0_F_PER_M
                 * preset.n_s * preset.n_c * preset.n_g
                 * C_M_PER_S**3 * w_g_m**2))
    return pref_s * _PER_FS_TO_SI


@dataclass(frozen=True)
class SingleModeRate:
    lambda_sq_per_fs: float
    p_norm_m2_per_j: float
    probability: float
    rate_hz: float
    single_mode_ok: bool
    plane_wave_ok: bool


def single_mode_rate(preset: CrystalPreset, gate: GateSpec, n_photons: float,
                     signal: SignalBeamSpec | None = None) -> SingleModeRate:
    """Subtraction probability and event rate in the single-mode regime.

    ``n_photons`` is the mean photon number per pulse in the matched mode.
    The flags report whether the single-mode conditions hold within a factor
    three and whether the gate waist dominates the signal waist enough for
    the plane-wave reduction.
    """
    if n_photons < 0:
        raise DomainError("photon number must be non-negative")
    lam_sq = single_mode_lambda_sq(preset)
    p_norm = normalized_probability_m2_per_j(preset)
    w_g_m = gate.waist_g_um * 1e-6
    fluence = gate.energy_j / (math.pi * w_g_m**2)
    probability = p_norm * n_photons * fluence
    rate = probability * gate.rep_rate_hz

    _, _, ok = single_mode_margins(preset, gate.tau_g)
    plane_ok = True if signal is None else bool(gate.waist_g_um >= 5.0 * signal.waist_s_um)
    return SingleModeRate(lambda_sq_per_fs=lam_sq, p_norm_m2_per_j=p_norm,
                          probability=probability, rate_hz=rate,
                          single_mode_ok=ok, plane_wave_ok=plane_ok)
