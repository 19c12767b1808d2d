"""Closed-form Gaussian model of the up-conversion Schmidt spectrum.

The paper's closed-form model replaces the phase-matching sinc by the
Gaussian of equal FWHM, exp(-GAMMA_SINC x^2) with :data:`GAMMA_SINC` =
0.193.  The transfer kernel is then an exact three-variable Gaussian, and
its Schmidt number follows from covariance-matrix determinants.  The
numerical kernel (:mod:`modesub.kernel`) samples the sinc itself; this
module is the only reader of the Gaussian.  Each function reads the
objects it describes, whose constructors check them: the crystal
(:class:`~modesub.dispersion.CrystalPreset`), the gate
(:class:`~modesub.kernel.GateSpec`) and the signal beam
(:class:`~modesub.kernel.SignalBeamSpec`).  This module provides

* the characteristic scales of the single-mode regime (characteristic
  non-collinear angle, walk-off length, optimal length and focusing,
  minimal Schmidt number) in the small-angle expansion, which also hold the
  single-mode margins (:func:`characteristic_scales`),
* the small-angle closed-form K(l, w_s),
* the exact covariance-matrix route, valid for any Gaussian kernel: the
  exponent matrix U of the Gaussian model (:func:`build_covariance`) and
  the Schmidt number of any positive-definite U with the signal frequency
  last, K = sqrt(u det A / det U) (:func:`covariance_schmidt_number`).
  The tests hold the numerical decomposition to box-free oracles of the
  sinc kernel itself, and this route is their Gaussian limit: swapping
  each sinc for its Gaussian must give the determinant K,
* the single-mode rate, and the flags of the single-mode regime
  (:func:`single_mode_ok`) and of the plane-wave gate (:func:`plane_wave_ok`).

The up-converted inverse group velocity k'_c is read in one convention per
route.  The small-angle functions read the collinear-limit
``preset.kp_c_collinear``, under which the closed-form scales reproduce
their reference values; :func:`build_covariance` reads the cut's own
``preset.kp_c``, which the numerical kernel runs on.  To compare the two
routes, build U from ``replace(preset, kp_c=preset.kp_c_collinear)``.

U = tau_g^2 g g^T + w_s^2 b b^T + 2 GAMMA_SINC (l/2)^2 m m^T sums three
rank-one terms over the gate, beam and phase-matching rows of
:func:`~modesub.dispersion.kernel_forms`, so it is positive definite exactly
when their determinant, (k'_c cos rho - k'_s cos(phi - rho)) /
(cos phi cos rho), is not zero.  k'_c > k'_s keeps it positive while the
walk-off stays below arccos(k'_s / k'_c), about 15 deg for BBO, whose rho
is 4 deg; :func:`covariance_schmidt_number` raises :class:`DomainError` on
a U that is not positive definite.  The q_c diagonal,
w_s^2 / cos^2 phi + 2 GAMMA_SINC (l/2)^2 (tan phi - tan rho)^2, is positive
for any crystal, so q_c never drops out of U, not even at phi = rho = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import C_M_PER_S, EPS0_F_PER_M, CrystalPreset, kernel_forms
from .kernel import GateSpec, SignalBeamSpec

# sinc(x) ~ exp(-GAMMA_SINC x^2) matches the full width at half maximum
GAMMA_SINC = 0.193
# 1/fs -> 1/s
_PER_FS_TO_SI = 1e15


class DomainError(ValueError):
    """Input no constructor checks: a matrix that is not positive definite,
    or a negative photon number."""


@dataclass(frozen=True)
class CharacteristicScales:
    phi0_rad: float
    l0_um: float
    l_opt_um: float
    w_opt_um: float
    k_min: float


def characteristic_scales(preset: CrystalPreset, gate: GateSpec) -> CharacteristicScales:
    """Single-mode-regime scales of the small-angle Gaussian model.

    phi0 is the characteristic non-collinear angle and l0 the temporal
    walk-off length of gate and up-converted pulse.  K_min - 1 =
    (phi^2 + |phi (phi - rho)|) / phi0^2 and l0 / l are the single-mode
    margins.  At phi = 0 the optimum moves to infinite length and waist;
    those entries come back as ``inf``.  Reads ``preset.kp_c_collinear``
    and does not depend on the signal beam.
    """
    kp_s, kp_c, phi, rho = preset.kp_s, preset.kp_c_collinear, preset.phi, preset.rho
    tau_g = gate.tau_g
    phi0 = math.sqrt((kp_c / kp_s - 1.0) / 2.0)
    l0 = tau_g / (math.sqrt(GAMMA_SINC / 2.0) * (kp_c - kp_s))
    if phi == 0.0:
        l_opt = math.inf
        w_opt = math.inf
    else:
        l_opt = (tau_g / kp_s) / (math.sqrt(2.0 * GAMMA_SINC) * phi0 * abs(phi))
        w_opt = (tau_g / kp_s) * math.sqrt(abs(rho / phi - 1.0)) / (2.0 * phi0)
    k_min = 1.0 + (phi**2 + abs(phi * (phi - rho))) / phi0**2
    return CharacteristicScales(phi0, l0, l_opt, w_opt, k_min)


def schmidt_number_closed_form(preset: CrystalPreset, gate: GateSpec,
                               signal: SignalBeamSpec) -> float:
    """Small-angle closed-form K(l, w_s), on ``preset.kp_c_collinear``.

    Returned without clamping: a value below one signals a bug, not physics.
    """
    kp_s, phi, rho, l = preset.kp_s, preset.phi, preset.rho, preset.length_um
    tau_g, w_s = gate.tau_g, signal.waist_s_um
    d_group = preset.kp_c_collinear - kp_s
    a = 1.0 + 2.0 * tau_g**2 / (GAMMA_SINC * d_group**2 * l**2)
    b = (phi - rho) ** 2 * tau_g**2 / d_group**2
    c = 1.0 + 2.0 * phi**4 * GAMMA_SINC * kp_s**2 * l**2 / tau_g**2
    d = 4.0 * phi**2 * kp_s**2 / tau_g**2
    return math.sqrt((a * w_s**2 + b) * (c / w_s**2 + d))


def build_covariance(preset: CrystalPreset, gate: GateSpec,
                     signal: SignalBeamSpec) -> np.ndarray:
    """Exponent matrix U of the Gaussian-model kernel, 3x3 over
    (Omega_c, q_c, Omega_s): L = exp(-x^T U x / 2) for the order-0 gate.

    U is the sum of rank-one contributions from the gate spectrum, the
    signal transverse profile and the Gaussian-approximated phase matching,
    on ``preset.kp_c`` as the numerical kernel is.
    """
    gate_form, beam, match = map(np.array, kernel_forms(preset.kp_s, preset.kp_c,
                                                        preset.phi, preset.rho))
    return (gate.tau_g**2 * np.outer(gate_form, gate_form)
            + signal.waist_s_um**2 * np.outer(beam, beam)
            + 2.0 * GAMMA_SINC * (preset.length_um / 2.0) ** 2 * np.outer(match, match))


def covariance_schmidt_number(U: np.ndarray) -> float:
    """Exact Schmidt number of a Gaussian kernel from determinants.

    With U = [[A, b], [b^T, u]] over y and s, the signal frequency last and
    y the n - 1 others (Omega_c, q_c for :func:`build_covariance`, plus the
    gate's transverse momentum for a finite gate), integrating y out of
    L(y, s) L(y, s') leaves the signal-side Gram kernel
    G(s, s') ~ exp(-[alpha (s^2 + s'^2) - 2 beta s s'] / 2), with
    beta = b^T A^-1 b / 2 and alpha = u - beta.  Then
    K = (Tr G)^2 / Tr G^2 = sqrt((alpha + beta) / (alpha - beta))
      = sqrt(u / (u - b^T A^-1 b)) = sqrt(u det A / det U),
    the last step because u - b^T A^-1 b = det U / det A is the Schur
    complement of A.  U must be symmetric, n >= 2, and positive definite:
    its smallest eigenvalue above 1e-12 of its largest.
    """
    U = np.asarray(U, dtype=float)
    if (U.ndim != 2 or U.shape[0] != U.shape[1] or U.shape[0] < 2
            or not np.allclose(U, U.T, rtol=0, atol=1e-10 * max(1.0, np.abs(U).max()))):
        raise DomainError(f"U must be a symmetric n x n matrix with n >= 2, "
                          f"got shape {U.shape}")
    evals = np.linalg.eigvalsh(U)
    if evals[0] <= 1e-12 * evals[-1]:
        raise DomainError("U must be positive definite")
    return math.sqrt(U[-1, -1] * np.linalg.det(U[:-1, :-1]) / np.linalg.det(U))


def single_mode_lambda_sq(preset: CrystalPreset) -> float:
    """Squared Schmidt coefficient of the single-mode regime, 1/fs."""
    return math.pi / ((preset.kp_c - preset.kp_s) * preset.length_um / 2.0)


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


def single_mode_rate(preset: CrystalPreset, gate: GateSpec,
                     n_photons: float) -> SingleModeRate:
    """Subtraction probability and event rate in the single-mode regime.

    ``n_photons`` is the mean photon number per pulse in the matched mode.
    ``p_norm_m2_per_j`` is the probability per photon per unit gate
    fluence W_g / (pi w_g^2), which the gate energy and waist drop out of.
    Whether the regime holds is :func:`single_mode_ok`.
    """
    if n_photons < 0:
        raise DomainError("photon number must be non-negative")
    lam_sq = single_mode_lambda_sq(preset)
    weight = conversion_prefactor_fs(preset, gate) * lam_sq
    w_g_m = gate.waist_g_um * 1e-6
    fluence = gate.energy_j / (math.pi * w_g_m**2)
    probability = weight * n_photons
    return SingleModeRate(lambda_sq_per_fs=lam_sq, p_norm_m2_per_j=weight / fluence,
                          probability=probability,
                          rate_hz=probability * gate.rep_rate_hz)


def single_mode_ok(scales: CharacteristicScales, preset: CrystalPreset) -> bool:
    """Whether the single-mode conditions hold within a factor three: both
    margins of :func:`characteristic_scales`, K_min - 1 and l0 / l, at
    most 1/3."""
    return scales.k_min - 1.0 <= 1.0 / 3.0 and scales.l0_um / preset.length_um <= 1.0 / 3.0


def plane_wave_ok(gate: GateSpec, signal: SignalBeamSpec) -> bool:
    """Whether the gate waist dominates the signal waist enough for the
    plane-wave reduction: w_g >= 5 w_s."""
    return gate.waist_g_um >= 5.0 * signal.waist_s_um
