from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import modesub.kernel
from modesub import (PRESETS, CrystalPreset, GateSpec, GridConfig, SignalBeamSpec,
                     comb_subtraction_experiment, flat_comb, kernel_gram)
from modesub.dispersion import kernel_forms
from modesub.schmidt import schmidt_number_and_lead

# tau of a 6 nm FWHM comb mode at 795 nm; the gate matches it in Sec.-V runs
TAU_COMB_FS = 93.11618228642854


def delta_k(preset, omega_c, q_c, omega_s):
    """Phase mismatch (1/um), from the match row of the kernel's linear forms."""
    _, _, (d_wc, d_qc, d_ws) = kernel_forms(preset.kp_s, preset.kp_c, preset.phi,
                                            preset.rho)
    return d_wc * omega_c + d_qc * q_c + d_ws * omega_s


def collinear_preset(length_um=2000.0):
    """phi = 0, rho = 0 degenerate geometry; kp_c_collinear defaults to kp_c."""
    return CrystalPreset(name="collinear", lambda_s_um=0.8,
                         kp_s=5.6138837221849, kp_c=5.810686538351809,
                         rho=0.0, phi=0.0, theta_pm=0.0, length_um=length_um)


@pytest.fixture(scope="session")
def bbo1co():
    return PRESETS["bbo-phi1-co"]


@pytest.fixture(scope="session")
def gate94():
    return GateSpec(order=0, tau_g=94.0)


@pytest.fixture(scope="session")
def signal_opt():
    return SignalBeamSpec(waist_s_um=107.7, spectral_tau_fs=TAU_COMB_FS)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def omega_rule_shifts(preset_name, length_um, w_s, order, phase_matching,
                      tau_g=94.0, span_scale=1.0):
    """The derived Omega node counts (:func:`modesub.kernel.omega_axis_size`)
    of the scan path's and the subtract path's solves, and the relative
    shifts between those solves and ones on twice the nodes: the scan
    path's K and lambda_1, then the subtract path's K, lambda_1, purity and
    probability against the 40-mode comb."""
    preset = replace(PRESETS[preset_name], length_um=length_um)
    gate = GateSpec(order=order, tau_g=tau_g)
    signal = SignalBeamSpec(waist_s_um=w_s, spectral_tau_fs=TAU_COMB_FS)
    config = GridConfig(span_scale=span_scale, phase_matching=phase_matching)

    def solve():
        gram = kernel_gram(preset, gate, signal, config)
        (result,) = comb_subtraction_experiment(preset, gate, signal,
                                                flat_comb(tau_s_fs=TAU_COMB_FS),
                                                (order,), config)
        cond = result.condition
        sizes = [gram.diagnostics[k] for k in ("n_omega_c", "n_omega_s")]
        sizes += [result.grid[k] for k in ("n_omega_c", "n_omega_s")]
        return sizes, np.array([*schmidt_number_and_lead(gram), cond.schmidt_number,
                                cond.lambdas_sq[0], cond.purity, cond.probability])

    sizes, rule = solve()
    size = modesub.kernel.omega_axis_size
    with mock.patch.object(modesub.kernel, "omega_axis_size",
                           lambda *args: 2 * size(*args)):
        sizes_2n, doubled = solve()
    assert sizes_2n == [2 * n for n in sizes]
    return sizes, np.abs(rule - doubled) / np.abs(doubled)
