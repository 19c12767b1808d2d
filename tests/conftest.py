import math
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


@pytest.fixture
def open_bounds(monkeypatch):
    """Lift the kernel's guards for a test that samples a grid a run would
    reject: the main-lobe rule of a given size and both bounds on the box's
    share of the continuum norm^2.  Such a test checks the samples
    themselves, which the guards do not touch."""
    monkeypatch.setattr(modesub.kernel, "MIN_LOBE_POINTS", 0.0)
    monkeypatch.setattr(modesub.kernel, "MIN_MASS_CAPTURED", 0.0)
    monkeypatch.setattr(modesub.kernel, "MAX_MASS_CAPTURED", math.inf)


def six_figures(preset_name, length_um, w_s, order, tau_g=94.0, span_scale=1.0, **sizes):
    """The scan path's and the subtract path's solves at one point: their
    diagnostics, and the scan path's K and lambda_1, then the subtract
    path's K, lambda_1, purity and probability against the 40-mode comb.
    ``sizes`` are the ``n_*`` axis sizes to give; the rest are derived."""
    preset = replace(PRESETS[preset_name], length_um=length_um)
    gate = GateSpec(order=order, tau_g=tau_g)
    signal = SignalBeamSpec(waist_s_um=w_s, spectral_tau_fs=TAU_COMB_FS)
    config = GridConfig(span_scale=span_scale, **sizes)
    gram = kernel_gram(preset, gate, signal, config)
    (result,) = comb_subtraction_experiment(preset, gate, signal,
                                            flat_comb(tau_s_fs=TAU_COMB_FS),
                                            (order,), config)
    cond = result.condition
    return (gram.diagnostics, result.grid), np.array([
        *schmidt_number_and_lead(gram), cond.schmidt_number, cond.lambdas_sq[0],
        cond.purity, cond.probability])


def omega_rule_shifts(*case):
    """The derived Omega node counts (:func:`modesub.kernel.omega_axis_size`)
    of :func:`six_figures`' two solves, and the relative shifts of its six
    figures on twice the nodes."""

    def solve():
        diagnostics, figures = six_figures(*case)
        return [d[k] for d in diagnostics for k in ("n_omega_c", "n_omega_s")], figures

    sizes, rule = solve()
    size = modesub.kernel.omega_axis_size
    with mock.patch.object(modesub.kernel, "omega_axis_size",
                           lambda *args: 2 * size(*args)):
        sizes_2n, doubled = solve()
    assert sizes_2n == [2 * n for n in sizes]
    return sizes, np.abs(rule - doubled) / np.abs(doubled)


def q_rule_shifts(*case):
    """The derived q_c size n (:func:`modesub.kernel.q_axis_size`) of
    :func:`six_figures`' two solves, and the relative shifts of its six
    figures on 4 n - 3 points over the same span, a quarter of the step."""
    (scan, subtract), rule = six_figures(*case)
    n_q = scan["n_q"]
    assert subtract["n_q"] == n_q
    _, fine = six_figures(*case, n_q=4 * n_q - 3)
    return n_q, np.abs(rule - fine) / np.abs(fine)
