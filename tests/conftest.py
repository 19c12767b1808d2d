import numpy as np
import pytest

from modesub import PRESETS, CrystalPreset, GateSpec, SignalBeamSpec
from modesub.dispersion import kernel_forms

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
