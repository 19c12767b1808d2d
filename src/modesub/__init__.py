"""Mode-selective photon subtraction via non-collinear sum-frequency generation.

Simulates the spatio-spectral transfer kernel of a pulse-gated up-conversion
process, its Schmidt-mode structure, the closed-form Gaussian model of the
single-mode regime, and the purity and rate of photon subtraction from a
multimode squeezed frequency comb.
"""

__version__ = "0.1.0"

from .analytic import (CharacteristicScales, GaussianModelParams,
                       build_covariance, characteristic_scales,
                       covariance_schmidt_number, schmidt_number_closed_form,
                       single_mode_rate)
from .conditioning import (CombState, ConditionResult, comb_subtraction_experiment,
                           conditioned_state, flat_comb, overlap_matrix,
                           photons_from_squeezing)
from .dispersion import (C_UM_PER_FS, CrystalPreset, bandwidth_from_tau,
                         convert_bandwidth, delta_k, list_presets, preset_bbo,
                         preset_by_name)
from .kernel import (GateSpec, GridConfig, KernelGram, KernelGrid, SignalBeamSpec,
                     build_kernel, kernel_gram)
from .modes import HermiteGaussSpec, QuadGrid, hermite_gauss, uniform_grid
from .schmidt import (ScanPoint, SchmidtResult, decompose, gram_matrix,
                      schmidt_number_scan)

__all__ = [
    "C_UM_PER_FS",
    "CharacteristicScales",
    "CombState",
    "ConditionResult",
    "CrystalPreset",
    "GateSpec",
    "GaussianModelParams",
    "GridConfig",
    "HermiteGaussSpec",
    "KernelGram",
    "KernelGrid",
    "QuadGrid",
    "ScanPoint",
    "SchmidtResult",
    "SignalBeamSpec",
    "bandwidth_from_tau",
    "build_covariance",
    "build_kernel",
    "characteristic_scales",
    "comb_subtraction_experiment",
    "conditioned_state",
    "convert_bandwidth",
    "covariance_schmidt_number",
    "decompose",
    "delta_k",
    "flat_comb",
    "gram_matrix",
    "hermite_gauss",
    "kernel_gram",
    "list_presets",
    "overlap_matrix",
    "photons_from_squeezing",
    "preset_bbo",
    "preset_by_name",
    "schmidt_number_closed_form",
    "schmidt_number_scan",
    "single_mode_rate",
    "uniform_grid",
]
