"""Mode-selective photon subtraction via non-collinear sum-frequency generation.

Simulates the spatio-spectral transfer kernel of a pulse-gated up-conversion
process, its Schmidt-mode structure, the closed-form Gaussian model of the
single-mode regime, and the purity and rate of photon subtraction from a
multimode squeezed frequency comb.
"""

__version__ = "0.1.0"

from .analytic import (CharacteristicScales, build_covariance, characteristic_scales,
                       covariance_schmidt_number, schmidt_number_closed_form,
                       single_mode_rate)
from .conditioning import (CombState, ConditionResult, comb_subtraction_experiment,
                           conditioned_state, flat_comb, overlap_matrix,
                           photons_from_squeezing)
from .config import ScanPoint
from .dispersion import C_UM_PER_FS, PRESETS, CrystalPreset, convert_bandwidth
from .kernel import (GateSpec, GridConfig, KernelGram, KernelGrid, SignalBeamSpec,
                     build_kernel, kernel_gram)
from .modes import QuadGrid, uniform_grid
from .scan import schmidt_number_scan
from .schmidt import SchmidtResult, decompose, gram_matrix

__all__ = [
    "C_UM_PER_FS",
    "CharacteristicScales",
    "CombState",
    "ConditionResult",
    "CrystalPreset",
    "GateSpec",
    "GridConfig",
    "KernelGram",
    "KernelGrid",
    "PRESETS",
    "QuadGrid",
    "ScanPoint",
    "SchmidtResult",
    "SignalBeamSpec",
    "build_covariance",
    "build_kernel",
    "characteristic_scales",
    "comb_subtraction_experiment",
    "conditioned_state",
    "convert_bandwidth",
    "covariance_schmidt_number",
    "decompose",
    "flat_comb",
    "gram_matrix",
    "kernel_gram",
    "overlap_matrix",
    "photons_from_squeezing",
    "schmidt_number_closed_form",
    "schmidt_number_scan",
    "single_mode_rate",
    "uniform_grid",
]
