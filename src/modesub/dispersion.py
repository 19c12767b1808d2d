"""Units, physical constants, crystal presets and the first-order phase mismatch.

Internal unit system
--------------------
time        femtosecond (fs)
length      micrometer (um)
frequency   angular, rad/fs (offsets from the carrier)
k'          inverse group velocity, fs/um
angle       radian

All conversions go through the single speed-of-light constant below; lab
units (nm, mm, degrees, nJ, MHz) appear only at the CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# speed of light, the one source of truth for unit conversion
C_UM_PER_FS = 0.299792458
# SI values, used only for absolute probabilities/rates
C_M_PER_S = 299792458.0
EPS0_F_PER_M = 8.8541878128e-12

# beta-barium-borate is a negative uniaxial crystal; phase matching of the
# degenerate type-I process exists up to a maximal non-collinear angle set by
# n_e,min/n_o, about 19 deg at 800 nm
BBO_PHI_MAX_RAD = math.radians(19.0)


@dataclass(frozen=True)
class CrystalPreset:
    """One phase-matched configuration of the up-conversion crystal.

    ``phi`` is signed: sign(phi) == sign(rho) is the co-propagating geometry
    (signal travels with the walk-off direction of the up-converted beam),
    opposite signs the counter-propagating one.  ``rho`` is kept positive.
    ``kp_c_collinear`` is the collinear-limit inverse group velocity of the
    up-converted field (``kp_c`` when not given), read by the small-angle
    closed forms; ``kp_c`` is the value at the actual cut and feeds the
    numerical kernel.  Both exceed ``kp_s`` (normal dispersion), and |phi|
    stays below :data:`BBO_PHI_MAX_RAD`.
    """

    name: str
    lambda_s_um: float          # signal/gate carrier wavelength
    kp_s: float                 # ordinary fundamental, fs/um (gate == signal)
    kp_c: float                 # extraordinary up-converted, fs/um
    rho: float                  # birefringent walk-off angle, rad (> 0)
    phi: float                  # non-collinear half-geometry angle, rad, signed
    theta_pm: float             # phase-matching angle, rad (metadata only)
    n_s: float = 1.66
    n_g: float = 1.66
    n_c: float = 1.66
    d_eff_pm_v: float = 2.0     # effective nonlinearity; chi2 = 2 d_eff
    length_um: float = 2000.0
    kp_c_collinear: float | None = None

    def __post_init__(self):
        if self.kp_c_collinear is None:
            object.__setattr__(self, "kp_c_collinear", self.kp_c)
        for field in ("kp_c", "kp_c_collinear"):
            if not math.inf > getattr(self, field) > self.kp_s > 0:
                raise ValueError(
                    f"normal dispersion requires {field} > kp_s > 0, got "
                    f"kp_s={self.kp_s}, {field}={getattr(self, field)}")
        if not 0 < self.length_um < math.inf:
            raise ValueError("crystal length must be > 0 and finite, "
                             f"got {self.length_um}")
        if not 0 <= self.rho < math.inf:
            raise ValueError("walk-off angle rho is positive and finite by convention; "
                             "the configuration sign lives on phi")
        if not abs(self.phi) < BBO_PHI_MAX_RAD:
            raise ValueError(
                f"|phi|={abs(self.phi):.4f} rad exceeds the maximal "
                f"phase-matchable angle {BBO_PHI_MAX_RAD:.4f} rad")
        if not all(0 < v < math.inf for v in (self.n_s, self.n_g, self.n_c,
                                                self.d_eff_pm_v)):
            raise ValueError("refractive indices and d_eff must be positive and finite")

    @property
    def omega_s0(self) -> float:
        """Signal carrier angular frequency, rad/fs."""
        return 2.0 * math.pi * C_UM_PER_FS / self.lambda_s_um

    @property
    def omega_c0(self) -> float:
        return 2.0 * self.omega_s0


# Tabulated BBO cuts for degenerate type-I SFG at 800 nm, s(o)+g(o)=c(e), by
# |phi| in degrees.  Group velocities of the ordinary fields do not depend on
# the cut, and both cuts share one collinear-limit kp_c.
_BBO_TABLE = {
    1: dict(kp_c=1.742 / C_UM_PER_FS, rho=math.radians(3.9),
            theta_pm=math.radians(29.4)),
    5: dict(kp_c=1.735 / C_UM_PER_FS, rho=math.radians(4.1),
            theta_pm=math.radians(32.4)),
}

# every named preset, once: each cut co-propagating (phi and rho share a sign)
# and counter-propagating (phi flipped against rho); vary one with
# dataclasses.replace
PRESETS: dict[str, CrystalPreset] = {p.name: p for p in (
    CrystalPreset(name=f"bbo-phi{deg}-{sign}", lambda_s_um=0.800,
                  kp_s=1.683 / C_UM_PER_FS,
                  phi=math.radians(deg if sign == "co" else -deg),
                  kp_c_collinear=1.742 / C_UM_PER_FS, **row)
    for deg, row in _BBO_TABLE.items() for sign in ("co", "counter"))}


def kernel_forms(kp_s: float, kp_c: float, phi: float,
                 rho: float) -> tuple[tuple[float, float, float], ...]:
    """Coefficients over (Omega_c, q_c, Omega_s) of the three kernel factors.

    ``gate`` is the gate-spectrum argument Omega_c - Omega_s, ``beam`` the
    momentum taken from the signal beam, ``match`` the phase mismatch from
    first-order dispersion and the conservation laws, with the gate a plane
    wave and the signal momentum eliminated.  ``match`` takes the sign of
    the sinc argument; the even sinc makes the overall sign immaterial.
    """
    t, s, c = math.tan(phi), math.sin(phi), math.cos(phi)
    gate = (1.0, 0.0, -1.0)
    beam = (kp_s * t, 1.0 / c, -2.0 * kp_s * t)
    match = (kp_c - kp_s * c + kp_s * t * s,
             t - math.tan(rho),
             -2.0 * kp_s * t * s)
    return gate, beam, match


def convert_bandwidth(fwhm_nm: float, lambda_um: float) -> float:
    """Spectral intensity FWHM (nm) -> Gaussian amplitude duration tau (fs).

    Uses the amplitude convention exp(-tau^2 Omega^2 / 2), for which the
    intensity FWHM in angular frequency is 2 sqrt(ln 2)/tau.
    """
    if not (0 < fwhm_nm < math.inf and 0 < lambda_um < math.inf):
        raise ValueError("bandwidth and wavelength must be positive and finite")
    d_omega = 2.0 * math.pi * C_UM_PER_FS * (fwhm_nm * 1e-3) / lambda_um**2
    return 2.0 * math.sqrt(math.log(2.0)) / d_omega
