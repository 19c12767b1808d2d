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
from dataclasses import dataclass, replace

# speed of light, the one source of truth for unit conversion
C_UM_PER_FS = 0.299792458
# SI values, used only for absolute probabilities/rates
C_M_PER_S = 299792458.0
EPS0_F_PER_M = 8.8541878128e-12

# beta-barium-borate is a negative uniaxial crystal; phase matching of the
# degenerate type-I process exists up to a maximal non-collinear angle set by
# n_e,min/n_o, about 19 deg at 800 nm
BBO_PHI_MAX_RAD = math.radians(19.0)


class ConfigurationError(ValueError):
    """Requested crystal configuration is not tabulated or not valid."""


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
            if not (getattr(self, field) > self.kp_s > 0):
                raise ConfigurationError(
                    f"normal dispersion requires {field} > kp_s > 0, got "
                    f"kp_s={self.kp_s}, {field}={getattr(self, field)}")
        if self.length_um <= 0:
            raise ConfigurationError(f"crystal length must be > 0, got {self.length_um}")
        if self.rho < 0:
            raise ConfigurationError("walk-off angle rho is positive by convention; "
                                     "the configuration sign lives on phi")
        if abs(self.phi) >= BBO_PHI_MAX_RAD:
            raise ConfigurationError(
                f"|phi|={abs(self.phi):.4f} rad exceeds the maximal "
                f"phase-matchable angle {BBO_PHI_MAX_RAD:.4f} rad")
        if min(self.n_s, self.n_g, self.n_c) <= 0 or self.d_eff_pm_v <= 0:
            raise ConfigurationError("refractive indices and d_eff must be positive")

    @property
    def omega_s0(self) -> float:
        """Signal carrier angular frequency, rad/fs."""
        return 2.0 * math.pi * C_UM_PER_FS / self.lambda_s_um

    @property
    def omega_c0(self) -> float:
        return 2.0 * self.omega_s0

    def with_length(self, length_um: float) -> "CrystalPreset":
        return replace(self, length_um=length_um)

    def with_phi(self, phi_rad: float) -> "CrystalPreset":
        return replace(self, phi=phi_rad)


# Tabulated BBO cuts for degenerate type-I SFG at 800 nm, s(o)+g(o)=c(e).
# Group velocities of the ordinary fields do not depend on the cut.
_BBO_TABLE = {
    1.0: dict(kp_c=1.742 / C_UM_PER_FS, rho=math.radians(3.9),
              theta_pm=math.radians(29.4)),
    5.0: dict(kp_c=1.735 / C_UM_PER_FS, rho=math.radians(4.1),
              theta_pm=math.radians(32.4)),
}
# collinear-limit value shared by both cuts
_BBO_KP_C_COLLINEAR = 1.742 / C_UM_PER_FS


def preset_bbo(phi_degrees: float, sign: str = "co", *,
               length_um: float = 2000.0, d_eff_pm_v: float = 2.0) -> CrystalPreset:
    """Tabulated BBO configuration at phi = 1 or 5 degrees.

    ``sign`` is "co" (phi and rho share a sign) or "counter" (phi flipped
    against rho).
    """
    row = _BBO_TABLE.get(float(phi_degrees))
    if row is None:
        raise ConfigurationError(
            f"no tabulated BBO configuration at phi={phi_degrees} deg; "
            f"available: {sorted(_BBO_TABLE)}")
    if sign not in ("co", "counter"):
        raise ConfigurationError(f"sign must be 'co' or 'counter', got {sign!r}")
    phi = math.radians(float(phi_degrees))
    if sign == "counter":
        phi = -phi
    return CrystalPreset(
        name=f"bbo-phi{phi_degrees:g}-{sign}",
        lambda_s_um=0.800,
        kp_s=1.683 / C_UM_PER_FS,
        kp_c=row["kp_c"],
        rho=row["rho"],
        phi=phi,
        theta_pm=row["theta_pm"],
        length_um=length_um,
        d_eff_pm_v=d_eff_pm_v,
        kp_c_collinear=_BBO_KP_C_COLLINEAR,
    )


# every named preset, once: phi = 1 and 5 deg, each co- and counter-propagating
PRESETS: dict[str, CrystalPreset] = {
    p.name: p for p in (preset_bbo(deg, sign) for deg in sorted(_BBO_TABLE)
                        for sign in ("co", "counter"))}


def preset_by_name(name: str) -> CrystalPreset:
    """The named preset of :data:`PRESETS`, e.g. 'bbo-phi5-counter'."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigurationError(f"unknown preset {name!r}; available: "
                                 f"{', '.join(PRESETS)}") from None


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
    if fwhm_nm <= 0 or lambda_um <= 0:
        raise ValueError("bandwidth and wavelength must be positive")
    d_omega = 2.0 * math.pi * C_UM_PER_FS * (fwhm_nm * 1e-3) / lambda_um**2
    return 2.0 * math.sqrt(math.log(2.0)) / d_omega


def bandwidth_from_tau(tau_fs: float, lambda_um: float) -> float:
    """Inverse of :func:`convert_bandwidth`: tau (fs) -> intensity FWHM (nm)."""
    if tau_fs <= 0 or lambda_um <= 0:
        raise ValueError("duration and wavelength must be positive")
    d_omega = 2.0 * math.sqrt(math.log(2.0)) / tau_fs
    return d_omega * lambda_um**2 / (2.0 * math.pi * C_UM_PER_FS) * 1e3
