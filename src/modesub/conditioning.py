"""Conditioned state of the squeezed comb after a heralded subtraction event.

The signal field is a product of squeezed vacua in Hermite-Gauss spectral
eigenmodes with mean photon numbers N_n per pulse.  Heralding on one
up-converted photon mixes the subtraction channels with weights given by
the squared Schmidt coefficients; the purity and probability of the
conditioned state follow from the overlap matrix between subtraction modes
and comb modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Sequence

import numpy as np

from .analytic import conversion_prefactor_fs
from .dispersion import CrystalPreset
from .kernel import GateSpec, GridConfig, SignalBeamSpec, kernel_gram
from .modes import HermiteGaussSpec, QuadGrid, hermite_gauss_values
from .schmidt import SchmidtResult, decompose


class ConditioningError(ValueError):
    """Conditioning undefined (e.g. all comb modes in vacuum)."""


@dataclass(frozen=True)
class CombState:
    """Multimode squeezed comb: HG eigenmode family plus photon numbers.

    ``photons_comb[n]`` is the mean photon number of comb eigenmode n for
    the comb as a whole; per-pulse numbers divide by the cavity finesse
    (the pulse train holds roughly ``finesse`` correlated pulses).
    """

    tau_s_fs: float
    photons_comb: np.ndarray
    finesse: float = 40.0
    label: str = "comb"

    def __post_init__(self):
        photons = np.asarray(self.photons_comb, dtype=float)
        if photons.ndim != 1 or photons.size == 0:
            raise ValueError("photons_comb must be a non-empty 1-D array")
        if np.any(photons < 0):
            raise ValueError("photon numbers must be non-negative")
        if self.finesse <= 0 or self.tau_s_fs <= 0:
            raise ValueError("finesse and tau_s must be positive")
        object.__setattr__(self, "photons_comb", photons)

    @property
    def photons_pulse(self) -> np.ndarray:
        return self.photons_comb / self.finesse

    @property
    def n_modes(self) -> int:
        return self.photons_comb.size

    def sample_modes(self, grid: QuadGrid) -> np.ndarray:
        """Comb modes on a grid, rows ordered by mode index.

        Continuum normalization on purpose: high orders may spill past the
        grid, which is harmless in overlaps against compactly supported
        subtraction modes and must not be hidden by renormalizing.
        """
        return np.stack([hermite_gauss_values(n, self.tau_s_fs, grid.points)
                         for n in range(self.n_modes)])


def photons_from_squeezing(squeezing_db: float, finesse: float) -> float:
    """Mean photons per pulse from a squeezing level in dB and finesse.

    r = dB * ln(10)/20; the comb mode carries sinh(r)^2 photons, a single
    pulse of the train 1/finesse of that.
    """
    if squeezing_db < 0:
        raise ValueError("squeezing level must be non-negative")
    if finesse <= 0:
        raise ValueError("finesse must be positive")
    r = squeezing_db * math.log(10.0) / 20.0
    return math.sinh(r) ** 2 / finesse


def flat_comb(n_modes: int = 40, squeezing_db: float = 4.2, finesse: float = 40.0,
              tau_s_fs: float = 93.12) -> CombState:
    """Equal occupation of the first ``n_modes`` comb modes.

    Motivated by the near-flat filtered photon distribution of a broadband
    OPO comb; the common level comes from the squeezing of the leading mode.
    """
    n1_comb = photons_from_squeezing(squeezing_db, finesse) * finesse
    return CombState(tau_s_fs=tau_s_fs, photons_comb=np.full(n_modes, n1_comb),
                     finesse=finesse, label=f"flat-{n_modes}")


def comb_from_csv(path, tau_s_fs: float, finesse: float = 40.0) -> CombState:
    """Comb photon distribution from a two-column CSV (index, N_comb)."""
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    order = np.argsort(data[:, 0])
    return CombState(tau_s_fs=tau_s_fs, photons_comb=data[order, 1],
                     finesse=finesse, label="csv")


def overlap_matrix(subtraction_modes: np.ndarray, comb: CombState,
                   grid: QuadGrid) -> np.ndarray:
    """O[m, n] = <subtraction mode m | comb mode n> on the shared grid."""
    modes = np.asarray(subtraction_modes)
    if modes.ndim != 2 or modes.shape[1] != grid.size:
        raise ValueError(f"subtraction modes must be rows on the {grid.size}-point grid, "
                         f"got shape {modes.shape}")
    comb_samples = comb.sample_modes(grid)
    return (modes.conj() * grid.weights) @ comb_samples.T


def purity_from_overlaps(lambdas_sq: np.ndarray, overlap: np.ndarray,
                         photons: np.ndarray) -> float:
    """Conditioned-state purity from Schmidt weights, overlaps and photons.

    Degree-zero homogeneous in both the Schmidt weights and the photon
    numbers, so any consistent normalization works.
    """
    herm = (overlap * photons) @ overlap.conj().T
    denom = float(np.sum(lambdas_sq * np.real(np.diag(herm))))
    if denom <= 0:
        raise ConditioningError("subtraction probability vanishes: no photon-bearing "
                                "comb mode couples to any subtraction mode")
    num = float(np.sum(np.outer(lambdas_sq, lambdas_sq) * np.abs(herm) ** 2))
    return num / denom**2


@dataclass(frozen=True)
class ConditionResult:
    """Herald statistics and conditioned-state figures of one configuration."""

    overlap: np.ndarray
    probability_weight: float      # sum lambda^2(raw) |O|^2 N, 1/fs
    probability: float             # per pulse
    purity: float
    rate_hz: float
    schmidt_number: float
    lambdas_sq: np.ndarray         # normalized spectrum of the decomposition


def conditioned_state(schmidt: SchmidtResult, comb: CombState,
                      preset: CrystalPreset, gate: GateSpec) -> ConditionResult:
    """Evaluate subtraction probability, rate and purity for one decomposition.

    Schmidt sums are truncated once the cumulative normalized weight reaches
    1 - 1e-6; comb sums run over every photon-bearing mode.
    """
    photons = comb.photons_pulse
    if float(photons.sum()) <= 0.0:
        raise ConditioningError("all comb modes are vacuum; conditioning undefined")
    m_keep = schmidt.n_effective()
    lam_raw = schmidt.lambdas_sq_raw[:m_keep]
    modes = schmidt.modes[:m_keep]
    overlap = overlap_matrix(modes, comb, schmidt.omega_s)

    herm = (overlap * photons) @ overlap.conj().T
    weight = float(np.sum(lam_raw * np.real(np.diag(herm))))
    purity = purity_from_overlaps(lam_raw, overlap, photons)
    probability = conversion_prefactor_fs(preset, gate) * weight
    return ConditionResult(overlap=overlap, probability_weight=weight,
                           probability=probability, purity=purity,
                           rate_hz=probability * gate.rep_rate_hz,
                           schmidt_number=schmidt.schmidt_number,
                           lambdas_sq=schmidt.lambdas_sq)


@dataclass(frozen=True)
class ExperimentResult:
    """One gate order of the comb-subtraction experiment, with dump payloads."""

    gate_order: int
    condition: ConditionResult
    subtraction_modes: np.ndarray    # first n_dump modes, rows
    comb_modes: np.ndarray           # same grid, first n_dump comb modes
    omega_s: QuadGrid
    schmidt: SchmidtResult


def comb_subtraction_experiment(preset: CrystalPreset, gate: GateSpec,
                                signal: SignalBeamSpec, comb: CombState,
                                gate_orders: Sequence[int] = (0, 1, 2),
                                config: GridConfig | None = None,
                                n_dump_modes: int = 6) -> list[ExperimentResult]:
    """Match the gate to successive comb modes and condition on a herald.

    For each requested order the gate spectral profile is set to that comb
    eigenmode shape (same order, gate's own time scale), the kernel is
    rebuilt and decomposed, and the conditioned state evaluated against the
    full comb.
    """
    config = config or GridConfig()
    results = []
    for order in gate_orders:
        spectral = HermiteGaussSpec(order=order, scale=gate.tau_g)
        gate_o = dc_replace(gate, spectral=spectral)
        schmidt = decompose(kernel_gram(preset, gate_o, signal, config))
        condition = conditioned_state(schmidt, comb, preset, gate_o)
        n_dump = min(n_dump_modes, schmidt.modes.shape[0])
        results.append(ExperimentResult(
            gate_order=order,
            condition=condition,
            subtraction_modes=schmidt.modes[:n_dump],
            comb_modes=comb.sample_modes(schmidt.omega_s)[:n_dump_modes],
            omega_s=schmidt.omega_s,
            schmidt=schmidt,
        ))
    return results
