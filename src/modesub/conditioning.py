"""Conditioned state of the squeezed comb after a heralded subtraction event.

The signal field is a product of squeezed vacua in Hermite-Gauss spectral
eigenmodes with mean photon numbers N_n per pulse.  Heralding on one
up-converted photon mixes the subtraction channels with weights given by
the squared Schmidt coefficients; the purity and probability of the
conditioned state follow from the overlap matrix between subtraction modes
and comb modes, which :func:`overlap_matrix` alone computes.

Both sum over every mode :func:`~modesub.schmidt.decompose` keeps, so its
:data:`~modesub.schmidt.NOISE_FLOOR` is the one cut of the spectrum.  They
are traces of the Gram operator G times the comb operator
A = sum_n N_n |HG_n><HG_n|: the weight tr(G A) and the purity
tr((G A)^2) / tr(G A)^2, evaluated in the comb basis
(:func:`_weight_and_purity`), where no truncation rule enters.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace as dc_replace
from typing import Sequence

import numpy as np

from .analytic import conversion_prefactor_fs
from .dispersion import CrystalPreset
from .kernel import GateSpec, GridConfig, SignalBeamSpec, kernel_gram
from .modes import QuadGrid, hermite_gauss_table
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

    def __post_init__(self):
        photons = np.asarray(self.photons_comb, dtype=float)
        if photons.ndim != 1 or photons.size == 0:
            raise ValueError("photons_comb must be a non-empty 1-D array")
        if not np.all((photons >= 0) & (photons < np.inf)):
            raise ValueError("photon numbers must be non-negative and finite")
        if not (0 < self.finesse < math.inf and 0 < self.tau_s_fs < math.inf):
            raise ValueError("finesse and tau_s must be positive and finite")
        object.__setattr__(self, "photons_comb", photons)

    @property
    def photons_pulse(self) -> np.ndarray:
        return self.photons_comb / self.finesse

    @property
    def n_modes(self) -> int:
        return self.photons_comb.size

    def sample_modes(self, grid: QuadGrid) -> np.ndarray:
        """Comb modes on a grid, rows ordered by mode index.

        Continuum normalization on purpose: renormalizing would hide the
        part of a high order that spills past the grid, which shows as a
        row's grid norm sum_i w_i row_i^2 under 1.  That spill is not
        harmless: the subtraction modes carry sinc tails out to the box
        edge, and with the default spans the top modes of the 40-mode comb
        turn beyond it.  Against a box three times wider, that biases the
        conditioned purity by 3.4% at the default point and by 6.9% at
        l = 1 mm.
        """
        return hermite_gauss_table(self.n_modes, self.tau_s_fs, grid.points)


def photons_from_squeezing(squeezing_db: float, finesse: float) -> float:
    """Mean photons per pulse from a squeezing level in dB and finesse.

    r = dB * ln(10)/20; the comb mode carries sinh(r)^2 photons, a single
    pulse of the train 1/finesse of that.
    """
    if not 0 <= squeezing_db < math.inf:
        raise ValueError("squeezing level must be non-negative and finite")
    if not 0 < finesse < math.inf:
        raise ValueError("finesse must be positive and finite")
    r = squeezing_db * math.log(10.0) / 20.0
    try:
        return math.sinh(r) ** 2 / finesse
    except OverflowError:
        raise ValueError(f"{squeezing_db!r} dB overflows the photon number") from None


def flat_comb(n_modes: int = 40, squeezing_db: float = 4.2, finesse: float = 40.0,
              tau_s_fs: float = 93.12) -> CombState:
    """Equal occupation of the first ``n_modes`` comb modes.

    Motivated by the near-flat filtered photon distribution of a broadband
    OPO comb; the common level comes from the squeezing of the leading mode.
    """
    n1_comb = photons_from_squeezing(squeezing_db, finesse) * finesse
    return CombState(tau_s_fs=tau_s_fs, photons_comb=np.full(n_modes, n1_comb),
                     finesse=finesse)


def comb_from_csv(path, tau_s_fs: float, finesse: float = 40.0) -> CombState:
    """Comb photon distribution from a two-column CSV (index, N_comb).

    Rows may come in any order, but each index of 0..N-1 must appear once: a
    gap or a repeat would put photons on the wrong comb mode.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty file fails the check below
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    index = data[:, 0]
    if (data.shape[1] != 2 or not np.all(np.isfinite(data)) or np.any(data[:, 1] < 0)
            or not np.array_equal(np.sort(index), np.arange(index.size))):
        raise ValueError(f"{path}: expected rows 'index,N_comb' of finite numbers, "
                         "N_comb >= 0 and each index of 0..N-1 once")
    return CombState(tau_s_fs=tau_s_fs, photons_comb=data[np.argsort(index), 1],
                     finesse=finesse)


def overlap_matrix(subtraction_modes: np.ndarray, comb: CombState,
                   grid: QuadGrid) -> np.ndarray:
    """O[m, n] = <subtraction mode m | comb mode n> on the shared grid."""
    modes = np.asarray(subtraction_modes)
    if modes.ndim != 2 or modes.shape[1] != grid.size:
        raise ValueError(f"subtraction modes must be rows on the {grid.size}-point grid, "
                         f"got shape {modes.shape}")
    return (modes * grid.weights) @ comb.sample_modes(grid).T


def _weight_and_purity(lambdas_raw: np.ndarray, overlap: np.ndarray,
                       photons: np.ndarray) -> tuple[float, float]:
    """The weight tr(G A) and the purity tr((G A)^2) / tr(G A)^2 in the comb basis.

    G_hat = O^T diag(lambda_raw) O is the Gram operator on the comb modes,
    n_comb x n_comb; with N_n the photon numbers, weight = sum_n N_n
    G_hat[n, n] and purity = sum_nn' N_n N_n' G_hat[n, n']^2 / weight^2.
    The modes and overlaps are real, so G_hat is real symmetric.  The purity
    is degree-zero homogeneous in both the Schmidt weights and the photon
    numbers, so any consistent normalization works.
    """
    gram_comb = (overlap.T * lambdas_raw) @ overlap
    weight = float(photons @ np.diag(gram_comb))
    if weight <= 0:
        raise ConditioningError("subtraction probability vanishes: no photon-bearing "
                                "comb mode couples to any subtraction mode")
    return weight, float(photons @ np.square(gram_comb) @ photons) / weight**2


@dataclass(frozen=True)
class ConditionResult:
    """Herald statistics and conditioned-state figures of one configuration."""

    overlap: np.ndarray
    probability: float             # per pulse
    purity: float
    rate_hz: float
    schmidt_number: float
    lambdas_sq: np.ndarray         # normalized spectrum of the decomposition


def conditioned_state(schmidt: SchmidtResult, comb: CombState,
                      preset: CrystalPreset, gate: GateSpec) -> ConditionResult:
    """Evaluate subtraction probability, rate and purity for one decomposition.

    The sums run over every subtraction mode the decomposition kept and
    every comb mode, with no truncation of their own: the traces of
    :func:`_weight_and_purity` on the overlaps of :func:`overlap_matrix`.
    The result's ``overlap`` holds a row for every kept mode.
    """
    photons = comb.photons_pulse
    if float(photons.sum()) <= 0.0:
        raise ConditioningError("all comb modes are vacuum; conditioning undefined")
    overlap = overlap_matrix(schmidt.modes, comb, schmidt.omega_s)

    weight, purity = _weight_and_purity(schmidt.lambdas_sq_raw, overlap, photons)
    probability = conversion_prefactor_fs(preset, gate) * weight
    return ConditionResult(overlap=overlap, probability=probability, purity=purity,
                           rate_hz=probability * gate.rep_rate_hz,
                           schmidt_number=schmidt.schmidt_number,
                           lambdas_sq=schmidt.lambdas_sq)


@dataclass(frozen=True)
class ExperimentResult:
    """One gate order of the comb-subtraction experiment."""

    gate_order: int
    condition: ConditionResult
    grid: dict                       # the kernel's resolved axis sizes and margins


def comb_subtraction_experiment(preset: CrystalPreset, gate: GateSpec,
                                signal: SignalBeamSpec, comb: CombState,
                                gate_orders: Sequence[int] = (0, 1, 2),
                                config: GridConfig | None = None) -> list[ExperimentResult]:
    """Match the gate to successive comb modes and condition on a herald.

    For each requested order the gate spectral profile is set to that comb
    eigenmode shape (same order, gate's own time scale), the kernel is
    rebuilt and decomposed, and the conditioned state evaluated against the
    full comb; only that state's figures and the kernel's grid diagnostics are kept.
    """
    config = config or GridConfig()
    results = []
    for order in gate_orders:
        gate_o = dc_replace(gate, order=order)
        gram = kernel_gram(preset, gate_o, signal, config)
        schmidt = decompose(gram)
        results.append(ExperimentResult(
            gate_order=order,
            condition=conditioned_state(schmidt, comb, preset, gate_o),
            grid=gram.diagnostics,
        ))
    return results
