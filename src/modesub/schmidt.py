"""Schmidt decomposition of the transfer kernel via its signal-side Gram operator.

The Gram function G(Omega_s, Omega_s') integrates L L over the converted
variables; the kernel is real, so G is real symmetric and the subtraction
modes are real.  Its eigenvalues are the squared Schmidt coefficients and
its eigenfunctions the subtraction modes; the decomposition is carried out
on the symmetrically weighted matrix so the spectrum matches the continuum
operator.  The solve path streams G from the kernel sampler
(:func:`~modesub.kernel.kernel_gram`), folded over the kernel's point
symmetry; :func:`gram_matrix` runs the same accumulation over a dense
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Sequence

import numpy as np

from .dispersion import ConfigurationError, CrystalPreset
from .kernel import (GateSpec, GridConfig, KernelGram, KernelGrid,
                     KernelResolutionError, KernelSpanError, SignalBeamSpec,
                     accumulate_gram, kernel_gram, kernel_slabs)
from .modes import HermiteGaussSpec, QuadGrid

# eigenvalues below this fraction of the leading one are numerical noise
NOISE_FLOOR = 1e-12
# relative gap under which neighboring eigenvalues count as degenerate
DEGENERACY_GAP = 1e-9


class DecompositionError(RuntimeError):
    """Eigensolver failure, with conditioning diagnostics in the message."""


@dataclass(frozen=True)
class SchmidtResult:
    """Spectrum and subtraction modes of one kernel decomposition.

    ``lambdas_sq`` is normalized to unit sum; the physical (raw) squared
    coefficients are ``lambdas_sq * norm_sq``.  Modes are rows, sampled on
    ``omega_s`` and orthonormal under its quadrature weights.
    """

    lambdas_sq: np.ndarray
    modes: np.ndarray
    schmidt_number: float
    norm_sq: float
    omega_s: QuadGrid
    degenerate: np.ndarray

    @property
    def lambdas_sq_raw(self) -> np.ndarray:
        return self.lambdas_sq * self.norm_sq

    def n_effective(self, cumulative: float = 1.0 - 1e-6) -> int:
        """Number of leading modes holding the given cumulative weight."""
        filled = np.cumsum(self.lambdas_sq)
        return int(np.searchsorted(filled, cumulative) + 1)


def _point_symmetric(kernel: KernelGrid) -> bool:
    """Whether ``values == +-values[::-1, ::-1, ::-1]`` bit for bit.

    The Omega_c and q_c weights must be palindromes too.  True of every
    :func:`~modesub.kernel.build_kernel` array.
    """
    values = kernel.values
    flipped = values[::-1, ::-1, ::-1]
    return (all(np.array_equal(w, w[::-1])
                for w in (kernel.omega_c.weights, kernel.q_c.weights))
            and (np.array_equal(values, flipped) or np.array_equal(values, -flipped)))


def gram_matrix(kernel: KernelGrid) -> np.ndarray:
    """Real symmetric positive-semidefinite G(Omega_s_i, Omega_s_j).

    Converted-variable quadrature weights are folded in; the signal-axis
    weights are not (they enter symmetrically at decomposition time).
    Accumulated over the slabs :func:`~modesub.kernel.kernel_gram` streams,
    so both routes give the same matrix bit for bit.  A kernel that is
    exactly point-symmetric, L(-Omega_c, -q_c, -Omega_s) = +-L(Omega_c, q_c,
    Omega_s) on palindromic weights, gets the same fold as the streamed
    route: the Omega_c rows [0, ceil(n_c/2)) only, the centre row of an odd
    axis at half weight, completed by reflection.  Any other kernel gets
    the plain sum over every row.
    """
    grids = (kernel.omega_c, kernel.q_c, kernel.omega_s)
    folded = _point_symmetric(kernel)
    return accumulate_gram(kernel_slabs(kernel.values, folded=folded), grids,
                           folded=folded)[0]


def _fix_sign(modes: np.ndarray) -> np.ndarray:
    """Flip each mode so its largest-|.| component is positive."""
    pivots = modes[np.arange(modes.shape[0]), np.argmax(np.abs(modes), axis=1)]
    return np.where(pivots < 0, -1.0, 1.0)[:, None] * modes


def decompose(kernel: KernelGrid | KernelGram) -> SchmidtResult:
    """Eigendecomposition of the weighted Gram matrix.

    Takes a dense kernel or the streamed Gram of
    :func:`~modesub.kernel.kernel_gram`.  Weighting is symmetric,
    W^(1/2) G W^(1/2) with W the signal-axis quadrature weights;
    eigenvectors are de-weighted back to function samples.  Eigenvalues are
    clipped at zero, sorted descending, and entries below the noise floor
    are dropped from the returned spectrum.
    """
    gram = kernel.gram if isinstance(kernel, KernelGram) else gram_matrix(kernel)
    sqrt_w = np.sqrt(kernel.omega_s.weights)
    weighted = sqrt_w[:, None] * gram * sqrt_w[None, :]
    try:
        evals, evecs = np.linalg.eigh(weighted)
    except np.linalg.LinAlgError as exc:
        scale = float(np.abs(weighted).max())
        raise DecompositionError(
            f"eigensolver failed on a {weighted.shape[0]}x{weighted.shape[0]} "
            f"Gram matrix (max |entry| {scale:.3e})") from exc

    evals = np.clip(evals[::-1], 0.0, None)
    evecs = evecs[:, ::-1]
    keep = evals > NOISE_FLOOR * (evals[0] if evals[0] > 0 else 1.0)
    keep[0] = True
    evals_kept = evals[keep]
    modes = _fix_sign((evecs[:, keep] / sqrt_w[:, None]).T)

    total = float(evals.sum())
    lambdas = evals_kept / total
    schmidt_number = 1.0 / float(np.sum(lambdas**2))

    gaps = np.abs(np.diff(evals_kept))
    scale = np.maximum(evals_kept[:-1], evals_kept[0] * NOISE_FLOOR)
    deg = np.zeros(evals_kept.size, dtype=bool)
    close = gaps < DEGENERACY_GAP * scale
    deg[:-1] |= close
    deg[1:] |= close

    return SchmidtResult(lambdas_sq=lambdas, modes=modes,
                         schmidt_number=schmidt_number,
                         norm_sq=float(total), omega_s=kernel.omega_s,
                         degenerate=deg)


@dataclass(frozen=True)
class ScanPoint:
    """One operating point of a Schmidt-number scan."""

    length_um: float
    waist_um: float
    phi_rad: float
    gate_order: int = 0


@dataclass(frozen=True)
class ScanRow:
    point: ScanPoint
    schmidt_number: float | None
    lambda1_frac: float | None
    status: str = "ok"


def _scan_one(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
              config: GridConfig, point: ScanPoint) -> ScanRow:
    try:
        pset = dc_replace(preset, length_um=point.length_um, phi=point.phi_rad)
        gspec = HermiteGaussSpec(order=point.gate_order, scale=gate.tau_g)
        g = dc_replace(gate, spectral=gspec)
        s = dc_replace(signal, waist_s_um=point.waist_um)
        result = decompose(kernel_gram(pset, g, s, config))
        return ScanRow(point, result.schmidt_number, float(result.lambdas_sq[0]))
    except (KernelResolutionError, KernelSpanError, DecompositionError,
            ConfigurationError) as exc:  # recorded per point, scan continues
        return ScanRow(point, None, None, status=f"error: {exc}")


def schmidt_number_scan(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
                        points: Sequence[ScanPoint],
                        config: GridConfig | None = None) -> list[ScanRow]:
    """Decompose the kernel at each point, in input order.

    A point whose grid cannot hold its kernel, whose eigensolve fails or
    whose crystal is invalid is recorded in-row; any other exception is a
    bug and propagates.
    """
    config = config or GridConfig()
    return [_scan_one(preset, gate, signal, config, p) for p in points]
