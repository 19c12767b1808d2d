"""Reduced transfer function of non-collinear sum-frequency generation.

The kernel L(Omega_c, q_c, Omega_s) is the product of the gate spectral
amplitude evaluated at Omega_c - Omega_s, the signal transverse profile
evaluated at the momentum consumed from the signal beam, and the
phase-matching factor sinc(delta_k * l / 2).  The gate transverse profile is
a plane wave (valid for a gate beam much wider than the signal), which is
what reduces the problem to these three variables.  Every factor is real,
so the kernel is real.

One sampler evaluates the kernel in Omega_c slabs.  :func:`kernel_gram`
folds the slabs straight into the real symmetric signal-side Gram matrix
and never forms the 3-D array; that is the solve path.  :func:`build_kernel`
stacks the same slabs into the dense array, for the CSV dump and as the
oracle the tests hold the streamed route to.

The kernel is point-symmetric: L(-Omega_c, -q_c, -Omega_s) =
(-1)^order L(Omega_c, q_c, Omega_s).  Each factor's argument is a linear
form with no constant term, the gate is carrier-centred (:class:`GateSpec`
rejects a non-zero centre) and the HG mode has parity (-1)^order, and the
:func:`~modesub.modes.uniform_grid` axes are antisymmetric to the last bit,
so the identity holds bit for bit on the sampled array.  The Gram matrix
and the mass marginals only see products of two samples, so the sign drops
out: :func:`kernel_gram` samples the Omega_c rows [0, ceil(n_c/2)) and
completes its sums by reflection, the centre row of an odd axis, which
mirrors onto itself, entering at half weight.

Amplitudes are unnormalized: the gate spectrum and signal profile carry unit
L2 norm, the sinc is dimensionless, so ||L||^2 has units rad/fs and feeds the
absolute probability scale of the conditioning stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .dispersion import CrystalPreset, kernel_forms
from .modes import (SPAN_SIGMAS, HermiteGaussSpec, QuadGrid, default_half_span,
                    hermite_gauss_values, uniform_grid)

# sinc(x) ~ exp(-GAMMA_SINC x^2) matches the full width at half maximum
GAMMA_SINC = 0.193
# largest share of the kernel mass a boundary cell may hold
BOUNDARY_TOL = 1e-3
# fewest grid points across the phase-matching main lobe on a coupled axis
MIN_LOBE_POINTS = 8.0
# kernel samples per Omega_c slab; bounds the working set of both consumers
SLAB_SAMPLES = 1 << 14

PhaseMatching = Literal["sinc", "gaussian"]


class KernelResolutionError(ValueError):
    """Grid too coarse to resolve the phase-matching main lobe."""


class KernelSpanError(ValueError):
    """Grid box cuts off a non-negligible fraction of the kernel."""


@dataclass(frozen=True)
class GateSpec:
    """Gate pulse: HG spectral profile, transverse waist, pulse energy."""

    spectral: HermiteGaussSpec                  # tau_g in fs
    waist_g_um: float = 1000.0
    energy_j: float = 10e-9
    rep_rate_hz: float = 80e6

    def __post_init__(self):
        if self.waist_g_um <= 0 or self.energy_j < 0 or self.rep_rate_hz <= 0:
            raise ValueError("gate waist, energy and repetition rate must be positive")
        if self.spectral.center != 0.0:
            # the kernel's point symmetry, which kernel_gram folds, needs it
            raise ValueError(f"gate spectrum must be carrier-centred, got center "
                             f"{self.spectral.center}")

    @property
    def tau_g(self) -> float:
        return self.spectral.scale

    @property
    def order(self) -> int:
        return self.spectral.order


@dataclass(frozen=True)
class SignalBeamSpec:
    """Signal beam: transverse Gaussian width and comb-mode time scale."""

    waist_s_um: float
    spectral_tau_fs: float

    def __post_init__(self):
        if self.waist_s_um <= 0 or self.spectral_tau_fs <= 0:
            raise ValueError("signal waist and spectral tau must be positive")


@dataclass(frozen=True)
class GridConfig:
    """Axis sizes, span scaling, optional explicit half-spans, sinc treatment.

    Derived half-spans (:func:`derive_grids`) are scaled by ``span_scale``;
    the ``span_*`` fields replace them per axis.
    """

    n_omega_c: int = 128
    n_q: int = 128
    n_omega_s: int = 128
    span_scale: float = 1.0
    span_omega_c: float | None = None   # half-span overrides, internal units
    span_q: float | None = None
    span_omega_s: float | None = None
    phase_matching: PhaseMatching = "sinc"

    def __post_init__(self):
        if min(self.n_omega_c, self.n_q, self.n_omega_s) < 8:
            raise ValueError("each axis needs at least 8 points")
        if self.span_scale <= 0:
            raise ValueError("span_scale must be positive")
        if self.phase_matching not in ("sinc", "gaussian"):
            raise ValueError(f"phase_matching must be 'sinc' or 'gaussian'")


@dataclass(frozen=True)
class KernelGrid:
    """Sampled transfer function with its quadrature axes."""

    values: np.ndarray            # real float64 [n_omega_c, n_q, n_omega_s]
    omega_c: QuadGrid
    q_c: QuadGrid
    omega_s: QuadGrid
    norm_sq: float
    phase_matching: PhaseMatching = "sinc"
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class KernelGram:
    """Signal-side Gram matrix of a kernel, with its signal axis.

    ``gram[i, j]`` integrates L(., ., Omega_s_i) L(., ., Omega_s_j) over the
    converted variables; the signal-axis weights are not folded in.
    """

    gram: np.ndarray              # real symmetric [n_omega_s, n_omega_s]
    omega_s: QuadGrid
    norm_sq: float
    diagnostics: dict = field(default_factory=dict)


def sinc(x) -> np.ndarray:
    """sin(x)/x with sinc(0) = 1; series fallback below |x| = 1e-4."""
    x = np.asarray(x, dtype=float)
    out = np.sin(x, out=np.empty_like(x))
    with np.errstate(invalid="ignore"):   # 0/0 at x = 0 is replaced below
        np.divide(out, x, out=out)
    small = np.abs(x) < 1e-4
    x2 = np.square(x[small])
    out[small] = 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0)
    return out


def phase_match_factor(arg, kind: PhaseMatching) -> np.ndarray:
    if kind == "gaussian":
        return np.exp(-GAMMA_SINC * np.square(arg))
    return sinc(arg)


def derive_grids(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
                 config: GridConfig) -> tuple[QuadGrid, QuadGrid, QuadGrid]:
    """Default quadrature axes for a kernel build.

    Omega spans come from the gate and comb time scales and from the
    phase-matching bandwidth 2 pi / (k'_c - k'_s) l (widest wins); the
    momentum span from the signal waist.  For the Gaussian surrogate the
    phase-matching contribution is its 5-sigma width instead of the sinc
    main lobe, since the surrogate has no side lobes to truncate but a wider
    central peak.
    """
    l = preset.length_um
    d_group = preset.kp_c - preset.kp_s
    if config.phase_matching == "gaussian":
        pm_halfwidth = SPAN_SIGMAS / (np.sqrt(2.0 * GAMMA_SINC) * d_group * l / 2.0)
    else:
        pm_halfwidth = 2.0 * np.pi / (d_group * l)
    span_omega = max(default_half_span(gate.tau_g, gate.order),
                     default_half_span(signal.spectral_tau_fs),
                     pm_halfwidth) * config.span_scale
    span_q = default_half_span(signal.waist_s_um) * config.span_scale

    s_wc = config.span_omega_c if config.span_omega_c is not None else span_omega
    s_q = config.span_q if config.span_q is not None else span_q
    s_ws = config.span_omega_s if config.span_omega_s is not None else span_omega
    return (uniform_grid(s_wc, config.n_omega_c, label="omega_c"),
            uniform_grid(s_q, config.n_q, label="q_c"),
            uniform_grid(s_ws, config.n_omega_s, label="omega_s"))


def _evaluate_form(coeffs, axes):
    """c0 Omega_c + c1 q_c + c2 Omega_s, broadcast over only the axes it uses."""
    return sum(c * x for c, x in zip(coeffs, axes) if c != 0.0)


def _sample(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
            config: GridConfig, check: bool, *, folded: bool = False):
    """The kernel's quadrature axes and a generator of its Omega_c slabs.

    The main-lobe resolution check runs on the axes before any sample is
    taken.  Each slab is a real float64 [rows, n_q, n_s] block holding about
    :data:`SLAB_SAMPLES` samples, rows running over consecutive Omega_c
    points; with ``folded`` the slabs stop at row ceil(n_c/2).
    """
    g_wc, g_q, g_ws = derive_grids(preset, gate, signal, config)

    gate_form, beam_form, match_form = kernel_forms(preset.kp_s, preset.kp_c,
                                                    preset.phi, preset.rho)
    half_l = preset.length_um / 2.0
    pm_form = tuple(c * half_l for c in match_form)

    if check:
        for grid, c in zip((g_wc, g_q, g_ws), pm_form):
            if c == 0.0:
                continue
            dx = grid.points[1] - grid.points[0]
            lobe_points = (2.0 * np.pi / abs(c)) / dx
            if lobe_points < MIN_LOBE_POINTS:
                raise KernelResolutionError(
                    f"{grid.label}: {lobe_points:.1f} points across the "
                    f"phase-matching main lobe, need >= {MIN_LOBE_POINTS}")

    w_s = signal.waist_s_um
    us_norm = np.sqrt(w_s) / np.pi**0.25
    qc = g_q.points[None, :, None]
    ws = g_ws.points[None, None, :]
    rows = _slab_rows(g_q.size, g_ws.size)
    stop = _folded_rows(g_wc.size) if folded else g_wc.size

    def slab(start: int) -> np.ndarray:
        # multiplied in place, so a slab costs few slab-sized temporaries
        axes = (g_wc.points[start:min(start + rows, stop), None, None], qc, ws)
        values = (hermite_gauss_values(gate.order, gate.tau_g,
                                       _evaluate_form(gate_form, axes))
                  * (us_norm * np.exp(-0.5 * (w_s * _evaluate_form(beam_form, axes)) ** 2)))
        values *= phase_match_factor(_evaluate_form(pm_form, axes),
                                     config.phase_matching)
        return values

    return (g_wc, g_q, g_ws), (slab(start) for start in range(0, stop, rows))


def _slab_rows(n_q: int, n_s: int) -> int:
    """Omega_c points per slab."""
    return max(1, SLAB_SAMPLES // (n_q * n_s))


def _folded_rows(n_c: int) -> int:
    """Omega_c rows a folded sum samples: ceil(n_c / 2)."""
    return (n_c + 1) // 2


def accumulate_gram(slabs, grids: tuple[QuadGrid, QuadGrid, QuadGrid], *,
                    with_gram: bool = True, folded: bool = False):
    """Fold sqrt(w_c w_q) into each Omega_c slab and sum over the slabs.

    Returns the real symmetric Gram sum a^T a over the weighted slabs (None
    without ``with_gram``), and the quadrature mass |L|^2 w_c w_q w_s
    marginalized onto (Omega_c, q_c) and onto Omega_s.

    With ``folded`` the slabs hold only the Omega_c rows [0, ceil(n_c/2)) of
    a point-symmetric kernel on symmetric weights.  The centre row of an odd
    axis is weighted by w_c / 2 (exact in binary), and each sum S over the
    half is completed as S + S reversed along every axis.
    """
    g_wc, g_q, g_ws = grids
    n_s = g_ws.size
    w_c = g_wc.weights
    if folded:
        w_c = w_c[:_folded_rows(g_wc.size)].copy()
        if g_wc.size % 2:
            w_c[-1] /= 2.0   # the self-mirrored centre row
    sqrt_w = np.sqrt(np.outer(w_c, g_q.weights))
    gram = np.zeros((n_s, n_s)) if with_gram else None
    converted_mass = np.zeros((g_wc.size, g_q.size))   # unsampled rows stay 0
    signal_mass = np.zeros(n_s)
    start = 0
    for slab in slabs:
        stop = start + slab.shape[0]
        a = (slab * sqrt_w[start:stop, :, None]).reshape(-1, n_s)
        if with_gram:
            gram += a.T @ a   # symmetric rank-k update (BLAS syrk)
        a *= a
        converted_mass[start:stop] = (a @ g_ws.weights).reshape(-1, g_q.size)
        signal_mass += a.sum(axis=0)
        start = stop
    if folded:
        if with_gram:
            gram = gram + gram[::-1, ::-1]
        converted_mass = converted_mass + converted_mass[::-1, ::-1]
        signal_mass = signal_mass + signal_mass[::-1]
    return gram, converted_mass, signal_mass * g_ws.weights


def _checked_mass(converted_mass: np.ndarray, signal_mass: np.ndarray,
                  check: bool) -> tuple[float, list[float]]:
    """Kernel norm^2 and the mass fraction in each axis's boundary cells.

    Raises :class:`KernelSpanError` when the norm vanished or overflowed,
    and, with ``check``, when a boundary fraction exceeds
    :data:`BOUNDARY_TOL`.
    """
    norm_sq = float(converted_mass.sum())
    if norm_sq <= 0 or not np.isfinite(norm_sq):
        raise KernelSpanError("kernel norm vanished or overflowed; check spans")
    fractions = [float((m[0] + m[-1]) / norm_sq)
                 for m in (converted_mass.sum(axis=1), converted_mass.sum(axis=0),
                           signal_mass)]
    if check and max(fractions) > BOUNDARY_TOL:
        raise KernelSpanError(
            f"boundary cells hold {max(fractions):.2e} of the kernel mass "
            f"(limit {BOUNDARY_TOL:.1e}); widen the grid spans")
    return norm_sq, fractions


def kernel_gram(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
                config: GridConfig | None = None) -> KernelGram:
    """Signal-side Gram operator of the kernel, streamed slab by slab.

    Same checks and errors as :func:`build_kernel`; memory stays at
    O(n_s^2 + slab) since the 3-D kernel array is never formed.  By the
    kernel's point symmetry (module docstring) only the Omega_c rows
    [0, ceil(n_c/2)) are sampled, the centre row of an odd axis at half
    weight; the Gram matrix G_h and the mass marginals over them are
    completed by reflection, G = G_h + G_h[::-1, ::-1], before the norm and
    boundary checks run on the full marginals.
    """
    config = config or GridConfig()
    grids, slabs = _sample(preset, gate, signal, config, check=True, folded=True)
    gram, converted_mass, signal_mass = accumulate_gram(slabs, grids, folded=True)
    norm_sq, fractions = _checked_mass(converted_mass, signal_mass, check=True)
    return KernelGram(gram=gram, omega_s=grids[2], norm_sq=norm_sq,
                      diagnostics={"boundary_fractions": fractions})


def build_kernel(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
                 config: GridConfig | None = None, *, check: bool = True) -> KernelGrid:
    """Sample the reduced transfer function on a 3-D quadrature grid.

    Raises :class:`KernelResolutionError` when fewer than
    :data:`MIN_LOBE_POINTS` grid points fall across the phase-matching main
    lobe along any coupled axis, and :class:`KernelSpanError` when more than
    :data:`BOUNDARY_TOL` of the kernel mass sits in a boundary cell.
    """
    config = config or GridConfig()
    grids, slabs = _sample(preset, gate, signal, config, check)
    g_wc, g_q, g_ws = grids
    values = np.empty((g_wc.size, g_q.size, g_ws.size))
    for dest, slab in zip(kernel_slabs(values), slabs):
        dest[...] = slab
    _, converted_mass, signal_mass = accumulate_gram(
        kernel_slabs(values), grids, with_gram=False)
    norm_sq, fractions = _checked_mass(converted_mass, signal_mass, check)
    return KernelGrid(values=values, omega_c=g_wc, q_c=g_q, omega_s=g_ws,
                      norm_sq=norm_sq, phase_matching=config.phase_matching,
                      diagnostics={"boundary_fractions": fractions})


def kernel_slabs(values: np.ndarray, *, folded: bool = False):
    """A dense kernel's Omega_c slabs, as :func:`kernel_gram` samples them.

    With ``folded`` the slabs stop at row ceil(n_c/2).
    """
    rows = _slab_rows(*values.shape[1:])
    if folded:
        values = values[:_folded_rows(values.shape[0])]
    return (values[start:start + rows] for start in range(0, values.shape[0], rows))
