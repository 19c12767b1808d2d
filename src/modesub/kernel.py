"""Reduced transfer function of non-collinear sum-frequency generation.

The kernel L(Omega_c, q_c, Omega_s) is the product of the gate spectral
amplitude evaluated at Omega_c - Omega_s, the signal transverse profile
evaluated at the momentum consumed from the signal beam, and the
phase-matching factor sinc(delta_k * l / 2).  The gate transverse profile is
a plane wave (valid for a gate beam much wider than the signal), which is
what reduces the problem to these three variables.  Every factor is real,
so the kernel is real.

One sampler writes the kernel's Omega_c rows.  :func:`kernel_gram` has it
write a few rows at a time into a reused block and folds each block straight
into the real symmetric signal-side Gram matrix, never forming the 3-D
array; that is the solve path.  :func:`build_kernel` has it write every row
into the dense array, for the CSV dump and as a plain reference: its mass
marginals, and :func:`~modesub.schmidt.gram_matrix` over it, are unfolded
sums over every row, which the tests hold the streamed route to.

The kernel is point-symmetric: L(-Omega_c, -q_c, -Omega_s) =
(-1)^order L(Omega_c, q_c, Omega_s).  Each factor's argument is a linear
form with no constant term, the gate is carrier-centred (a
:class:`~modesub.modes.HermiteGaussSpec` has no centre) and the HG mode has
parity (-1)^order, and the :func:`~modesub.modes.uniform_grid` axes are
antisymmetric to the last bit, so the identity holds bit for bit on the
sampled array.  The Gram matrix and the mass marginals only see products of
two samples, so the sign drops out: :func:`kernel_gram`, and only it,
samples the Omega_c rows [0, ceil(n_c/2)) and completes its sums by
reflection, the centre row of an odd axis, which mirrors onto itself,
entering at half weight.

Each factor's argument is linear in (Omega_c, q_c, Omega_s)
(:func:`~modesub.dispersion.kernel_forms`), so it splits into a 2-D
(Omega_c, Omega_s) part and a 1-D q_c part, and the sampler runs its
transcendentals on the parts, not on the 3-D grid.  The gate argument has no
q_c part.  The phase-matching argument delta_k l/2 = u + v gives the sinc
numerator by angle addition, sin(u + v) = sin u cos v + cos u sin v, so only
the 2-D u and the 1-D v go through sin and cos; the identity is exact, and
the computed numerator differs from sin of the rounded sum by a few units
in the last place.  The divide by x amplifies that absolute error near
x = 0, so :func:`sinc`'s series takes over below |x| = 1e-2, where it is
accurate to rounding; the divide and the series are written once, in
:func:`_sine_over`.  The beam Gaussian is exp(-(beta + gamma)^2) with beta
and gamma the 2-D and 1-D parts of the momentum, pre-scaled by w_s/sqrt(2):
one 3-D add, square, negate and exp.  Its exponent is never positive, so it
cannot overflow, unlike the factored exp(-beta gamma) exp(-beta^2/2)
exp(-gamma^2/2), whose middle factor overflows for a wide signal beam
(w_s ~ 2 mm at phi = 5 deg).  u, v, beta and gamma are each a sum of
products of a coefficient with one axis, so they are odd to the last bit,
and the point symmetry above survives the split.

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
# fewest points on any axis
MIN_AXIS_POINTS = 8
# largest relative size of the aliases the trapezoid rule adds on a derived
# q_c axis (:func:`q_axis_size`)
Q_ALIAS_TOL = 1e-12
# largest beam-centre drift over the Omega box, as a share of the q_c
# half-span; a derived q_c span widens to keep it (:func:`_axes`), which
# leaves at least 5 (1 - MAX_Q_DRIFT) = 1.5 beam widths 1/w_s of margin
MAX_Q_DRIFT = 0.7
# kernel samples per slab of the sampler's 3-D arithmetic; bounds its temporaries
SLAB_SAMPLES = 1 << 14
# kernel samples per block of the Gram accumulation, each one BLAS syrk call
BLOCK_SAMPLES = 1 << 16
# sinc uses its series below this |x|: the truncation error x^6/5040 and the
# angle-addition quotient's 2e-16/|x| both stay under 3e-14 relative
SINC_SERIES_BELOW = 1e-2

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
    the ``span_*`` fields replace them per axis.  A derived q_c half-span
    holds the beam centre's drift over the Omega box.  ``n_q = None``
    derives the q_c size from the bandwidth of the beam and of the phase
    matching (:func:`q_axis_size`): the largest step whose trapezoid aliases
    stay under :data:`Q_ALIAS_TOL` and under 1/:data:`MIN_LOBE_POINTS` of the
    phase-matching lobe along q_c.  An explicit ``n_q`` is used as given.
    """

    n_omega_c: int = 128
    n_q: int | None = None
    n_omega_s: int = 128
    span_scale: float = 1.0
    span_omega_c: float | None = None   # half-span overrides, internal units
    span_q: float | None = None
    span_omega_s: float | None = None
    phase_matching: PhaseMatching = "sinc"

    def __post_init__(self):
        if min(n for n in (self.n_omega_c, self.n_q, self.n_omega_s)
               if n is not None) < MIN_AXIS_POINTS:
            raise ValueError(f"each axis needs at least {MIN_AXIS_POINTS} points")
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
    """sin(x)/x with sinc(0) = 1; series fallback below |x| = :data:`SINC_SERIES_BELOW`."""
    x = np.asarray(x, dtype=float)
    return _sine_over(np.sin(x, out=np.empty_like(x)), x)


def _sine_over(sine: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sin(x)/x from its numerator ``sine``, overwritten with the result.

    Below |x| = :data:`SINC_SERIES_BELOW` the series replaces the quotient,
    which is 0/0 at x = 0 and, for a numerator built by angle addition
    (absolute error ~ 2e-16), loses relative accuracy as 1/|x|.
    """
    with np.errstate(invalid="ignore"):   # 0/0 at x = 0 is replaced below
        np.divide(sine, x, out=sine)
    small = (x < SINC_SERIES_BELOW) & (x > -SINC_SERIES_BELOW)   # no float temporary
    x2 = np.square(x[small])
    sine[small] = 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0)
    return sine


def q_axis_size(forms, length_um: float, w_s: float, span_q: float,
                phase_matching: PhaseMatching) -> int:
    """Points on a derived q_c axis of half-span ``span_q``.

    ``forms`` are :func:`~modesub.dispersion.kernel_forms` (b the beam
    row, m the match row).  The step h is the largest the trapezoid rule's
    aliasing allows.  Along q_c each Gram entry integrates B B' S S', with
    B the beam Gaussian and S the phase-matching factor at two signal
    frequencies.  B B' is a Gaussian with exponent -w_s^2 b_q^2 (q - qbar)^2,
    whose transform falls as exp(-k^2 / (4 w_s^2 b_q^2)); the sinc pair S S'
    is band-limited to |k| <= 2 |m_q l/2|.  The aliases at k = +-2 pi/h
    stay under :data:`Q_ALIAS_TOL` = eps of the integral once

        2 pi / h >= 2 |m_q l/2| + 2 w_s |b_q| sqrt(ln(2 / eps)).

    The Gaussian surrogate's S S' is not band-limited but Gaussian too,
    with exponent -2 GAMMA_SINC (m_q l/2)^2 q^2, so B B' S S' is one Gaussian
    and 2 pi / h >= 2 sqrt(ln(2 / eps) (w_s^2 b_q^2 + 2 GAMMA_SINC
    (m_q l/2)^2)) bounds it exactly.  h also stays a factor 1 - 1e-9 under
    lobe_q / :data:`MIN_LOBE_POINTS`, lobe_q = 2 pi / |m_q l/2|, so the
    resolution check never fires on rounding.

    The aliasing is then negligible; what remains is the O(h^2) endpoint
    term of the beam tail at the box edge, which :func:`_axes` keeps at
    least 1.5 beam widths past the beam's farthest drift.  Against 128
    points over the same span the derived axis moved K, lambda_1, purity
    and probability by at most 1.75e-9 (all four presets, l = 1, 2.5 and
    4 mm, w_s = 50, 110 and 200 um, gate orders 0-2, sinc and surrogate),
    a shift that falls as h^2.  It takes 19-27 points on the default
    configuration's 1-4 mm x 50-200 um lattice, and up to 181 where the
    drift widens the span (phi = 5 deg).
    """
    _, beam, match = forms
    log_tol = np.log(2.0 / Q_ALIAS_TOL)
    beam_q, match_q = w_s * abs(beam[1]), abs(match[1] * length_um / 2.0)
    if phase_matching == "gaussian":
        band = 2.0 * np.sqrt(log_tol * (beam_q**2 + 2.0 * GAMMA_SINC * match_q**2))
    else:
        band = 2.0 * match_q + 2.0 * beam_q * np.sqrt(log_tol)
    step = 2.0 * np.pi / band
    if match_q != 0.0:
        # the margin keeps lobe / step clear of MIN_LOBE_POINTS after rounding
        step = min(step, 2.0 * np.pi / match_q / MIN_LOBE_POINTS * (1.0 - 1e-9))
    return max(MIN_AXIS_POINTS, int(np.ceil(2.0 * span_q / step)) + 1)


def derive_grids(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
                 config: GridConfig) -> tuple[QuadGrid, QuadGrid, QuadGrid]:
    """Default quadrature axes for a kernel build; :func:`_axes` sizes them."""
    forms = kernel_forms(preset.kp_s, preset.kp_c, preset.phi, preset.rho)
    return _axes(preset, gate, signal, config, forms)[0]


def _axes(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
          config: GridConfig, forms):
    """The kernel's quadrature axes, and the axis sizes and the q_c drift
    ratio as diagnostics; the one place an axis is sized.

    Omega spans come from the gate and comb time scales and from the
    phase-matching bandwidth 2 pi / (k'_c - k'_s) l (widest wins).  For the
    Gaussian surrogate the phase-matching contribution is its 5-sigma width
    instead of the sinc main lobe, since the surrogate has no side lobes to
    truncate but a wider central peak.

    The q_c span holds the signal beam where the Omega box puts it.  Over
    the box the beam centre q* = -(b_c Omega_c + b_s Omega_s) / b_q (b the
    beam row of ``forms``) drifts by up to d = (|b_c| S_c + |b_s| S_s) /
    |b_q|, S_c and S_s the Omega half-spans.  The derived q_c half-span is
    the larger of the beam's own 5 / w_s and d / :data:`MAX_Q_DRIFT`; only
    points with a large drift, such as phi = 5 deg with a wide beam, take
    the second.  The q_c size is :func:`q_axis_size`'s for that span, and
    ``q_drift_ratio`` reports d / span_q.

    ``span_scale`` scales the derived half-spans (the drift bound follows
    the Omega spans); an explicit ``span_*`` or ``n_q`` is used as given.
    """
    l = preset.length_um
    w_s = signal.waist_s_um
    d_group = preset.kp_c - preset.kp_s
    if config.phase_matching == "gaussian":
        pm_halfwidth = SPAN_SIGMAS / (np.sqrt(2.0 * GAMMA_SINC) * d_group * l / 2.0)
    else:
        pm_halfwidth = 2.0 * np.pi / (d_group * l)
    span_omega = max(default_half_span(gate.tau_g, gate.order),
                     default_half_span(signal.spectral_tau_fs),
                     pm_halfwidth) * config.span_scale
    s_wc = config.span_omega_c if config.span_omega_c is not None else span_omega
    s_ws = config.span_omega_s if config.span_omega_s is not None else span_omega

    _, beam, _ = forms
    drift = (abs(beam[0]) * s_wc + abs(beam[2]) * s_ws) / abs(beam[1])
    if config.span_q is not None:
        s_q = config.span_q
    else:
        # the margin keeps drift / s_q at or under MAX_Q_DRIFT after rounding
        s_q = max(default_half_span(w_s) * config.span_scale,
                  drift / MAX_Q_DRIFT * (1.0 + 1e-9))
    n_q = (config.n_q if config.n_q is not None
           else q_axis_size(forms, l, w_s, s_q, config.phase_matching))
    grids = (uniform_grid(s_wc, config.n_omega_c, label="omega_c"),
             uniform_grid(s_q, n_q, label="q_c"),
             uniform_grid(s_ws, config.n_omega_s, label="omega_s"))
    return grids, {"n_omega_c": config.n_omega_c, "n_q": n_q,
                   "n_omega_s": config.n_omega_s, "q_drift_ratio": drift / s_q}


def _outer_part(coeffs, omega_c, omega_s):
    """c0 Omega_c + c2 Omega_s: the (Omega_c, Omega_s) part of the form
    c0 Omega_c + c1 q_c + c2 Omega_s, whose q_c part is c1 q_c."""
    return coeffs[0] * omega_c + coeffs[2] * omega_s


def _sample(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
            config: GridConfig, check: bool):
    """The kernel's quadrature axes, a writer of its Omega_c rows, and the
    axis sizes and q_c drift ratio (:func:`_axes`) as diagnostics.

    The main-lobe resolution check runs on the axes before any sample is
    taken.  ``fill(start, out)`` writes the real float64 rows
    [start, start + len(out)) into ``out`` ([rows, n_q, n_s]).  It evaluates
    the 2-D (Omega_c, Omega_s) parts of the forms (module docstring) on
    those rows only, and every transcendental but the 3-D exps of the beam
    and of the Gaussian phase matching on the 2-D and 1-D parts.  The 3-D
    arithmetic runs in place, slab by slab of about :data:`SLAB_SAMPLES`
    samples, with one slab-sized float temporary, so the temporaries stay
    small while :func:`kernel_gram`'s block stays large enough for an
    efficient syrk.
    """
    forms = kernel_forms(preset.kp_s, preset.kp_c, preset.phi, preset.rho)
    (g_wc, g_q, g_ws), diagnostics = _axes(preset, gate, signal, config, forms)
    gate_form, beam_form, match_form = forms
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
    amp = np.sqrt(w_s) / np.pi**0.25
    beam_form = tuple(w_s * np.sqrt(0.5) * c for c in beam_form)
    sinc_pm = config.phase_matching == "sinc"
    # 2-D parts are [rows, 1, n_s], 1-D parts [1, n_q, 1]
    qc, ws = g_q.points[None, :, None], g_ws.points[None, None, :]
    gamma, v = beam_form[1] * qc, pm_form[1] * qc
    if sinc_pm:
        sin_v, cos_v = np.sin(v), np.cos(v)
    slab_rows = max(1, SLAB_SAMPLES // (g_q.size * g_ws.size))

    def fill(start: int, out: np.ndarray) -> None:
        wc = g_wc.points[start:start + out.shape[0], None, None]
        # the gate has no q_c part
        gate_amp = amp * hermite_gauss_values(gate.order, gate.tau_g,
                                              _outer_part(gate_form, wc, ws))
        beta = _outer_part(beam_form, wc, ws)
        u = _outer_part(pm_form, wc, ws)
        if sinc_pm:
            sin_u, cos_u = np.sin(u), np.cos(u)
        for first in range(0, out.shape[0], slab_rows):
            slab = out[first:first + slab_rows]
            rows = slice(first, first + slab.shape[0])
            temp = np.empty_like(slab)
            if sinc_pm:
                np.multiply(sin_u[rows], cos_v, out=slab)
                slab += np.multiply(cos_u[rows], sin_v, out=temp)
                _sine_over(slab, np.add(u[rows], v, out=temp))
            else:   # the surrogate's exp(-GAMMA_SINC x^2), in place
                np.add(u[rows], v, out=slab)
                np.square(slab, out=slab)
                slab *= -GAMMA_SINC
                np.exp(slab, out=slab)
            np.add(beta[rows], gamma, out=temp)
            np.square(temp, out=temp)
            np.negative(temp, out=temp)
            slab *= np.exp(temp, out=temp)
            slab *= gate_amp[rows]

    return (g_wc, g_q, g_ws), fill, diagnostics


def _folded_gram(fill, grids: tuple[QuadGrid, QuadGrid, QuadGrid]):
    """:func:`kernel_gram`'s folded sums: the Gram sum a^T a over the
    weighted rows, and the quadrature mass |L|^2 w_c w_q w_s marginalized
    onto (Omega_c, q_c) and onto Omega_s.

    ``fill(start, out)`` writes the kernel's rows [start, start + len(out))
    into ``out``.  The rows [0, ceil(n_c/2)) are written into one reused
    block of about :data:`BLOCK_SAMPLES` samples and weighted in place by
    sqrt(w_c w_q), the centre row of an odd axis at w_c / 2 (exact in
    binary); each block enters the sums at once, one BLAS syrk per block,
    and each sum S is completed as S + S reversed along every axis.
    """
    g_wc, g_q, g_ws = grids
    n_q, n_s = g_q.size, g_ws.size
    w_c = g_wc.weights[:(g_wc.size + 1) // 2].copy()
    if g_wc.size % 2:
        w_c[-1] /= 2.0   # the self-mirrored centre row
    sqrt_w = np.sqrt(np.outer(w_c, g_q.weights))[:, :, None]
    rows = max(1, BLOCK_SAMPLES // (n_q * n_s))
    block = np.empty((min(rows, w_c.size), n_q, n_s))
    gram = np.zeros((n_s, n_s))
    converted_mass = np.zeros((g_wc.size, n_q))   # unsampled rows stay 0
    signal_mass = np.zeros(n_s)
    for start in range(0, w_c.size, rows):
        stop = min(start + rows, w_c.size)
        weighted = block[:stop - start]
        fill(start, weighted)
        weighted *= sqrt_w[start:stop]
        a = weighted.reshape(-1, n_s)
        gram += a.T @ a   # symmetric rank-k update (BLAS syrk)
        a *= a
        converted_mass[start:stop] = (a @ g_ws.weights).reshape(-1, n_q)
        signal_mass += a.sum(axis=0)
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
    """Signal-side Gram operator of the kernel, streamed block by block.

    Same checks and errors as :func:`build_kernel`; memory stays at
    O(n_s^2 + block) since the 3-D kernel array is never formed.  By the
    kernel's point symmetry (module docstring) only the Omega_c rows
    [0, ceil(n_c/2)) are sampled, the centre row of an odd axis at half
    weight; the Gram matrix G_h and the mass marginals over them are
    completed by reflection, G = G_h + G_h[::-1, ::-1], before the norm and
    boundary checks run on the full marginals.
    """
    config = config or GridConfig()
    grids, fill, diagnostics = _sample(preset, gate, signal, config, check=True)
    gram, converted_mass, signal_mass = _folded_gram(fill, grids)
    norm_sq, fractions = _checked_mass(converted_mass, signal_mass, check=True)
    return KernelGram(gram=gram, omega_s=grids[2], norm_sq=norm_sq,
                      diagnostics={**diagnostics, "boundary_fractions": fractions})


def build_kernel(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
                 config: GridConfig | None = None, *, check: bool = True) -> KernelGrid:
    """Sample the reduced transfer function on a 3-D quadrature grid.

    Raises :class:`KernelResolutionError` when fewer than
    :data:`MIN_LOBE_POINTS` grid points fall across the phase-matching main
    lobe along any coupled axis, and :class:`KernelSpanError` when more than
    :data:`BOUNDARY_TOL` of the kernel mass sits in a boundary cell.
    """
    config = config or GridConfig()
    grids, fill, diagnostics = _sample(preset, gate, signal, config, check)
    g_wc, g_q, g_ws = grids
    values = np.empty((g_wc.size, g_q.size, g_ws.size))
    fill(0, values)
    # |L|^2 w_c w_q w_s summed in one pass over the array, no dense temporary
    w_cq = np.outer(g_wc.weights, g_q.weights)
    converted_mass = np.einsum("cqs,cqs,s->cq", values, values, g_ws.weights) * w_cq
    signal_mass = np.einsum("cqs,cqs,cq->s", values, values, w_cq) * g_ws.weights
    norm_sq, fractions = _checked_mass(converted_mass, signal_mass, check)
    return KernelGrid(values=values, omega_c=g_wc, q_c=g_q, omega_s=g_ws,
                      norm_sq=norm_sq, phase_matching=config.phase_matching,
                      diagnostics={**diagnostics, "boundary_fractions": fractions})
