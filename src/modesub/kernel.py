"""Reduced transfer function of non-collinear sum-frequency generation.

The kernel L(Omega_c, q_c, Omega_s) is the product of the gate spectral
amplitude evaluated at Omega_c - Omega_s, the signal transverse profile
evaluated at the momentum consumed from the signal beam, and the
phase-matching factor sinc(delta_k * l / 2).  The gate transverse profile is
a plane wave (valid for a gate beam much wider than the signal), which is
what reduces the problem to these three variables.  Every factor is real,
so the kernel is real.

One sampler writes the kernel a block of whole q_c planes at a time: a
contiguous [q_c, Omega_c, Omega_s] array on whose planes every q_c part is
a scalar.  :func:`kernel_gram` has it write the blocks into one reused
array and folds each block straight into the real symmetric signal-side
Gram matrix, never forming the 3-D array; that is the solve path, and it
runs at one OpenBLAS thread (:func:`kernel_gram` says why).  The Gram
sums the samples times sqrt(w_c w_q), the quadrature weights of the
converted axes; the sampler writes the samples already weighted, so no
pass of its own applies the weights (:func:`_sample`).
:func:`build_kernel` has it write every plane, block by block, into the
dense [Omega_c, q_c, Omega_s] array, for the CSV dump and as a plain
reference: its norm and :func:`~modesub.schmidt.gram_matrix` over it are
unfolded sums over every row, which the tests hold the streamed route to.
Both measure truncation as ``mass_captured``: the share of the closed-form
continuum ||L||^2 (:func:`continuum_norm_sq`) in the box, whatever the step.

:func:`_axes` sizes every axis.  A derived Omega axis holds Gauss-Legendre
nodes for the factors sampled on it (:func:`omega_axis_size`): the kernel's
own phase matching, beam and gate size Omega_c, which the Gram integrates
out before any comb mode is sampled, and Omega_s, which adds the comb's top
mode only for a solve conditioned on a comb
(:attr:`SignalBeamSpec.comb_modes`).  A derived q_c axis is a uniform
trapezoid sized by the beam and the phase matching (:func:`q_axis_size`).

The kernel is point-symmetric: L(-Omega_c, -q_c, -Omega_s) =
(-1)^order L(Omega_c, q_c, Omega_s).  Each factor's argument is a linear
form with no constant term, the gate is carrier-centred (a
:class:`GateSpec` has no centre) and the HG mode has parity (-1)^order,
and the axes, :func:`~modesub.modes.uniform_grid` or
:func:`~modesub.modes.gauss_legendre_grid`, are antisymmetric to the last
bit, so the identity holds bit for bit on the sampled array.  The
Gram matrix only sees products of two samples, so the sign drops out: :func:`kernel_gram`, and only it, samples the Omega_c rows
[0, ceil(n_c/2)) and completes its sum by reflection, the centre row of an
odd axis, which mirrors onto itself, entering at half weight.

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
one 3-D add, square, subtract and exp, the subtract from each plane's
log sqrt(w_q), which is 0 for the unweighted dense array.  Its exponent
never exceeds log sqrt(w_q), so it cannot overflow, unlike the factored
exp(-beta gamma) exp(-beta^2/2) exp(-gamma^2/2), whose middle factor
overflows for a wide signal beam (w_s ~ 2 mm at phi = 5 deg).  u, v,
beta and gamma are each a sum of products of a coefficient with one axis,
so they are odd to the last bit, and the point symmetry above survives the
split.

Amplitudes are unnormalized: the gate spectrum and signal profile carry unit
L2 norm, the sinc is dimensionless, so ||L||^2 has units rad/fs and feeds the
absolute probability scale of the conditioning stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ._blas import one_blas_thread
from .dispersion import CrystalPreset, kernel_forms
from .modes import (SPAN_SIGMAS, QuadGrid, default_half_span, gauss_legendre_grid,
                    hermite_gauss_values, uniform_grid)

# sinc(x) ~ exp(-GAMMA_SINC x^2) matches the full width at half maximum
GAMMA_SINC = 0.193
# smallest share of the continuum norm^2 a checked grid box must hold
MIN_MASS_CAPTURED = 0.9
# fewest grid points across the phase-matching main lobe on a coupled axis
MIN_LOBE_POINTS = 8.0
# fewest points on any axis
MIN_AXIS_POINTS = 8
# Gauss-Legendre nodes on a derived Omega axis, by phase matching: a floor,
# plus nodes per radian each factor turns through over the half-span
# (:func:`omega_axis_size`, which gives the calibration)
OMEGA_NODE_FLOOR = {"sinc": 18.4, "gaussian": 33.7}
OMEGA_NODES_PER_RADIAN = {
    "sinc": {"match": 0.66, "beam": 1.84, "gate": 2.85, "comb": 0.30},
    "gaussian": {"match": 2.13, "beam": 1.50, "gate": 1.68, "comb": 0.37},
}
# largest relative size of the aliases the trapezoid rule adds on a derived
# q_c axis (:func:`q_axis_size`)
Q_ALIAS_TOL = 1e-12
# largest beam-centre drift over the Omega box, as a share of the q_c
# half-span; a derived q_c span widens to keep it (:func:`_axes`), which
# leaves at least 5 (1 - MAX_Q_DRIFT) = 1.5 beam widths 1/w_s of margin
MAX_Q_DRIFT = 0.7
# kernel samples per block of whole q_c planes the sampler writes; each
# block is one BLAS syrk call of the Gram accumulation
BLOCK_SAMPLES = 1 << 16
# sinc uses its series below this |x|: the truncation error x^6/5040 and the
# angle-addition quotient's 2e-16/|x| both stay under 3e-14 relative
SINC_SERIES_BELOW = 1e-2

PhaseMatching = Literal["sinc", "gaussian"]


class KernelResolutionError(ValueError):
    """Grid too coarse to resolve the phase-matching main lobe."""


class KernelSpanError(ValueError):
    """Grid box holds too little of the kernel's norm (:func:`_checked_mass`)."""


@dataclass(frozen=True)
class GateSpec:
    """Gate pulse: carrier-centred HG spectral profile of order ``order`` and
    time scale ``tau_g`` (fs), transverse waist, pulse energy."""

    order: int
    tau_g: float
    waist_g_um: float = 1000.0
    energy_j: float = 10e-9
    rep_rate_hz: float = 80e6

    def __post_init__(self):
        if not (math.isfinite(self.order) and self.order >= 0
                and int(self.order) == self.order):
            raise ValueError(f"order must be a non-negative integer, got {self.order}")
        if not 0 < self.tau_g < math.inf:
            raise ValueError(f"tau_g must be positive and finite, got {self.tau_g}")
        if not (0 < self.waist_g_um < math.inf and 0 <= self.energy_j < math.inf
                and 0 < self.rep_rate_hz < math.inf):
            raise ValueError("gate waist, energy and repetition rate must be positive "
                             "and finite")
        # an integral float order (a scan-axis value) becomes the recurrence's int
        object.__setattr__(self, "order", int(self.order))


@dataclass(frozen=True)
class SignalBeamSpec:
    """Signal beam: transverse Gaussian width, comb-mode time scale and,
    for a solve conditioned on a comb, its mode count.

    ``spectral_tau_fs`` is the tau of the comb's Hermite-Gauss modes (a run
    config sets it from ``comb.tau_fs``).  It sizes only the Omega box: it is
    one of the half-spans whose largest :func:`derive_grids` takes, and no
    kernel sample reads it.  ``comb_modes`` is None unless the solve is
    matched against a comb:
    :func:`~modesub.conditioning.comb_subtraction_experiment` sets it from
    the comb it is handed.  It sizes only a derived Omega_s axis, whose
    nodes must then resolve the top comb mode too (:func:`_axes`); a scan,
    a mode dump or a kernel dump samples no comb mode and leaves it None.
    """

    waist_s_um: float
    spectral_tau_fs: float
    comb_modes: int | None = None

    def __post_init__(self):
        if not (0 < self.waist_s_um < math.inf and 0 < self.spectral_tau_fs < math.inf):
            raise ValueError("signal waist and spectral tau must be positive and finite")
        if self.comb_modes is not None and not (isinstance(self.comb_modes, int)
                                                and self.comb_modes >= 1):
            raise ValueError("comb_modes must be a positive integer, "
                             f"got {self.comb_modes!r}")


@dataclass(frozen=True)
class GridConfig:
    """Axis sizes, span scaling, optional explicit half-spans, sinc treatment.

    ``n_omega_c = None`` and ``n_omega_s = None`` derive Gauss-Legendre
    nodes on the Omega axes, as many as :func:`omega_axis_size` takes for
    the factors sampled on the axis (:func:`_axes`); an explicit size gives
    a uniform trapezoid axis of that many points, checked against the
    phase-matching lobe.  Derived Omega half-spans (:func:`derive_grids`)
    are scaled by ``span_scale``; the ``span_*`` fields replace them per
    axis.  A derived q_c half-span is not scaled: it holds the beam and the
    beam centre's drift over the Omega box, so it follows the Omega spans.
    ``n_q = None`` derives the q_c size from the bandwidth of the beam and
    of the phase matching (:func:`q_axis_size`): the largest step whose
    trapezoid aliases stay under :data:`Q_ALIAS_TOL` and under
    1/:data:`MIN_LOBE_POINTS` of the phase-matching lobe along q_c.  An
    explicit ``n_q`` is used as given.
    """

    n_omega_c: int | None = None
    n_q: int | None = None
    n_omega_s: int | None = None
    span_scale: float = 1.0
    span_omega_c: float | None = None   # half-span overrides, internal units
    span_q: float | None = None
    span_omega_s: float | None = None
    phase_matching: PhaseMatching = "sinc"

    def __post_init__(self):
        if min((n for n in (self.n_omega_c, self.n_q, self.n_omega_s) if n is not None),
               default=MIN_AXIS_POINTS) < MIN_AXIS_POINTS:
            raise ValueError(f"each axis needs at least {MIN_AXIS_POINTS} points")
        if not 0 < self.span_scale < math.inf:
            raise ValueError("span_scale must be positive and finite")
        if self.phase_matching not in ("sinc", "gaussian"):
            raise ValueError("phase_matching must be 'sinc' or 'gaussian'")


@dataclass(frozen=True)
class KernelGrid:
    """Sampled transfer function with its quadrature axes and diagnostics;
    like :class:`KernelGram`, it stores no norm."""

    values: np.ndarray            # real float64 [n_omega_c, n_q, n_omega_s]
    omega_c: QuadGrid
    q_c: QuadGrid
    omega_s: QuadGrid
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class KernelGram:
    """Signal-side Gram matrix of a kernel, with its signal axis and diagnostics.

    ``gram[i, j]`` integrates L(., ., Omega_s_i) L(., ., Omega_s_j) over the
    converted variables; the signal-axis weights are not folded in.  The box
    norm^2, sum_i w_s,i gram[i, i], is stored once, by
    :func:`~modesub.schmidt.decompose` as ``SchmidtResult.norm_sq``.
    """

    gram: np.ndarray              # real symmetric [n_omega_s, n_omega_s]
    omega_s: QuadGrid
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
    # flat indices, taken once; few samples lie near the ridge.  Two
    # comparisons make byte-sized masks where |x| would take a float
    # temporary the size of x.  np.put writes through a strided ``sine``,
    # where sine.ravel() would copy
    small = np.flatnonzero((x < SINC_SERIES_BELOW) & (x > -SINC_SERIES_BELOW))
    if small.size:
        x2 = np.square(np.take(x, small))
        np.put(sine, small, 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0))
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

    The aliasing is then negligible; what remains is the q_c trapezoid's
    O(h^2) endpoint term of the beam tail at the box edge, which
    :func:`_axes` keeps at least 1.5 beam widths past the beam's farthest
    drift (the derived Omega axes' Gauss-Legendre error falls
    exponentially instead).  Against 128 points over the same span (256
    where 128 miss the lobe) the derived axis moved K, lambda_1, purity
    and probability by at most 1.75e-9 (all four presets, l = 1, 2.5 and
    4 mm, w_s = 50, 110 and 200 um, gate orders 0-2, sinc and surrogate,
    on derived Omega axes), a shift that falls as h^2.  It takes 19-27
    points on the default configuration's 1-4 mm x 50-200 um lattice, and
    up to 181 where the drift widens the span (phi = 5 deg).
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


def omega_axis_size(half_span: float, rates: dict[str, float],
                    phase_matching: PhaseMatching) -> int:
    """Gauss-Legendre nodes on a derived Omega axis of half-span ``half_span``.

    The least odd n >= n_0 + half_span sum_i c_i r_i, and at least
    :data:`MIN_AXIS_POINTS`, with n_0 the :data:`OMEGA_NODE_FLOOR` and c_i
    the :data:`OMEGA_NODES_PER_RADIAN` of ``phase_matching``.  ``rates``
    maps each factor sampled on the axis to the rate r_i (fs) it turns at
    along it (:func:`_axes`): ``match`` the phase matching, ``beam`` the
    beam Gaussian, ``gate`` the gate's top HG order and, on the Omega_s
    axis of a solve conditioned on a comb, ``comb`` the top comb mode.  The
    factors multiply, so their bandwidths, and the node counts they take,
    add; a single c max(r_i) over-resolves one factor to reach another.  An
    odd n puts a node at Omega = 0.

    n_0 and the c_i are a linear-programme fit of the least n per axis
    within 2e-13 of a converged solve (K, lambda_1, purity and probability)
    on the sweep of ``tests/test_calibration.py``: 4 presets x l = 1, 2.5,
    4 mm x w_s = 50, 110, 200 um x gate orders 0-2 x sinc and surrogate at
    tau_g = 94 fs, and 120 seeded random points that also vary l up to
    6 mm, tau_g over 60-130 fs and span_scale over 1-1.5.  The fit keeps
    each axis 2 nodes over its least n, minimizes the sum of n over the
    sweep and, for the sinc, over the benchmark's phi = 1 deg order-0
    lattice, and fits ``comb`` last, the kernel terms held.  The errors of
    the two axes do not add: with Omega_c near its least n, the Omega_c
    rule's error oscillates in Omega_s, and a coarse Omega_s aliases it.
    The surrogate's floor carries 4 nodes more for that (phi = 5 deg
    counter, l = 5.1 mm, span_scale 1.42 read 8.3e-13 without them).  On
    the sweep the rule is within 6.9e-14 (sinc) and 3.5e-13 (surrogate) of
    the solve on twice its nodes.  On the grid it takes:

        phase      order  Omega_c   Omega_s   Omega_s with the 40-mode comb
        sinc       0      37-61     35-59     49-73
        sinc       1      63-95     57-95     77-115
        sinc       2      91-135    85-133    111-161
        surrogate  0      65-105    45-85     61-113
        surrogate  1      75-149    59-109    83-133
        surrogate  2      95-195    75-143    107-175

    On the benchmark's lattice (phi = 1 deg co, order 0, l = 1-4 mm,
    w_s = 50-200 um) that is 37-49 nodes on Omega_c, 35-37 on a scan's
    Omega_s and 49-51 on a conditioned Omega_s.
    """
    per_radian = OMEGA_NODES_PER_RADIAN[phase_matching]
    phase = half_span * sum(per_radian[factor] * rate for factor, rate in rates.items())
    n = math.ceil(OMEGA_NODE_FLOOR[phase_matching] + phase)
    return max(n, MIN_AXIS_POINTS) | 1


def continuum_norm_sq(forms, length_um: float, phase_matching: PhaseMatching) -> float:
    """||L||^2 over all of (Omega_c, q_c, Omega_s): pi / |det M| for the sinc,
    sqrt(pi / (2 GAMMA_SINC)) / |det M| for the surrogate, M the rows of
    ``forms`` (:func:`~modesub.dispersion.kernel_forms`) with the match row
    times l/2.  In y = M x, L is a product of one factor per y_k, and the HG
    gate and the beam Gaussian have unit norm for every gate order."""
    gate, beam, match = forms
    det = np.linalg.det([gate, beam, [c * length_um / 2.0 for c in match]])
    pm_sq = np.pi if phase_matching == "sinc" else np.sqrt(np.pi / (2.0 * GAMMA_SINC))
    return float(pm_sq / abs(det))


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

    A derived Omega axis holds :func:`omega_axis_size`'s Gauss-Legendre
    nodes for the factors sampled on it, each at the rate it turns along
    the axis: the phase matching, at |m| l/2 (m its coefficient in the
    match row of ``forms``); the beam, at w_s |b| (b likewise, of the beam
    row); and the gate's top HG order, at tau_g sqrt(2 order + 1).  Those
    are the kernel's own factors, and they alone size Omega_c, which the
    Gram integrates out before any comb mode is sampled.  Omega_s adds the
    comb's top mode, at tau_s sqrt(2 N - 1), only when ``signal`` carries a
    comb count N: a solve conditioned on a comb samples its modes on
    Omega_s, and a scan or a dump samples none.  An explicit size gives a
    uniform trapezoid axis.

    The q_c span holds the signal beam where the Omega box puts it.  Over
    the box the beam centre q* = -(b_c Omega_c + b_s Omega_s) / b_q (b the
    beam row of ``forms``) drifts by up to d = (|b_c| S_c + |b_s| S_s) /
    |b_q|, S_c and S_s the Omega half-spans.  The derived q_c half-span is
    the larger of the beam's own 5 / w_s and d / :data:`MAX_Q_DRIFT`; only
    points with a large drift, such as phi = 5 deg with a wide beam, take
    the second.  The q_c size is :func:`q_axis_size`'s for that span, and
    ``q_drift_ratio`` reports d / span_q.

    ``span_scale`` scales the derived Omega half-spans only; the q_c span
    follows them through the drift.  An explicit ``span_*`` or ``n_*`` is
    used as given.
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

    _, beam, match = forms
    gate_rate = gate.tau_g * math.sqrt(2 * gate.order + 1)

    def omega_axis(span: float, n: int | None, k: int, label: str, **comb) -> QuadGrid:
        if n is not None:
            return uniform_grid(span, n, label=label)
        rates = {"match": abs(match[k]) * l / 2.0, "beam": w_s * abs(beam[k]),
                 "gate": gate_rate, **comb}
        n = omega_axis_size(span, rates, config.phase_matching)
        return gauss_legendre_grid(span, n, label=label)

    # only a solve conditioned on a comb samples its modes, on Omega_s
    comb = ({} if signal.comb_modes is None else
            {"comb": signal.spectral_tau_fs * math.sqrt(2 * signal.comb_modes - 1)})

    drift = (abs(beam[0]) * s_wc + abs(beam[2]) * s_ws) / abs(beam[1])
    if config.span_q is not None:
        s_q = config.span_q
    else:
        # the margin keeps drift / s_q at or under MAX_Q_DRIFT after rounding
        s_q = max(default_half_span(w_s), drift / MAX_Q_DRIFT * (1.0 + 1e-9))
    n_q = (config.n_q if config.n_q is not None
           else q_axis_size(forms, l, w_s, s_q, config.phase_matching))
    grids = (omega_axis(s_wc, config.n_omega_c, 0, "omega_c"),
             uniform_grid(s_q, n_q, label="q_c"),
             omega_axis(s_ws, config.n_omega_s, 2, "omega_s", **comb))
    return grids, {"n_omega_c": grids[0].size, "n_q": n_q,
                   "n_omega_s": grids[2].size, "q_drift_ratio": drift / s_q}


def _outer_part(coeffs, omega_c, omega_s):
    """c0 Omega_c + c2 Omega_s: the (Omega_c, Omega_s) part of the form
    c0 Omega_c + c1 q_c + c2 Omega_s, whose q_c part is c1 q_c."""
    return coeffs[0] * omega_c + coeffs[2] * omega_s


def _sample(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
            config: GridConfig, check: bool):
    """The kernel's quadrature axes, a plane-block writer, the continuum norm^2
    and, as diagnostics, the axis sizes and q_c drift ratio (:func:`_axes`).

    The main-lobe resolution check runs on the uniform axes before any
    sample is taken.  ``blocks(w_c, w_q)`` writes the samples times
    sqrt(w_c w_q), ``w_c`` the weights of the Omega_c rows [0, len(w_c))
    it samples and ``w_q`` those of every q_c plane.  It evaluates the 2-D
    (Omega_c, Omega_s) parts of the forms (module docstring) on those rows
    once, with their sin and cos and their gate amplitude, which takes
    sqrt(w_c) row by row.  It then yields ``(start, block)``: the q_c planes
    [start, start + len(block)), written into one reused contiguous block
    ([planes, rows, n_s], real float64) of about :data:`BLOCK_SAMPLES`
    samples.  On a plane the 1-D q_c parts are scalars, so every 3-D op is
    one contiguous pass over the block, a 2-D part and the planes' scalars
    broadcast along each plane, in place or into one block-sized temporary;
    a derived grid's planes are small (735 samples at the default scan
    point), and one numpy call per op and block, not per plane, keeps the
    call overhead off them.  Per block the sinc takes two multiplies, an
    add, the add u + v, the divide and the |x| mask of :func:`_sine_over`;
    the surrogate an add, a square, a scale and an exp.  The beam then
    takes an add, a square, the subtract from log sqrt(w_q[k]) that puts
    plane k's weight in its exponent, and an exp, and two multiplies apply
    the beam and the gate.  Only the exps of the beam and of the Gaussian
    phase matching see every sample.  With unit weights
    (:func:`build_kernel`) sqrt 1 = 1 and log 1 = 0, so the samples are the
    unweighted kernel's to the last bit.  Every sample takes the same ops
    in the same order, so it is the same to the last bit whatever the block
    shape.
    """
    forms = kernel_forms(preset.kp_s, preset.kp_c, preset.phi, preset.rho)
    (g_wc, g_q, g_ws), diagnostics = _axes(preset, gate, signal, config, forms)
    continuum = continuum_norm_sq(forms, preset.length_um, config.phase_matching)
    gate_form, beam_form, match_form = forms
    half_l = preset.length_um / 2.0
    pm_form = tuple(c * half_l for c in match_form)

    if check:
        # a derived Omega axis holds Gauss-Legendre nodes, whose spacing
        # varies; its node rule (:func:`omega_axis_size`) is its guard
        uniform = (config.n_omega_c is not None, True, config.n_omega_s is not None)
        for grid, c, checked in zip((g_wc, g_q, g_ws), pm_form, uniform):
            if c == 0.0 or not checked:
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
    # the 1-D parts, one scalar per q_c plane
    gamma, v = beam_form[1] * g_q.points, pm_form[1] * g_q.points
    if sinc_pm:
        sin_v, cos_v = np.sin(v), np.cos(v)

    def blocks(w_c: np.ndarray, w_q: np.ndarray):
        rows = w_c.size
        # 2-D parts are [rows, n_s]
        wc, ws = g_wc.points[:rows, None], g_ws.points[None, :]
        # the gate has no q_c part; the row weights ride on it
        gate_amp = amp * hermite_gauss_values(gate.order, gate.tau_g,
                                              _outer_part(gate_form, wc, ws))
        gate_amp *= np.sqrt(w_c)[:, None]
        # the plane weights ride in the beam exponent
        log_sqrt_w_q = 0.5 * np.log(w_q)
        beta = _outer_part(beam_form, wc, ws)
        u = _outer_part(pm_form, wc, ws)
        if sinc_pm:
            sin_u, cos_u = np.sin(u), np.cos(u)
        per_block = max(1, BLOCK_SAMPLES // u.size)
        block = np.empty((min(per_block, g_q.size), *u.shape))
        temp = np.empty_like(block)
        for start in range(0, g_q.size, per_block):
            stop = min(start + per_block, g_q.size)
            part, tmp = block[:stop - start], temp[:stop - start]
            # the 1-D parts of the block's planes, broadcast along each plane
            planes = (slice(start, stop), None, None)
            if sinc_pm:
                np.multiply(sin_u, cos_v[planes], out=part)
                part += np.multiply(cos_u, sin_v[planes], out=tmp)
                _sine_over(part, np.add(u, v[planes], out=tmp))
            else:   # the surrogate's exp(-GAMMA_SINC x^2), in place
                np.add(u, v[planes], out=part)
                np.square(part, out=part)
                part *= -GAMMA_SINC
                np.exp(part, out=part)
            np.add(beta, gamma[planes], out=tmp)
            np.square(tmp, out=tmp)
            np.subtract(log_sqrt_w_q[planes], tmp, out=tmp)
            part *= np.exp(tmp, out=tmp)
            part *= gate_amp
            yield start, part

    return (g_wc, g_q, g_ws), blocks, continuum, diagnostics


def _folded_gram(blocks, grids: tuple[QuadGrid, QuadGrid, QuadGrid]) -> np.ndarray:
    """:func:`kernel_gram`'s folded Gram sum a^T a over the weighted rows.

    ``blocks`` is :func:`_sample`'s plane-block writer.  It samples the
    Omega_c rows [0, ceil(n_c/2)), a block of whole q_c planes at a time,
    already weighted by sqrt(w_c w_q), the centre row of an odd axis at
    w_c / 2 (exact in binary).  The block's rows are (q_c, Omega_c) pairs,
    and a^T a does not depend on their order; each block enters the sum as
    it is written, one BLAS syrk per block, and the sum G_h is completed as
    G_h + G_h reversed along both axes.
    """
    g_wc, g_q, g_ws = grids
    w_c = g_wc.weights[:(g_wc.size + 1) // 2].copy()
    if g_wc.size % 2:
        w_c[-1] /= 2.0   # the self-mirrored centre row
    gram = np.zeros((g_ws.size, g_ws.size))
    for _, weighted in blocks(w_c, g_q.weights):
        a = weighted.reshape(-1, g_ws.size)
        gram += a.T @ a   # symmetric rank-k update (BLAS syrk)
    return gram + gram[::-1, ::-1]


def _checked_mass(norm_sq: float, continuum: float, check: bool) -> float:
    """``mass_captured`` = norm_sq / ``continuum`` (:func:`continuum_norm_sq`).

    Raises :class:`KernelSpanError` when the norm vanished or overflowed,
    and, with ``check``, when the share is under :data:`MIN_MASS_CAPTURED`.
    """
    if norm_sq <= 0 or not np.isfinite(norm_sq):
        raise KernelSpanError("kernel norm vanished or overflowed; check spans")
    captured = norm_sq / continuum
    if check and captured < MIN_MASS_CAPTURED:
        raise KernelSpanError(
            f"the grid box holds {captured:.3f} of the kernel's continuum norm^2 "
            f"(limit {MIN_MASS_CAPTURED}); widen the grid spans")
    return captured


@one_blas_thread()
def kernel_gram(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
                config: GridConfig | None = None) -> KernelGram:
    """Signal-side Gram operator of the kernel, streamed block by block.

    Same checks and errors as :func:`build_kernel`; memory stays at
    O(n_s^2 + block) since the 3-D kernel array is never formed.  By the
    kernel's point symmetry (module docstring) only the Omega_c rows
    [0, ceil(n_c/2)) are sampled, the centre row of an odd axis at half
    weight, in blocks of whole q_c planes (:func:`_folded_gram`).  The Gram
    matrix G_h over them is completed by reflection, G = G_h + G_h[::-1, ::-1],
    so G is centrosymmetric to the last bit, which
    :func:`~modesub.schmidt.decompose` relies on.  The box norm^2,
    sum_i w_s,i G_ii, is checked and reported as its share of the continuum
    norm^2, ``diagnostics["mass_captured"]`` (:func:`_checked_mass`).

    The whole call runs at one OpenBLAS thread and restores the count on
    return (:func:`~modesub._blas.one_blas_thread`).  Each block's syrk is
    420 x 35 for a scan and 420 x 49 for ``subtract`` at the defaults; a
    second thread gains nothing on it and spin-waits through the next
    block's numpy passes, which then run slower.  The thread count does not
    change a sample or a Gram entry.
    """
    config = config or GridConfig()
    grids, blocks, continuum, diagnostics = _sample(preset, gate, signal, config, check=True)
    gram = _folded_gram(blocks, grids)
    norm_sq = float(np.diag(gram) @ grids[2].weights)
    captured = _checked_mass(norm_sq, continuum, check=True)
    return KernelGram(gram=gram, omega_s=grids[2],
                      diagnostics={**diagnostics, "mass_captured": captured})


def build_kernel(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
                 config: GridConfig | None = None, *, check: bool = True) -> KernelGrid:
    """Sample the reduced transfer function on a 3-D quadrature grid.

    Raises :class:`KernelResolutionError` when fewer than
    :data:`MIN_LOBE_POINTS` grid points fall across the phase-matching main
    lobe along any coupled uniform axis (a derived Omega axis is sized by
    its node rule instead), and :class:`KernelSpanError` when the box
    holds under :data:`MIN_MASS_CAPTURED` of the continuum norm^2, the share
    ``diagnostics["mass_captured"]`` reports (:func:`_checked_mass`).
    """
    config = config or GridConfig()
    grids, blocks, continuum, diagnostics = _sample(preset, gate, signal, config, check)
    g_wc, g_q, g_ws = grids
    values = np.empty((g_wc.size, g_q.size, g_ws.size))
    # a q_c plane of the array is strided, and the writer runs about twice
    # as slow on it, so the planes are written contiguously and copied in
    for start, block in blocks(np.ones(g_wc.size), np.ones(g_q.size)):
        values[:, start:start + block.shape[0]] = block.transpose(1, 0, 2)
    # |L|^2 w_c w_q w_s summed in one pass over the array, no dense temporary
    norm_sq = float(g_wc.weights @ np.einsum("cqs,cqs,s->cq", values, values,
                                             g_ws.weights) @ g_q.weights)
    captured = _checked_mass(norm_sq, continuum, check)
    return KernelGrid(values=values, omega_c=g_wc, q_c=g_q, omega_s=g_ws,
                      diagnostics={**diagnostics, "mass_captured": captured})
