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

:func:`derive_grids` sizes and guards every axis.  A derived Omega axis
holds Gauss-Legendre nodes for the factors sampled on it
(:func:`omega_axis_size`): the kernel's own phase matching, beam and gate
size Omega_c, which the Gram integrates out before any comb mode is
sampled, and Omega_s, which adds the comb's top mode only for a solve
conditioned on a comb (:attr:`SignalBeamSpec.comb_modes`).  A derived q_c
axis is a uniform trapezoid sized by the beam and the phase matching
(:func:`q_axis_size`).  A derived axis answers only to the rule that sized
it; an axis whose size the caller gives is held to the phase-matching main
lobe in the same place, before any sample is taken.  Every kernel and
every Gram the module returns has passed those checks and the box's
norm^2 checks (:func:`_checked_mass`).

The kernel is point-symmetric: L(-Omega_c, -q_c, -Omega_s) =
(-1)^order L(Omega_c, q_c, Omega_s).  Each factor's argument is a linear
form with no constant term, the gate is carrier-centred (a
:class:`GateSpec` has no centre) and the HG mode has parity (-1)^order,
and the axes, :func:`~modesub.modes.uniform_grid` or
:func:`~modesub.modes.gauss_legendre_grid`, are antisymmetric to the last
bit, so the identity holds bit for bit on the sampled array.  The Gram
matrix only sees products of two samples, so the sign drops out:
:func:`kernel_gram`, and only it, samples the Omega_c rows [0, ceil(n_c/2))
and completes its sum by reflection, the centre row of an odd axis, which
mirrors onto itself, entering at half weight.

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

import numpy as np

from ._blas import one_blas_thread
from .dispersion import CrystalPreset, kernel_forms
from .modes import (QuadGrid, default_half_span, gauss_legendre_grid,
                    hermite_gauss_values, uniform_grid)

# smallest share of the continuum norm^2 a checked grid box must hold, and
# the largest: a box holds at most the whole continuum, so a share over 1 by
# more than rounding is quadrature error, an axis that aliases the kernel
MIN_MASS_CAPTURED = 0.9
MAX_MASS_CAPTURED = 1.0 + 1e-9
# fewest grid points across the phase-matching main lobe on a coupled axis
# whose size the caller gives (a derived axis answers to its own rule)
MIN_LOBE_POINTS = 8.0
# fewest points on any axis
MIN_AXIS_POINTS = 8
# Gauss-Legendre nodes on a derived Omega axis: a floor, plus nodes per
# radian each factor turns through over the half-span
# (:func:`omega_axis_size`, which gives the calibration)
OMEGA_NODE_FLOOR = 18.4
OMEGA_NODES_PER_RADIAN = {"match": 0.66, "beam": 1.84, "gate": 2.85, "comb": 0.30}
# largest relative size of the aliases the trapezoid rule adds on a derived
# q_c axis (:func:`q_axis_size`)
Q_ALIAS_TOL = 1e-12
# largest beam-centre drift over the Omega box, as a share of the q_c
# half-span; a derived q_c span widens to keep it (:func:`derive_grids`),
# which leaves at least 5 (1 - MAX_Q_DRIFT) = 1.5 beam widths 1/w_s of margin
MAX_Q_DRIFT = 0.7
# kernel samples per block of whole q_c planes the sampler writes; each
# block is one BLAS syrk call of the Gram accumulation
BLOCK_SAMPLES = 1 << 16
# sinc uses its series below this |x|: the truncation error x^6/5040 and the
# angle-addition quotient's 2e-16/|x| both stay under 3e-14 relative
SINC_SERIES_BELOW = 1e-2


class KernelResolutionError(ValueError):
    """An axis of a given size too coarse to resolve the phase-matching main
    lobe (:func:`derive_grids`; the message names the ``n_*`` key), or a
    grid that reads more than the kernel's whole norm (:func:`_checked_mass`)."""


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
    nodes must then resolve the top comb mode too (:func:`derive_grids`,
    where every axis is sized and guarded); a scan, a mode dump or a kernel
    dump samples no comb mode and leaves it None.
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
    """Axis sizes and span scaling: the ``grid.*`` keys of a run config.

    Past this class's own checks, only :func:`derive_grids` reads the
    sizes: it sizes and guards every axis, and each answers to what sized
    it.  ``n_omega_c = None`` and ``n_omega_s = None`` derive Gauss-Legendre
    nodes on the Omega axes, as many as :func:`omega_axis_size` takes for
    the factors sampled on the axis.  ``n_q = None`` derives the q_c size
    from the bandwidth of the beam and of the phase matching
    (:func:`q_axis_size`): the largest step whose trapezoid aliases stay
    under :data:`Q_ALIAS_TOL`.  A given size gives a uniform trapezoid axis
    of that many points, checked against the phase-matching lobe.  The
    derived Omega half-spans are scaled by ``span_scale``.  The q_c
    half-span is not scaled: it holds the beam and the beam centre's drift
    over the Omega box, so it follows the Omega spans.
    """

    n_omega_c: int | None = None
    n_q: int | None = None
    n_omega_s: int | None = None
    span_scale: float = 1.0

    def __post_init__(self):
        if min((n for n in (self.n_omega_c, self.n_q, self.n_omega_s) if n is not None),
               default=MIN_AXIS_POINTS) < MIN_AXIS_POINTS:
            raise ValueError(f"each axis needs at least {MIN_AXIS_POINTS} points")
        if not 0 < self.span_scale < math.inf:
            raise ValueError("span_scale must be positive and finite")


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


def q_axis_size(forms, length_um: float, w_s: float, span_q: float) -> int:
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

    That bound alone sizes the axis.  It can take fewer than
    :data:`MIN_LOBE_POINTS` points across the q_c lobe 2 pi / |m_q l/2|:
    the pair S S' needs only 2, and at phi = 5 deg counter, l = 4 mm,
    w_s = 50 um, 43 points hold 3.7.  The main-lobe check guards only an
    axis whose size the caller gave (:func:`derive_grids`).

    The aliasing is then negligible; what remains is the q_c trapezoid's
    O(h^2) endpoint term of the beam tail at the box edge, which
    :func:`derive_grids` keeps at least 1.5 beam widths past the beam's
    farthest drift (the derived Omega axes' Gauss-Legendre error falls
    exponentially instead).  Against 4 n - 3 points over the same span, a
    quarter of the step, the derived axis moves K, lambda_1, purity and
    probability by at most 1.65e-9 on the sweep of
    ``tests/test_calibration.py`` (the worst case phi = 1 deg co, l = 1 mm,
    w_s = 200 um), a shift that falls as h^2.  It takes 19-25 points on the
    default configuration's 1-4 mm x 50-200 um lattice, and up to 101 at
    gate order 0 and 198 at order 2 on the sweep's grid, where the drift
    widens the span (phi = 5 deg counter, l = 4 mm, w_s = 200 um).
    """
    _, beam, match = forms
    log_tol = np.log(2.0 / Q_ALIAS_TOL)
    beam_q, match_q = w_s * abs(beam[1]), abs(match[1] * length_um / 2.0)
    step = 2.0 * np.pi / (2.0 * match_q + 2.0 * beam_q * np.sqrt(log_tol))
    return max(MIN_AXIS_POINTS, int(np.ceil(2.0 * span_q / step)) + 1)


def omega_axis_size(half_span: float, rates: dict[str, float]) -> int:
    """Gauss-Legendre nodes on a derived Omega axis of half-span ``half_span``.

    The least odd n >= n_0 + half_span sum_i c_i r_i, and at least
    :data:`MIN_AXIS_POINTS`, with n_0 the :data:`OMEGA_NODE_FLOOR` and c_i
    the :data:`OMEGA_NODES_PER_RADIAN`.  ``rates`` maps each factor sampled
    on the axis to the rate r_i (fs) it turns at along it
    (:func:`derive_grids`): ``match`` the phase matching, ``beam`` the beam
    Gaussian, ``gate`` the gate's top HG order and, on the Omega_s axis of
    a solve conditioned on a comb, ``comb`` the top comb mode.  The factors
    multiply, so their bandwidths, and the node counts they take, add; a
    single c max(r_i) over-resolves one factor to reach another.  An odd n
    puts a node at Omega = 0.

    n_0 and the c_i are a linear-programme fit of the least n per axis
    within 2e-13 of a converged solve (K, lambda_1, purity and probability)
    on the sweep of ``tests/test_calibration.py``: 4 presets x l = 1, 2.5,
    4 mm x w_s = 50, 110, 200 um x gate orders 0-2 at tau_g = 94 fs, and
    seeded random points that also vary l up to 6 mm, tau_g over
    60-130 fs and span_scale over 1-1.5.  The fit keeps each axis 2 nodes
    over its least n, minimizes the sum of n over the sweep and over the
    benchmark's phi = 1 deg order-0 lattice, and fits ``comb`` last, the
    kernel terms held.  The errors of the two axes do not add: with
    Omega_c near its least n, the Omega_c rule's error oscillates in
    Omega_s, and a coarse Omega_s aliases it.  On the sweep the rule is
    within 6.9e-14 of the solve on twice its nodes.  Past the sweep the fit
    does not hold: a Gauss-Legendre rule needs about one node per radian
    the sinc turns through, and ``match`` gives 0.66, so where that term
    outgrows the floor the axis aliases.  An alias that reads more than the
    whole continuum norm raises :class:`KernelResolutionError`
    (:data:`MAX_MASS_CAPTURED`; a collinear 15.4 mm crystal at span_scale 3
    reads 1.168 on 223 Omega_c nodes, and 331 are converged); one that
    reads less passes.  On the grid it takes:

        order  Omega_c   Omega_s   Omega_s with the 40-mode comb
        0      37-61     35-59     49-73
        1      63-95     57-95     77-115
        2      91-135    85-133    111-161

    On the benchmark's lattice (phi = 1 deg co, order 0, l = 1-4 mm,
    w_s = 50-200 um) that is 37-49 nodes on Omega_c, 35-37 on a scan's
    Omega_s and 49-51 on a conditioned Omega_s.
    """
    phase = half_span * sum(OMEGA_NODES_PER_RADIAN[factor] * rate
                            for factor, rate in rates.items())
    n = math.ceil(OMEGA_NODE_FLOOR + phase)
    return max(n, MIN_AXIS_POINTS) | 1


def continuum_norm_sq(forms, length_um: float) -> float:
    """||L||^2 over all of (Omega_c, q_c, Omega_s): pi / |det M|, M the rows
    of ``forms`` (:func:`~modesub.dispersion.kernel_forms`) with the match
    row times l/2.  In y = M x, L is a product of one factor per y_k, the
    sinc^2 integrates to pi, and the HG gate and the beam Gaussian have unit
    norm for every gate order."""
    gate, beam, match = forms
    det = np.linalg.det([gate, beam, [c * length_um / 2.0 for c in match]])
    return float(np.pi / abs(det))


def derive_grids(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
                 config: GridConfig) -> tuple[tuple[QuadGrid, QuadGrid, QuadGrid], dict]:
    """The kernel's quadrature axes, and the axis sizes and the q_c drift
    ratio as diagnostics; the one place an axis is sized and guarded.

    Omega spans come from the gate and comb time scales and from the
    phase-matching bandwidth 2 pi / (k'_c - k'_s) l, the sinc's main lobe
    (widest wins).

    A derived Omega axis holds :func:`omega_axis_size`'s Gauss-Legendre
    nodes for the factors sampled on it, each at the rate it turns along
    the axis: the phase matching, at |m| l/2 (m its coefficient in the
    match row of :func:`~modesub.dispersion.kernel_forms`); the beam, at
    w_s |b| (b likewise, of the beam row); and the gate's top HG order, at
    tau_g sqrt(2 order + 1).  Those are the kernel's own factors, and they
    alone size Omega_c, which the Gram integrates out before any comb mode
    is sampled.  Omega_s adds the comb's top mode, at tau_s sqrt(2 N - 1),
    only when ``signal`` carries a comb count N: a solve conditioned on a
    comb samples its modes on Omega_s, and a scan or a dump samples none.

    The q_c span holds the signal beam where the Omega box puts it.  Over
    the box the beam centre q* = -(b_c Omega_c + b_s Omega_s) / b_q (b the
    beam row) drifts by up to d = (|b_c| S_c + |b_s| S_s) / |b_q|, S_c and
    S_s the Omega half-spans.  The derived q_c half-span is the larger of
    the beam's own 5 / w_s and d / :data:`MAX_Q_DRIFT`; only points with a
    large drift, such as phi = 5 deg with a wide beam, take the second.
    The q_c size is :func:`q_axis_size`'s for that span, and
    ``q_drift_ratio`` reports d / span_q.  ``span_scale`` scales the Omega
    half-spans only; the q_c span follows them through the drift.

    A derived axis answers to the rule that sized it and is not checked.
    A given ``n_*`` gives a uniform trapezoid axis of that many points,
    held to :data:`MIN_LOBE_POINTS` points across the phase-matching main
    lobe 2 pi / |m l/2| along it; a coarser one raises
    :class:`KernelResolutionError` naming its ``n_*`` key, the axes checked
    in the order Omega_c, q_c, Omega_s.
    """
    forms = kernel_forms(preset.kp_s, preset.kp_c, preset.phi, preset.rho)
    l = preset.length_um
    w_s = signal.waist_s_um
    s_omega = max(default_half_span(gate.tau_g, gate.order),
                  default_half_span(signal.spectral_tau_fs),
                  2.0 * np.pi / ((preset.kp_c - preset.kp_s) * l)) * config.span_scale

    _, beam, match = forms
    gate_rate = gate.tau_g * math.sqrt(2 * gate.order + 1)

    def given(key: str, n: int, span: float, k: int) -> QuadGrid:
        grid = uniform_grid(span, n)
        c = match[k] * (l / 2.0)
        lobe_points = math.inf if c == 0.0 else (
            (2.0 * np.pi / abs(c)) / (grid.points[1] - grid.points[0]))
        if lobe_points < MIN_LOBE_POINTS:
            raise KernelResolutionError(
                f"{key} = {n}: {lobe_points:.1f} points across the "
                f"phase-matching main lobe, need >= {MIN_LOBE_POINTS}")
        return grid

    def omega_axis(key: str, n: int | None, k: int, **comb) -> QuadGrid:
        if n is not None:
            return given(key, n, s_omega, k)
        rates = {"match": abs(match[k]) * l / 2.0, "beam": w_s * abs(beam[k]),
                 "gate": gate_rate, **comb}
        return gauss_legendre_grid(s_omega, omega_axis_size(s_omega, rates))

    # only a solve conditioned on a comb samples its modes, on Omega_s
    comb = ({} if signal.comb_modes is None else
            {"comb": signal.spectral_tau_fs * math.sqrt(2 * signal.comb_modes - 1)})

    # two products summed: the factored (|b_c| + |b_s|) S rounds differently
    drift = (abs(beam[0]) * s_omega + abs(beam[2]) * s_omega) / abs(beam[1])
    # the margin keeps drift / s_q at or under MAX_Q_DRIFT after rounding
    s_q = max(default_half_span(w_s), drift / MAX_Q_DRIFT * (1.0 + 1e-9))
    g_wc = omega_axis("n_omega_c", config.n_omega_c, 0)
    g_q = (uniform_grid(s_q, q_axis_size(forms, l, w_s, s_q)) if config.n_q is None
           else given("n_q", config.n_q, s_q, 1))
    g_ws = omega_axis("n_omega_s", config.n_omega_s, 2, **comb)
    return (g_wc, g_q, g_ws), {"n_omega_c": g_wc.size, "n_q": g_q.size,
                               "n_omega_s": g_ws.size, "q_drift_ratio": drift / s_q}


def _outer_part(coeffs, omega_c, omega_s):
    """c0 Omega_c + c2 Omega_s: the (Omega_c, Omega_s) part of the form
    c0 Omega_c + c1 q_c + c2 Omega_s, whose q_c part is c1 q_c."""
    return coeffs[0] * omega_c + coeffs[2] * omega_s


def _sample(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
            config: GridConfig):
    """The kernel's quadrature axes, a plane-block writer, the continuum norm^2
    and, as diagnostics, the axis sizes and q_c drift ratio.

    :func:`derive_grids` sizes the axes and guards each one whose size
    ``config`` gives, before any sample is taken.  ``blocks(w_c, w_q)``
    writes the samples times sqrt(w_c w_q), ``w_c`` the weights of the
    Omega_c rows [0, len(w_c)) it samples and ``w_q`` those of every q_c
    plane.  It evaluates the 2-D (Omega_c, Omega_s) parts of the forms
    (module docstring) on those rows once, with their sin and cos and their
    gate amplitude, which takes sqrt(w_c) row by row.  It then yields
    ``(start, block)``: the q_c planes [start, start + len(block)), written
    into one reused contiguous block ([planes, rows, n_s], real float64) of
    about :data:`BLOCK_SAMPLES` samples.  On a plane the 1-D q_c parts are
    scalars, so every 3-D op is one contiguous pass over the block, a 2-D
    part and the planes' scalars broadcast along each plane, in place or
    into one block-sized temporary; a derived grid's planes are small (735
    samples at the default scan point), and one numpy call per op and
    block, not per plane, keeps the call overhead off them.  Per block the
    sinc takes two multiplies, an add, the add u + v, the divide and the
    |x| mask of :func:`_sine_over`.  The beam then takes an add, a square,
    the subtract from log sqrt(w_q[k]) that puts plane k's weight in its
    exponent, and an exp, and two multiplies apply the beam and the gate.
    Only the beam's exp sees every sample.  With unit weights
    (:func:`build_kernel`) sqrt 1 = 1 and log 1 = 0, so the samples are the
    unweighted kernel's to the last bit.  Every sample takes the same ops
    in the same order, so it is the same to the last bit whatever the block
    shape.
    """
    (g_wc, g_q, g_ws), diagnostics = derive_grids(preset, gate, signal, config)
    forms = kernel_forms(preset.kp_s, preset.kp_c, preset.phi, preset.rho)
    continuum = continuum_norm_sq(forms, preset.length_um)
    gate_form, beam_form, match_form = forms
    half_l = preset.length_um / 2.0
    pm_form = tuple(c * half_l for c in match_form)

    w_s = signal.waist_s_um
    amp = np.sqrt(w_s) / np.pi**0.25
    beam_form = tuple(w_s * np.sqrt(0.5) * c for c in beam_form)
    # the 1-D parts, one scalar per q_c plane
    gamma, v = beam_form[1] * g_q.points, pm_form[1] * g_q.points
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
        sin_u, cos_u = np.sin(u), np.cos(u)
        per_block = max(1, BLOCK_SAMPLES // u.size)
        block = np.empty((min(per_block, g_q.size), *u.shape))
        temp = np.empty_like(block)
        for start in range(0, g_q.size, per_block):
            stop = min(start + per_block, g_q.size)
            part, tmp = block[:stop - start], temp[:stop - start]
            # the 1-D parts of the block's planes, broadcast along each plane
            planes = (slice(start, stop), None, None)
            np.multiply(sin_u, cos_v[planes], out=part)
            part += np.multiply(cos_u, sin_v[planes], out=tmp)
            _sine_over(part, np.add(u, v[planes], out=tmp))
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


def _apart(value: float, bound: float) -> str:
    """``value`` to at least 3 decimals, and to as many more as it takes to
    differ from ``bound``: the rounding stays under a twentieth of the gap."""
    decimals = max(3, 1 - math.floor(math.log10(abs(value - bound))))
    return f"{value:.{decimals}f}"


def _checked_mass(norm_sq: float, continuum: float) -> float:
    """``mass_captured`` = norm_sq / ``continuum`` (:func:`continuum_norm_sq`).

    Raises :class:`KernelSpanError` when the norm vanished or overflowed or
    the share is under :data:`MIN_MASS_CAPTURED`, and
    :class:`KernelResolutionError` when the share is over
    :data:`MAX_MASS_CAPTURED`, which only an aliased axis can read.  The
    messages print the share to as many decimals as set it apart from the
    limit, or from 1, that it missed (:func:`_apart`).
    """
    if norm_sq <= 0 or not np.isfinite(norm_sq):
        raise KernelSpanError("kernel norm vanished or overflowed; check spans")
    captured = norm_sq / continuum
    if captured < MIN_MASS_CAPTURED:
        raise KernelSpanError(
            f"the grid box holds {_apart(captured, MIN_MASS_CAPTURED)} of the kernel's "
            f"continuum norm^2 (limit {MIN_MASS_CAPTURED}); widen the grid spans")
    if captured > MAX_MASS_CAPTURED:
        raise KernelResolutionError(
            f"the grid box reads {_apart(captured, 1.0)} of the kernel's continuum "
            "norm^2, more than all of it: an axis aliases the kernel; give it more points")
    return captured


@one_blas_thread()
def kernel_gram(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
                config: GridConfig = GridConfig()) -> KernelGram:
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
    grids, blocks, continuum, diagnostics = _sample(preset, gate, signal, config)
    gram = _folded_gram(blocks, grids)
    norm_sq = float(np.diag(gram) @ grids[2].weights)
    captured = _checked_mass(norm_sq, continuum)
    return KernelGram(gram=gram, omega_s=grids[2],
                      diagnostics={**diagnostics, "mass_captured": captured})


def build_kernel(preset: CrystalPreset, gate: GateSpec, signal: SignalBeamSpec,
                 config: GridConfig = GridConfig()) -> KernelGrid:
    """Sample the reduced transfer function on a 3-D quadrature grid.

    :func:`derive_grids` sizes the axes and raises
    :class:`KernelResolutionError` for an axis whose size the config gives
    with fewer than :data:`MIN_LOBE_POINTS` points across the
    phase-matching main lobe, before any sample is taken.  After sampling,
    the box raises :class:`KernelResolutionError` when it reads over
    :data:`MAX_MASS_CAPTURED` of the continuum norm^2, and
    :class:`KernelSpanError` when it holds under :data:`MIN_MASS_CAPTURED`
    of it, the share ``diagnostics["mass_captured"]`` reports
    (:func:`_checked_mass`).  Every kernel it returns has passed both.
    """
    grids, blocks, continuum, diagnostics = _sample(preset, gate, signal, config)
    g_wc, g_q, g_ws = grids
    values = np.empty((g_wc.size, g_q.size, g_ws.size))
    # a q_c plane of the array is strided, and the writer runs about twice
    # as slow on it, so the planes are written contiguously and copied in
    for start, block in blocks(np.ones(g_wc.size), np.ones(g_q.size)):
        values[:, start:start + block.shape[0]] = block.transpose(1, 0, 2)
    # |L|^2 w_c w_q w_s summed in one pass over the array, no dense temporary
    norm_sq = float(g_wc.weights @ np.einsum("cqs,cqs,s->cq", values, values,
                                             g_ws.weights) @ g_q.weights)
    captured = _checked_mass(norm_sq, continuum)
    return KernelGrid(values=values, omega_c=g_wc, q_c=g_q, omega_s=g_ws,
                      diagnostics={**diagnostics, "mass_captured": captured})
