import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from modesub import (GateSpec, GridConfig, SignalBeamSpec, build_kernel, decompose,
                     kernel_gram)
from modesub.dispersion import PRESETS, kernel_forms
from modesub.conditioning import comb_subtraction_experiment, flat_comb
from modesub.kernel import (MAX_MASS_CAPTURED, MAX_Q_DRIFT, MIN_LOBE_POINTS,
                            MIN_MASS_CAPTURED, Q_ALIAS_TOL, SINC_SERIES_BELOW,
                            KernelResolutionError, KernelSpanError, _sample, _sine_over,
                            derive_grids, omega_axis_size, sinc)
from modesub.modes import (default_half_span, gauss_legendre_grid, hermite_gauss_values,
                           uniform_grid)

from conftest import TAU_COMB_FS, collinear_preset, delta_k, omega_rule_shifts


def first_principles(kernel, preset, gate, signal):
    """Gate spectrum x beam Gaussian x phase matching, each from its own formula,
    on the kernel's grid; also returns the phase-matching argument."""
    wc = kernel.omega_c.points[:, None, None]
    qc = kernel.q_c.points[None, :, None]
    ws = kernel.omega_s.points[None, None, :]
    w_s = signal.waist_s_um
    beam_arg = (qc / math.cos(preset.phi)
                + preset.kp_s * math.tan(preset.phi) * (wc - 2 * ws))
    beam = np.sqrt(w_s) / np.pi**0.25 * np.exp(-0.5 * (w_s * beam_arg) ** 2)
    x = delta_k(preset, wc, qc, ws) * preset.length_um / 2.0
    return hermite_gauss_values(gate.order, gate.tau_g, wc - ws) * beam * sinc(x), x


def sinc_id(value):
    """A case's test id with the phase matching, the kernel's sinc, named after it."""
    return f"{value}-sinc"


def assert_matches_everywhere(values, expected):
    """Every sample within 1e-12 relative, or 1e-15 of the largest |sample|."""
    assert np.all(np.isfinite(values))
    tol = np.maximum(1e-12 * np.abs(expected), 1e-15 * np.abs(expected).max())
    assert np.all(np.abs(values - expected) <= tol)


class TestGateSpec:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GateSpec(order=-1, tau_g=1.0)
        with pytest.raises(ValueError):
            GateSpec(order=0, tau_g=0.0)

    @pytest.mark.parametrize("order", [float("inf"), float("nan")])
    def test_non_finite_order_is_a_value_error(self, order):
        with pytest.raises(ValueError, match="order"):
            GateSpec(order=order, tau_g=1.0)

    def test_integral_float_order_stored_as_int(self):
        gate = GateSpec(order=2.0, tau_g=1.0)
        assert type(gate.order) is int and gate.order == 2

    @pytest.mark.parametrize("field, value", [("waist_g_um", 0.0), ("energy_j", -1e-9),
                                              ("rep_rate_hz", 0.0)])
    def test_beam_fields_are_checked(self, field, value):
        with pytest.raises(ValueError, match="waist, energy and repetition rate"):
            GateSpec(order=0, tau_g=94.0, **{field: value})

    # nan <= 0 is false, so a sign check alone lets NaN through to a NaN result
    @pytest.mark.parametrize("field, value", [
        ("tau_g", math.nan), ("waist_g_um", math.nan), ("energy_j", math.nan),
        ("rep_rate_hz", math.nan), ("energy_j", math.inf)])
    def test_non_finite_field_is_a_value_error(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            replace(GateSpec(order=0, tau_g=94.0), **{field: value})


class TestSignalAndGridSpecs:
    @pytest.mark.parametrize("field, value", [
        ("waist_s_um", math.nan), ("spectral_tau_fs", math.nan),
        ("waist_s_um", math.inf)])
    def test_non_finite_signal_field_is_a_value_error(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            replace(SignalBeamSpec(waist_s_um=107.7, spectral_tau_fs=TAU_COMB_FS),
                    **{field: value})

    @pytest.mark.parametrize("span_scale", [math.nan, math.inf])
    def test_non_finite_span_scale_is_a_value_error(self, span_scale):
        with pytest.raises(ValueError, match="span_scale"):
            GridConfig(span_scale=span_scale)


class TestSinc:
    def test_values(self):
        assert sinc(np.array([0.0]))[0] == 1.0
        x = np.array([1e-5, 1e-3, 0.5, 3.0])
        assert np.allclose(sinc(x), np.sin(x) / x, rtol=1e-14, atol=1e-16)

    def test_even(self):
        x = np.linspace(-10, 10, 101)
        assert np.array_equal(sinc(x), sinc(-x))

    def test_angle_addition_quotient_near_zero(self, rng):
        # the sampler's numerator sin u cos v + cos u sin v carries an
        # absolute error ~2e-16 that the divide by a small x amplifies
        x_target = np.geomspace(1e-7, 0.3, 4000) * rng.choice([-1.0, 1.0], 4000)
        u = rng.uniform(-20.0, 20.0, x_target.size)
        v = x_target - u
        x = u + v
        sine = np.sin(u) * np.cos(v) + np.cos(u) * np.sin(v)
        x2 = x * x
        series = 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0 * (1.0 - x2 / 72.0)))
        expected = np.where(np.abs(x) < 0.05, series, np.sin(x) / x)
        assert np.allclose(_sine_over(sine, x), expected, rtol=1e-13, atol=0.0)

    @staticmethod
    def boolean_mask_sine_over(sine, x):
        """The plain boolean-mask form of :func:`_sine_over`'s arithmetic."""
        sine = sine / x
        small = (x < SINC_SERIES_BELOW) & (x > -SINC_SERIES_BELOW)
        x2 = np.square(x[small])
        sine[small] = 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0)
        return sine

    @pytest.mark.parametrize("case", ["near-zero", "no-small-x", "strided"])
    def test_series_bit_identical_to_boolean_mask(self, rng, case):
        if case == "no-small-x":   # a plane the phase-matching ridge misses
            x = rng.uniform(0.5, 40.0, (64, 128)) * rng.choice([-1.0, 1.0], (64, 128))
            sine = np.sin(x)
        else:   # test_angle_addition_quotient_near_zero's inputs, as a plane
            x_target = np.geomspace(1e-7, 0.3, 4000) * rng.choice([-1.0, 1.0], 4000)
            u = rng.uniform(-20.0, 20.0, x_target.size)
            v = x_target - u
            x = (u + v).reshape(50, 80)
            sine = (np.sin(u) * np.cos(v) + np.cos(u) * np.sin(v)).reshape(50, 80)
        expected = self.boolean_mask_sine_over(sine, x)
        if case == "strided":   # the series must land in a non-contiguous array
            sine, x = np.asfortranarray(sine), np.asfortranarray(x)
        assert np.array_equal(_sine_over(sine, x), expected)


class TestBuildKernel:
    def test_peak_is_product_of_on_axis_amplitudes(self, bbo1co, gate94, signal_opt):
        cfg = GridConfig(n_omega_c=65, n_q=65, n_omega_s=65)
        k = build_kernel(bbo1co, gate94, signal_opt, cfg)
        center = k.values[32, 32, 32]
        expected = (np.sqrt(94.0) / np.pi**0.25) * (np.sqrt(107.7) / np.pi**0.25)
        assert center.real == pytest.approx(expected, rel=1e-12)
        assert center.imag == 0.0

    def test_matches_first_principles_formula(self, bbo1co, gate94, signal_opt, rng):
        cfg = GridConfig(n_omega_c=48, n_q=48, n_omega_s=48)
        k = build_kernel(bbo1co, gate94, signal_opt, cfg)
        p = bbo1co
        for _ in range(30):
            i, j, m = rng.integers(0, 48, 3)
            wc = k.omega_c.points[i]
            qc = k.q_c.points[j]
            ws = k.omega_s.points[m]
            gate = hermite_gauss_values(0, 94.0, wc - ws)
            us_arg = qc / math.cos(p.phi) + p.kp_s * math.tan(p.phi) * (wc - 2 * ws)
            us = np.sqrt(107.7) / np.pi**0.25 * np.exp(-0.5 * (107.7 * us_arg) ** 2)
            pm = sinc(np.array([delta_k(p, wc, qc, ws) * p.length_um / 2.0]))[0]
            assert k.values[i, j, m].real == pytest.approx(
                float(gate * us * pm), rel=1e-12, abs=1e-300)

    def test_collinear_limit_factorizes_spatially(self, gate94, signal_opt):
        k = build_kernel(collinear_preset(), gate94, signal_opt,
                         GridConfig(n_omega_c=48, n_q=48, n_omega_s=48))
        v = k.values.real
        # q_c column shape independent of the frequency indices
        ref = v[24, :, 24] / v[24, 24, 24]
        for (i, m) in ((0, 5), (10, 40), (33, 17)):
            column = v[i, :, m] / v[i, 24, m]
            assert np.allclose(column, ref, rtol=1e-12, atol=1e-12)

    def test_even_under_joint_sign_flip(self, bbo1co, gate94, signal_opt):
        cfg = GridConfig(n_omega_c=48, n_q=48, n_omega_s=48)
        k = build_kernel(bbo1co, gate94, signal_opt, cfg)
        v = k.values.real
        flipped = v[::-1, ::-1, ::-1]
        assert np.allclose(v, flipped, rtol=1e-12, atol=1e-14 * np.abs(v).max())

    def test_order0_values_real_and_norm_positive(self, bbo1co, gate94, signal_opt):
        k = build_kernel(bbo1co, gate94, signal_opt,
                         GridConfig(n_omega_c=48, n_q=48, n_omega_s=48))
        assert np.all(k.values.imag == 0.0)
        assert k.diagnostics["mass_captured"] > 0
        assert np.all(np.isfinite(k.values.real))

    def test_float_gate_order_is_the_integer_order(self, bbo1co, signal_opt):
        grams = [kernel_gram(bbo1co, GateSpec(order=order, tau_g=94.0),
                             signal_opt) for order in (2, 2.0)]
        assert np.array_equal(grams[0].gram, grams[1].gram)

    def test_resolution_guard(self, bbo1co, gate94, signal_opt):
        long_crystal = replace(bbo1co, length_um=11663.4)
        with pytest.raises(KernelResolutionError):
            build_kernel(long_crystal, gate94, signal_opt,
                         GridConfig(n_omega_c=64, n_q=48, n_omega_s=48))

    def test_span_guard(self, bbo1co, gate94, signal_opt):
        cfg = GridConfig(n_omega_c=48, n_q=48, n_omega_s=48,
                         span_omega_c=0.005, span_omega_s=0.005)
        with pytest.raises(KernelSpanError):
            build_kernel(bbo1co, gate94, signal_opt, cfg)

    @pytest.mark.parametrize("length_mm,span_scale", [(15.4, 3.0), (154.0, 1.0)])
    def test_box_reading_more_than_the_continuum_is_an_alias(self, gate94, signal_opt,
                                                             length_mm, span_scale):
        # a collinear crystal past the node rule's sweep: its derived Omega_c
        # axis aliases the sinc, and the box reads 1.168 and 1.595 of the
        # continuum norm^2, more than any box can hold
        preset = collinear_preset(length_um=length_mm * 1e3)
        config = GridConfig(span_scale=span_scale)
        with pytest.raises(KernelResolutionError, match="more than all of it"):
            kernel_gram(preset, gate94, signal_opt, config)
        with pytest.raises(KernelResolutionError, match="more than all of it"):
            build_kernel(preset, gate94, signal_opt, config)
        unchecked = build_kernel(preset, gate94, signal_opt, config, check=False)
        assert unchecked.diagnostics["mass_captured"] > MAX_MASS_CAPTURED

    def test_sinc_mass_outside_the_box_falls_as_one_over_span(self, gate94, signal_opt):
        # the sinc^2 tails past X x the spans hold a share ~ 1/X of the norm
        # (l = 1 mm: 0.0662 and 0.0329 at X = 1 and 2, same step)
        preset = replace(PRESETS["bbo-phi1-co"], length_um=1000.0)
        outside = [(1.0 - kernel_gram(preset, gate94, signal_opt,
                                      GridConfig(n_omega_c=n, n_omega_s=n, span_scale=x)
                                      ).diagnostics["mass_captured"]) * x
                   for x, n in ((1.0, 128), (2.0, 256))]
        assert outside[1] == pytest.approx(outside[0], rel=0.05)

    def test_mass_captured_does_not_depend_on_the_step(self, gate94):
        # one box at two steps holds one share of the norm
        preset = replace(PRESETS["bbo-phi1-co"], length_um=1000.0)
        signal = SignalBeamSpec(waist_s_um=200.0, spectral_tau_fs=TAU_COMB_FS)
        coarse, fine = (kernel_gram(preset, gate94, signal, GridConfig(n, n, n))
                        .diagnostics["mass_captured"] for n in (64, 128))
        assert coarse >= MIN_MASS_CAPTURED
        assert coarse == pytest.approx(fine, abs=1e-4)

    def test_gate_marginal_recovery_in_long_pulse_limit(self, signal_opt):
        # narrowband gate in a thin crystal: phase matching is flat across
        # the gate bandwidth and the kernel's frequency dependence on the
        # centered slice reduces to the gate intensity profile
        preset = collinear_preset(length_um=50.0)
        gate = GateSpec(order=0, tau_g=200.0)
        cfg = GridConfig(n_omega_c=193, n_q=48, n_omega_s=33,
                         span_omega_c=0.03, span_omega_s=0.004)
        # the narrow omega_s slab intentionally does not contain the kernel;
        # only the centered slice is inspected
        k = build_kernel(preset, gate, signal_opt, cfg, check=False)
        mid = k.omega_s.size // 2
        assert k.omega_s.points[mid] == 0.0
        marginal = np.sum(np.abs(k.values[:, :, mid]) ** 2
                          * k.q_c.weights[None, :], axis=1)
        gate_intensity = np.abs(hermite_gauss_values(0, 200.0, k.omega_c.points)) ** 2
        corr = np.corrcoef(marginal, gate_intensity)[0, 1]
        assert corr > 0.99

    def test_span_scale_and_overrides(self, bbo1co, gate94, signal_opt):
        g1 = derive_grids(bbo1co, gate94, signal_opt, GridConfig())
        g2 = derive_grids(bbo1co, gate94, signal_opt, GridConfig(span_scale=2.0))
        # the weights of a derived Omega axis sum to its box width
        assert g2[0].weights.sum() == pytest.approx(2.0 * g1[0].weights.sum(), rel=1e-12)
        # span_scale widens the Omega spans only: the q_c axis holds the
        # beam, and at this point the drift over the wider box fits in it
        for scale in (0.8, 2.0):
            gx = derive_grids(bbo1co, gate94, signal_opt, GridConfig(span_scale=scale))
            assert gx[1].size == g1[1].size
            assert gx[1].points[-1] == g1[1].points[-1]
        g3 = derive_grids(bbo1co, gate94, signal_opt,
                          GridConfig(span_q=0.123))
        assert g3[1].points[-1] == pytest.approx(0.123, rel=1e-12)


def conditioned(preset, order, w_s, n_q):
    """(K, lambda_1, purity, probability) at one point, or the error type."""
    gate = GateSpec(order=0, tau_g=94.0)
    signal = SignalBeamSpec(waist_s_um=w_s, spectral_tau_fs=TAU_COMB_FS)
    config = GridConfig(n_q=n_q)
    try:
        (result,) = comb_subtraction_experiment(preset, gate, signal,
                                                flat_comb(tau_s_fs=TAU_COMB_FS),
                                                (order,), config)
    except (KernelResolutionError, KernelSpanError) as exc:
        return type(exc)
    cond = result.condition
    return np.array([cond.schmidt_number, cond.lambdas_sq[0], cond.purity,
                     cond.probability])


class TestDerivedQAxis:
    @pytest.mark.parametrize("preset_name", ["bbo-phi1-co", "bbo-phi1-counter",
                                             "bbo-phi5-co", "bbo-phi5-counter"],
                             ids=sinc_id)
    def test_matches_the_fixed_128_points(self, preset_name):
        # l and w_s corners, gate orders 0 and 2: the derived axis moves no
        # number by more than 1e-8.  At phi = 5 deg counter, l = 4 mm, order
        # 2, the drift over the order-2 box widens the q_c span past what 128
        # points resolve (5.6 points across the lobe), and 256 points stand in
        for l_um in (1000.0, 4000.0):
            preset = replace(PRESETS[preset_name], length_um=l_um)
            for w_s in (50.0, 200.0):
                for order in (0, 2):
                    derived = conditioned(preset, order, w_s, None)
                    fixed = conditioned(preset, order, w_s, 128)
                    if fixed is KernelResolutionError:
                        fixed = conditioned(preset, order, w_s, 256)
                    assert np.all(np.abs(derived - fixed) <= 1e-8 * np.abs(fixed))

    def test_step_follows_the_beam_and_the_lobe(self, bbo1co, gate94, signal_opt):
        gram = kernel_gram(bbo1co, gate94, signal_opt)
        g_q = derive_grids(bbo1co, gate94, signal_opt, GridConfig())[1]
        assert gram.diagnostics["n_q"] == g_q.size
        assert gram.diagnostics["q_drift_ratio"] <= MAX_Q_DRIFT
        _, beam, match = kernel_forms(bbo1co.kp_s, bbo1co.kp_c, bbo1co.phi, bbo1co.rho)

        def band_and_lobe(preset, g_q, n):
            # on an n-point axis over g_q's span: 2 pi / h over the band of
            # the beam pair's Gaussian and the sinc pair, and the points
            # across the q_c lobe
            step = (g_q.points[-1] - g_q.points[0]) / (n - 1)
            match_q = abs(match[1] * preset.length_um / 2.0)
            band = (2.0 * match_q + 2.0 * signal_opt.waist_s_um * abs(beam[1])
                    * math.sqrt(math.log(2.0 / Q_ALIAS_TOL)))
            return 2.0 * np.pi / step / band, 2.0 * np.pi / match_q / step

        alias, lobe = band_and_lobe(bbo1co, g_q, g_q.size)
        assert alias >= 1.0 and lobe >= MIN_LOBE_POINTS
        # the largest step that fits: one point fewer aliases
        assert band_and_lobe(bbo1co, g_q, g_q.size - 1)[0] < 1.0
        # a long crystal's q lobe, not the beam, sets the step
        long = replace(bbo1co, length_um=11663.4)
        g_long = derive_grids(long, gate94, signal_opt, GridConfig())[1]
        alias, lobe = band_and_lobe(long, g_long, g_long.size)
        assert alias > 1.0 and lobe >= MIN_LOBE_POINTS
        alias, lobe = band_and_lobe(long, g_long, g_long.size - 1)
        assert alias > 1.0 and lobe < MIN_LOBE_POINTS

    @pytest.mark.parametrize("l_um", [1000.0, 4000.0])
    @pytest.mark.parametrize("w_s", [50.0, 200.0])
    def test_lattice_corners_take_at_most_29_points(self, gate94, l_um, w_s):
        # the aliasing bound, not a fixed step per waist, sizes the axis
        preset = replace(PRESETS["bbo-phi1-co"], length_um=l_um)
        signal = SignalBeamSpec(waist_s_um=w_s, spectral_tau_fs=TAU_COMB_FS)
        assert derive_grids(preset, gate94, signal, GridConfig())[1].size <= 29

    def test_span_holds_the_beam_drift(self, gate94):
        # phi = 5 deg co, w_s = 200 um: the beam centre drifts 3.2 of the
        # beam's own 5 / w_s over the Omega box, so the drift sets the span
        preset = replace(PRESETS["bbo-phi5-co"], length_um=4000.0)
        signal = SignalBeamSpec(waist_s_um=200.0, spectral_tau_fs=TAU_COMB_FS)
        gram = kernel_gram(preset, gate94, signal)
        assert gram.diagnostics["q_drift_ratio"] <= MAX_Q_DRIFT
        assert gram.diagnostics["q_drift_ratio"] == pytest.approx(MAX_Q_DRIFT)
        span_q = derive_grids(preset, gate94, signal, GridConfig())[1].points[-1]
        wide = kernel_gram(preset, gate94, signal, GridConfig(span_q=2.0 * span_q))
        k, k_wide = (decompose(g).schmidt_number for g in (gram, wide))
        assert k == pytest.approx(k_wide, rel=1e-12)
        assert k == pytest.approx(4.423872, abs=1e-6)

    def test_explicit_size_used_as_given(self, bbo1co, gate94, signal_opt):
        kernel = build_kernel(bbo1co, gate94, signal_opt, GridConfig(n_q=64))
        assert kernel.q_c.size == kernel.diagnostics["n_q"] == 64
        assert 0.0 < kernel.diagnostics["q_drift_ratio"] <= MAX_Q_DRIFT
        derived = derive_grids(bbo1co, gate94, signal_opt, GridConfig())[1]
        assert kernel.q_c.points[-1] - kernel.q_c.points[0] == pytest.approx(
            derived.points[-1] - derived.points[0], rel=1e-12)


class TestFirstPrinciples:
    """The split-form sampler against the plain product, at every sample."""

    # odd on every axis: the centre sample has delta_k = 0 exactly
    SERIES_SHAPE = (41, 41, 41)

    @pytest.mark.parametrize("shape", [(48, 47, 49), SERIES_SHAPE])
    @pytest.mark.parametrize("preset_name", ["bbo-phi1-co", "bbo-phi5-counter"],
                             ids=sinc_id)
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_every_sample_matches(self, signal_opt, order, preset_name, shape):
        preset = PRESETS[preset_name]
        gate = GateSpec(order=order, tau_g=94.0)
        k = build_kernel(preset, gate, signal_opt, GridConfig(*shape), check=False)
        expected, _ = first_principles(k, preset, gate, signal_opt)
        assert_matches_everywhere(k.values, expected)

    def test_grid_reaches_the_series_branch(self, bbo1co, gate94, signal_opt):
        k = build_kernel(bbo1co, gate94, signal_opt, GridConfig(*self.SERIES_SHAPE),
                         check=False)
        _, x = first_principles(k, bbo1co, gate94, signal_opt)
        assert np.any(x == 0.0)
        # deep in the series branch, where the quotient would lose the most
        assert np.any((x != 0.0) & (np.abs(x) < 1e-4))


class TestWideSignalBeam:
    """w_s = 2000 um: the beam exponent's (Omega_c, Omega_s) and q_c parts
    reach a product of several hundred, where exp(-beta gamma) overflows."""

    WIDE = SignalBeamSpec(waist_s_um=2000.0, spectral_tau_fs=93.12)

    @pytest.mark.parametrize("preset_name", ["bbo-phi5-co", "bbo-phi5-counter"])
    def test_span_error_without_a_warning(self, gate94, preset_name):
        # the q_c span holds the beam's drift, so no span error either;
        # filterwarnings = error turns any overflow warning into a failure
        preset = PRESETS[preset_name]
        for build in (kernel_gram, build_kernel):
            kernel = build(preset, gate94, self.WIDE)
            assert kernel.diagnostics["q_drift_ratio"] <= MAX_Q_DRIFT
            assert kernel.diagnostics["mass_captured"] >= MIN_MASS_CAPTURED

    @pytest.mark.parametrize("preset_name", ["bbo-phi5-co", "bbo-phi5-counter"])
    def test_unchecked_values_match_first_principles(self, gate94, preset_name):
        preset = PRESETS[preset_name]
        k = build_kernel(preset, gate94, self.WIDE, GridConfig(64, 64, 64), check=False)
        expected, _ = first_principles(k, preset, gate94, self.WIDE)
        assert_matches_everywhere(k.values, expected)


class TestTranscendentals:
    def test_only_the_beam_exp_sees_the_3d_grid(self, bbo1co, gate94, signal_opt,
                                                 monkeypatch):
        seen = dict.fromkeys(("sin", "cos", "exp"), 0)

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

        def counting(name):
            def call(x, *args, **kwargs):
                seen[name] += np.size(x)
                return getattr(np, name)(x, *args, **kwargs)
            return call

        numpy = CountingNumpy()
        for name in seen:
            setattr(numpy, name, counting(name))
        monkeypatch.setattr("modesub.kernel.np", numpy)
        n_c, n_q, n_s = 45, 40, 41
        kernel_gram(bbo1co, gate94, signal_opt, GridConfig(n_c, n_q, n_s))
        half = (n_c + 1) // 2
        assert seen["sin"] + seen["cos"] <= 2 * (half * n_s + n_q)
        assert seen["exp"] <= half * n_q * n_s + half * n_s + n_q


class TestPointSymmetry:
    """The premise of the folded Gram sum, bit for bit on the dense array."""

    @pytest.mark.parametrize("preset_name", ["bbo-phi1-co", "bbo-phi5-counter"],
                             ids=lambda name: f"sinc-{name}")
    @pytest.mark.parametrize("n_c", [64, 65])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_kernel_is_point_symmetric(self, signal_opt, preset_name, n_c, order):
        gate = GateSpec(order=order, tau_g=94.0)
        cfg = GridConfig(n_omega_c=n_c, n_q=40, n_omega_s=41)
        # the symmetry is algebraic; coarse spans need not pass the checks
        k = build_kernel(PRESETS[preset_name], gate, signal_opt, cfg,
                         check=False)
        for grid in (k.omega_c, k.q_c, k.omega_s):
            assert np.array_equal(grid.points, -grid.points[::-1])
            assert np.array_equal(grid.weights, grid.weights[::-1])
        assert np.array_equal(k.values, (-1) ** order * k.values[::-1, ::-1, ::-1])


class TestKernelGram:
    @pytest.mark.parametrize("n_c", [64, 45])
    def test_samples_half_the_omega_c_axis(self, bbo1co, gate94, signal_opt,
                                           monkeypatch, n_c):
        evaluated = []

        def counting(order, scale, x, *args):
            evaluated.append(np.size(x))
            return hermite_gauss_values(order, scale, x, *args)

        monkeypatch.setattr("modesub.kernel.hermite_gauss_values", counting)
        kernel_gram(bbo1co, gate94, signal_opt,
                    GridConfig(n_omega_c=n_c, n_q=40, n_omega_s=41))
        assert sum(evaluated) == (n_c + 1) // 2 * 41

    @pytest.mark.parametrize("n_c", [64, 45], ids=sinc_id)
    def test_only_the_gram_blocks_carry_the_weights(self, bbo1co, gate94, signal_opt,
                                                    n_c):
        # build_kernel's samples are the kernel itself; the blocks the Gram
        # folds are the same samples times sqrt(w_c w_q), the self-mirrored
        # centre row of an odd Omega_c axis at w_c / 2
        cfg = GridConfig(n_omega_c=n_c, n_q=40, n_omega_s=41)
        dense = build_kernel(bbo1co, gate94, signal_opt, cfg)
        expected, _ = first_principles(dense, bbo1co, gate94, signal_opt)
        assert_matches_everywhere(dense.values, expected)
        (g_wc, g_q, _), blocks, _, _ = _sample(bbo1co, gate94, signal_opt, cfg,
                                               check=True)
        w_c = g_wc.weights[:(n_c + 1) // 2].copy()
        if n_c % 2:
            w_c[-1] /= 2.0
        weighted = np.concatenate([block.copy() for _, block in blocks(w_c, g_q.weights)])
        sqrt_w = np.sqrt(np.outer(g_q.weights, w_c))[:, :, None]
        assert_matches_everywhere(weighted,
                                  dense.values[:w_c.size].transpose(1, 0, 2) * sqrt_w)

    def test_streamed_build_never_holds_the_dense_array(self, bbo1co, gate94,
                                                        signal_opt):
        cfg = GridConfig(n_omega_c=96, n_q=96, n_omega_s=96)
        kernel_gram(bbo1co, gate94, signal_opt, cfg)   # warm lazy numpy state
        tracemalloc.start()
        try:
            kernel_gram(bbo1co, gate94, signal_opt, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense_nbytes = build_kernel(bbo1co, gate94, signal_opt, cfg).values.nbytes
        assert peak < dense_nbytes / 4


class TestOmegaNodeRule:
    """A derived Omega axis holds Gauss-Legendre nodes, as many as
    :func:`omega_axis_size` takes for the factors sampled on it."""

    # phi = 5 deg, l = 4 mm, gate order 2: the order-2 gate doubles the box,
    # and 128 uniform points hold 7.9 points across the Omega_c lobe
    HARD = dict(preset="bbo-phi5-counter", length_um=4000.0, order=2)

    def test_omega_c_is_kernel_sized_and_omega_s_takes_the_comb_when_conditioned(
            self, bbo1co, gate94, signal_opt):
        _, beam, match = kernel_forms(bbo1co.kp_s, bbo1co.kp_c, bbo1co.phi, bbo1co.rho)
        # the comb's 5 / tau_s is the widest half-span
        span = default_half_span(signal_opt.spectral_tau_fs)

        def size(k, **comb):
            rates = {"match": abs(match[k]) * bbo1co.length_um / 2.0,
                     "beam": signal_opt.waist_s_um * abs(beam[k]), "gate": gate94.tau_g}
            return omega_axis_size(span, {**rates, **comb})

        g_wc, g_q, g_ws = derive_grids(bbo1co, gate94, signal_opt, GridConfig())
        conditioned = replace(signal_opt, comb_modes=40)
        c_wc, c_q, c_ws = derive_grids(bbo1co, gate94, conditioned, GridConfig())
        # the comb's 40th mode turns at tau_s sqrt(79), on Omega_s alone
        comb_rate = signal_opt.spectral_tau_fs * math.sqrt(79)
        assert g_wc.size == c_wc.size == size(0)
        assert g_ws.size == size(2) < c_ws.size == size(2, comb=comb_rate)
        for axis in (g_wc, g_ws, c_wc, c_ws):
            expected = gauss_legendre_grid(span, axis.size)
            assert axis.size % 2 == 1
            assert np.array_equal(axis.points, expected.points)
            assert np.array_equal(axis.weights, expected.weights)
        assert np.array_equal(g_q.points, c_q.points)
        assert np.allclose(np.diff(g_q.points), g_q.points[1] - g_q.points[0])

    def test_size_adds_each_factors_nodes(self):
        # the floor, rounded up to odd
        assert omega_axis_size(1e-6, {"gate": 1.0}) == 19
        # 18.4 + 0.05 (0.66 200 + 1.84 20 + 2.85 94) = 40.2 -> 41
        rates = {"match": 200.0, "beam": 20.0, "gate": 94.0}
        assert omega_axis_size(0.05, rates) == 41
        # the comb's top mode adds 0.30 x 0.05 x 800 = 12 nodes
        assert omega_axis_size(0.05, {**rates, "comb": 800.0}) == 53

    def test_explicit_size_keeps_the_uniform_trapezoid(self, bbo1co, gate94, signal_opt):
        g_wc, _, g_ws = derive_grids(bbo1co, gate94, signal_opt,
                                     GridConfig(n_omega_c=128, n_omega_s=65))
        span = default_half_span(signal_opt.spectral_tau_fs)
        assert np.array_equal(g_wc.points, uniform_grid(span, 128).points)
        assert np.array_equal(g_ws.weights, uniform_grid(span, 65).weights)

    @pytest.mark.parametrize("w_s", [50.0, 110.0, 200.0], ids=sinc_id)
    @pytest.mark.parametrize("cut", ["co", "counter"])
    def test_phi5_long_crystal_order2_solves(self, gate94, cut, w_s):
        preset = replace(PRESETS[f"bbo-phi5-{cut}"], length_um=self.HARD["length_um"])
        signal = SignalBeamSpec(waist_s_um=w_s, spectral_tau_fs=TAU_COMB_FS)
        (result,) = comb_subtraction_experiment(preset, gate94, signal,
                                                flat_comb(tau_s_fs=TAU_COMB_FS),
                                                (self.HARD["order"],))
        assert result.grid["mass_captured"] >= MIN_MASS_CAPTURED
        # the same point on 128 uniform points still fails their lobe check
        with pytest.raises(KernelResolutionError, match="omega_c"):
            kernel_gram(preset, replace(gate94, order=self.HARD["order"]), signal,
                        GridConfig(n_omega_c=128, n_omega_s=128))

    def test_rule_matches_the_2n_solve(self):
        # the sweep's largest sinc solve (phi = 5 deg, l = 4 mm,
        # w_s = 200 um, order 2) and the corners of the benchmark's
        # phi = 1 deg, order-0 lattice; the scan path's K and lambda_1 and
        # the subtract path's K, lambda_1, purity and probability
        hard = (self.HARD["preset"], self.HARD["length_um"], 200.0, self.HARD["order"])
        corners = [("bbo-phi1-co", l_um, w_s, 0)
                   for l_um in (1000.0, 4000.0) for w_s in (50.0, 200.0)]
        for case in [hard, *corners]:
            sizes, shifts = omega_rule_shifts(*case)
            assert np.all(shifts <= 1e-12), (case, shifts)
            # the scan's n_omega_c and n_omega_s at the corners
            assert case is hard or max(sizes[:2]) <= 49
