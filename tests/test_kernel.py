import math
import tracemalloc

import numpy as np
import pytest

from modesub import (CrystalPreset, GateSpec, GridConfig, HermiteGaussSpec,
                     SignalBeamSpec, build_kernel, decompose, delta_k, kernel_gram)
from modesub.dispersion import kernel_forms, preset_by_name
from modesub.conditioning import comb_subtraction_experiment, flat_comb
from modesub.kernel import (BOUNDARY_TOL, GAMMA_SINC, MAX_Q_DRIFT, MIN_LOBE_POINTS,
                            Q_ALIAS_TOL, KernelResolutionError, KernelSpanError,
                            _sine_over, derive_grids, sinc)
from modesub.modes import hermite_gauss_values

from conftest import TAU_COMB_FS


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
    pm = sinc(x) if kernel.phase_matching == "sinc" else np.exp(-GAMMA_SINC * x**2)
    return hermite_gauss_values(gate.order, gate.tau_g, wc - ws) * beam * pm, x


def assert_matches_everywhere(values, expected):
    """Every sample within 1e-12 relative, or 1e-15 of the largest |sample|."""
    assert np.all(np.isfinite(values))
    tol = np.maximum(1e-12 * np.abs(expected), 1e-15 * np.abs(expected).max())
    assert np.all(np.abs(values - expected) <= tol)


def collinear_preset(length_um=2000.0):
    """phi = 0, rho = 0 degenerate geometry for factorization checks."""
    return CrystalPreset(name="collinear", lambda_s_um=0.8,
                         kp_s=5.6138837221849, kp_c=5.810686538351809,
                         rho=0.0, phi=0.0, theta_pm=0.0, length_um=length_um)


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

    def test_sinc_argument_equals_delta_k_times_half_length(self, bbo1co, gate94,
                                                            signal_opt):
        # cross-module consistency contract between dispersion and kernel
        cfg = GridConfig(n_omega_c=32, n_q=32, n_omega_s=32)
        k = build_kernel(bbo1co, gate94, signal_opt, cfg)
        _, _, (d_wc, d_qc, d_ws) = kernel_forms(bbo1co.kp_s, bbo1co.kp_c,
                                                bbo1co.phi, bbo1co.rho)
        half_l = bbo1co.length_um / 2.0
        wc = k.omega_c.points[:, None, None]
        qc = k.q_c.points[None, :, None]
        ws = k.omega_s.points[None, None, :]
        from_kernel = (d_wc * wc + d_qc * qc + d_ws * ws) * half_l
        from_dispersion = delta_k(bbo1co, wc, qc, ws) * half_l
        assert np.allclose(from_kernel, from_dispersion, rtol=1e-10, atol=1e-14)

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
        assert k.norm_sq > 0
        assert np.all(np.isfinite(k.values.real))

    def test_resolution_guard(self, bbo1co, gate94, signal_opt):
        long_crystal = bbo1co.with_length(11663.4)
        with pytest.raises(KernelResolutionError):
            build_kernel(long_crystal, gate94, signal_opt,
                         GridConfig(n_omega_c=64, n_q=48, n_omega_s=48))

    def test_span_guard(self, bbo1co, gate94, signal_opt):
        cfg = GridConfig(n_omega_c=48, n_q=48, n_omega_s=48,
                         span_omega_c=0.005, span_omega_s=0.005)
        with pytest.raises(KernelSpanError):
            build_kernel(bbo1co, gate94, signal_opt, cfg)

    def test_gate_marginal_recovery_in_long_pulse_limit(self, signal_opt):
        # narrowband gate in a thin crystal: phase matching is flat across
        # the gate bandwidth and the kernel's frequency dependence on the
        # centered slice reduces to the gate intensity profile
        preset = collinear_preset(length_um=50.0)
        gate = GateSpec(spectral=HermiteGaussSpec(order=0, scale=200.0))
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
        assert g2[0].span == pytest.approx(2.0 * g1[0].span, rel=1e-12)
        g3 = derive_grids(bbo1co, gate94, signal_opt,
                          GridConfig(span_q=0.123))
        assert g3[1].points[-1] == pytest.approx(0.123, rel=1e-12)


def conditioned(preset, order, w_s, phase_matching, n_q):
    """(K, lambda_1, purity, probability) at one point, or the error type."""
    gate = GateSpec(spectral=HermiteGaussSpec(order=0, scale=94.0))
    signal = SignalBeamSpec(waist_s_um=w_s, spectral_tau_fs=TAU_COMB_FS)
    config = GridConfig(n_q=n_q, phase_matching=phase_matching)
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
    @pytest.mark.parametrize("phase_matching", ["sinc", "gaussian"])
    @pytest.mark.parametrize("preset_name", ["bbo-phi1-co", "bbo-phi1-counter",
                                             "bbo-phi5-co", "bbo-phi5-counter"])
    def test_matches_the_fixed_128_points(self, preset_name, phase_matching):
        # l and w_s corners, gate orders 0 and 2: the derived axis moves no
        # number by more than 1e-8 and raises where 128 points raise
        for l_um in (1000.0, 4000.0):
            preset = preset_by_name(preset_name).with_length(l_um)
            for w_s in (50.0, 200.0):
                for order in (0, 2):
                    derived = conditioned(preset, order, w_s, phase_matching, None)
                    fixed = conditioned(preset, order, w_s, phase_matching, 128)
                    if isinstance(fixed, type):
                        assert derived is fixed
                    else:
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
            step = g_q.span / (n - 1)
            match_q = abs(match[1] * preset.length_um / 2.0)
            band = (2.0 * match_q + 2.0 * signal_opt.waist_s_um * abs(beam[1])
                    * math.sqrt(math.log(2.0 / Q_ALIAS_TOL)))
            return 2.0 * np.pi / step / band, 2.0 * np.pi / match_q / step

        alias, lobe = band_and_lobe(bbo1co, g_q, g_q.size)
        assert alias >= 1.0 and lobe >= MIN_LOBE_POINTS
        # the largest step that fits: one point fewer aliases
        assert band_and_lobe(bbo1co, g_q, g_q.size - 1)[0] < 1.0
        # a long crystal's q lobe, not the beam, sets the step
        long = bbo1co.with_length(11663.4)
        g_long = derive_grids(long, gate94, signal_opt, GridConfig())[1]
        alias, lobe = band_and_lobe(long, g_long, g_long.size)
        assert alias > 1.0 and lobe >= MIN_LOBE_POINTS
        alias, lobe = band_and_lobe(long, g_long, g_long.size - 1)
        assert alias > 1.0 and lobe < MIN_LOBE_POINTS

    @pytest.mark.parametrize("l_um", [1000.0, 4000.0])
    @pytest.mark.parametrize("w_s", [50.0, 200.0])
    def test_lattice_corners_take_at_most_29_points(self, gate94, l_um, w_s):
        # the aliasing bound, not a fixed step per waist, sizes the axis
        preset = preset_by_name("bbo-phi1-co").with_length(l_um)
        signal = SignalBeamSpec(waist_s_um=w_s, spectral_tau_fs=TAU_COMB_FS)
        assert derive_grids(preset, gate94, signal, GridConfig())[1].size <= 29

    def test_span_holds_the_beam_drift(self, gate94):
        # phi = 5 deg co, w_s = 200 um: the beam centre drifts 3.2 of the
        # beam's own 5 / w_s over the Omega box, so the drift sets the span
        preset = preset_by_name("bbo-phi5-co").with_length(4000.0)
        signal = SignalBeamSpec(waist_s_um=200.0, spectral_tau_fs=TAU_COMB_FS)
        gram = kernel_gram(preset, gate94, signal)
        assert gram.diagnostics["q_drift_ratio"] <= MAX_Q_DRIFT
        assert gram.diagnostics["q_drift_ratio"] == pytest.approx(MAX_Q_DRIFT)
        span_q = derive_grids(preset, gate94, signal, GridConfig())[1].points[-1]
        wide = kernel_gram(preset, gate94, signal, GridConfig(span_q=2.0 * span_q))
        k, k_wide = (decompose(g).schmidt_number for g in (gram, wide))
        assert k == pytest.approx(k_wide, rel=1e-12)
        assert k == pytest.approx(4.42380, abs=1e-5)

    def test_explicit_size_used_as_given(self, bbo1co, gate94, signal_opt):
        kernel = build_kernel(bbo1co, gate94, signal_opt, GridConfig(n_q=64))
        assert kernel.q_c.size == kernel.diagnostics["n_q"] == 64
        assert 0.0 < kernel.diagnostics["q_drift_ratio"] <= MAX_Q_DRIFT
        derived = derive_grids(bbo1co, gate94, signal_opt, GridConfig())[1]
        assert kernel.q_c.span == pytest.approx(derived.span, rel=1e-12)


class TestFirstPrinciples:
    """The split-form sampler against the plain product, at every sample."""

    # odd on every axis: the centre sample has delta_k = 0 exactly
    SERIES_SHAPE = (41, 41, 41)

    @pytest.mark.parametrize("shape", [(48, 47, 49), SERIES_SHAPE])
    @pytest.mark.parametrize("phase_matching", ["sinc", "gaussian"])
    @pytest.mark.parametrize("preset_name", ["bbo-phi1-co", "bbo-phi5-counter"])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_every_sample_matches(self, signal_opt, order, preset_name,
                                  phase_matching, shape):
        preset = preset_by_name(preset_name)
        gate = GateSpec(spectral=HermiteGaussSpec(order=order, scale=94.0))
        cfg = GridConfig(*shape, phase_matching=phase_matching)
        k = build_kernel(preset, gate, signal_opt, cfg, check=False)
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
        preset = preset_by_name(preset_name)
        for build in (kernel_gram, build_kernel):
            kernel = build(preset, gate94, self.WIDE)
            assert kernel.diagnostics["q_drift_ratio"] <= MAX_Q_DRIFT
            assert max(kernel.diagnostics["boundary_fractions"]) <= BOUNDARY_TOL

    @pytest.mark.parametrize("preset_name", ["bbo-phi5-co", "bbo-phi5-counter"])
    def test_unchecked_values_match_first_principles(self, gate94, preset_name):
        preset = preset_by_name(preset_name)
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

    @pytest.mark.parametrize("preset_name", ["bbo-phi1-co", "bbo-phi5-counter"])
    @pytest.mark.parametrize("phase_matching", ["sinc", "gaussian"])
    @pytest.mark.parametrize("n_c", [64, 65])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_kernel_is_point_symmetric(self, signal_opt, preset_name, phase_matching,
                                       n_c, order):
        gate = GateSpec(spectral=HermiteGaussSpec(order=order, scale=94.0))
        cfg = GridConfig(n_omega_c=n_c, n_q=40, n_omega_s=41,
                         phase_matching=phase_matching)
        # the symmetry is algebraic; coarse spans need not pass the checks
        k = build_kernel(preset_by_name(preset_name), gate, signal_opt, cfg,
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
