import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from modesub import (CrystalPreset, GateSpec, GridConfig, HermiteGaussSpec,
                     SignalBeamSpec, build_kernel, delta_k, kernel_gram,
                     single_mode_profiles)
from modesub.dispersion import kernel_forms, preset_by_name
from modesub.kernel import (KernelResolutionError, KernelSpanError, derive_grids,
                            phase_match_factor, sinc)
from modesub.modes import hermite_gauss_values


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


class TestGateSpec:
    def test_off_carrier_gate_rejected(self):
        with pytest.raises(ValueError, match="carrier-centred"):
            GateSpec(spectral=HermiteGaussSpec(order=0, scale=94.0, center=0.01))


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


class TestSingleModeProfiles:
    def test_subtracted_profile_is_the_gate_spectrum(self, gate94, signal_opt):
        preset = collinear_preset(length_um=11663.4).with_phi(math.radians(1.0))
        preset = replace(preset, rho=math.radians(3.9))
        prof = single_mode_profiles(preset, gate94, signal_opt)
        gate_samples = hermite_gauss_values(0, 94.0, prof.omega_s.points)
        gate_samples /= np.sqrt(np.sum(prof.omega_s.weights * gate_samples**2))
        assert np.allclose(prof.subtracted, gate_samples, atol=1e-12)
        assert prof.single_mode_ok

    def test_angular_dispersion_ridge(self, gate94, signal_opt, bbo1co):
        preset = bbo1co.with_length(11663.4)
        prof = single_mode_profiles(preset, gate94, signal_opt)
        d_group = preset.kp_c - preset.kp_s
        intensity = np.abs(prof.converted) ** 2
        d_wc = prof.omega_c.points[1] - prof.omega_c.points[0]
        for j in [8, 32, 64, 96, 120]:
            q = prof.q_c.points[j]
            ridge = prof.omega_c.points[np.argmax(intensity[:, j])]
            expected = (preset.rho - preset.phi) * q / d_group
            assert ridge == pytest.approx(expected, abs=1.5 * d_wc)

    def test_equal_angles_factorize(self, gate94, signal_opt):
        preset = CrystalPreset(name="phi-eq-rho", lambda_s_um=0.8,
                               kp_s=5.6138837221849, kp_c=5.810686538351809,
                               rho=math.radians(3.9), phi=math.radians(3.9),
                               theta_pm=0.0, length_um=11663.4)
        prof = single_mode_profiles(preset, gate94, signal_opt)
        conv = prof.converted
        mid = conv.shape[1] // 2
        ref = conv[:, mid] / conv[conv.shape[0] // 2, mid]
        for j in (5, 40, 90):
            col = conv[:, j] / conv[conv.shape[0] // 2, j]
            assert np.allclose(col, ref, rtol=1e-10, atol=1e-12)

    def test_short_crystal_flags_not_single_mode(self, bbo1co, gate94, signal_opt):
        prof = single_mode_profiles(bbo1co.with_length(2000.0), gate94, signal_opt)
        assert not prof.single_mode_ok
        assert prof.length_margin > 1.0 / 3.0

    def test_converted_profile_normalized(self, bbo1co, gate94, signal_opt):
        prof = single_mode_profiles(bbo1co.with_length(11663.4), gate94, signal_opt)
        mass = np.sum(np.abs(prof.converted) ** 2
                      * prof.omega_c.weights[:, None] * prof.q_c.weights[None, :])
        assert mass == pytest.approx(1.0, rel=1e-12)
