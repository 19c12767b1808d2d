import math

import numpy as np
import pytest
import sympy as sp
from scipy.optimize import minimize

from modesub import (GateSpec, GridConfig, HermiteGaussSpec, SignalBeamSpec,
                     build_covariance, build_kernel, characteristic_scales,
                     covariance_schmidt_number, decompose, kernel_gram, preset_bbo,
                     schmidt_number_closed_form, single_mode_rate)
from modesub.analytic import (DomainError, GaussianModelParams,
                              assemble_two_copy_form,
                              conversion_prefactor_fs,
                              normalized_probability_m2_per_j,
                              single_mode_lambda_sq, single_mode_margins)
from modesub.kernel import GAMMA_SINC


def params_for(phi_deg, sign, l_um, w_um, tau_g=94.0, collinear=True):
    preset = preset_bbo(phi_deg, sign).with_length(l_um)
    gate = GateSpec(spectral=HermiteGaussSpec(order=0, scale=tau_g))
    signal = SignalBeamSpec(waist_s_um=w_um, spectral_tau_fs=tau_g)
    return GaussianModelParams.from_preset(preset, gate, signal, collinear=collinear)


class TestCharacteristicScales:
    def test_reference_values_frozen(self):
        s = characteristic_scales(params_for(1, "co", 2000.0, 107.7))
        assert s.phi0_rad == pytest.approx(0.13239419704268102, rel=1e-9)
        assert s.l0_um == pytest.approx(1537.5628890076578, rel=1e-9)
        assert s.l_opt_um == pytest.approx(11663.381213612733, rel=1e-9)
        assert s.w_opt_um == pytest.approx(107.68730139543469, rel=1e-9)
        assert s.k_min == pytest.approx(1.0677768596018316, rel=1e-9)

    def test_rounded_reference_anchors(self):
        # quoted in the round numbers 8 deg and 1.6 mm
        s = characteristic_scales(params_for(1, "co", 2000.0, 107.7))
        assert math.degrees(s.phi0_rad) == pytest.approx(7.6, abs=0.5)
        assert s.l0_um == pytest.approx(1540.0, abs=100.0)

    def test_five_degree_configurations(self):
        co = characteristic_scales(params_for(5, "co", 2000.0, 26.8))
        assert co.k_min == pytest.approx(1.5126711175010337, rel=1e-9)
        assert co.l_opt_um == pytest.approx(2332.6762427225462, rel=1e-9)
        counter = characteristic_scales(params_for(5, "counter", 2000.0, 26.8))
        assert counter.k_min == pytest.approx(2.2251970774177243, rel=1e-9)
        assert counter.l_opt_um == pytest.approx(2332.6762427225462, rel=1e-9)

    def test_collinear_angle_yields_infinite_optima(self):
        p = GaussianModelParams(kp_s=5.6138837221849, kp_c=5.810686538351809,
                                phi=0.0, rho=0.0, tau_g=94.0, w_s=100.0, l=2000.0)
        s = characteristic_scales(p)
        assert math.isinf(s.l_opt_um) and math.isinf(s.w_opt_um)
        assert s.k_min == 1.0


class TestClosedForm:
    def test_reference_point_frozen(self):
        k = schmidt_number_closed_form(params_for(1, "co", 2000.0, 107.7))
        assert k == pytest.approx(1.3133901256578593, rel=1e-9)

    @pytest.mark.parametrize("phi_deg,sign,w_guess",
                             [(1, "co", 107.7), (1, "counter", 140.0),
                              (5, "co", 26.8), (5, "counter", 85.3)])
    def test_minimum_attained_at_stated_optimum(self, phi_deg, sign, w_guess):
        params = params_for(phi_deg, sign, 2000.0, w_guess)
        scales = characteristic_scales(params)

        def objective(x):
            p = GaussianModelParams(kp_s=params.kp_s, kp_c=params.kp_c,
                                    phi=params.phi, rho=params.rho,
                                    tau_g=params.tau_g,
                                    w_s=math.exp(x[1]), l=math.exp(x[0]))
            return schmidt_number_closed_form(p)

        res = minimize(objective, [math.log(scales.l_opt_um), math.log(w_guess)],
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
        assert res.fun == pytest.approx(scales.k_min, rel=0.01)
        assert math.exp(res.x[0]) == pytest.approx(scales.l_opt_um, rel=0.02)
        assert math.exp(res.x[1]) == pytest.approx(scales.w_opt_um, rel=0.02)

    def test_walk_off_scaling_at_small_angle(self):
        # for phi far below the characteristic angle and optimal focusing,
        # K follows sqrt(1 + (l0/l)^2) up to the optimum length
        preset = preset_bbo(1, "co")
        phi = math.radians(0.3)
        for l in (2000.0, 4000.0, 8000.0):
            p = GaussianModelParams(kp_s=preset.kp_s, kp_c=preset.kp_c_collinear,
                                    phi=phi, rho=preset.rho, tau_g=94.0,
                                    w_s=1.0, l=l)
            w_opt = characteristic_scales(p).w_opt_um
            p = GaussianModelParams(kp_s=p.kp_s, kp_c=p.kp_c, phi=p.phi,
                                    rho=p.rho, tau_g=p.tau_g, w_s=w_opt, l=l)
            s = characteristic_scales(p)
            expected = math.sqrt(1.0 + (s.l0_um / l) ** 2)
            assert schmidt_number_closed_form(p) == pytest.approx(expected, rel=0.05)

    def test_against_exact_covariance_route(self):
        # the small-angle closed form sits within ~10% of the exact Gaussian
        # value at 1 deg and within ~40% at 5 deg, where its expansion
        # discards a first-order walk-off cross term (documented, loose)
        for phi_deg, sign, bound in ((1, "co", 0.10), (1, "counter", 0.10),
                                     (5, "co", 0.40), (5, "counter", 0.40)):
            for l in (2000.0, 11663.4):
                params = params_for(phi_deg, sign, l, 107.7)
                k_cf = schmidt_number_closed_form(params)
                k_cov = covariance_schmidt_number(build_covariance(params).U)
                assert abs(k_cov - k_cf) / k_cf < bound


class TestCovariance:
    def test_diagonal_exponent_is_single_mode(self):
        assert covariance_schmidt_number(np.diag([2.0, 5.0, 0.7])) == pytest.approx(
            1.0, abs=1e-12)

    def test_scale_invariance(self):
        U = build_covariance(params_for(1, "co", 2000.0, 107.7)).U
        k1 = covariance_schmidt_number(U)
        k2 = covariance_schmidt_number(17.3 * U)
        assert abs(k1 - k2) < 1e-12 * k1

    def test_two_copy_form_matches_direct_expansion(self, rng):
        U = build_covariance(params_for(5, "counter", 3000.0, 60.0)).U
        V = assemble_two_copy_form(U)
        for _ in range(20):
            x = rng.normal(size=3)
            xp = rng.normal(size=3)
            big = np.concatenate([x, xp])
            factors = [np.array([x[0], x[1], x[2]]), np.array([x[0], x[1], xp[2]]),
                       np.array([xp[0], xp[1], x[2]]), np.array([xp[0], xp[1], xp[2]])]
            direct = sum(f @ U @ f for f in factors)
            assert big @ V @ big == pytest.approx(direct, rel=1e-12)

    def test_two_copy_form_symbolic(self):
        # one-time symbolic validation of the 6x6 assembly
        entries = sp.symbols("a11 a12 a22 b1 b2 u", real=True)
        a11, a12, a22, b1, b2, u = entries
        U = sp.Matrix([[a11, a12, b1], [a12, a22, b2], [b1, b2, u]])
        # same block rule as assemble_two_copy_form, in exact arithmetic
        A = U[:2, :2]
        b = U[:2, 2]
        V = sp.zeros(6, 6)
        V[0:2, 0:2] = 2 * A
        V[3:5, 3:5] = 2 * A
        V[2, 2] = 2 * u
        V[5, 5] = 2 * u
        for rows, col in (((0, 2), 2), ((0, 2), 5), ((3, 5), 2), ((3, 5), 5)):
            V[rows[0]:rows[1], col] = b
            V[col, rows[0]:rows[1]] = b.T
        x = sp.Matrix(sp.symbols("wc qc ws wcp qcp wsp", real=True))
        quad = (x.T * V * x)[0, 0]
        pieces = []
        for yc, yq, s in ((x[0], x[1], x[2]), (x[0], x[1], x[5]),
                          (x[3], x[4], x[2]), (x[3], x[4], x[5])):
            v = sp.Matrix([yc, yq, s])
            pieces.append((v.T * U * v)[0, 0])
        assert sp.simplify(quad - sum(pieces)) == 0

    def test_randomized_sweep_stays_above_one(self, rng):
        for _ in range(25):
            preset = preset_bbo(1 if rng.random() < 0.5 else 5,
                                "co" if rng.random() < 0.5 else "counter")
            p = GaussianModelParams(
                kp_s=preset.kp_s, kp_c=preset.kp_c, phi=preset.phi,
                rho=preset.rho, tau_g=rng.uniform(40.0, 180.0),
                w_s=rng.uniform(20.0, 300.0), l=rng.uniform(500.0, 15000.0))
            k = covariance_schmidt_number(build_covariance(p).U)
            assert k >= 1.0 - 1e-9

    def test_non_positive_definite_rejected(self):
        with pytest.raises(DomainError):
            covariance_schmidt_number(np.diag([1.0, -0.5, 2.0]))
        with pytest.raises(DomainError):
            covariance_schmidt_number(np.array([[1.0, 2.0, 0.0],
                                                [0.0, 1.0, 0.0],
                                                [0.0, 0.0, 1.0]]))

    def test_decoupled_momentum_reduction(self):
        # momentum row identically zero: Schmidt number of the 2x2 block
        tau, s = 94.0, 150.0
        U = np.array([[tau**2 + s**2, 0.0, -tau**2],
                      [0.0, 0.0, 0.0],
                      [-tau**2, 0.0, tau**2]])
        # K = 1/sqrt(1 - b^2/(a u)) with a = tau^2 + s^2, b = u = tau^2
        exact = 1.0 / math.sqrt(1.0 - tau**2 / (tau**2 + s**2))
        assert covariance_schmidt_number(U) == pytest.approx(exact, rel=1e-12)
        # fully singular frequency block is rejected
        bad = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]])
        with pytest.raises(DomainError):
            covariance_schmidt_number(bad)

    def test_collinear_geometry_flags_decoupling_not_deficiency(self):
        p = GaussianModelParams(kp_s=5.6138837221849, kp_c=5.810686538351809,
                                phi=0.0, rho=0.0, tau_g=94.0, w_s=107.7, l=2000.0)
        form = build_covariance(p)
        assert not form.rank_deficient
        # momentum decouples: K reduces to the frequency-block value
        k = covariance_schmidt_number(form.U)
        l0 = 94.0 / (math.sqrt(GAMMA_SINC / 2.0) * (p.kp_c - p.kp_s))
        assert k == pytest.approx(math.sqrt(1.0 + (l0 / 2000.0) ** 2), rel=1e-9)

    def test_quadratic_form_reproduces_surrogate_kernel(self, rng):
        # -2 log(L(x)/L(0)) equals the quadratic form at sampled grid points
        preset = preset_bbo(1, "co").with_length(2000.0)
        gate = GateSpec(spectral=HermiteGaussSpec(order=0, scale=94.0))
        signal = SignalBeamSpec(waist_s_um=107.7, spectral_tau_fs=93.12)
        cfg = GridConfig(n_omega_c=33, n_q=33, n_omega_s=33,
                         phase_matching="gaussian")
        kernel = build_kernel(preset, gate, signal, cfg)
        params = GaussianModelParams.from_preset(preset, gate, signal,
                                                 collinear=False)
        U = build_covariance(params).U
        center = kernel.values[16, 16, 16].real
        for _ in range(20):
            i, j, k = rng.integers(4, 29, 3)
            x = np.array([kernel.omega_c.points[i], kernel.q_c.points[j],
                          kernel.omega_s.points[k]])
            val = kernel.values[i, j, k].real
            assert -2.0 * math.log(val / center) == pytest.approx(
                x @ U @ x, rel=1e-9, abs=1e-12)

    def test_surrogate_kernel_matches_covariance(self, rng):
        # numerical decomposition of the Gaussian-surrogate kernel against
        # the determinant formula.  At 1.5x the derived spans the box holds
        # the whole Gaussian and the trapezoid rule reaches rounding (a few
        # 1e-15 at most draws, 2e-13 at the worst seen).  A 6 mm crystal at
        # 1.5x span needs 164 Omega_c points for the lobe check; the q_c
        # size is derived.
        for _ in range(3):
            preset = preset_bbo(1, "co").with_length(rng.uniform(1500.0, 6000.0))
            gate = GateSpec(spectral=HermiteGaussSpec(
                order=0, scale=rng.uniform(70.0, 120.0)))
            signal = SignalBeamSpec(waist_s_um=rng.uniform(60.0, 200.0),
                                    spectral_tau_fs=93.12)
            cfg = GridConfig(n_omega_c=192, span_scale=1.5, phase_matching="gaussian")
            k_num = decompose(kernel_gram(preset, gate, signal, cfg)).schmidt_number
            params = GaussianModelParams.from_preset(preset, gate, signal,
                                                     collinear=False)
            k_cov = covariance_schmidt_number(build_covariance(params).U)
            assert abs(k_num - k_cov) / k_cov < 1e-10


class TestSingleModeRate:
    def test_normalized_probability_value(self):
        preset = preset_bbo(1, "co").with_length(2000.0)
        assert normalized_probability_m2_per_j(preset) == pytest.approx(
            0.2065117391181664, rel=1e-9)
        # quoted as ~0.2 m^2/J at these parameters
        assert normalized_probability_m2_per_j(preset) == pytest.approx(0.21, abs=0.02)

    def test_event_rate(self):
        preset = preset_bbo(1, "co").with_length(2000.0)
        gate = GateSpec(spectral=HermiteGaussSpec(order=0, scale=94.0),
                        waist_g_um=1000.0, energy_j=10e-9, rep_rate_hz=80e6)
        result = single_mode_rate(preset, gate, 6.3154e-3)
        assert result.rate_hz == pytest.approx(332.1, rel=1e-3)
        # within 30% of the 370/s reference at the default nonlinearity
        assert abs(result.rate_hz - 370.0) / 370.0 < 0.30

    def test_rate_scales_with_nonlinearity_squared(self):
        base = preset_bbo(1, "co").with_length(2000.0)
        doubled = preset_bbo(1, "co", d_eff_pm_v=4.0).with_length(2000.0)
        gate = GateSpec(spectral=HermiteGaussSpec(order=0, scale=94.0))
        r1 = single_mode_rate(base, gate, 1e-3)
        r2 = single_mode_rate(doubled, gate, 1e-3)
        assert r2.rate_hz == pytest.approx(4.0 * r1.rate_hz, rel=1e-12)

    def test_length_scalings(self):
        gate = GateSpec(spectral=HermiteGaussSpec(order=0, scale=94.0))
        p1 = preset_bbo(1, "co").with_length(2000.0)
        p2 = preset_bbo(1, "co").with_length(4000.0)
        r1, r2 = single_mode_rate(p1, gate, 1e-3), single_mode_rate(p2, gate, 1e-3)
        assert r2.p_norm_m2_per_j == pytest.approx(2.0 * r1.p_norm_m2_per_j, rel=1e-12)
        assert r2.lambda_sq_per_fs == pytest.approx(0.5 * r1.lambda_sq_per_fs, rel=1e-12)

    def test_flags(self):
        gate = GateSpec(spectral=HermiteGaussSpec(order=0, scale=94.0),
                        waist_g_um=300.0)
        signal = SignalBeamSpec(waist_s_um=100.0, spectral_tau_fs=94.0)
        short = single_mode_rate(preset_bbo(1, "co").with_length(2000.0), gate,
                                 1e-3, signal)
        assert not short.single_mode_ok          # l is below 3 l0
        assert not short.plane_wave_ok           # waist ratio only 3x
        long = single_mode_rate(preset_bbo(1, "co").with_length(11663.4),
                                GateSpec(spectral=HermiteGaussSpec(order=0, scale=94.0)),
                                1e-3, signal)
        assert long.single_mode_ok and long.plane_wave_ok

    @pytest.mark.parametrize("phi_deg,sign", [(1, "co"), (1, "counter"),
                                              (5, "co"), (5, "counter")])
    @pytest.mark.parametrize("l_um", [2000.0, 11663.4])
    def test_flags_agree_across_routes(self, phi_deg, sign, l_um):
        # the rate and K_min read one definition of the margins
        preset = preset_bbo(phi_deg, sign).with_length(l_um)
        gate = GateSpec(spectral=HermiteGaussSpec(order=0, scale=94.0))
        signal = SignalBeamSpec(waist_s_um=107.7, spectral_tau_fs=94.0)
        rate = single_mode_rate(preset, gate, 1e-3, signal)
        angle, _, ok = single_mode_margins(preset, gate.tau_g)
        assert rate.single_mode_ok == ok
        k_min = characteristic_scales(params_for(phi_deg, sign, l_um, 107.7)).k_min
        assert k_min - 1.0 == pytest.approx(angle, rel=1e-12)

    def test_negative_photon_number_rejected(self):
        gate = GateSpec(spectral=HermiteGaussSpec(order=0, scale=94.0))
        with pytest.raises(DomainError):
            single_mode_rate(preset_bbo(1, "co"), gate, -1.0)

    def test_probability_reduction_symbolic(self):
        # verify the closed-form normalized probability against the raw
        # prefactor-times-lambda^2 expression, symbolically in SI units
        hbar, eps0, c = sp.symbols("hbar epsilon_0 c", positive=True)
        chi2, l, wg, Wg, dk = sp.symbols("chi2 l w_g W_g dk", positive=True)
        ns, ng, nc, ws0, wc0, Ns = sp.symbols("n_s n_g n_c omega_s omega_c N_s",
                                              positive=True)
        E_s = sp.sqrt(hbar * ws0 / (2 * eps0 * ns * c))
        E_c = sp.sqrt(hbar * wc0 / (2 * eps0 * nc * c))
        C_sq = (eps0 * chi2 * E_s * E_c * l) ** 2 * Wg / (
            (2 * sp.pi) ** 3 * hbar**2 * 2 * eps0 * ng * c)
        C_prime_sq = 4 * sp.pi * C_sq / wg**2
        lam_sq = sp.pi / (dk * l / 2)
        p1 = C_prime_sq * lam_sq * Ns
        p_norm = sp.simplify(p1 / (Ns * Wg / (sp.pi * wg**2)))
        expected = chi2**2 * ws0 * wc0 * l / (8 * eps0 * ns * nc * ng * c**3 * dk)
        assert sp.simplify(p_norm - expected) == 0

    def test_prefactor_times_lambda_equals_probability(self):
        preset = preset_bbo(1, "co").with_length(2000.0)
        gate = GateSpec(spectral=HermiteGaussSpec(order=0, scale=94.0))
        n = 6.3154e-3
        direct = single_mode_rate(preset, gate, n).probability
        assembled = conversion_prefactor_fs(preset, gate) * single_mode_lambda_sq(preset) * n
        assert assembled == pytest.approx(direct, rel=1e-12)
