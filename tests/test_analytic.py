import math
from dataclasses import replace

import numpy as np
import pytest
import sympy as sp
from scipy.optimize import minimize

from modesub import (PRESETS, GateSpec, GridConfig, SignalBeamSpec,
                     build_covariance, characteristic_scales,
                     covariance_schmidt_number, schmidt_number_closed_form,
                     single_mode_rate)
from modesub.analytic import (GAMMA_SINC, DomainError, conversion_prefactor_fs,
                              plane_wave_ok, single_mode_lambda_sq, single_mode_ok)
from modesub.kernel import derive_grids
from modesub.modes import hermite_gauss_values

from conftest import collinear_preset, delta_k
from oracles import schmidt_number_oracle



def assemble_two_copy_form(U: np.ndarray) -> np.ndarray:
    """2n x 2n exponent matrix of L*(y,s) L(y,s') L(y',s) L*(y',s').

    Derived from the block partition U = [[A, b], [b^T, u]] over y, the
    first n - 1 coordinates, and s, the last: summing the four single-copy
    exponents doubles the diagonal blocks and couples each s to both copies
    of y through b, with no y-y' or s-s' coupling.  The variables are
    ordered (y, s, y', s').
    """
    n = U.shape[0]
    m = n - 1
    A, b, u = U[:m, :m], U[:m, m], U[m, m]
    V = np.zeros((2 * n, 2 * n))
    for y in (0, n):
        V[y:y + m, y:y + m] = 2.0 * A
        V[y + m, y + m] = 2.0 * u
        for s in (m, n + m):
            V[y:y + m, s] = b
            V[s, y:y + m] = b
    return V


def two_copy_schmidt_number(U: np.ndarray) -> float:
    """Oracle K = (Tr G)^2 / Tr G^2 as two Gaussian integrals over both copies:
    Tr G^2 integrates exp(-x^T V x / 2) over 2n variables, (Tr G)^2 the
    product of two n-variable integrals of exp(-x^T 2U x / 2)."""
    return float(np.sqrt(np.linalg.det(assemble_two_copy_form(U)))
                 / np.linalg.det(2.0 * U))


def random_positive_definite(rng, n):
    m = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-2.0, 2.0, n)
    return m @ m.T + 1e-2 * np.diag(np.diag(m @ m.T))


def objects_for(phi_deg, sign, l_um, w_um, tau_g=94.0):
    """The crystal, order-0 gate and signal beam of one operating point."""
    preset = replace(PRESETS[f"bbo-phi{phi_deg}-{sign}"], length_um=l_um)
    gate = GateSpec(order=0, tau_g=tau_g)
    signal = SignalBeamSpec(waist_s_um=w_um, spectral_tau_fs=tau_g)
    return preset, gate, signal


def scales_for(phi_deg, sign, l_um):
    preset, gate, _ = objects_for(phi_deg, sign, l_um, 107.7)
    return characteristic_scales(preset, gate)


class TestCharacteristicScales:
    def test_reference_values_frozen(self):
        s = scales_for(1, "co", 2000.0)
        assert s.phi0_rad == pytest.approx(0.13239419704268102, rel=1e-9)
        assert s.l0_um == pytest.approx(1537.5628890076578, rel=1e-9)
        assert s.l_opt_um == pytest.approx(11663.381213612733, rel=1e-9)
        assert s.w_opt_um == pytest.approx(107.68730139543469, rel=1e-9)
        assert s.k_min == pytest.approx(1.0677768596018316, rel=1e-9)

    def test_rounded_reference_anchors(self):
        # quoted in the round numbers 8 deg and 1.6 mm
        s = scales_for(1, "co", 2000.0)
        assert math.degrees(s.phi0_rad) == pytest.approx(7.6, abs=0.5)
        assert s.l0_um == pytest.approx(1540.0, abs=100.0)

    def test_five_degree_configurations(self):
        co = scales_for(5, "co", 2000.0)
        assert co.k_min == pytest.approx(1.5126711175010337, rel=1e-9)
        assert co.l_opt_um == pytest.approx(2332.6762427225462, rel=1e-9)
        counter = scales_for(5, "counter", 2000.0)
        assert counter.k_min == pytest.approx(2.2251970774177243, rel=1e-9)
        assert counter.l_opt_um == pytest.approx(2332.6762427225462, rel=1e-9)

    def test_collinear_angle_yields_infinite_optima(self, gate94):
        s = characteristic_scales(collinear_preset(), gate94)
        assert math.isinf(s.l_opt_um) and math.isinf(s.w_opt_um)
        assert s.k_min == 1.0


class TestClosedForm:
    def test_reference_point_frozen(self):
        k = schmidt_number_closed_form(*objects_for(1, "co", 2000.0, 107.7))
        assert k == pytest.approx(1.3133901256578593, rel=1e-9)

    @pytest.mark.parametrize("phi_deg,sign,w_guess",
                             [(1, "co", 107.7), (1, "counter", 140.0),
                              (5, "co", 26.8), (5, "counter", 85.3)])
    def test_minimum_attained_at_stated_optimum(self, phi_deg, sign, w_guess):
        preset, gate, signal = objects_for(phi_deg, sign, 2000.0, w_guess)
        scales = characteristic_scales(preset, gate)

        def objective(x):
            return schmidt_number_closed_form(
                replace(preset, length_um=math.exp(x[0])), gate,
                replace(signal, waist_s_um=math.exp(x[1])))

        res = minimize(objective, [math.log(scales.l_opt_um), math.log(w_guess)],
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
        assert res.fun == pytest.approx(scales.k_min, rel=0.01)
        assert math.exp(res.x[0]) == pytest.approx(scales.l_opt_um, rel=0.02)
        assert math.exp(res.x[1]) == pytest.approx(scales.w_opt_um, rel=0.02)

    def test_walk_off_scaling_at_small_angle(self, gate94):
        # for phi far below the characteristic angle and optimal focusing,
        # K follows sqrt(1 + (l0/l)^2) up to the optimum length
        for l in (2000.0, 4000.0, 8000.0):
            preset = replace(PRESETS["bbo-phi1-co"], phi=math.radians(0.3), length_um=l)
            s = characteristic_scales(preset, gate94)
            signal = SignalBeamSpec(waist_s_um=s.w_opt_um, spectral_tau_fs=94.0)
            expected = math.sqrt(1.0 + (s.l0_um / l) ** 2)
            assert schmidt_number_closed_form(preset, gate94, signal) == pytest.approx(
                expected, rel=0.05)

    def test_against_exact_covariance_route(self):
        # the small-angle closed form sits within ~10% of the exact Gaussian
        # value at 1 deg and within ~40% at 5 deg, where its expansion
        # discards a first-order walk-off cross term (documented, loose).
        # Both routes run on the collinear-limit k'_c the closed form reads.
        for phi_deg, sign, bound in ((1, "co", 0.10), (1, "counter", 0.10),
                                     (5, "co", 0.40), (5, "counter", 0.40)):
            for l in (2000.0, 11663.4):
                preset, gate, signal = objects_for(phi_deg, sign, l, 107.7)
                k_cf = schmidt_number_closed_form(preset, gate, signal)
                collinear = replace(preset, kp_c=preset.kp_c_collinear)
                k_cov = covariance_schmidt_number(build_covariance(collinear, gate, signal))
                assert abs(k_cov - k_cf) / k_cf < bound


class TestCovariance:
    def test_diagonal_exponent_is_single_mode(self):
        assert covariance_schmidt_number(np.diag([2.0, 5.0, 0.7])) == pytest.approx(
            1.0, abs=1e-12)

    def test_scale_invariance(self):
        U = build_covariance(*objects_for(1, "co", 2000.0, 107.7))
        k1 = covariance_schmidt_number(U)
        k2 = covariance_schmidt_number(17.3 * U)
        assert abs(k1 - k2) < 1e-12 * k1

    def test_two_copy_form_matches_direct_expansion(self, rng):
        U = build_covariance(*objects_for(5, "counter", 3000.0, 60.0))
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

    def test_schur_formula_matches_two_copy_oracle(self, rng):
        cases = [random_positive_definite(rng, 3) for _ in range(200)]
        for phi_deg in (1, 5):
            for sign in ("co", "counter"):
                for l_um in (1000.0, 4000.0, 11663.4):
                    for w_um in (50.0, 200.0):
                        cases.append(build_covariance(
                            *objects_for(phi_deg, sign, l_um, w_um)))
        for U in cases:
            assert covariance_schmidt_number(U) == pytest.approx(
                two_copy_schmidt_number(U), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4])
    def test_schur_formula_at_every_block_size(self, rng, n):
        # A of size n - 1: 1x1 (Omega_c alone), 3x3 (with a gate momentum)
        for _ in range(200):
            U = random_positive_definite(rng, n)
            assert covariance_schmidt_number(U) == pytest.approx(
                two_copy_schmidt_number(U), rel=1e-12)

    def test_randomized_sweep_stays_above_one(self, rng):
        for _ in range(25):
            deg = 1 if rng.random() < 0.5 else 5
            sign = "co" if rng.random() < 0.5 else "counter"
            preset = PRESETS[f"bbo-phi{deg}-{sign}"]
            tau_g = rng.uniform(40.0, 180.0)
            gate = GateSpec(order=0, tau_g=tau_g)
            signal = SignalBeamSpec(waist_s_um=rng.uniform(20.0, 300.0),
                                    spectral_tau_fs=tau_g)
            preset = replace(preset, length_um=rng.uniform(500.0, 15000.0))
            k = covariance_schmidt_number(build_covariance(preset, gate, signal))
            assert k >= 1.0 - 1e-9

    def test_non_positive_definite_rejected(self):
        with pytest.raises(DomainError):
            covariance_schmidt_number(np.diag([1.0, -0.5, 2.0]))
        with pytest.raises(DomainError):
            covariance_schmidt_number(np.array([[1.0, 2.0, 0.0],
                                                [0.0, 1.0, 0.0],
                                                [0.0, 0.0, 1.0]]))

    def test_zero_momentum_row_rejected(self):
        # a momentum row identically zero makes U singular;
        # build_covariance never returns one
        tau, s = 94.0, 150.0
        U = np.array([[tau**2 + s**2, 0.0, -tau**2],
                      [0.0, 0.0, 0.0],
                      [-tau**2, 0.0, tau**2]])
        with pytest.raises(DomainError):
            covariance_schmidt_number(U)
        # fully singular frequency block is rejected
        bad = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]])
        with pytest.raises(DomainError):
            covariance_schmidt_number(bad)

    def test_collinear_geometry_flags_decoupling_not_deficiency(self, gate94, signal_opt):
        preset = collinear_preset()
        U = build_covariance(preset, gate94, signal_opt)
        evals = np.linalg.eigvalsh(U)
        assert evals[0] > 1e-12 * evals[-1]
        # momentum decouples: K reduces to the frequency-block value
        k = covariance_schmidt_number(U)
        l0 = 94.0 / (math.sqrt(GAMMA_SINC / 2.0) * (preset.kp_c - preset.kp_s))
        assert k == pytest.approx(math.sqrt(1.0 + (l0 / 2000.0) ** 2), rel=1e-9)

    def test_quadratic_form_reproduces_surrogate_kernel(self, rng):
        # -2 log(L(x)/L(0)) of the Gaussian-model kernel, the product of the
        # gate, the beam and exp(-GAMMA_SINC x^2) each written from its own
        # formula, equals the quadratic form at points across the box
        preset = replace(PRESETS["bbo-phi1-co"], length_um=2000.0)
        gate = GateSpec(order=0, tau_g=94.0)
        signal = SignalBeamSpec(waist_s_um=107.7, spectral_tau_fs=93.12)
        U = build_covariance(preset, gate, signal)
        phi, kp_s = preset.phi, preset.kp_s

        def model(wc, qc, ws):
            beam_arg = qc / math.cos(phi) + kp_s * math.tan(phi) * (wc - 2 * ws)
            x = delta_k(preset, wc, qc, ws) * preset.length_um / 2.0
            return (hermite_gauss_values(0, gate.tau_g, wc - ws)
                    * math.exp(-0.5 * (signal.waist_s_um * beam_arg) ** 2)
                    * math.exp(-GAMMA_SINC * x**2))

        spans = np.array([grid.points[-1] for grid in
                          derive_grids(preset, gate, signal, GridConfig())])
        for _ in range(20):
            x = rng.uniform(-0.7, 0.7, 3) * spans
            assert -2.0 * math.log(model(*x) / model(0.0, 0.0, 0.0)) == pytest.approx(
                x @ U @ x, rel=1e-9, abs=1e-12)

    def test_schmidt_number_oracle_gaussian_limit(self, rng):
        # the sinc kernel's K oracle with each sinc swapped for its Gaussian
        # (tests/oracles.py) against the determinant formula: the lattice of
        # the oracle's own test and random draws of l, tau_g and w_s
        cases = [(replace(PRESETS[name], length_um=l_um), 94.0, w_um)
                 for name in sorted(PRESETS) for l_um in (1000.0, 4000.0)
                 for w_um in (50.0, 200.0)]
        cases += [(replace(PRESETS["bbo-phi1-co"], length_um=rng.uniform(1500.0, 6000.0)),
                   rng.uniform(70.0, 120.0), rng.uniform(60.0, 200.0)) for _ in range(3)]
        for preset, tau_g, w_um in cases:
            gate = GateSpec(order=0, tau_g=tau_g)
            signal = SignalBeamSpec(waist_s_um=w_um, spectral_tau_fs=93.12)
            k_cov = covariance_schmidt_number(build_covariance(preset, gate, signal))
            assert schmidt_number_oracle(preset, gate, signal, gaussian=True) == \
                pytest.approx(k_cov, rel=1e-10)


class TestSingleModeRate:
    def test_normalized_probability_value(self):
        preset = replace(PRESETS["bbo-phi1-co"], length_um=2000.0)
        gate = GateSpec(order=0, tau_g=94.0)
        p_norm = single_mode_rate(preset, gate, 1e-3).p_norm_m2_per_j
        assert p_norm == pytest.approx(0.2065117391181664, rel=1e-9)
        # quoted as ~0.2 m^2/J at these parameters
        assert p_norm == pytest.approx(0.21, abs=0.02)

    def test_event_rate(self):
        preset = replace(PRESETS["bbo-phi1-co"], length_um=2000.0)
        gate = GateSpec(order=0, tau_g=94.0,
                        waist_g_um=1000.0, energy_j=10e-9, rep_rate_hz=80e6)
        result = single_mode_rate(preset, gate, 6.3154e-3)
        assert result.rate_hz == pytest.approx(332.1, rel=1e-3)
        # within 30% of the 370/s reference at the default nonlinearity
        assert abs(result.rate_hz - 370.0) / 370.0 < 0.30

    def test_rate_scales_with_nonlinearity_squared(self):
        base = replace(PRESETS["bbo-phi1-co"], length_um=2000.0)
        doubled = replace(PRESETS["bbo-phi1-co"], d_eff_pm_v=4.0, length_um=2000.0)
        gate = GateSpec(order=0, tau_g=94.0)
        r1 = single_mode_rate(base, gate, 1e-3)
        r2 = single_mode_rate(doubled, gate, 1e-3)
        assert r2.rate_hz == pytest.approx(4.0 * r1.rate_hz, rel=1e-12)

    def test_length_scalings(self):
        gate = GateSpec(order=0, tau_g=94.0)
        p1 = replace(PRESETS["bbo-phi1-co"], length_um=2000.0)
        p2 = replace(PRESETS["bbo-phi1-co"], length_um=4000.0)
        r1 = single_mode_rate(p1, gate, 1e-3)
        r2 = single_mode_rate(p2, gate, 1e-3)
        assert r2.p_norm_m2_per_j == pytest.approx(2.0 * r1.p_norm_m2_per_j, rel=1e-12)
        assert r2.lambda_sq_per_fs == pytest.approx(0.5 * r1.lambda_sq_per_fs, rel=1e-12)

    def test_flags(self):
        gate = GateSpec(order=0, tau_g=94.0,
                        waist_g_um=300.0)
        signal = SignalBeamSpec(waist_s_um=100.0, spectral_tau_fs=94.0)
        short = replace(PRESETS["bbo-phi1-co"], length_um=2000.0)
        assert not single_mode_ok(characteristic_scales(short, gate), short)  # l < 3 l0
        assert not plane_wave_ok(gate, signal)   # waist ratio only 3x
        long = replace(PRESETS["bbo-phi1-co"], length_um=11663.4)
        wide_gate = GateSpec(order=0, tau_g=94.0)
        assert single_mode_ok(characteristic_scales(long, wide_gate), long)
        assert plane_wave_ok(wide_gate, signal)

    @pytest.mark.parametrize("phi_deg,sign", [(1, "co"), (1, "counter"),
                                              (5, "co"), (5, "counter")])
    @pytest.mark.parametrize("l_um", [2000.0, 11663.4])
    def test_flags_agree_across_routes(self, phi_deg, sign, l_um):
        # the flag reads the margins of the characteristic scales, each
        # written out here from its small-angle definition
        preset, gate, signal = objects_for(phi_deg, sign, l_um, 107.7)
        scales = characteristic_scales(preset, gate)
        kp_s, kp_c = preset.kp_s, preset.kp_c_collinear
        phi, rho = preset.phi, preset.rho
        angle = (phi**2 + abs(phi * (phi - rho))) / ((kp_c / kp_s - 1.0) / 2.0)
        length = 94.0 / (math.sqrt(GAMMA_SINC / 2.0) * (kp_c - kp_s)) / l_um
        assert single_mode_ok(scales, preset) == (angle <= 1.0 / 3.0 and length <= 1.0 / 3.0)
        assert scales.k_min - 1.0 == pytest.approx(angle, rel=1e-12)
        assert scales.l0_um / l_um == pytest.approx(length, rel=1e-12)

    def test_negative_photon_number_rejected(self):
        gate = GateSpec(order=0, tau_g=94.0)
        with pytest.raises(DomainError):
            single_mode_rate(PRESETS["bbo-phi1-co"], gate, -1.0)

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
        preset = replace(PRESETS["bbo-phi1-co"], length_um=2000.0)
        gate = GateSpec(order=0, tau_g=94.0)
        n = 6.3154e-3
        direct = single_mode_rate(preset, gate, n).probability
        assembled = conversion_prefactor_fs(preset, gate) * single_mode_lambda_sq(preset) * n
        assert assembled == pytest.approx(direct, rel=1e-12)
