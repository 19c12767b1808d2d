import math
from dataclasses import replace

import numpy as np
import pytest

from modesub import (CrystalPreset, GateSpec, GridConfig, HermiteGaussSpec,
                     KernelGrid, ScanPoint, SignalBeamSpec, build_kernel,
                     decompose, gram_matrix, kernel_gram, preset_bbo,
                     schmidt_number_scan, uniform_grid)
from modesub.kernel import (GAMMA_SINC, SLAB_SAMPLES, KernelGram,
                            KernelResolutionError, KernelSpanError)


def separable_kernel():
    """Handcrafted rank-one kernel: converted-side function times signal-side."""
    g_wc = uniform_grid(1.0, 24, label="omega_c")
    g_q = uniform_grid(1.0, 20, label="q_c")
    g_ws = uniform_grid(1.0, 28, label="omega_s")
    conv = np.exp(-(g_wc.points[:, None] ** 2 + g_q.points[None, :] ** 2))
    sig = np.exp(-2.0 * g_ws.points**2) * (1.0 + g_ws.points)
    values = conv[:, :, None] * sig[None, None, :]
    mass = (np.abs(values) ** 2 * g_wc.weights[:, None, None]
            * g_q.weights[None, :, None] * g_ws.weights[None, None, :])
    return KernelGrid(values=values, omega_c=g_wc, q_c=g_q, omega_s=g_ws,
                      norm_sq=float(mass.sum()))


def unfolded_gram(kernel: KernelGrid) -> np.ndarray:
    """Plain weighted a^T a over every row of a dense kernel."""
    sqrt_w = np.sqrt(np.outer(kernel.omega_c.weights, kernel.q_c.weights)).ravel()
    a = kernel.values.reshape(-1, kernel.omega_s.size) * sqrt_w[:, None]
    return a.T @ a


def multimode_kernel():
    """Strongly multimode configuration exercising a slowly decaying spectrum."""
    preset = CrystalPreset(name="bbo5", lambda_s_um=0.8, kp_s=5.6138837221849,
                           kp_c=5.787303285966586, rho=math.radians(4.1),
                           phi=math.radians(5.0), theta_pm=0.0, length_um=2000.0)
    gate = GateSpec(spectral=HermiteGaussSpec(order=2, scale=94.0))
    signal = SignalBeamSpec(waist_s_um=30.0, spectral_tau_fs=93.12)
    cfg = GridConfig(n_omega_c=96, n_q=96, n_omega_s=96)
    return build_kernel(preset, gate, signal, cfg)


class TestGramMatrix:
    def test_separable_kernel_has_rank_one_gram(self):
        gram = gram_matrix(separable_kernel())
        evals = np.linalg.eigvalsh(gram)[::-1]
        assert evals[1] < 1e-10 * evals[0]

    def test_parseval_trace(self, bbo1co, gate94, signal_opt):
        kernel = build_kernel(bbo1co, gate94, signal_opt,
                              GridConfig(n_omega_c=64, n_q=64, n_omega_s=64))
        gram = gram_matrix(kernel)
        weighted_trace = float(np.sum(kernel.omega_s.weights * np.diag(gram).real))
        assert weighted_trace == pytest.approx(kernel.norm_sq, rel=1e-10)

    def test_asymmetric_kernel_keeps_the_plain_sum(self):
        kernel = separable_kernel()   # sig(Omega_s) is not even
        gram = gram_matrix(kernel)
        oracle = unfolded_gram(kernel)
        assert np.max(np.abs(gram - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_hermitian(self, bbo1co, gate94, signal_opt):
        kernel = build_kernel(bbo1co, gate94, signal_opt,
                              GridConfig(n_omega_c=48, n_q=48, n_omega_s=48))
        gram = gram_matrix(kernel)
        assert np.max(np.abs(gram - gram.conj().T)) < 1e-12 * np.max(np.abs(gram))


class TestDecompose:
    def test_factorized_limit_reaches_unit_schmidt_number(self):
        # at phi = rho = 0 the kernel separates once the crystal far exceeds
        # the temporal walk-off length; with the Gaussian surrogate the
        # approach is exactly sqrt(1 + (l0/l)^2)
        kp_s, kp_c = 5.6138837221849, 5.810686538351809
        tau = 94.0
        l0 = tau / (math.sqrt(GAMMA_SINC / 2.0) * (kp_c - kp_s))
        length = 2000.0 * l0
        preset = CrystalPreset(name="collinear", lambda_s_um=0.8, kp_s=kp_s,
                               kp_c=kp_c, rho=0.0, phi=0.0, theta_pm=0.0,
                               length_um=length)
        gate = GateSpec(spectral=HermiteGaussSpec(order=0, scale=tau))
        signal = SignalBeamSpec(waist_s_um=107.7, spectral_tau_fs=tau)
        pm_sigma = 1.0 / (math.sqrt(2.0 * GAMMA_SINC) * (kp_c - kp_s) * length / 2.0)
        cfg = GridConfig(n_omega_c=96, n_q=32, n_omega_s=128,
                         span_omega_c=8.0 * pm_sigma, phase_matching="gaussian")
        result = decompose(build_kernel(preset, gate, signal, cfg, check=False))
        assert result.schmidt_number == pytest.approx(1.0, abs=1e-6)

    def test_schmidt_number_invariant_under_rescaling(self, bbo1co, gate94, signal_opt):
        kernel = build_kernel(bbo1co, gate94, signal_opt,
                              GridConfig(n_omega_c=64, n_q=64, n_omega_s=64))
        scaled = KernelGrid(values=kernel.values * 37.5, omega_c=kernel.omega_c,
                            q_c=kernel.q_c, omega_s=kernel.omega_s,
                            norm_sq=kernel.norm_sq * 37.5**2)
        k1 = decompose(kernel).schmidt_number
        k2 = decompose(scaled).schmidt_number
        assert abs(k1 - k2) < 1e-12 * k1

    def test_parseval_and_orthonormality(self, bbo1co, gate94, signal_opt):
        kernel = build_kernel(bbo1co, gate94, signal_opt,
                              GridConfig(n_omega_c=64, n_q=64, n_omega_s=64))
        result = decompose(kernel)
        assert result.norm_sq == pytest.approx(kernel.norm_sq, rel=1e-10)
        assert float(result.lambdas_sq.sum()) == pytest.approx(1.0, abs=1e-10)
        m = min(12, result.modes.shape[0])
        overlaps = (result.modes[:m].conj() * kernel.omega_s.weights) @ result.modes[:m].T
        assert np.allclose(overlaps, np.eye(m), atol=1e-8)

    def test_descending_nonnegative_spectrum(self, bbo1co, gate94, signal_opt):
        kernel = build_kernel(bbo1co, gate94, signal_opt,
                              GridConfig(n_omega_c=48, n_q=48, n_omega_s=48))
        result = decompose(kernel)
        assert np.all(result.lambdas_sq >= 0)
        assert np.all(np.diff(result.lambdas_sq) <= 0)
        assert result.schmidt_number >= 1.0

    def test_phase_fixing_makes_pivot_positive(self, bbo1co, gate94, signal_opt):
        kernel = build_kernel(bbo1co, gate94, signal_opt,
                              GridConfig(n_omega_c=48, n_q=48, n_omega_s=48))
        result = decompose(kernel)
        for mode in result.modes[:6]:
            assert mode[np.argmax(np.abs(mode))].real > 0

    def test_gram_route_matches_svd_oracle(self):
        kernel = multimode_kernel()
        result = decompose(kernel)
        flat = kernel.values.reshape(-1, kernel.omega_s.size)
        converted_weights = np.outer(kernel.omega_c.weights, kernel.q_c.weights).ravel()
        weighted = (flat * np.sqrt(converted_weights)[:, None]
                    * np.sqrt(kernel.omega_s.weights)[None, :])
        singular = np.linalg.svd(weighted, compute_uv=False)
        svd_lambdas = singular**2
        gram_lambdas = result.lambdas_sq_raw
        assert svd_lambdas[9] > 1e-6 * svd_lambdas[0]  # spectrum rich enough
        for i in range(10):
            assert gram_lambdas[i] == pytest.approx(svd_lambdas[i], rel=1e-8)

    def test_low_rank_truncation_residual(self):
        # Frobenius defect of the rank-r weighted Gram equals the tail
        # sum of squared eigenvalues
        kernel = multimode_kernel()
        gram = gram_matrix(kernel)
        sqrt_w = np.sqrt(kernel.omega_s.weights)
        weighted = sqrt_w[:, None] * gram * sqrt_w[None, :]
        evals, evecs = np.linalg.eigh(weighted)
        evals, evecs = evals[::-1], evecs[:, ::-1]
        for rank in (1, 3, 7):
            approx = (evecs[:, :rank] * evals[:rank]) @ evecs[:, :rank].conj().T
            defect = np.linalg.norm(weighted - approx, "fro") ** 2
            tail = float(np.sum(evals[rank:] ** 2))
            assert defect == pytest.approx(tail, rel=1e-9)


class TestStreamedGram:
    """The streamed solve path against the dense kernel it never builds."""

    @pytest.mark.parametrize("case", ["default", "gate-order-2", "gaussian",
                                      "counter", "partial-slab"])
    def test_matches_dense_oracle(self, case, bbo1co, gate94, signal_opt):
        preset, gate = bbo1co, gate94
        cfg = GridConfig(n_omega_c=64, n_q=64, n_omega_s=64)
        if case == "gate-order-2":
            gate = GateSpec(spectral=HermiteGaussSpec(order=2, scale=94.0))
        elif case == "gaussian":
            cfg = replace(cfg, phase_matching="gaussian")
        elif case == "counter":
            preset = preset_bbo(5, "counter")
            cfg = GridConfig(n_omega_c=128, n_q=96, n_omega_s=96)
        elif case == "partial-slab":
            cfg = GridConfig(n_omega_c=45, n_q=40, n_omega_s=40)
            rows = SLAB_SAMPLES // (40 * 40)
            assert 1 < rows < 45 and 45 % rows != 0
        dense = build_kernel(preset, gate, signal_opt, cfg)
        streamed = kernel_gram(preset, gate, signal_opt, cfg)
        assert np.array_equal(streamed.gram, gram_matrix(dense))
        assert streamed.norm_sq == pytest.approx(dense.norm_sq, rel=1e-12)
        assert np.allclose(streamed.diagnostics["boundary_fractions"],
                           dense.diagnostics["boundary_fractions"], rtol=1e-12, atol=0.0)
        a, b = decompose(streamed), decompose(dense)
        assert a.schmidt_number == pytest.approx(b.schmidt_number, rel=1e-12)
        assert np.allclose(a.lambdas_sq, b.lambdas_sq, rtol=1e-12, atol=0.0)
        assert np.allclose(a.modes[:4], b.modes[:4], rtol=0.0,
                           atol=1e-12 * np.abs(b.modes[:4]).max())
        assert a.modes.dtype == np.float64

    @pytest.mark.parametrize("order,n", [(0, (45, 40, 41)), (1, (45, 40, 41)),
                                         (1, (64, 63, 64))])
    def test_folded_gram_matches_unfolded_oracle(self, bbo1co, signal_opt, order, n):
        gate = GateSpec(spectral=HermiteGaussSpec(order=order, scale=94.0))
        cfg = GridConfig(n_omega_c=n[0], n_q=n[1], n_omega_s=n[2])
        dense = build_kernel(bbo1co, gate, signal_opt, cfg)
        oracle = unfolded_gram(dense)
        streamed = kernel_gram(bbo1co, gate, signal_opt, cfg)
        assert np.max(np.abs(streamed.gram - oracle)) <= 1e-13 * np.max(np.abs(oracle))
        assert streamed.norm_sq == pytest.approx(dense.norm_sq, rel=1e-12)
        k_oracle = decompose(KernelGram(gram=oracle, omega_s=dense.omega_s,
                                        norm_sq=dense.norm_sq)).schmidt_number
        assert decompose(streamed).schmidt_number == pytest.approx(k_oracle, rel=1e-12)

    @pytest.mark.parametrize("length_um,cfg,error", [
        (11663.4, GridConfig(n_omega_c=64, n_q=48, n_omega_s=48), KernelResolutionError),
        (2000.0, GridConfig(n_omega_c=48, n_q=48, n_omega_s=48,
                            span_omega_c=0.005, span_omega_s=0.005), KernelSpanError),
    ])
    def test_same_errors_as_dense_oracle(self, bbo1co, gate94, signal_opt,
                                         length_um, cfg, error):
        preset = bbo1co.with_length(length_um)
        with pytest.raises(error) as dense:
            build_kernel(preset, gate94, signal_opt, cfg)
        with pytest.raises(error) as streamed:
            kernel_gram(preset, gate94, signal_opt, cfg)
        assert str(streamed.value) == str(dense.value)


class TestScan:
    def test_duplicate_points_bitwise_identical(self, bbo1co, gate94, signal_opt):
        point = ScanPoint(length_um=2000.0, waist_um=107.7,
                          phi_rad=bbo1co.phi, gate_order=0)
        cfg = GridConfig(n_omega_c=48, n_q=48, n_omega_s=48)
        rows = schmidt_number_scan(bbo1co, gate94, signal_opt, [point, point],
                                   cfg)
        assert rows[0].schmidt_number == rows[1].schmidt_number
        assert rows[0].lambda1_frac == rows[1].lambda1_frac

    def test_longer_crystal_less_multimode_along_optimal_focus(self, bbo1co, gate94):
        signal = SignalBeamSpec(waist_s_um=107.7, spectral_tau_fs=93.12)
        lengths = [2000.0, 4000.0, 8000.0, 16000.0]
        points = [ScanPoint(l, 107.7, bbo1co.phi, 0) for l in lengths]
        cfg = GridConfig(n_omega_c=256, n_q=64, n_omega_s=64)
        rows = schmidt_number_scan(bbo1co, gate94, signal, points, cfg)
        ks = [r.schmidt_number for r in rows]
        assert all(r.status == "ok" for r in rows)
        for a, b in zip(ks, ks[1:]):
            assert b <= a * 1.01

    def test_gate_order_increases_mode_count(self, gate94):
        preset = CrystalPreset(name="bbo5", lambda_s_um=0.8, kp_s=5.6138837221849,
                               kp_c=5.787303285966586, rho=math.radians(4.1),
                               phi=math.radians(5.0), theta_pm=0.0)
        signal = SignalBeamSpec(waist_s_um=26.8, spectral_tau_fs=93.12)
        points = [ScanPoint(2000.0, 26.8, preset.phi, order) for order in (0, 1, 2)]
        cfg = GridConfig(n_omega_c=96, n_q=96, n_omega_s=96)
        rows = schmidt_number_scan(preset, gate94, signal, points, cfg)
        ks = [r.schmidt_number for r in rows]
        assert ks[0] < ks[1] < ks[2]

    def test_failures_recorded_in_row(self, bbo1co, gate94, signal_opt):
        points = [ScanPoint(2000.0, 107.7, bbo1co.phi, 0),
                  ScanPoint(-5.0, 107.7, bbo1co.phi, 0)]
        cfg = GridConfig(n_omega_c=48, n_q=48, n_omega_s=48)
        rows = schmidt_number_scan(bbo1co, gate94, signal_opt, points, cfg)
        assert rows[0].status == "ok"
        assert rows[1].status.startswith("error:")
        assert rows[1].schmidt_number is None

    def test_program_errors_propagate(self, bbo1co, gate94, signal_opt, monkeypatch):
        # only domain failures become rows; a bug must stop the scan
        def broken(*args, **kwargs):
            raise TypeError("build_kernel is broken")

        monkeypatch.setattr("modesub.schmidt.kernel_gram", broken)
        points = [ScanPoint(2000.0, 107.7, bbo1co.phi, 0)]
        with pytest.raises(TypeError, match="build_kernel is broken"):
            schmidt_number_scan(bbo1co, gate94, signal_opt, points,
                                GridConfig(n_omega_c=48, n_q=48, n_omega_s=48))
