import math
from dataclasses import replace

import numpy as np
import pytest

from modesub import _blas
from modesub import kernel as kernel_mod
from modesub import (PRESETS, CrystalPreset, GateSpec, GridConfig, KernelGrid,
                     ScanPoint, SignalBeamSpec, build_kernel, decompose,
                     gram_matrix, kernel_gram, schmidt_number_scan, uniform_grid)
from modesub.analytic import GAMMA_SINC
from modesub.config import resolve
from modesub.kernel import (BLOCK_SAMPLES, KernelGram, KernelResolutionError,
                            KernelSpanError)
from modesub.schmidt import (PIVOT_TIE, DecompositionError, _parity_blocks,
                             schmidt_number_and_lead)

from conftest import TAU_COMB_FS
from oracles import schmidt_number_oracle


def separable_kernel():
    """Handcrafted rank-one kernel: converted-side function times signal-side."""
    g_wc = uniform_grid(1.0, 24, label="omega_c")
    g_q = uniform_grid(1.0, 20, label="q_c")
    g_ws = uniform_grid(1.0, 28, label="omega_s")
    conv = np.exp(-(g_wc.points[:, None] ** 2 + g_q.points[None, :] ** 2))
    sig = np.exp(-2.0 * g_ws.points**2) * (1.0 + g_ws.points)
    values = conv[:, :, None] * sig[None, None, :]
    return KernelGrid(values=values, omega_c=g_wc, q_c=g_q, omega_s=g_ws)


def weighted_trace(kernel: KernelGrid) -> float:
    """sum_s w_s G_ss of the dense reference Gram: the box norm^2."""
    return float(kernel.omega_s.weights @ np.diag(gram_matrix(kernel)))


def multimode_kernel():
    """Strongly multimode configuration exercising a slowly decaying spectrum."""
    preset = CrystalPreset(name="bbo5", lambda_s_um=0.8, kp_s=5.6138837221849,
                           kp_c=5.787303285966586, rho=math.radians(4.1),
                           phi=math.radians(5.0), theta_pm=0.0, length_um=2000.0)
    gate = GateSpec(order=2, tau_g=94.0)
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
        # |L|^2 summed with every axis's weights, element by element
        norm_sq = float(np.sum(kernel.values**2
                               * kernel.omega_c.weights[:, None, None]
                               * kernel.q_c.weights[None, :, None]
                               * kernel.omega_s.weights[None, None, :]))
        assert weighted_trace(kernel) == pytest.approx(norm_sq, rel=1e-10)

    def test_hermitian(self, bbo1co, gate94, signal_opt):
        kernel = build_kernel(bbo1co, gate94, signal_opt,
                              GridConfig(n_omega_c=48, n_q=48, n_omega_s=48))
        gram = gram_matrix(kernel)
        assert np.max(np.abs(gram - gram.conj().T)) < 1e-12 * np.max(np.abs(gram))


class TestDecompose:
    def test_factorized_limit_reaches_unit_schmidt_number(self):
        # at phi = rho = 0 the kernel separates once the crystal far exceeds
        # the temporal walk-off length l0: the box-free K - 1 falls as l0 / l
        # (0.0511 at 10 l0, 0.0167 at 30 l0), and a solve whose 401 uniform
        # Omega_c points resolve the narrow sinc follows it
        kp_s, kp_c = 5.6138837221849, 5.810686538351809
        tau = 94.0
        l0 = tau / (math.sqrt(GAMMA_SINC / 2.0) * (kp_c - kp_s))
        gate = GateSpec(order=0, tau_g=tau)
        signal = SignalBeamSpec(waist_s_um=107.7, spectral_tau_fs=tau)
        presets = [CrystalPreset(name="collinear", lambda_s_um=0.8, kp_s=kp_s,
                                 kp_c=kp_c, rho=0.0, phi=0.0, theta_pm=0.0,
                                 length_um=m * l0) for m in (10.0, 30.0)]
        k_10, k_30 = (schmidt_number_oracle(p, gate, signal) for p in presets)
        assert 1.0 < k_30 < 1.02
        assert (k_10 - 1.0) / (k_30 - 1.0) == pytest.approx(3.0, rel=0.03)
        gram = kernel_gram(presets[0], gate, signal, GridConfig(n_omega_c=401))
        k_solve = decompose(gram).schmidt_number / gram.diagnostics["mass_captured"] ** 2
        assert k_solve == pytest.approx(k_10, rel=1e-5)

    def test_schmidt_number_invariant_under_rescaling(self, bbo1co, gate94, signal_opt):
        kernel = build_kernel(bbo1co, gate94, signal_opt,
                              GridConfig(n_omega_c=64, n_q=64, n_omega_s=64))
        scaled = KernelGrid(values=kernel.values * 37.5, omega_c=kernel.omega_c,
                            q_c=kernel.q_c, omega_s=kernel.omega_s)
        k1 = decompose(kernel).schmidt_number
        k2 = decompose(scaled).schmidt_number
        assert abs(k1 - k2) < 1e-12 * k1

    def test_parseval_and_orthonormality(self, bbo1co, gate94, signal_opt):
        kernel = build_kernel(bbo1co, gate94, signal_opt,
                              GridConfig(n_omega_c=64, n_q=64, n_omega_s=64))
        result = decompose(kernel)
        assert result.norm_sq == pytest.approx(weighted_trace(kernel), rel=1e-10)
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
            mags = np.abs(mode)
            first_near_max = np.flatnonzero(mags >= (1.0 - PIVOT_TIE) * mags.max())[0]
            assert mode[first_near_max] > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_mode_signs_survive_rounding_noise(self, bbo1co, gate94, signal_opt, seed):
        # odd modes have two mirror extremes of equal |.|; noise at the
        # rounding level must not choose which one is made positive
        streamed = kernel_gram(bbo1co, gate94, signal_opt)
        noise = np.random.default_rng(seed).uniform(-1.0, 1.0, streamed.gram.shape)
        perturbed = streamed.gram * (1.0 + 1e-14 * (noise + noise.T) / 2.0)
        reference = decompose(streamed)
        result = decompose(replace(streamed, gram=perturbed))
        # the 12 leading modes, which hold all but 1e-6 of the spectrum
        n_modes = 12
        overlaps = np.sum(reference.modes[:n_modes] * result.modes[:n_modes]
                          * reference.omega_s.weights, axis=1)
        assert np.all(overlaps > 0.5)

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


def weighted_gram_eigh(gram: KernelGram):
    """Spectrum (descending, unit sum) and modes of one plain eigh of the
    weighted Gram matrix, with no use of its symmetry."""
    sqrt_w = np.sqrt(gram.omega_s.weights)
    evals, evecs = np.linalg.eigh(sqrt_w[:, None] * gram.gram * sqrt_w[None, :])
    evals = np.clip(evals[::-1], 0.0, None)
    return evals / evals.sum(), (evecs[:, ::-1] / sqrt_w[:, None]).T


# per gate order, the leading modes that hold all but 1e-6 of the spectrum
# at the default point; past them the eigenvalue gaps are so small that
# rounding moves the two solves' modes apart by more than 1e-10
LEADING_MODES = {0: 12, 1: 20, 2: 28, 3: 37}


class TestParitySplit:
    """The two parity blocks against one eigh of the whole matrix."""

    @pytest.mark.parametrize("n_s", [64, 65])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_matches_plain_eigh(self, bbo1co, signal_opt, order, n_s):
        gate = GateSpec(order=order, tau_g=94.0)
        gram = kernel_gram(bbo1co, gate, signal_opt, GridConfig(n_omega_s=n_s))
        result = decompose(gram)
        lambdas, modes = weighted_gram_eigh(gram)
        assert np.allclose(result.lambdas_sq, lambdas[:result.lambdas_sq.size],
                           rtol=1e-12, atol=1e-15)
        assert result.schmidt_number == pytest.approx(1.0 / np.sum(lambdas**2),
                                                      rel=1e-12)
        for mode, oracle in zip(result.modes[:LEADING_MODES[order]], modes):
            sign = np.sign(np.sum(mode * oracle))
            assert np.max(np.abs(mode - sign * oracle)) <= 1e-10 * np.abs(oracle).max()
        # every mode is even or odd to the last bit, the leading one with
        # the HG gate's parity
        parities = [1 if np.array_equal(mode[::-1], mode) else
                    -1 if np.array_equal(mode[::-1], -mode) else 0
                    for mode in result.modes]
        assert 0 not in parities
        assert parities[0] == (-1) ** order and -parities[0] in parities

    @pytest.mark.parametrize("n_s", [64, 65])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_scan_eigenvalues_match_plain_eigh(self, bbo1co, signal_opt, order, n_s):
        # the scan solves for eigenvalues only; its K is decompose's to the bit
        gate = GateSpec(order=order, tau_g=94.0)
        cfg = GridConfig(n_omega_s=n_s)
        [row] = schmidt_number_scan([ScanPoint(bbo1co, gate, signal_opt)], cfg)
        gram = kernel_gram(bbo1co, gate, signal_opt, cfg)
        lambdas, _ = weighted_gram_eigh(gram)
        assert row.schmidt_number == pytest.approx(1.0 / np.sum(lambdas**2), rel=1e-12)
        assert row.lambda1_frac == pytest.approx(lambdas[0], rel=1e-12)
        assert row.schmidt_number == decompose(gram).schmidt_number

    def test_lead_in_the_smaller_trace_block(self, rng, monkeypatch):
        # a centrosymmetric weighted Gram built from its parity blocks: the
        # even block holds the larger trace (3.4), the odd one the top
        # eigenvalue (2.0 > 1.0), so the second eigvalsh must run
        m = 4
        rotations = [np.linalg.qr(rng.standard_normal((m, m)))[0] for _ in range(2)]
        even, odd = (q @ np.diag(d) @ q.T for q, d in zip(
            rotations, ([1.0, 0.9, 0.8, 0.7], [2.0, 0.1, 0.1, 0.05])))
        top, mirror = (even + odd) / 2.0, (even - odd) / 2.0
        weighted = np.block([[top, mirror[:, ::-1]], [mirror[::-1], top[::-1, ::-1]]])
        omega_s = uniform_grid(1.0, 2 * m)
        sqrt_w = np.sqrt(omega_s.weights)
        gram = KernelGram(gram=weighted / np.outer(sqrt_w, sqrt_w), omega_s=omega_s)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda block: calls.append(block) or eigvalsh(block))
        _, lead = schmidt_number_and_lead(gram)
        assert len(calls) == 2
        assert lead == pytest.approx(decompose(gram).lambdas_sq[0], rel=1e-12)
        assert lead == pytest.approx(2.0 / 5.65, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 9, 48, 49])
    def test_blocks_are_the_mirror_sums_bit_for_bit(self, rng, n):
        # [[H + M, sqrt 2 c], [sqrt 2 c^T, h_mm]] and H - M, entry by entry
        h = rng.standard_normal((n, n))
        h = h + h.T + (h + h.T)[::-1, ::-1]
        m = n // 2
        top, mirror = h[:m, :m], h[:m, ::-1][:, :m]
        expected = top + mirror
        if n % 2:
            root2 = np.sqrt(2.0)
            expected = np.block([[expected, root2 * h[:m, m:m + 1]],
                                 [root2 * h[m:m + 1, :m], h[m:m + 1, m:m + 1]]])
        even, odd = _parity_blocks(h)
        assert even.tobytes() == expected.tobytes()
        assert odd.tobytes() == (top - mirror).tobytes()

    def test_not_point_symmetric_gram_raises(self):
        kernel = separable_kernel()   # sig(Omega_s) is not even
        gram = KernelGram(gram=gram_matrix(kernel), omega_s=kernel.omega_s)
        with pytest.raises(DecompositionError, match="not point-symmetric"):
            decompose(gram)


class TestStreamedGram:
    """The streamed solve path against the dense kernel it never builds."""

    @pytest.mark.parametrize("case", ["default", "gate-order-2", "counter",
                                      "partial-block", "odd-axes", "odd-axes-order-1",
                                      "odd-q-order-1"])
    def test_matches_dense_oracle(self, case, bbo1co, gate94, signal_opt):
        preset, gate = bbo1co, gate94
        cfg = GridConfig(n_omega_c=64, n_q=64, n_omega_s=64)
        if case == "gate-order-2":
            gate = GateSpec(order=2, tau_g=94.0)
        elif case.startswith("odd-"):
            # odd Omega_c (a self-mirrored centre row) and Omega_s axes, or an
            # odd q_c axis, at both gate parities
            order = 1 if case.endswith("order-1") else 0
            gate = GateSpec(order=order, tau_g=94.0)
            cfg = GridConfig(*((64, 63, 64) if case.startswith("odd-q") else (45, 40, 41)))
        elif case == "counter":
            preset = PRESETS["bbo-phi5-counter"]
            cfg = GridConfig(n_omega_c=128, n_q=96, n_omega_s=96)
        elif case == "partial-block":
            # the last block of whole q_c planes holds fewer than the others
            cfg = GridConfig(n_omega_c=127, n_q=40, n_omega_s=64)
            planes = BLOCK_SAMPLES // ((127 + 1) // 2 * 64)   # sampled rows x n_s
            assert 1 < planes < 40 and 40 % planes != 0
        dense = build_kernel(preset, gate, signal_opt, cfg)
        streamed = kernel_gram(preset, gate, signal_opt, cfg)
        oracle = gram_matrix(dense)
        assert np.max(np.abs(streamed.gram - oracle)) <= 1e-13 * np.max(np.abs(oracle))
        assert streamed.diagnostics["mass_captured"] == pytest.approx(
            dense.diagnostics["mass_captured"], rel=1e-12)
        a, b = decompose(streamed), decompose(dense)
        assert a.schmidt_number == pytest.approx(b.schmidt_number, rel=1e-12)
        # eigenvalues near NOISE_FLOOR differ by up to 1e-5 relative, but by
        # under 5e-16 on the unit-sum scale
        assert np.allclose(a.lambdas_sq, b.lambdas_sq, rtol=1e-12, atol=1e-15)
        assert np.allclose(a.modes[:4], b.modes[:4], rtol=0.0,
                           atol=1e-12 * np.abs(b.modes[:4]).max())
        assert a.modes.dtype == np.float64

    @pytest.mark.parametrize("length_um,cfg,error", [
        (11663.4, GridConfig(n_omega_c=64, n_q=48, n_omega_s=48), KernelResolutionError),
        (2000.0, GridConfig(n_omega_c=48, n_q=48, n_omega_s=48,
                            span_omega_c=0.005, span_omega_s=0.005), KernelSpanError),
    ])
    def test_same_errors_as_dense_oracle(self, bbo1co, gate94, signal_opt,
                                         length_um, cfg, error):
        preset = replace(bbo1co, length_um=length_um)
        with pytest.raises(error) as dense:
            build_kernel(preset, gate94, signal_opt, cfg)
        with pytest.raises(error) as streamed:
            kernel_gram(preset, gate94, signal_opt, cfg)
        assert str(streamed.value) == str(dense.value)


class TestSchmidtNumberOracle:
    """The solve's K against the box-free oracle of the sinc kernel
    (``tests/oracles.py``).  K / mass_captured^2 = ||L||^4 / sum
    lambda_raw^2 holds the box's tr G^2 to the norm of the whole space, so
    only the tails the box cuts off separate it from the oracle."""

    @pytest.mark.parametrize("w_um", [50.0, 200.0])
    @pytest.mark.parametrize("l_um", [1000.0, 4000.0])
    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    def test_k_over_mass_squared_matches_the_oracle(self, preset_name, l_um, w_um):
        # at span_scale 3 the cut-off tails move it by 4e-7 to 5.3e-5
        preset = replace(PRESETS[preset_name], length_um=l_um)
        gate = GateSpec(order=0, tau_g=94.0)
        signal = SignalBeamSpec(waist_s_um=w_um, spectral_tau_fs=TAU_COMB_FS)
        gram = kernel_gram(preset, gate, signal, GridConfig(span_scale=3.0))
        k, _ = schmidt_number_and_lead(gram)
        assert k / gram.diagnostics["mass_captured"] ** 2 == pytest.approx(
            schmidt_number_oracle(preset, gate, signal), rel=1e-4)


class TestScan:
    def test_duplicate_points_bitwise_identical(self, bbo1co, gate94, signal_opt):
        point = ScanPoint(bbo1co, gate94, signal_opt)
        cfg = GridConfig(n_omega_c=48, n_q=48, n_omega_s=48)
        rows = schmidt_number_scan([point, point], cfg)
        assert rows[0].schmidt_number == rows[1].schmidt_number
        assert rows[0].lambda1_frac == rows[1].lambda1_frac

    def test_longer_crystal_less_multimode_along_optimal_focus(self, bbo1co, gate94):
        signal = SignalBeamSpec(waist_s_um=107.7, spectral_tau_fs=93.12)
        lengths = [2000.0, 4000.0, 8000.0, 16000.0]
        points = [ScanPoint(replace(bbo1co, length_um=l), gate94, signal) for l in lengths]
        cfg = GridConfig(n_omega_c=256, n_q=64, n_omega_s=64)
        rows = schmidt_number_scan(points, cfg)
        ks = [r.schmidt_number for r in rows]
        assert all(r.status == "ok" for r in rows)
        for a, b in zip(ks, ks[1:]):
            assert b <= a * 1.01

    def test_gate_order_increases_mode_count(self):
        preset = CrystalPreset(name="bbo5", lambda_s_um=0.8, kp_s=5.6138837221849,
                               kp_c=5.787303285966586, rho=math.radians(4.1),
                               phi=math.radians(5.0), theta_pm=0.0)
        signal = SignalBeamSpec(waist_s_um=26.8, spectral_tau_fs=93.12)
        points = [ScanPoint(preset, GateSpec(order=order, tau_g=94.0),
                            signal) for order in (0, 1, 2)]
        cfg = GridConfig(n_omega_c=96, n_q=96, n_omega_s=96)
        rows = schmidt_number_scan(points, cfg)
        ks = [r.schmidt_number for r in rows]
        assert ks[0] < ks[1] < ks[2]

    def test_failures_recorded_in_row(self, bbo1co, gate94, signal_opt):
        # the long crystal's lobe is too narrow for 48 Omega_c points
        points = [ScanPoint(bbo1co, gate94, signal_opt),
                  ScanPoint(replace(bbo1co, length_um=11663.4), gate94, signal_opt)]
        cfg = GridConfig(n_omega_c=48, n_q=48, n_omega_s=48)
        with pytest.raises(KernelResolutionError) as raised:
            kernel_gram(points[1].preset, gate94, signal_opt, cfg)
        rows = schmidt_number_scan(points, cfg)
        assert rows[0].status == "ok"
        assert rows[1].status == f"error: {raised.value}"
        assert rows[1].schmidt_number is None and rows[1].lambda1_frac is None

    def test_program_errors_propagate(self, bbo1co, gate94, signal_opt, monkeypatch):
        # only domain failures become rows; a bug must stop the scan
        def broken(*args, **kwargs):
            raise TypeError("kernel_gram is broken")

        monkeypatch.setattr("modesub.scan.kernel_gram", broken)
        with pytest.raises(TypeError, match="kernel_gram is broken"):
            schmidt_number_scan([ScanPoint(bbo1co, gate94, signal_opt)],
                                GridConfig(n_omega_c=48, n_q=48, n_omega_s=48))


needs_openblas = pytest.mark.skipif(_blas._openblas() is None,
                                    reason="numpy does not link its bundled OpenBLAS")


@pytest.fixture
def two_threads():
    """OpenBLAS at two threads for the test, the caller's count afterwards,
    so a restore to the count before the solve is not a restore to 1."""
    get, set_threads = _blas._openblas()
    saved = get()
    set_threads(2)
    yield
    set_threads(saved)


@needs_openblas
@pytest.mark.usefixtures("two_threads")
class TestOneBlasThread:
    """The solve path runs at one OpenBLAS thread and gives the count back."""

    def test_count_restored_after_the_solve(self, bbo1co, gate94, signal_opt):
        gram = kernel_gram(bbo1co, gate94, signal_opt)
        assert _blas.blas_threads() == 2
        decompose(gram)
        assert _blas.blas_threads() == 2

    def test_count_restored_when_decompose_raises(self):
        kernel = separable_kernel()   # the Gram of test_not_point_symmetric_gram_raises
        gram = KernelGram(gram=gram_matrix(kernel), omega_s=kernel.omega_s)
        with pytest.raises(DecompositionError):
            decompose(gram)
        assert _blas.blas_threads() == 2

    def test_nested_use_restores_each_level(self):
        with _blas.one_blas_thread():
            assert _blas.blas_threads() == 1
            with _blas.one_blas_thread():
                assert _blas.blas_threads() == 1
            assert _blas.blas_threads() == 1
        assert _blas.blas_threads() == 2

    @staticmethod
    def record_blas_threads(monkeypatch) -> list:
        """(name, BLAS threads) at each call of the Gram fold and of the two
        eigensolvers, in call order."""
        seen = []

        def recording(wrapped):
            def call(*args, **kwargs):
                seen.append((wrapped.__name__, _blas.blas_threads()))
                return wrapped(*args, **kwargs)
            return call

        monkeypatch.setattr(kernel_mod, "_folded_gram", recording(kernel_mod._folded_gram))
        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
        return seen

    def test_one_thread_inside_the_solve(self, bbo1co, gate94, signal_opt, monkeypatch):
        seen = self.record_blas_threads(monkeypatch)
        decompose(kernel_gram(bbo1co, gate94, signal_opt))
        assert seen == [("_folded_gram", 1), ("eigh", 1), ("eigh", 1)]

    def test_scan_solves_eigenvalues_only_at_one_thread(self, bbo1co, gate94,
                                                        signal_opt, monkeypatch):
        seen = self.record_blas_threads(monkeypatch)
        [row] = schmidt_number_scan([ScanPoint(bbo1co, gate94, signal_opt)])
        assert row.status == "ok"
        # the larger-trace block's top eigenvalue bounds the other block's trace
        assert seen == [("_folded_gram", 1), ("eigvalsh", 1)]

    def test_no_library_found_leaves_the_count(self, monkeypatch):
        get, _ = _blas._openblas()
        monkeypatch.setattr(_blas, "_openblas", lambda: None)
        with _blas.one_blas_thread():
            assert get() == 2
        assert _blas.blas_threads() is None

    def test_same_numbers_at_two_threads(self, monkeypatch):
        # the helper is switched off to run the solve, and the scan's
        # eigenvalue-only solve, at two threads against one, at the default point
        config = resolve({})
        args = (config.preset(), config.gate(), config.signal(), config.grid())
        point = ScanPoint(*args[:3])
        with monkeypatch.context() as patched:
            patched.setattr(_blas, "_openblas", lambda: None)
            gram_two = kernel_gram(*args)
            result_two = decompose(gram_two)
            [row_two] = schmidt_number_scan([point], args[3])
        gram_one = kernel_gram(*args)
        result_one = decompose(gram_one)
        [row_one] = schmidt_number_scan([point], args[3])
        assert np.array_equal(gram_two.gram, gram_one.gram)
        assert np.array_equal(result_two.lambdas_sq, result_one.lambdas_sq)
        assert np.array_equal(result_two.modes, result_one.modes)
        assert row_two.schmidt_number == row_one.schmidt_number
        assert row_two.lambda1_frac == row_one.lambda1_frac
        assert row_one.schmidt_number == result_one.schmidt_number
