import math
from dataclasses import replace

import numpy as np
import pytest

from modesub import (PRESETS, GateSpec, GridConfig, SignalBeamSpec,
                     build_kernel, comb_subtraction_experiment, conditioned_state,
                     decompose, flat_comb, kernel_gram, overlap_matrix,
                     photons_from_squeezing, uniform_grid)
from modesub.analytic import build_covariance, conversion_prefactor_fs
from modesub.conditioning import (CombState, ConditioningError, _weight_and_purity,
                                  comb_from_csv)
from modesub.config import resolve
from modesub.kernel import derive_grids
from modesub.schmidt import SchmidtResult

from oracles import comb_oracle

TAU_S = 93.11618228642854


class TestPhotonsFromSqueezing:
    def test_reference_chain(self):
        n = photons_from_squeezing(4.2, 40.0)
        assert n == pytest.approx(6.3e-3, rel=0.01)
        # within 10% of the rounded 6e-3 reference
        assert n == pytest.approx(6e-3, rel=0.10)

    def test_direct_evaluation(self):
        r = 4.2 * math.log(10.0) / 20.0
        expected = ((math.exp(r) - math.exp(-r)) / 2.0) ** 2
        assert photons_from_squeezing(4.2, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.2526, abs=5e-4)

    def test_vacuum(self):
        assert photons_from_squeezing(0.0, 17.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            photons_from_squeezing(-1.0, 40.0)
        with pytest.raises(ValueError):
            photons_from_squeezing(4.2, 0.0)
        for squeezing_db, finesse in ((math.nan, 40.0), (4.2, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                photons_from_squeezing(squeezing_db, finesse)


class TestCombState:
    def test_flat_comb_defaults(self):
        comb = flat_comb(tau_s_fs=TAU_S)
        assert comb.n_modes == 40
        assert np.all(comb.photons_comb == comb.photons_comb[0])
        assert comb.photons_pulse[0] == pytest.approx(
            photons_from_squeezing(4.2, 40.0), rel=1e-12)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "photons.csv"
        path.write_text("0,0.25\n2,0.10\n1,0.20\n")
        comb = comb_from_csv(path, tau_s_fs=TAU_S, finesse=40.0)
        assert np.allclose(comb.photons_comb, [0.25, 0.20, 0.10])
        assert np.allclose(comb.photons_pulse, np.array([0.25, 0.20, 0.10]) / 40.0)

    @pytest.mark.parametrize("text", [
        pytest.param("0.25\n0.20\n", id="one-column"),
        pytest.param("0,0.1\n0,0.2\n", id="repeated-index"),
        # photons meant for mode 5 would land on mode 2
        pytest.param("1,0.1\n2,0.2\n5,0.3\n", id="gapped-index"),
        pytest.param("0,0.1\n1.5,0.2\n", id="fractional-index"),
        pytest.param("0,0.1,7\n1,0.2,7\n", id="three-columns"),
        pytest.param("index,N\n0,0.1\n", id="header-row"),
        pytest.param("0,0.1\n1,nan\n", id="non-finite"),
        pytest.param("0,0.1\n1,-0.2\n", id="negative-photons"),
        pytest.param("", id="empty"),
    ])
    def test_csv_rejects_malformed_file_naming_it(self, tmp_path, text):
        path = tmp_path / "bad_photons.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad_photons.csv"):
            comb_from_csv(path, tau_s_fs=TAU_S)

    def test_validation(self):
        with pytest.raises(ValueError):
            CombState(tau_s_fs=TAU_S, photons_comb=np.array([0.1, -0.2]))
        with pytest.raises(ValueError):
            CombState(tau_s_fs=TAU_S, photons_comb=np.array([0.1]), finesse=0.0)

    @pytest.mark.parametrize("field, value", [
        ("tau_s_fs", math.nan), ("finesse", math.nan), ("finesse", math.inf),
        ("photons_comb", [0.1, math.nan]), ("photons_comb", [math.inf])])
    def test_non_finite_field_is_a_value_error(self, field, value):
        # nan < 0 is false: NaN photons or finesse would give a NaN purity
        with pytest.raises(ValueError, match="finite"):
            replace(flat_comb(n_modes=2, tau_s_fs=TAU_S), **{field: value})


class TestOverlapMatrix:
    def test_self_overlap_is_identity(self):
        comb = flat_comb(n_modes=6, tau_s_fs=TAU_S)
        grid = uniform_grid(5.0 * (1.0 + 5.0 / 2.0) / TAU_S, 257)
        modes = comb.sample_modes(grid)
        overlap = overlap_matrix(modes, comb, grid)
        assert np.allclose(overlap, np.eye(6), atol=1e-8)

    def test_row_norms_bounded(self, bbo1co, signal_opt):
        gate = GateSpec(order=0, tau_g=TAU_S)
        result = decompose(build_kernel(replace(bbo1co, length_um=2000.0), gate, signal_opt))
        comb = flat_comb(tau_s_fs=TAU_S)
        overlap = overlap_matrix(result.modes[:8], comb, result.omega_s)
        norms = np.sum(np.abs(overlap) ** 2, axis=1)
        assert np.all(norms <= 1.0 + 1e-8)

    def test_matched_gate_targets_the_matched_mode(self, signal_opt):
        # deep in the single-mode regime the first subtraction mode is the
        # gate spectrum, hence overlaps only the matched comb mode
        preset = replace(PRESETS["bbo-phi1-co"], length_um=11663.4)
        gate = GateSpec(order=0, tau_g=TAU_S)
        cfg = GridConfig(n_omega_c=384)
        result = decompose(build_kernel(preset, gate, signal_opt, cfg))
        comb = flat_comb(tau_s_fs=TAU_S)
        overlap = overlap_matrix(result.modes[:1], comb, result.omega_s)
        row = np.abs(overlap[0]) ** 2
        assert row[0] > 0.99
        assert np.all(row[1:] < 1e-3)

    def test_matched_gate_is_most_comb_diagonal(self, bbo1co, signal_opt):
        # a spectrally broader gate lowers the mode count and raises purity,
        # but its subtraction mode spreads over more comb modes
        comb = flat_comb(tau_s_fs=TAU_S)
        leaks = {}
        for label, tau_g in (("matched", TAU_S), ("broader", TAU_S / 2.0)):
            gate = GateSpec(order=0, tau_g=tau_g)
            result = decompose(build_kernel(replace(bbo1co, length_um=2000.0), gate,
                                            signal_opt))
            row = np.abs(overlap_matrix(result.modes[:1], comb,
                                        result.omega_s)[0]) ** 2
            leaks[label] = float(row.sum() - row[0])
        assert leaks["matched"] < 0.05
        assert leaks["broader"] > leaks["matched"]

    def test_grid_mismatch_raises(self):
        comb = flat_comb(n_modes=3, tau_s_fs=TAU_S)
        grid = uniform_grid(0.1, 65)
        with pytest.raises(ValueError):
            overlap_matrix(np.ones((2, 64)), comb, grid)


def synthetic_schmidt(lambdas_frac, modes, grid):
    lam = np.asarray(lambdas_frac, dtype=float)
    return SchmidtResult(lambdas_sq=lam / lam.sum(), modes=np.asarray(modes),
                         schmidt_number=float(lam.sum() ** 2 / np.sum(lam**2)),
                         norm_sq=1.0, omega_s=grid)


class TestConditionedState:
    def grid_and_family(self, n_family=4):
        grid = uniform_grid(5.0 * (1.0 + n_family / 2.0) / TAU_S, 257)
        comb = flat_comb(n_modes=n_family, tau_s_fs=TAU_S)
        return grid, comb, comb.sample_modes(grid)

    def test_single_schmidt_mode_is_pure(self, bbo1co, gate94):
        grid, comb, family = self.grid_and_family()
        schmidt = synthetic_schmidt([1.0], family[:1], grid)
        out = conditioned_state(schmidt, comb, bbo1co, gate94)
        assert out.purity == pytest.approx(1.0, abs=1e-12)

    def test_two_equal_channels_identity_overlap(self, bbo1co, gate94):
        # two equally weighted channels heralding two equally occupied modes
        grid, comb, family = self.grid_and_family(2)
        schmidt = synthetic_schmidt([0.5, 0.5], family[:2], grid)
        out = conditioned_state(schmidt, comb, bbo1co, gate94)
        assert out.purity == pytest.approx(0.5, abs=1e-10)

    def test_single_occupied_comb_mode_is_pure(self, bbo1co, gate94):
        grid, _, family = self.grid_and_family(3)
        photons = np.zeros(3)
        photons[1] = 0.3
        comb = CombState(tau_s_fs=TAU_S, photons_comb=photons, finesse=40.0)
        schmidt = synthetic_schmidt([0.6, 0.3, 0.1], family[:3], grid)
        out = conditioned_state(schmidt, comb, bbo1co, gate94)
        assert out.purity == pytest.approx(1.0, abs=1e-12)

    def test_all_vacuum_comb_rejected(self, bbo1co, gate94):
        grid, _, family = self.grid_and_family(2)
        comb = CombState(tau_s_fs=TAU_S, photons_comb=np.zeros(2), finesse=40.0)
        schmidt = synthetic_schmidt([1.0], family[:1], grid)
        with pytest.raises(ConditioningError):
            conditioned_state(schmidt, comb, bbo1co, gate94)

    def test_purity_bounds_randomized(self, rng):
        for _ in range(30):
            n_s, n_c = rng.integers(1, 5), rng.integers(1, 6)
            lam = np.sort(rng.uniform(0.05, 1.0, n_s))[::-1]
            q = np.linalg.qr(rng.normal(size=(max(n_s, n_c), max(n_s, n_c))))[0]
            overlap = q[:n_s, :n_c]
            photons = rng.uniform(0.0, 1.0, n_c)
            photons[rng.integers(0, n_c)] += 0.1  # at least one occupied
            purity = _weight_and_purity(lam, overlap, photons)[1]
            assert 0.0 < purity <= 1.0 + 1e-12

    def test_purity_homogeneous_in_photon_numbers(self, rng):
        lam = np.array([0.7, 0.2, 0.1])
        q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        overlap = q[:3, :4]
        photons = rng.uniform(0.01, 1.0, 4)
        p1 = _weight_and_purity(lam, overlap, photons)[1]
        p2 = _weight_and_purity(lam, overlap, 137.0 * photons)[1]
        assert p1 == pytest.approx(p2, abs=1e-12)
        # and in the Schmidt weights (raw vs normalized equivalence)
        p3 = _weight_and_purity(5.5 * lam, overlap, photons)[1]
        assert p1 == pytest.approx(p3, abs=1e-12)

    def test_probability_weight_linear_in_photons(self, bbo1co, gate94):
        grid, _, family = self.grid_and_family(3)
        schmidt = synthetic_schmidt([0.6, 0.4], family[:2], grid)
        weights = []
        for n1 in (0.1, 0.2, 0.4):
            photons = np.array([n1, 0.05, 0.0])
            comb = CombState(tau_s_fs=TAU_S, photons_comb=photons, finesse=1.0)
            weights.append(conditioned_state(schmidt, comb, bbo1co, gate94).probability)
        slope1 = (weights[1] - weights[0]) / 0.1
        slope2 = (weights[2] - weights[1]) / 0.2
        assert slope1 == pytest.approx(slope2, rel=1e-12)


def fock_purity_oracle(lambdas_sq, overlap, mode_states):
    """Explicit conditioned density matrix in a truncated Fock space.

    Applies each subtraction channel to the pure product state, mixes with
    the squared Schmidt weights, and traces the square.  Local dimension 3
    (up to two photons per mode).
    """
    dim = 3
    n_modes = len(mode_states)
    psi = mode_states[0]
    for state in mode_states[1:]:
        psi = np.kron(psi, state)
    lower = np.zeros((dim, dim))
    lower[0, 1] = 1.0
    lower[1, 2] = math.sqrt(2.0)
    ops = []
    for n in range(n_modes):
        op = np.array([[1.0]])
        for m in range(n_modes):
            op = np.kron(op, lower if m == n else np.eye(dim))
        ops.append(op)
    rho = np.zeros((dim**n_modes, dim**n_modes), dtype=complex)
    for m in range(overlap.shape[0]):
        channel = sum(overlap[m, n] * ops[n] for n in range(n_modes))
        branch = channel @ psi
        rho += lambdas_sq[m] * np.outer(branch, branch.conj())
    rho /= np.trace(rho).real
    return float(np.trace(rho @ rho).real)


def gaussian_comb_oracle(preset, gate, signal, comb, ratio):
    """Closed-form purity and probability per pulse of the conditioned state,
    for the Gaussian-model kernel (phase matching exp(-GAMMA_SINC x^2)), an
    order-0 gate and a geometric comb N_n = N_0 ratio^n: the Gaussian limit
    the sinc kernel's comb oracle must reproduce.

    With U = [[A, b], [b^T, u]] of :func:`build_covariance`, the Gram kernel
    is G(s, s') = c0^2 2 pi / sqrt(det 2A) exp(-z^T P z / 2), z = (s, s'),
    P = [[alpha, -beta], [-beta, alpha]], beta = b^T A^-1 b / 2 and
    alpha = u - beta; c0^2 = tau_g w_s / pi is the squared amplitude of the
    unit-norm gate and beam factors.  Mehler's formula sums the comb
    operator to A(s, s') = N_0 tau / sqrt(pi (1 - r^2)) exp(-z^T R z / 2),
    R = tau^2 / (1 - r^2) [[1 + r^2, -2r], [-2r, 1 + r^2]].  Then
    tr(G A) is a 2-D Gaussian integral over P + R, and tr((G A)^2) a 4-D
    one over M, the cyclic sum P(s1, s2) + R(s2, s3) + P(s3, s4) + R(s4, s1),
    so purity = det(P + R) / sqrt(det M).
    """
    U = build_covariance(preset, gate, signal)
    A, b, u = U[:2, :2], U[:2, 2], U[2, 2]
    beta = b @ np.linalg.solve(A, b) / 2.0
    P = np.array([[u - beta, -beta], [-beta, u - beta]])
    tau, r = comb.tau_s_fs, ratio
    R = tau**2 / (1.0 - r**2) * np.array([[1.0 + r**2, -2.0 * r], [-2.0 * r, 1.0 + r**2]])
    M = np.zeros((4, 4))
    for k, block in enumerate((P, R, P, R)):
        pair = [k, (k + 1) % 4]
        M[np.ix_(pair, pair)] += block
    purity = np.linalg.det(P + R) / math.sqrt(np.linalg.det(M))
    gram_scale = gate.tau_g * signal.waist_s_um / math.pi * 2.0 * math.pi / math.sqrt(
        np.linalg.det(2.0 * A))
    comb_scale = comb.photons_pulse[0] * tau / math.sqrt(math.pi * (1.0 - r**2))
    weight = gram_scale * comb_scale * 2.0 * math.pi / math.sqrt(np.linalg.det(P + R))
    return purity, conversion_prefactor_fs(preset, gate) * weight


# (l_mm, w_um, ratio) on the default preset, and two of them on every other
ORACLE_POINTS = [(2.0, 107.7, 0.7), (1.0, 50.0, 0.5), (4.0, 200.0, 0.85), (1.0, 200.0, 0.9)]
ORACLE_CASES = ([("bbo-phi1-co", *point) for point in ORACLE_POINTS]
                + [(name, *point) for name in ("bbo-phi1-counter", "bbo-phi5-co",
                                               "bbo-phi5-counter")
                   for point in ORACLE_POINTS[::2]])


def oracle_case(preset_name, l_mm, w_um, ratio):
    """The crystal, gate and signal of a config at one oracle point, and
    its geometric comb of 300 modes, whose dropped tail holds
    ratio^300 <= 2e-14 of the photons."""
    config = resolve({"crystal": {"preset": preset_name, "length_mm": l_mm},
                      "signal": {"waist_um": w_um}})
    preset, gate, signal = config.preset(), config.gate(), config.signal()
    assert gate.order == 0
    comb = CombState(tau_s_fs=signal.spectral_tau_fs,
                     photons_comb=0.1 * ratio ** np.arange(300))
    return preset, gate, signal, comb


# the default preset's cases are named by their point alone
ORACLE_IDS = ["-".join(map(str, case[1:] if case[0] == "bbo-phi1-co" else case))
              for case in ORACLE_CASES]


class TestClosedFormOracle:
    """conditioned_state against the box-free comb oracle of the sinc kernel
    (``tests/oracles.py``), whose Gaussian limit is
    :func:`gaussian_comb_oracle`."""

    @pytest.mark.parametrize("preset_name,l_mm,w_um,ratio", ORACLE_CASES, ids=ORACLE_IDS)
    def test_purity_and_probability(self, preset_name, l_mm, w_um, ratio):
        # at span_scale 4 the box cuts the sinc's tails off the conditioned
        # state by at most 9.2e-10; each solve takes 30-700 ms
        preset, gate, signal, comb = oracle_case(preset_name, l_mm, w_um, ratio)
        (result,) = comb_subtraction_experiment(preset, gate, signal, comb, (0,),
                                                GridConfig(span_scale=4.0))
        purity, probability = comb_oracle(preset, gate, signal, comb, ratio)
        assert result.condition.purity == pytest.approx(purity, rel=1e-8)
        assert result.condition.probability == pytest.approx(probability, rel=1e-8)

    @pytest.mark.parametrize("preset_name,l_mm,w_um,ratio", ORACLE_CASES, ids=ORACLE_IDS)
    def test_gaussian_limit(self, preset_name, l_mm, w_um, ratio):
        preset, gate, signal, comb = oracle_case(preset_name, l_mm, w_um, ratio)
        expected = gaussian_comb_oracle(preset, gate, signal, comb, ratio)
        assert comb_oracle(preset, gate, signal, comb, ratio, gaussian=True) == \
            pytest.approx(expected, rel=1e-12)


class TestGramRoute:
    """conditioned_state's sums over the kept modes against the traces built
    from the Gram matrix itself, G_hat = (H W) G (H W)^T with H the sampled
    comb modes and W the signal-axis weights: no eigenvector enters."""

    @pytest.mark.parametrize("l_mm,w_um", [(2.0, 107.7), (1.0, 50.0), (1.0, 200.0),
                                           (4.0, 50.0), (4.0, 200.0)])
    def test_matches_the_trace_form(self, l_mm, w_um):
        config = resolve({"crystal": {"length_mm": l_mm}, "signal": {"waist_um": w_um}})
        preset, gate, comb = config.preset(), config.gate(), config.comb()
        gram = kernel_gram(preset, gate, config.signal(), config.grid())
        schmidt = decompose(gram)
        out = conditioned_state(schmidt, comb, preset, gate)
        # every kept mode enters, and the overlap keeps them all
        assert out.overlap.shape == (schmidt.modes.shape[0], comb.n_modes)
        comb_rows = comb.sample_modes(gram.omega_s) * gram.omega_s.weights
        gram_comb = comb_rows @ gram.gram @ comb_rows.T
        photons = comb.photons_pulse
        weight = photons @ np.diag(gram_comb)
        assert out.purity == pytest.approx(photons @ gram_comb**2 @ photons / weight**2,
                                           rel=0, abs=1e-12)
        assert out.probability == pytest.approx(
            conversion_prefactor_fs(preset, gate) * weight, rel=1e-12)


class TestFockOracle:
    def test_formula_matches_fock_construction(self, rng):
        # pure product states with zero coherent amplitude per mode
        # (superpositions of |0> and |2>), up to 3 channels x 3 modes
        for trial in range(12):
            n_s = int(rng.integers(1, 4))
            n_c = int(rng.integers(1, 4))
            lam = np.sort(rng.uniform(0.1, 1.0, n_s))[::-1]
            big = max(n_s, n_c)
            q = np.linalg.qr(rng.normal(size=(big, big)))[0]   # real, as the modes are
            overlap = q[:n_s, :n_c]
            states = []
            photons = []
            for _ in range(n_c):
                amp = rng.normal(size=2) + 1j * rng.normal(size=2)
                amp /= np.linalg.norm(amp)
                states.append(np.array([amp[0], 0.0, amp[1]]))
                photons.append(2.0 * abs(amp[1]) ** 2)
            photons = np.array(photons)
            if photons.sum() < 1e-9:
                continue
            formula = _weight_and_purity(lam, overlap, photons)[1]
            oracle = fock_purity_oracle(lam, overlap, states)
            assert formula == pytest.approx(oracle, abs=1e-10)

    def test_single_photon_fock_inputs(self):
        # |1> in each mode: N_n = 1 exactly
        lam = np.array([0.8, 0.2])
        overlap = np.array([[1.0, 0.0], [0.0, 1.0]])
        states = [np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        formula = _weight_and_purity(lam, overlap, np.array([1.0, 1.0]))[1]
        oracle = fock_purity_oracle(lam, overlap, states)
        assert formula == pytest.approx(oracle, abs=1e-12)
        assert formula == pytest.approx(0.8**2 + 0.2**2, abs=1e-12)


class TestExperiment:
    def test_purity_order_and_rate_stability(self, bbo1co):
        signal = SignalBeamSpec(waist_s_um=107.7, spectral_tau_fs=TAU_S)
        gate = GateSpec(order=0, tau_g=TAU_S,
                        waist_g_um=1000.0, energy_j=10e-9, rep_rate_hz=80e6)
        comb = flat_comb(tau_s_fs=TAU_S)
        cfg = GridConfig(n_omega_c=96, n_q=96, n_omega_s=96)
        results = comb_subtraction_experiment(replace(bbo1co, length_um=2000.0), gate,
                                              signal, comb, gate_orders=(0, 1, 2),
                                              config=cfg)
        purities = [r.condition.purity for r in results]
        rates = [r.condition.rate_hz for r in results]
        assert purities[0] > purities[1] > purities[2]
        assert (max(rates) - min(rates)) / min(rates) < 0.05

    def test_omega_s_is_sized_for_the_comb_it_is_handed(self, bbo1co, gate94):
        # the signal carries no comb count; the experiment takes it from the comb
        signal = SignalBeamSpec(waist_s_um=107.7, spectral_tau_fs=TAU_S)
        comb = flat_comb(n_modes=100, tau_s_fs=TAU_S)
        (result,) = comb_subtraction_experiment(bbo1co, gate94, signal, comb, (0,))
        sizes = {n: derive_grids(bbo1co, gate94, replace(signal, comb_modes=n),
                                 GridConfig())[0][2].size for n in (None, 40, 100)}
        assert result.grid["n_omega_s"] == sizes[100] > sizes[40] > sizes[None]

    def test_comb_sampled_once_per_order(self, bbo1co, monkeypatch):
        signal = SignalBeamSpec(waist_s_um=107.7, spectral_tau_fs=TAU_S)
        gate = GateSpec(order=0, tau_g=TAU_S)
        comb = flat_comb(tau_s_fs=TAU_S)
        calls = []
        sample_modes = CombState.sample_modes

        def counting(self, grid):
            calls.append(grid)
            return sample_modes(self, grid)

        monkeypatch.setattr(CombState, "sample_modes", counting)
        results = comb_subtraction_experiment(
            bbo1co, gate, signal, comb, gate_orders=(0, 1),
            config=GridConfig(n_omega_c=48, n_q=48, n_omega_s=48))
        assert len(calls) == len(results)

    def test_plane_wave_guard_is_callers_burden(self, bbo1co):
        # gate narrower than 5x the signal waist is allowed at kernel level;
        # the rate helper flags it (covered in analytic tests)
        signal = SignalBeamSpec(waist_s_um=300.0, spectral_tau_fs=TAU_S)
        gate = GateSpec(order=0, tau_g=TAU_S,
                        waist_g_um=1000.0)
        comb = flat_comb(n_modes=8, tau_s_fs=TAU_S)
        cfg = GridConfig(n_omega_c=64, n_q=64, n_omega_s=64)
        results = comb_subtraction_experiment(replace(bbo1co, length_um=2000.0), gate,
                                              signal, comb, gate_orders=(0,),
                                              config=cfg)
        assert results[0].condition.purity > 0
