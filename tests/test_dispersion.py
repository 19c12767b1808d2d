import math
from dataclasses import replace

import numpy as np
import pytest

from modesub import C_UM_PER_FS, PRESETS, CrystalPreset, convert_bandwidth

from conftest import delta_k


class TestPresets:
    def test_bbo_phi1_co_values(self):
        p = PRESETS["bbo-phi1-co"]
        assert p.kp_s == pytest.approx(1.683 / C_UM_PER_FS, rel=1e-12)
        assert p.kp_s == pytest.approx(5.6139, abs=1e-4)
        assert p.kp_c == pytest.approx(5.8107, abs=1e-4)
        assert p.rho == pytest.approx(0.06807, abs=1e-5)
        assert p.phi == pytest.approx(math.radians(1.0), rel=1e-12)
        assert p.theta_pm == pytest.approx(math.radians(29.4), rel=1e-12)
        assert p.lambda_s_um == 0.800
        assert p.d_eff_pm_v == 2.0

    def test_bbo_phi5_values(self):
        p = PRESETS["bbo-phi5-co"]
        assert p.kp_c == pytest.approx(5.7873, abs=1e-4)
        assert p.theta_pm == pytest.approx(math.radians(32.4), rel=1e-12)
        assert p.rho == pytest.approx(math.radians(4.1), rel=1e-12)

    def test_counter_flips_only_phi_sign(self):
        co = PRESETS["bbo-phi1-co"]
        ct = PRESETS["bbo-phi1-counter"]
        assert ct.phi == -co.phi
        assert ct.rho == co.rho
        assert (ct.kp_s, ct.kp_c, ct.theta_pm) == (co.kp_s, co.kp_c, co.theta_pm)
        assert np.sign(ct.phi) == -np.sign(ct.rho)

    def test_collinear_group_velocity_shared_by_both_cuts(self):
        p1, p5 = PRESETS["bbo-phi1-co"], PRESETS["bbo-phi5-co"]
        assert p1.kp_c_collinear == p5.kp_c_collinear
        assert p1.kp_c_collinear == pytest.approx(1.742 / C_UM_PER_FS, rel=1e-12)

    def test_presets_keyed_by_name(self):
        assert PRESETS["bbo-phi5-counter"].phi == -math.radians(5.0)
        assert list(PRESETS) == ["bbo-phi1-co", "bbo-phi1-counter", "bbo-phi5-co",
                                 "bbo-phi5-counter"]
        for name, preset in PRESETS.items():
            assert preset.name == name
            assert (preset.length_um, preset.d_eff_pm_v) == (2000.0, 2.0)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            CrystalPreset(name="x", lambda_s_um=0.8, kp_s=5.8, kp_c=5.6,
                          rho=0.05, phi=0.01, theta_pm=0.5)
        with pytest.raises(ValueError):
            replace(PRESETS["bbo-phi1-co"], length_um=-1.0)
        with pytest.raises(ValueError):
            CrystalPreset(name="x", lambda_s_um=0.8, kp_s=5.6, kp_c=5.8,
                          rho=0.05, phi=math.radians(25.0), theta_pm=0.5)

    @pytest.mark.parametrize("field, value", [
        ("length_um", math.nan), ("rho", math.nan), ("phi", math.nan),
        ("n_s", math.nan), ("n_g", math.nan), ("n_c", math.nan),
        ("d_eff_pm_v", math.nan), ("kp_c", math.inf), ("length_um", math.inf)])
    def test_non_finite_field_is_a_value_error(self, field, value):
        # nan <= 0 is false, so a sign check alone would accept NaN
        with pytest.raises(ValueError):
            replace(PRESETS["bbo-phi1-co"], **{field: value})

    def test_collinear_kp_c_obeys_normal_dispersion(self):
        args = dict(name="x", lambda_s_um=0.8, kp_s=5.6, kp_c=5.8, rho=0.05,
                    phi=0.01, theta_pm=0.5)
        assert CrystalPreset(**args).kp_c_collinear == 5.8
        with pytest.raises(ValueError, match="kp_c_collinear > kp_s"):
            CrystalPreset(**args, kp_c_collinear=5.0)


def full_conservation_chain(p, omega_c, q_c, omega_s):
    """Independent phase-mismatch oracle: eliminate the signal momentum and
    gate frequency through the conservation laws, then expand the
    longitudinal momenta to first order around the matched carriers."""
    omega_g = omega_c - omega_s
    # ordinary fields share one group velocity, so k_s - k_g has no carrier part
    k_s_minus_k_g = p.kp_s * (omega_s - omega_g)
    q_s = (q_c - k_s_minus_k_g * math.sin(p.phi)) / math.cos(p.phi)
    # carrier terms cancel through (k_g0 + k_s0) cos(phi) = k_c0
    mismatch = (p.kp_s * (omega_g + omega_s) * math.cos(p.phi)
                - p.kp_c * omega_c
                - q_s * math.sin(p.phi)
                + q_c * math.tan(p.rho))
    return mismatch


class TestDeltaK:
    @pytest.mark.parametrize("preset_args", [(1, "co"), (1, "counter"),
                                             (5, "co"), (5, "counter")])
    def test_zero_at_carrier(self, preset_args):
        p = PRESETS["bbo-phi{}-{}".format(*preset_args)]
        assert delta_k(p, 0.0, 0.0, 0.0) == 0.0

    def test_hand_evaluated_slope(self):
        p = PRESETS["bbo-phi1-co"]
        expected = (p.kp_c - p.kp_s * math.cos(p.phi)
                    + p.kp_s * math.tan(p.phi) * math.sin(p.phi)) * 0.02
        assert delta_k(p, 0.02, 0.0, 0.0) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("preset_args", [(1, "co"), (5, "counter")])
    def test_matches_conservation_chain_up_to_sign(self, preset_args, rng):
        # the returned value follows the sinc-argument convention, which is
        # the negative of the raw conservation-law mismatch; sinc is even
        p = PRESETS["bbo-phi{}-{}".format(*preset_args)]
        for _ in range(20):
            wc, ws = rng.normal(0, 0.05, 2)
            qc = rng.normal(0, 0.04)
            chain = full_conservation_chain(p, wc, qc, ws)
            assert delta_k(p, wc, qc, ws) == pytest.approx(-chain, rel=1e-10)

    def test_linear_in_each_argument(self, rng):
        p = PRESETS["bbo-phi5-co"]
        base = np.array([0.013, -0.021, 0.008])
        for axis in range(3):
            steps = rng.uniform(0.5, 2.0, 4)
            slopes = []
            for h in steps:
                lo, hi = base.copy(), base.copy()
                hi[axis] += h
                slopes.append((delta_k(p, *hi) - delta_k(p, *lo)) / h)
            slopes = np.array(slopes)
            assert np.all(np.abs(slopes - slopes[0]) <= 1e-12 * np.abs(slopes[0]))


class TestBandwidth:
    def test_comb_mode_duration(self):
        # 6 nm FWHM at 795 nm, quoted in round numbers as 94 fs
        tau = convert_bandwidth(6.0, 0.795)
        assert tau == pytest.approx(93.1, abs=0.05)
        assert tau == pytest.approx(94.0, rel=0.02)

    def test_inverse_proportionality(self):
        assert convert_bandwidth(3.0, 0.795) == pytest.approx(
            2.0 * convert_bandwidth(6.0, 0.795), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -3.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            convert_bandwidth(bad, 0.795)
