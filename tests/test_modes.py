import numpy as np
import pytest

from modesub import HermiteGaussSpec, QuadGrid, hermite_gauss, uniform_grid
from modesub.modes import (GridAdequacyError, default_half_span, hermite_gauss_table,
                           hermite_gauss_values)


class TestQuadGrid:
    def test_uniform_grid_basics(self):
        g = uniform_grid(5.0, 129)
        assert g.size == 129
        assert np.all(np.diff(g.points) > 0)
        assert np.all(g.weights > 0)
        # trapezoid consistency: integral of 1 equals the span
        assert np.sum(g.weights) == pytest.approx(g.span, rel=1e-12)

    def test_symmetric_to_the_bit(self):
        for n in (64, 129):
            g = uniform_grid(3.7, n)
            assert np.array_equal(g.points, -g.points[::-1])
            assert np.array_equal(g.weights, g.weights[::-1])

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            QuadGrid(points=np.array([0.0, 0.0, 1.0]), weights=np.ones(3))
        with pytest.raises(ValueError):
            QuadGrid(points=np.array([0.0, 1.0]), weights=np.array([0.1, -0.1]))
        with pytest.raises(ValueError):
            uniform_grid(-1.0, 16)


class TestHermiteGauss:
    def test_gaussian_normalization_and_peak(self):
        tau = 94.0
        g = uniform_grid(default_half_span(tau), 257)
        f = hermite_gauss(HermiteGaussSpec(order=0, scale=tau), g)
        assert np.sum(g.weights * f * f) == pytest.approx(1.0, abs=1e-10)
        peak = np.sqrt(tau) / np.pi**0.25
        assert f[g.size // 2] == pytest.approx(peak, rel=1e-8)

    def test_odd_parity(self):
        g = uniform_grid(0.08, 128)
        f = hermite_gauss(HermiteGaussSpec(order=1, scale=94.0), g)
        assert np.max(np.abs(f + f[::-1])) <= 1e-14 * np.max(np.abs(f))

    def test_orthonormal_family(self):
        tau = 94.0
        g = uniform_grid(default_half_span(tau, max_order=8), 513)
        family = [hermite_gauss(HermiteGaussSpec(order=n, scale=tau), g)
                  for n in range(9)]
        for n in range(9):
            for m in range(9):
                expect = 1.0 if n == m else 0.0
                assert np.sum(g.weights * family[n] * family[m]) == pytest.approx(
                    expect, abs=1e-8)

    def test_zero_projection_residual(self):
        # the order-3 function is orthogonal to the span of orders 0..2
        tau = 50.0
        g = uniform_grid(default_half_span(tau, max_order=3), 513)
        target = hermite_gauss(HermiteGaussSpec(order=3, scale=tau), g)
        residual = target.copy()
        for n in range(3):
            basis = hermite_gauss(HermiteGaussSpec(order=n, scale=tau), g)
            residual -= np.sum(g.weights * basis * target) * basis
        norm = np.sqrt(np.sum(g.weights * residual**2))
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_inadequate_span_raises(self):
        g = uniform_grid(1.5 / 94.0, 64)
        with pytest.raises(GridAdequacyError):
            hermite_gauss(HermiteGaussSpec(order=0, scale=94.0), g)
        # continuum sampling is allowed to spill
        f = hermite_gauss_values(0, 94.0, g.points)
        assert np.all(np.isfinite(f))

    def test_high_order_recurrence_stays_finite(self):
        g = uniform_grid(default_half_span(1.0, max_order=60), 2048)
        f = hermite_gauss(HermiteGaussSpec(order=60, scale=1.0), g)
        assert np.all(np.isfinite(f))
        assert np.sum(g.weights * f * f) == pytest.approx(1.0, abs=1e-8)

    def test_table_rows_are_the_single_order_values(self):
        x = uniform_grid(default_half_span(93.12, max_order=60), 301).points
        table = hermite_gauss_table(61, 93.12, x)
        assert table.shape == (61, x.size)
        for n in range(61):
            assert np.array_equal(table[n], hermite_gauss_values(n, 93.12, x))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            HermiteGaussSpec(order=-1, scale=1.0)
        with pytest.raises(ValueError):
            HermiteGaussSpec(order=0, scale=0.0)

    @pytest.mark.parametrize("order", [float("inf"), float("nan")])
    def test_non_finite_order_is_a_value_error(self, order):
        with pytest.raises(ValueError, match="order"):
            HermiteGaussSpec(order=order, scale=1.0)


class TestInnerProduct:
    def test_two_width_gaussian_overlap(self):
        # closed form: <g_tau, g_2tau> = sqrt(2 * 2 tau^2 / (tau^2 + 4 tau^2))
        tau = 94.0
        g = uniform_grid(default_half_span(tau), 513)
        f1 = hermite_gauss(HermiteGaussSpec(order=0, scale=tau), g)
        f2 = hermite_gauss(HermiteGaussSpec(order=0, scale=2 * tau), g)
        assert np.sum(g.weights * f1 * f2) == pytest.approx(np.sqrt(4.0 / 5.0),
                                                             abs=1e-10)

    def test_refinement_convergence(self):
        # doubling density moves a Gaussian-weighted integral by < 1e-9,
        # with one factor off the grid's centre
        tau = 94.0
        vals = []
        for n in (257, 513):
            g = uniform_grid(default_half_span(tau, max_order=1), n)
            f1 = hermite_gauss(HermiteGaussSpec(order=0, scale=tau), g)
            f2 = hermite_gauss_values(1, 1.3 * tau, g.points - 0.1 / tau)
            vals.append(np.sum(g.weights * f1 * f2))
        assert abs(vals[1] - vals[0]) < 1e-9
