"""Box-free oracles for the sinc kernel at an order-0 gate.

The kernel is L(x) = c0 exp(-x^T V x / 2) sinc(a . x) over x = (Omega_c,
q_c, Omega_s), with V = tau_g^2 g g^T + w_s^2 b b^T from the gate and beam
rows of :func:`~modesub.dispersion.kernel_forms`, a the match row times
l/2, and c0^2 = tau_g w_s / pi the squared amplitude of the unit-norm gate
and beam factors.  Each sinc is written as sinc z = 1/2 int_{-1}^{1}
e^{izt} dt, the mean of e^{izt} over t uniform on [-1, 1].  A trace of a
product of kernels and Mehler-summed comb operators is then a Gaussian
integral over the frequencies and momenta, in closed form, inside a mean
over one t per kernel factor (:func:`_trace`), which a tensor
Gauss-Legendre rule takes (:func:`_mean_over_t`, :func:`legendre_box`).

With t normal of variance 2 GAMMA_SINC instead, e^{izt} averages to
exp(-GAMMA_SINC z^2), the paper's Gaussian model, and the mean over t
closes.  That is each oracle's Gaussian limit: the sinc and the Gaussian
share every step but the law of t, so the limit checks the Gaussian
integrals and prefactors against ``covariance_schmidt_number`` and
``gaussian_comb_oracle``.

The two oracles:

* :func:`schmidt_number_oracle`, K = ||L||^4 / tr G^2 over the whole
  (Omega_c, q_c, Omega_s) space, which a solve reports as
  K / mass_captured^2.
* :func:`comb_oracle`, the purity and probability of the state
  conditioned on a geometric comb N_n = N_0 r^n, whose operator Mehler's
  formula sums in closed form.
"""

import math

import numpy as np

from modesub.analytic import GAMMA_SINC, build_covariance, conversion_prefactor_fs
from modesub.dispersion import kernel_forms
from modesub.kernel import continuum_norm_sq
from modesub.modes import gauss_legendre_grid

# Gauss-Legendre nodes per t: the oracles move by under 5e-15 from 64 to
# 96 nodes on every ORACLE_CASES point and on the K test's lattice
T_NODES = 64


def legendre_box(dims: int) -> tuple[np.ndarray, np.ndarray]:
    """The tensor Gauss-Legendre rule of :data:`T_NODES` per t for the mean
    over [-1, 1]^dims: points [T_NODES^dims, dims] and weights summing to 1."""
    rule = gauss_legendre_grid(1.0, T_NODES)
    points = np.meshgrid(*[rule.points] * dims, indexing="ij")
    weights = np.meshgrid(*[rule.weights / 2.0] * dims, indexing="ij")
    return (np.stack(points, axis=-1).reshape(-1, dims),
            np.prod(np.stack(weights), axis=0).ravel())


def _mean_over_t(M: np.ndarray, gaussian: bool, sum_zero: bool = False) -> float:
    """The mean of exp(-t^T M t / 2) over t, each t_k uniform on [-1, 1]
    or, with ``gaussian``, normal of variance 2 GAMMA_SINC; with
    ``sum_zero``, the mean of delta(sum t) exp(-t^T M t / 2).

    The normal means are closed: det(I + 2 GAMMA_SINC M)^(-1/2), and with
    the delta (2 pi var)^(-k/2) (2 pi)^((k-1)/2) / sqrt(det A 1^T A^-1 1),
    A = M + I / var.  The uniform mean takes the first t one node at a
    time, the others on :func:`legendre_box`.  The uniform delta mean is
    over four t's, on the slice t_1 + t_2 = u = -(t_3 + t_4): split at
    u = 0, where the limits kink, each half maps (u, t_1, t_3) from a box,
    t_1 and t_3 each spanning 2 - |u|.
    """
    k = M.shape[0]
    if gaussian:
        var = 2.0 * GAMMA_SINC
        if not sum_zero:
            return float(np.linalg.det(np.eye(k) + var * M) ** -0.5)
        A, ones = M + np.eye(k) / var, np.ones(k)
        return float((2.0 * math.pi * var) ** (-k / 2) * (2.0 * math.pi) ** ((k - 1) / 2)
                     / math.sqrt(np.linalg.det(A) * (ones @ np.linalg.solve(A, ones))))
    if not sum_zero:
        rest, weights = legendre_box(k - 1)
        quad = np.einsum("pi,ij,pj->p", rest, M[1:, 1:], rest)
        cross = rest @ M[1:, 0]
        return float(sum(w * (weights @ np.exp(
            -0.5 * (M[0, 0] * t * t + 2.0 * t * cross + quad)))
            for (t,), w in zip(*legendre_box(1))))
    assert k == 4
    box, weights = legendre_box(3)
    total = 0.0
    for sign in (1.0, -1.0):
        u = sign * (1.0 + box[:, 0])
        width = 2.0 - np.abs(u)
        t1 = sign * (1.0 - width * (1.0 + box[:, 1]) / 2.0)
        t3 = -sign * (1.0 - width * (1.0 + box[:, 2]) / 2.0)
        t = np.stack([t1, u - t1, t3, -u - t3], axis=1)
        # the box mean is 1/8 of its integral, the slice mean 1/16 of its
        # own, and t_1 and t_3 each scale by width / 2
        form = np.exp(-0.5 * np.einsum("pi,ij,pj->p", t, M, t))
        total += float(weights @ (width**2 * form)) / 8.0
    return total


def _trace(preset, gate, signal, factors, couplings=(), R=None):
    """The integral of prod_k exp(-x_k^T V x_k / 2) e^{i t_k a . x_k} times
    exp(-z^T R z / 2) per coupling, over every variable, as (scale, M, flat):
    ``scale`` times exp(-t^T M t / 2), and with ``flat`` also a delta on
    sum t.

    ``factors`` holds (i, j) for each kernel factor L(y_i, s_j), x_k =
    (y_i, s_j), y_i an (Omega_c, q_c) pair and s_j a signal frequency;
    ``couplings`` holds the (j, j') pair z of each comb operator.  The
    variables X stack every y, then every s, and the exponent is
    -X^T Q X / 2 + i t^T K^T X, so the integral is (2 pi)^(d/2) /
    sqrt(det Q) exp(-t^T K^T Q^-1 K t / 2).  Without couplings Q is flat
    along D, which moves every x_k by the null vector n = (1, q_d, 1) of V,
    q_d = -(b_c + b_s) / b_q.  Taking X_0, an Omega_c, along D, its
    integral is 2 pi delta((a . n) sum t), and the Gaussian runs over the
    other d - 1 variables.
    """
    gate_row, beam, match = map(np.array, kernel_forms(preset.kp_s, preset.kp_c,
                                                       preset.phi, preset.rho))
    V = (gate.tau_g**2 * np.outer(gate_row, gate_row)
         + signal.waist_s_um**2 * np.outer(beam, beam))
    a = preset.length_um / 2.0 * match
    n_y = 1 + max(i for i, _ in factors)
    n_s = 1 + max(j for _, j in factors)
    d = 2 * n_y + n_s
    Q, K = np.zeros((d, d)), np.zeros((d, len(factors)))
    for k, (i, j) in enumerate(factors):
        index = [2 * i, 2 * i + 1, 2 * n_y + j]
        Q[np.ix_(index, index)] += V
        K[index, k] = a
    for pair in couplings:
        index = [2 * n_y + j for j in pair]
        Q[np.ix_(index, index)] += R
    scale = 1.0
    flat = not couplings
    if flat:
        null = np.array([1.0, -(beam[0] + beam[2]) / beam[1], 1.0])
        scale = 2.0 * math.pi / abs(a @ null)
        Q, K, d = Q[1:, 1:], K[1:], d - 1
    scale *= (2.0 * math.pi) ** (d / 2) / math.sqrt(np.linalg.det(Q))
    return scale, K.T @ np.linalg.solve(Q, K), flat


def _mean_trace(preset, gate, signal, gaussian, factors, couplings=(), R=None) -> float:
    """:func:`_trace` with its mean over t taken (:func:`_mean_over_t`)."""
    scale, M, flat = _trace(preset, gate, signal, factors, couplings, R)
    return scale * _mean_over_t(M, gaussian, sum_zero=flat)


def schmidt_number_oracle(preset, gate, signal, gaussian: bool = False) -> float:
    """K = ||L||^4 / tr G^2 of the order-0 kernel over the whole space, or
    with ``gaussian`` of its Gaussian limit.

    tr G^2 integrates L(y, s) L(y, s') L(y', s') L(y', s), four kernel
    factors (:func:`_trace`).  ||L||^2 is
    :func:`~modesub.kernel.continuum_norm_sq` for the sinc and c0^2
    pi^(3/2) / sqrt(det U) for the Gaussian, U of
    :func:`~modesub.analytic.build_covariance`.
    """
    assert gate.order == 0
    c0_sq = gate.tau_g * signal.waist_s_um / math.pi
    if gaussian:
        norm_sq = c0_sq * math.pi**1.5 / math.sqrt(np.linalg.det(
            build_covariance(preset, gate, signal)))
    else:
        norm_sq = continuum_norm_sq(kernel_forms(preset.kp_s, preset.kp_c, preset.phi,
                                                 preset.rho), preset.length_um)
    trace_g_sq = c0_sq**2 * _mean_trace(preset, gate, signal, gaussian,
                                        [(0, 0), (0, 1), (1, 1), (1, 0)])
    return norm_sq**2 / trace_g_sq


def comb_oracle(preset, gate, signal, comb, ratio: float,
                gaussian: bool = False) -> tuple[float, float]:
    """Purity and probability per pulse of the state conditioned on a
    geometric comb N_n = N_0 ratio^n, N_0 = ``comb.photons_pulse[0]``, at
    an order-0 gate, or with ``gaussian`` of the Gaussian limit.

    Mehler's formula sums the comb operator to A(s, s') = N_0 tau /
    sqrt(pi (1 - r^2)) exp(-z^T R z / 2), z = (s, s'), R = tau^2 / (1 - r^2)
    [[1 + r^2, -2r], [-2r, 1 + r^2]].  The weight tr(G A) integrates
    L(y, s) L(y, s') A(s', s), and tr((G A)^2) integrates L(y, s_0)
    L(y, s_1) A(s_1, s_2) L(y', s_2) L(y', s_3) A(s_3, s_0).  The purity is
    tr((G A)^2) / tr(G A)^2, and the probability the weight times
    :func:`~modesub.analytic.conversion_prefactor_fs`.
    """
    assert gate.order == 0
    tau, r = comb.tau_s_fs, ratio
    R = tau**2 / (1.0 - r**2) * np.array([[1.0 + r**2, -2.0 * r], [-2.0 * r, 1.0 + r**2]])
    # c0^2 per pair of kernel factors, Mehler's prefactor per comb operator
    pair = (gate.tau_g * signal.waist_s_um / math.pi
            * comb.photons_pulse[0] * tau / math.sqrt(math.pi * (1.0 - r**2)))
    weight = pair * _mean_trace(preset, gate, signal, gaussian, [(0, 0), (0, 1)],
                                [(1, 0)], R)
    trace_sq = pair**2 * _mean_trace(preset, gate, signal, gaussian,
                                     [(0, 0), (0, 1), (1, 2), (1, 3)], [(1, 2), (3, 0)], R)
    return trace_sq / weight**2, conversion_prefactor_fs(preset, gate) * weight
