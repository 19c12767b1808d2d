"""Schmidt decomposition of the transfer kernel via its signal-side Gram operator.

The Gram function G(Omega_s, Omega_s') integrates L L over the converted
variables; the kernel is real, so G is real symmetric and the subtraction
modes are real.  Its eigenvalues are the squared Schmidt coefficients and
its eigenfunctions the subtraction modes; the decomposition is carried out
on the symmetrically weighted matrix so the spectrum matches the continuum
operator.  The solve path streams G from the kernel sampler
(:func:`~modesub.kernel.kernel_gram`), folded over the kernel's point
symmetry; :func:`gram_matrix` is the plain sum over every row of a dense
kernel, the reference the streamed fold is tested against.

The point symmetry also makes G centrosymmetric, G(-Omega_s, -Omega_s') =
G(Omega_s, Omega_s'), so every subtraction mode is even or odd in Omega_s,
like the Hermite-Gauss comb modes it is matched against.
:func:`decompose` solves the two parities as separate blocks of half the
size and builds each mode from its half; a Gram that is not point-symmetric
is an error, not an input to symmetrize.  :func:`schmidt_number_and_lead`
solves the same blocks for their top eigenvalue alone, for a caller that
reads only K and lambda_1.  Both take K = (tr A)^2 / ||A||_F^2 of the
weighted Gram A, which is (sum lambda)^2 / sum lambda^2 to rounding, so
the two report the same K to the last bit.  The solve runs at one
OpenBLAS thread (:func:`~modesub._blas.one_blas_thread`), like the Gram it
reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .kernel import KernelGram, KernelGrid
from .modes import QuadGrid

# eigenvalues below this fraction of the leading one are numerical noise;
# the one cut of the spectrum: conditioning sums over every mode above it
NOISE_FLOOR = 1e-12
# components within this relative distance of a mode's largest |.| tie as its pivot
PIVOT_TIE = 1e-6
# largest max |G - J G J| a decomposed Gram may hold, relative to max |G|;
# a dense kernel's plain sum is point-symmetric only to rounding
POINT_SYMMETRY_TOL = 1e-12


class DecompositionError(RuntimeError):
    """Eigensolver failure, with conditioning diagnostics in the message."""


@dataclass(frozen=True)
class SchmidtResult:
    """Spectrum and subtraction modes of one kernel decomposition.

    ``lambdas_sq`` is normalized to unit sum; ``norm_sq``, the weighted
    Gram trace, is the one box norm^2 a solve stores, and the physical
    (raw) squared coefficients are ``lambdas_sq * norm_sq``.
    ``schmidt_number`` is (tr A)^2 / ||A||_F^2 of the weighted Gram A, equal
    to rounding to 1 / sum lambda^2 over the whole unit-sum spectrum.  Modes
    are rows, sampled on ``omega_s`` and orthonormal under its quadrature
    weights.  Spectrum and modes hold every mode above :data:`NOISE_FLOOR`,
    and conditioning sums over all of them.
    """

    lambdas_sq: np.ndarray
    modes: np.ndarray
    schmidt_number: float
    norm_sq: float
    omega_s: QuadGrid

    @property
    def lambdas_sq_raw(self) -> np.ndarray:
        return self.lambdas_sq * self.norm_sq


def gram_matrix(kernel: KernelGrid) -> np.ndarray:
    """Real symmetric positive-semidefinite G(Omega_s_i, Omega_s_j).

    Converted-variable quadrature weights are folded in; the signal-axis
    weights are not (they enter symmetrically at decomposition time).  The
    plain weighted a^T a over every Omega_c row: no symmetry is assumed, so
    it is an independent check on :func:`~modesub.kernel.kernel_gram`'s
    folded sum, which it matches to rounding.
    """
    sqrt_w = np.sqrt(np.outer(kernel.omega_c.weights, kernel.q_c.weights))
    a = (kernel.values * sqrt_w[:, :, None]).reshape(-1, kernel.omega_s.size)
    return a.T @ a


def _fix_sign(modes: np.ndarray) -> np.ndarray:
    """Flip each mode so its pivot is positive.

    The pivot is the first component within :data:`PIVOT_TIE` (relative)
    of the largest |.|.  A mode of :func:`decompose` is even or odd to the
    last bit, so its mirror extremes tie exactly and the first one is the
    pivot; the tolerance keeps rounding from choosing between near ties.
    """
    mags = np.abs(modes)
    first = np.argmax(mags >= (1.0 - PIVOT_TIE) * mags.max(axis=1, keepdims=True), axis=1)
    pivots = modes[np.arange(modes.shape[0]), first]
    return np.where(pivots < 0, -1.0, 1.0)[:, None] * modes


def _parity_blocks(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd blocks of a centrosymmetric matrix h = J h J.

    J reverses the axis.  With m = n // 2, H the top-left m x m block and
    M[i, j] = h[i, n-1-j] its mirror, an even vector [v; J v] / sqrt 2 is
    an eigenvector of h when v is one of H + M, and an odd vector
    [v; -J v] / sqrt 2 when v is one of H - M.  On an odd axis the even
    vector is [v / sqrt 2; c; J v / sqrt 2], and the even block gains the
    centre row and column, the off-diagonal part scaled by sqrt 2.  Only the
    first ceil(n/2) rows of h are read.
    """
    n = h.shape[0]
    m = n // 2
    top, mirror = h[:m, :m], h[:m, ::-1][:, :m]
    even, odd = top + mirror, top - mirror
    if n % 2:
        root2 = np.sqrt(2.0)
        even = np.block([[even, root2 * h[:m, m:m + 1]],
                         [root2 * h[m:m + 1, :m], h[m:m + 1, m:m + 1]]])
    return even, odd


def _parity_vectors(even: np.ndarray, odd: np.ndarray, n: int) -> np.ndarray:
    """Columns of an n-axis from the parity blocks' eigenvectors
    (:func:`_parity_blocks`), even then odd; each column is even or odd
    to the last bit."""
    m = n // 2
    half = np.sqrt(0.5)
    even_top, odd_top = even[:m] * half, odd * half
    # even[m:] is the centre row of an odd axis, and empty on an even one
    return np.hstack([np.vstack([even_top, even[m:], even_top[::-1]]),
                      np.vstack([odd_top, np.zeros((n % 2, odd.shape[1])),
                                 -odd_top[::-1]])])


def _parity_solve(kernel: KernelGrid | KernelGram, solve):
    """The weighted Gram of :func:`decompose`, and ``solve`` run on its
    parity blocks (:func:`_parity_blocks`), passed even then odd.

    Returns the square roots of the signal-axis weights, the weighted
    matrix W^(1/2) G W^(1/2) and what ``solve`` returned.  Raises
    :class:`DecompositionError` when the Gram is not point-symmetric or
    the solver fails.
    """
    gram = kernel.gram if isinstance(kernel, KernelGram) else gram_matrix(kernel)
    peak = float(np.abs(gram).max())
    asymmetry = float(np.abs(gram - gram[::-1, ::-1]).max())
    if not asymmetry <= POINT_SYMMETRY_TOL * peak:
        raise DecompositionError(
            f"Gram matrix is not point-symmetric: max |G - JGJ| {asymmetry:.3e} "
            f"against max |G| {peak:.3e}")
    sqrt_w = np.sqrt(kernel.omega_s.weights)
    weighted = sqrt_w[:, None] * gram * sqrt_w[None, :]
    try:
        solved = solve(*_parity_blocks(weighted))
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(
            f"eigensolver failed on a {weighted.shape[0]}x{weighted.shape[0]} "
            f"Gram matrix (max |entry| {peak:.3e})") from exc
    return sqrt_w, weighted, solved


def _schmidt_number(weighted: np.ndarray) -> float:
    """K = (tr A)^2 / ||A||_F^2 of the weighted Gram A.

    With lambda the eigenvalues of A this is (sum lambda)^2 / sum lambda^2,
    the inverse purity of the unit-sum spectrum, read off A without its
    spectrum, so both solves report the same K to the last bit.  Numpy's
    pairwise sum keeps it independent of the BLAS thread count.
    """
    return float(np.trace(weighted) ** 2 / np.sum(np.square(weighted)))


def _top_eigenvalue(even: np.ndarray, odd: np.ndarray) -> float:
    """The largest eigenvalue of the two parity blocks, from one ``eigvalsh``
    where their traces allow.

    Every eigenvalue of a positive-semidefinite block is at most its trace,
    so the block with the smaller trace is solved only when its trace
    exceeds the top eigenvalue of the other.
    """
    first, second = sorted((even, odd), key=np.trace, reverse=True)
    top = np.linalg.eigvalsh(first)[-1]
    if np.trace(second) > top:
        top = max(top, np.linalg.eigvalsh(second)[-1])
    return float(top)


@one_blas_thread()
def decompose(kernel: KernelGrid | KernelGram) -> SchmidtResult:
    """Eigendecomposition of the weighted Gram matrix, one parity at a time.

    Takes a dense kernel or the streamed Gram of
    :func:`~modesub.kernel.kernel_gram`.  Weighting is symmetric,
    W^(1/2) G W^(1/2) with W the signal-axis quadrature weights;
    eigenvectors are de-weighted back to function samples.  The kernel is
    point-symmetric, so G = J G J with J the reversal of the Omega_s axis
    (exactly for the streamed G, to rounding for :func:`gram_matrix`), and
    so is the weighted matrix, whose weights are symmetric.  It splits into
    an even and an odd block (:func:`_parity_blocks`) of ceil(n/2) and
    floor(n/2) rows, one ``eigh`` each, and every mode is even or odd to
    the last bit.  Raises :class:`DecompositionError` when
    max |G - J G J| exceeds :data:`POINT_SYMMETRY_TOL` of max |G|; a Gram
    that is not point-symmetric is never symmetrized.  Eigenvalues are
    clipped at zero, sorted descending, and entries below the noise floor
    are dropped from the returned spectrum.  K is (tr A)^2 / ||A||_F^2 of
    the weighted matrix A (:func:`_schmidt_number`), which equals
    1 / sum lambda^2 of the whole unit-sum spectrum to rounding.

    The call runs at one OpenBLAS thread and restores the count on return,
    also when it raises.  The parity blocks are about 25 x 25: a second
    thread slows their ``eigh`` by its spin-wait and speeds up nothing.
    """
    sqrt_w, weighted, ((even_vals, even_vecs), (odd_vals, odd_vecs)) = _parity_solve(
        kernel, lambda even, odd: (np.linalg.eigh(even), np.linalg.eigh(odd)))
    evals = np.concatenate([even_vals, odd_vals])
    order = np.argsort(-evals, kind="stable")
    evals = np.clip(evals[order], 0.0, None)
    evecs = _parity_vectors(even_vecs, odd_vecs, weighted.shape[0])[:, order]
    keep = evals > NOISE_FLOOR * (evals[0] if evals[0] > 0 else 1.0)
    keep[0] = True
    modes = _fix_sign((evecs[:, keep] / sqrt_w[:, None]).T)

    total = float(evals.sum())
    return SchmidtResult(lambdas_sq=evals[keep] / total, modes=modes,
                         schmidt_number=_schmidt_number(weighted),
                         norm_sq=total, omega_s=kernel.omega_s)


@one_blas_thread()
def schmidt_number_and_lead(kernel: KernelGram) -> tuple[float, float]:
    """K and lambda_1 / sum lambda of :func:`decompose`, from the top
    eigenvalue alone (:func:`_top_eigenvalue`: one ``eigvalsh`` where the
    block traces allow) over the weighted Gram's trace, at one OpenBLAS
    thread.  K is :func:`decompose`'s to the last bit; lambda_1 matches it
    to rounding."""
    _, weighted, top = _parity_solve(kernel, _top_eigenvalue)
    return _schmidt_number(weighted), top / float(np.trace(weighted))
