"""Learning cost for separable cosparse analysis operators.

The cost is the mean over training patches of the squared log-sparsity of the
analyzed coefficients, plus two log-barrier regularizers per factor: one
against rank deficiency and one against (anti)parallel rows.  Logarithms are
natural throughout.  Barriers raise :class:`BarrierError` instead of returning
non-finite values; the line search treats that as a too-long step.

Both the cost and its gradient start from :func:`patch_analysis`, the
analysis coefficients of the patch batch and each patch's sparsity.  A solver
that needs both at one point computes it once and passes it to each; called
without it, each computes it.  The analysis, one :func:`sepop.tensor.rotate_product`
per mode from the layout of a :class:`PatchBatch` (built once per run), also keeps what each
mode's product read, which the gradient runs back through (reverse mode, one GEMM a step).

The sparsity penalty log(1 + nu c^2) of learning and reconstruction alike is
summed by :func:`sparsity_measure` and differentiated in place by
:func:`sparsity_gradient`, from coefficients however they were analyzed, both
(and :func:`patch_analysis`'s per-patch sums) one chunk of
``sepop.tensor.BLOCK_BYTES // 8`` entries at a time, bit for bit one pass over the
whole array; its weight nu is checked by :func:`check_nu` wherever it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sepop import tensor

COHERENCE_BARRIER_TOL = 1e-12


class BarrierError(ArithmeticError):
    """An iterate hit a log-barrier boundary (rank deficiency or row coherence)."""


@dataclass(frozen=True)
class LearningParams:
    """Weights of the learning cost terms."""

    nu: float = 1000.0
    kappa: float = 500.0
    mu: float = 0.5

    def __post_init__(self) -> None:
        check_nu(self.nu)
        if not (0 <= self.kappa < math.inf and 0 <= self.mu < math.inf):
            raise ValueError(
                f"kappa and mu must be nonnegative and finite, got {self.kappa}, {self.mu}"
            )


def check_nu(nu: float) -> None:
    """Refuse a penalty weight nu that is not positive and finite."""
    if not 0 < nu < math.inf:
        raise ValueError(f"nu must be positive and finite, got {nu}")


def sparsity_measure(coeffs: np.ndarray, nu: float) -> float:
    """Sum over all entries of log(1 + nu * entry^2), bit for bit ``np.sum(np.log1p(nu * c * c))``:
    summed in memory order, as numpy sums that product, but without forming the product."""
    check_nu(nu)
    c = np.asarray(coeffs, dtype=float).ravel(order="K")
    leaf = max(128, tensor.BLOCK_BYTES // 8)  # numpy's pairwise leaf; less leaves its order
    return float(_log_penalty_sum(c, nu, np.empty(min(leaf, c.size))))


def _log_penalty_sum(c: np.ndarray, nu: float, buf: np.ndarray) -> np.float64:
    """``np.sum(np.log1p(nu * c * c))`` over the flat ``c``, bit for bit, one chunk at a time.

    numpy sums a contiguous float64 array pairwise: it splits ``n`` elements
    at ``n // 2`` rounded down to a multiple of 8, down to blocks of at most
    128.  This follows the same tree down to pieces of at most ``len(buf)``
    (at least 128), which ``np.sum`` finishes in ``buf``, so every partial sum
    is the one numpy forms over the whole array.
    """
    n = len(c)
    if n <= len(buf):
        return np.sum(_log_penalty(c, nu, buf[:n]))
    half = n // 2
    half -= half % 8
    return _log_penalty_sum(c[:half], nu, buf) + _log_penalty_sum(c[half:], nu, buf)


def _log_penalty(c: np.ndarray, nu: float, q: np.ndarray) -> np.ndarray:
    """``q = np.log1p(nu * c * c)``, computed in ``q``, which has ``c``'s shape."""
    np.multiply(c, nu, out=q)
    q *= c
    return np.log1p(q, out=q)


def sparsity_gradient(coeffs: np.ndarray, nu: float) -> None:
    """Overwrite ``coeffs`` with d/dc log(1 + nu c^2) = 2 nu c / (1 + nu c^2), one chunk at a
    time, with the operations, in the order, of one pass over the whole array."""
    if not coeffs.flags.c_contiguous:  # reshape(-1) would copy, and the derivative be lost
        raise ValueError("sparsity_gradient writes in place: coeffs must be C-contiguous")
    flat = coeffs.reshape(-1)
    chunk = max(1, tensor.BLOCK_BYTES // 8)
    buf = np.empty(min(chunk, flat.size))
    for start in range(0, len(flat), chunk):
        c = flat[start : start + chunk]
        q = buf[: len(c)]
        np.multiply(c, nu, out=q)
        q *= c
        q += 1.0
        c *= 2.0 * nu
        c /= q


def rank_penalty(factor: np.ndarray) -> float:
    """Log-barrier keeping a factor full rank; equals 1 for tight frames, whose log det
    is -n ln n, so only ``slogdet``'s sign and finiteness refuse a factor."""
    factor = np.asarray(factor, dtype=float)
    k, n = factor.shape
    if n < 2:
        raise ValueError(f"rank penalty needs n >= 2 columns, got {n}")
    gram = factor.T @ factor / k
    sign, logdet = np.linalg.slogdet(gram)
    if sign <= 0 or not math.isfinite(logdet):
        raise BarrierError(f"rank barrier: {k}x{n} factor is numerically rank deficient")
    return -logdet / (n * math.log(n))


def rank_penalty_gradient(factor: np.ndarray) -> np.ndarray:
    factor = np.asarray(factor, dtype=float)
    k, n = factor.shape
    gram = factor.T @ factor
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise BarrierError(f"rank barrier: {k}x{n} factor is singular") from exc
    return -2.0 / (n * math.log(n)) * factor @ inv


def coherence_penalty(factor: np.ndarray) -> float:
    """Log-barrier on pairwise row coherence; 0 for mutually orthogonal rows."""
    factor = np.asarray(factor, dtype=float)
    gram = factor @ factor.T
    iu, ju = np.triu_indices(gram.shape[0], k=1)
    pair = gram[iu, ju]
    if pair.size and np.max(np.abs(pair)) >= 1.0 - COHERENCE_BARRIER_TOL:
        raise BarrierError("coherence barrier: two rows are (anti)parallel")
    return float(-np.sum(np.log1p(-pair * pair)))


def coherence_penalty_gradient(factor: np.ndarray) -> np.ndarray:
    factor = np.asarray(factor, dtype=float)
    gram = factor @ factor.T
    off = gram - np.diag(np.diag(gram))
    if off.size and np.max(np.abs(off)) >= 1.0 - COHERENCE_BARRIER_TOL:
        raise BarrierError("coherence barrier: two rows are (anti)parallel")
    weights = off / (1.0 - off * off)
    np.fill_diagonal(weights, 0.0)
    return 2.0 * weights @ factor


@dataclass(frozen=True)
class PatchBatch:
    """(T, n_1, ..., n_N) patches in the read-only layout that every analysis starts from,
    ``leading`` (n_1, ..., n_N, T); the functions here lay out a plain array on entry."""

    shape: tuple[int, ...]
    leading: np.ndarray

    @classmethod
    def of(cls, patches: np.ndarray | PatchBatch) -> PatchBatch:
        if isinstance(patches, PatchBatch):
            return patches
        patches = np.asarray(patches, dtype=float)
        if patches.ndim < 2 or not len(patches):
            raise ValueError(
                f"a patch batch has axes (T, n_1, ...), T >= 1, got shape {patches.shape}"
            )
        leading = np.ascontiguousarray(np.moveaxis(patches, 0, -1))
        leading.flags.writeable = False  # every analysis of the run reads it
        return cls(patches.shape, leading)


def analyze_batch(
    patches: np.ndarray | PatchBatch,
    factors: list[np.ndarray],
    mode_inputs: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Apply one factor per mode, its window the patch's axis, to a (T, n_1, ..., n_N) batch.

    The modes are analyzed in order, each by a leading-mode product, from
    (n_1, ..., n_N, T) to (T, k_1, ..., k_N).  If ``mode_inputs`` is a list,
    the array each mode reads is appended, C-contiguous: (n_i, ..., n_N, T, k_1, ..., k_{i-1}).
    """
    batch = PatchBatch.of(patches)
    factors, _origins = tensor.window_grid(factors, batch.shape[1:])
    if (windows := tuple(factor.shape[1] for factor in factors)) != batch.shape[1:]:
        raise ValueError(f"factor windows {windows} differ from the patch shape {batch.shape[1:]}")
    x = batch.leading
    for factor in factors:
        if mode_inputs is not None:
            mode_inputs.append(x)
        x = tensor.rotate_product(x, factor)
    return x


@dataclass
class PatchAnalysis:
    """The analysis of a patch batch at one point, from :func:`patch_analysis`.

    ``coeffs`` (T, k_1, ..., k_N) and ``per_sample``, each patch's sum of
    log(1 + nu c^2), serve the cost.  ``coeffs`` and ``mode_inputs`` (see
    :func:`analyze_batch`) serve the gradient, which takes them over with
    :meth:`release`: an analysis serves one gradient.
    """

    coeffs: np.ndarray | None
    per_sample: np.ndarray
    mode_inputs: list[np.ndarray]

    def release(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """Hand over ``coeffs``, which the caller may overwrite, and ``mode_inputs``, to read."""
        if self.coeffs is None:
            raise ValueError("this analysis has already served a gradient")
        released = self.coeffs, self.mode_inputs
        self.coeffs, self.mode_inputs = None, []
        return released


def patch_analysis(
    factors: list[np.ndarray], patches: np.ndarray | PatchBatch, nu: float
) -> PatchAnalysis:
    """The batch's coefficients, per-patch sum of log(1 + nu c^2), and the gradient's share.

    The penalty is formed and summed one block of whole patches at a time, about one
    chunk, in one reused buffer: each patch's sum is still numpy's over its contiguous
    entries, so it equals the sum over the whole array's patch axes."""
    mode_inputs: list[np.ndarray] = []
    coeffs = analyze_batch(patches, factors, mode_inputs)
    flat = coeffs.reshape(len(coeffs), -1)
    per_sample = np.empty(len(flat))
    step = max(1, tensor.BLOCK_BYTES // 8 // flat.shape[1])
    buf = np.empty((min(step, len(flat)), flat.shape[1]))
    for start in range(0, len(flat), step):
        c = flat[start : start + step]
        np.sum(_log_penalty(c, nu, buf[: len(c)]), axis=1, out=per_sample[start : start + step])
    return PatchAnalysis(coeffs, per_sample, mode_inputs)


def learning_cost(
    factors: list[np.ndarray],
    patches: np.ndarray | PatchBatch,
    params: LearningParams,
    analysis: PatchAnalysis | None = None,
) -> float:
    """Mean squared patch sparsity plus weighted rank and coherence barriers.

    ``analysis`` is :func:`patch_analysis` at this point, if the caller has it.
    """
    if analysis is None:
        analysis = patch_analysis(factors, patches, params.nu)
    cost = float(np.mean(analysis.per_sample**2))
    if params.kappa > 0:
        cost += params.kappa * sum(rank_penalty(f) for f in factors)
    if params.mu > 0:
        cost += params.mu * sum(coherence_penalty(f) for f in factors)
    return cost


def learning_gradient(
    factors: list[np.ndarray],
    patches: np.ndarray | PatchBatch,
    params: LearningParams,
    analysis: PatchAnalysis | None = None,
) -> list[np.ndarray]:
    """Euclidean gradient of :func:`learning_cost` w.r.t. each factor.

    ``analysis`` is :func:`patch_analysis` at this point, if the caller has
    it; the gradient releases it (see :meth:`PatchAnalysis.release`) and runs back through it.
    """
    if analysis is None:
        analysis = patch_analysis(factors, patches, params.nu)
    cotangent, inputs = analysis.release()
    count = cotangent.shape[0]
    # d(g^2)/dA = 2 g * 2 nu A / (1 + nu A^2), per sample, formed in place
    sparsity_gradient(cotangent, params.nu)
    cotangent *= (2.0 * analysis.per_sample).reshape((count,) + (1,) * (cotangent.ndim - 1))

    # Reverse mode through the analysis, last mode first: mode i's product read inputs[i] as
    # (n_i, R) rows and wrote (R, k_i) rows, whose cotangent gives F_i's gradient and, times
    # F_i, the cotangent of what the mode read, in that array's layout: one GEMM each.
    grads: list[np.ndarray] = []
    for factor in reversed([np.asarray(f, dtype=float) for f in factors]):
        rows = cotangent.reshape(-1, len(factor))
        grad = (inputs.pop().reshape(factor.shape[1], -1) @ rows).T / count
        if inputs:
            cotangent = factor.T @ rows.T
        if params.kappa > 0:
            grad = grad + params.kappa * rank_penalty_gradient(factor)
        if params.mu > 0:
            grad = grad + params.mu * coherence_penalty_gradient(factor)
        grads.insert(0, grad)
    return grads


def mean_sparsity(patches: np.ndarray, factors: list[np.ndarray], nu: float) -> float:
    """Mean (unsquared) sparsity measure over a patch batch."""
    return float(np.mean(patch_analysis(factors, patches, nu).per_sample))

