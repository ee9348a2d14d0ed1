"""Learning cost for separable cosparse analysis operators.

The cost is the mean over training patches of the squared log-sparsity of the
analyzed coefficients, plus two log-barrier regularizers per factor: one
against rank deficiency and one against (anti)parallel rows.  Logarithms are
natural throughout.  Barriers raise :class:`BarrierError` instead of returning
non-finite values; the line search treats that as a too-long step.

Both the cost and its gradient start from :func:`patch_analysis`, the
analysis coefficients of the patch batch and each patch's sparsity.  A solver
that needs both at one point computes it once and passes it to each; called
without it, each computes it.  The analysis also keeps what the gradient
would otherwise compute again: ``nu c^2`` and the batch as each mode's
product read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sepop.tensor import correlate_separable, n_mode_product

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
        if self.nu <= 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.kappa < 0 or self.mu < 0:
            raise ValueError(f"kappa and mu must be nonnegative, got {self.kappa}, {self.mu}")


def sparsity_measure(coeffs: np.ndarray, nu: float) -> float:
    """Sum over all entries of log(1 + nu * entry^2)."""
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
    coeffs = np.asarray(coeffs, dtype=float)
    return float(np.sum(np.log1p(nu * coeffs * coeffs)))


def rank_penalty(factor: np.ndarray) -> float:
    """Log-barrier keeping a factor full rank; equals 1 for tight frames."""
    factor = np.asarray(factor, dtype=float)
    k, n = factor.shape
    if n < 2:
        raise ValueError(f"rank penalty needs n >= 2 columns, got {n}")
    gram = factor.T @ factor / k
    sign, logdet = np.linalg.slogdet(gram)
    if sign <= 0 or not math.isfinite(logdet) or logdet < -690.0:
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


def analyze_batch(
    patches: np.ndarray,
    factors: list[np.ndarray],
    mode_inputs: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Apply one factor per mode to a (T, n_1, ..., n_N) batch of patches.

    The modes are analyzed in order, each by one separable correlation whose
    window spans its axis.  If ``mode_inputs`` is a list, the array each
    mode reads is appended to it: for mode i, the batch with modes 1..i-1
    analyzed, with axes (T, n_i, ..., n_N, k_1, ..., k_{i-1}).
    """
    patches = np.asarray(patches, dtype=float)
    if patches.ndim != len(factors) + 1:
        raise ValueError(
            f"batch of order-{len(factors)} patches expected, got array of "
            f"shape {patches.shape}"
        )
    factors = [np.asarray(factor, dtype=float) for factor in factors]
    for mode, factor in enumerate(factors):
        if factor.shape[1] != patches.shape[mode + 1]:
            raise ValueError(
                f"factor for mode {mode} has shape {factor.shape} but patch "
                f"axis has length {patches.shape[mode + 1]}"
            )
    coeffs = patches
    for factor in factors:
        if mode_inputs is not None:
            mode_inputs.append(coeffs)
        signals = np.moveaxis(coeffs, 1, -1)
        coeffs = correlate_separable(signals, [factor]).reshape(signals.shape[:-1] + (len(factor),))
    return coeffs


@dataclass
class PatchAnalysis:
    """The analysis of a patch batch at one point, from :func:`patch_analysis`.

    ``coeffs`` (T, k_1, ..., k_N) and ``per_sample``, each patch's sum of
    log(1 + nu c^2), serve the cost.  ``coeffs``, ``nu_c2`` (nu c^2) and
    ``mode_inputs`` (see :func:`analyze_batch`) serve the gradient, which
    takes them over with :meth:`release`: an analysis serves one gradient.
    """

    coeffs: np.ndarray | None
    per_sample: np.ndarray
    nu_c2: np.ndarray | None
    mode_inputs: list[np.ndarray]

    def release(self) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Hand ``coeffs``, ``nu_c2`` and ``mode_inputs`` to the caller, who may overwrite them."""
        if self.coeffs is None:
            raise ValueError("this analysis has already served a gradient")
        released = self.coeffs, self.nu_c2, self.mode_inputs
        self.coeffs, self.nu_c2, self.mode_inputs = None, None, []
        return released


def patch_analysis(factors: list[np.ndarray], patches: np.ndarray, nu: float) -> PatchAnalysis:
    """The batch's coefficients, per-patch sum of log(1 + nu c^2), and the gradient's share."""
    mode_inputs: list[np.ndarray] = []
    coeffs = analyze_batch(patches, factors, mode_inputs)
    nu_c2 = nu * coeffs
    nu_c2 *= coeffs
    per_sample = np.sum(np.log1p(nu_c2), axis=tuple(range(1, coeffs.ndim)))
    return PatchAnalysis(coeffs, per_sample, nu_c2, mode_inputs)


def learning_cost(
    factors: list[np.ndarray],
    patches: np.ndarray,
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
    patches: np.ndarray,
    params: LearningParams,
    analysis: PatchAnalysis | None = None,
) -> list[np.ndarray]:
    """Euclidean gradient of :func:`learning_cost` w.r.t. each factor.

    ``analysis`` is :func:`patch_analysis` at this point, if the caller has
    it; the gradient releases it (see :meth:`PatchAnalysis.release`).
    """
    if analysis is None:
        analysis = patch_analysis(factors, patches, params.nu)
    weighted, denom, mode_inputs = analysis.release()
    count = weighted.shape[0]
    # d(g^2)/dA = 2 g * 2 nu A / (1 + nu A^2), per sample, formed in place
    denom += 1.0
    weighted *= 2.0 * params.nu
    weighted /= denom
    del denom
    weighted *= (2.0 * analysis.per_sample).reshape((count,) + (1,) * (weighted.ndim - 1))

    # The partial for a mode applies every other factor, in mode order; the
    # factors before it were applied by the analysis, to the array that mode
    # read.  The einsum's operands keep the layout (and so the rounding) of
    # products taken in natural axis order: modes before this one come first.
    factors = [np.asarray(factor, dtype=float) for factor in factors]
    grads: list[np.ndarray] = []
    for mode, factor in enumerate(factors):
        partial = mode_inputs[mode]
        mode_inputs[mode] = None  # freed once this mode's partial is formed
        for other in range(mode + 1, len(factors)):
            partial = n_mode_product(partial, factors[other], other - mode + 1)
        partial = np.ascontiguousarray(np.moveaxis(partial, range(-mode, 0), range(1, mode + 1)))
        w_mat = np.moveaxis(weighted, mode + 1, 1).reshape(count, weighted.shape[mode + 1], -1)
        p_mat = np.moveaxis(partial, mode + 1, 1).reshape(count, partial.shape[mode + 1], -1)
        del partial
        grad = np.einsum("tkr,tnr->kn", w_mat, p_mat) / count
        if params.kappa > 0:
            grad = grad + params.kappa * rank_penalty_gradient(factor)
        if params.mu > 0:
            grad = grad + params.mu * coherence_penalty_gradient(factor)
        grads.append(grad)
    return grads


def mean_sparsity(patches: np.ndarray, factors: list[np.ndarray], nu: float) -> float:
    """Mean (unsquared) sparsity measure over a patch batch."""
    return float(np.mean(patch_analysis(factors, patches, nu).per_sample))

