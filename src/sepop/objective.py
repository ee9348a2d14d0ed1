"""Learning cost for separable cosparse analysis operators.

The cost is the mean over training patches of the squared log-sparsity of the
analyzed coefficients, plus two log-barrier regularizers per factor: one
against rank deficiency and one against (anti)parallel rows.  Logarithms are
natural throughout.  Barriers raise :class:`BarrierError` instead of returning
non-finite values; the line search treats that as a too-long step.

Both the cost and its gradient start from :func:`patch_analysis`, the
analysis coefficients of the patch batch and each patch's sparsity.  A solver
that needs both at one point computes it once and passes it to each; called
without it, each computes it.
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


def cosparsity(coeffs: np.ndarray, eps: float = 1e-3) -> int:
    """Number of coefficient entries with magnitude <= eps.

    The zero threshold is a convention of this implementation, not a given.
    """
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    coeffs = np.asarray(coeffs, dtype=float)
    return int(np.count_nonzero(np.abs(coeffs) <= eps))


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


def analyze_batch(patches: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Apply one factor per mode to a (T, n_1, ..., n_N) batch of patches."""
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
    coeffs = correlate_separable(patches, factors)
    return coeffs.reshape((patches.shape[0],) + tuple(len(f) for f in factors))


def patch_analysis(
    factors: list[np.ndarray], patches: np.ndarray, nu: float
) -> tuple[np.ndarray, np.ndarray]:
    """The batch's analysis coefficients and each patch's sum of log(1 + nu c^2)."""
    coeffs = analyze_batch(patches, factors)
    return coeffs, np.sum(np.log1p(nu * coeffs * coeffs), axis=tuple(range(1, coeffs.ndim)))


def learning_cost(
    factors: list[np.ndarray],
    patches: np.ndarray,
    params: LearningParams,
    analysis: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Mean squared patch sparsity plus weighted rank and coherence barriers.

    ``analysis`` is :func:`patch_analysis` at this point, if the caller has it.
    """
    if analysis is None:
        analysis = patch_analysis(factors, patches, params.nu)
    per_sample = analysis[1]
    cost = float(np.mean(per_sample**2))
    if params.kappa > 0:
        cost += params.kappa * sum(rank_penalty(f) for f in factors)
    if params.mu > 0:
        cost += params.mu * sum(coherence_penalty(f) for f in factors)
    return cost


def learning_gradient(
    factors: list[np.ndarray],
    patches: np.ndarray,
    params: LearningParams,
    analysis: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Euclidean gradient of :func:`learning_cost` w.r.t. each factor.

    ``analysis`` is :func:`patch_analysis` at this point, if the caller has it.
    """
    if analysis is None:
        analysis = patch_analysis(factors, patches, params.nu)
    coeffs, per_sample = analysis
    patches = np.asarray(patches, dtype=float)
    count = patches.shape[0]
    # d(g^2)/dA = 2 g * 2 nu A / (1 + nu A^2), per sample
    scale = (2.0 * per_sample).reshape((count,) + (1,) * (coeffs.ndim - 1))
    weighted = scale * (2.0 * params.nu * coeffs / (1.0 + params.nu * coeffs * coeffs))
    del coeffs

    # The partial for a mode applies every other factor, in mode order; the
    # factors before it are a prefix shared with the later modes.
    factors = [np.asarray(factor, dtype=float) for factor in factors]
    grads: list[np.ndarray] = []
    prefix = patches
    for mode, factor in enumerate(factors):
        partial = prefix
        for other in range(mode + 1, len(factors)):
            partial = n_mode_product(partial, factors[other], other + 1)
        if mode + 1 < len(factors):
            prefix = n_mode_product(prefix, factor, mode + 1)
        w_mat = np.moveaxis(weighted, mode + 1, 1).reshape(count, weighted.shape[mode + 1], -1)
        p_mat = np.moveaxis(partial, mode + 1, 1).reshape(count, partial.shape[mode + 1], -1)
        grad = np.einsum("tkr,tnr->kn", w_mat, p_mat) / count
        if params.kappa > 0:
            grad = grad + params.kappa * rank_penalty_gradient(factor)
        if params.mu > 0:
            grad = grad + params.mu * coherence_penalty_gradient(factor)
        grads.append(grad)
    return grads


def mean_sparsity(patches: np.ndarray, factors: list[np.ndarray], nu: float) -> float:
    """Mean (unsquared) sparsity measure over a patch batch."""
    return float(np.mean(patch_analysis(factors, patches, nu)[1]))

