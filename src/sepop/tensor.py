"""Dense multilinear algebra: n-mode products, last-mode unfolding, Kronecker.

Tensors are plain C-contiguous ``numpy.ndarray`` values.  The storage
linearization is row-major (last index fastest), which makes the last-mode
unfolding a reshape followed by a transpose instead of a general permutation.
Formulas in the docs are stated 1-based; all code indices are 0-based.
"""

from __future__ import annotations

import math

import numpy as np


def n_mode_product(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Contract ``tensor``'s axis ``mode`` with the columns of ``matrix``.

    The result has the same shape as ``tensor`` except that axis ``mode`` has
    length ``matrix.shape[0]``.
    """
    tensor = np.asarray(tensor, dtype=float)
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"mode-product matrix must be 2-D, got shape {matrix.shape}")
    if not 0 <= mode < tensor.ndim:
        raise ValueError(f"mode {mode} out of range for order-{tensor.ndim} tensor")
    if matrix.shape[1] != tensor.shape[mode]:
        raise ValueError(
            f"mode-{mode} product shape mismatch: tensor {tensor.shape} has "
            f"axis length {tensor.shape[mode]}, matrix is {matrix.shape}"
        )
    contracted = np.tensordot(tensor, matrix, axes=([mode], [1]))
    return np.ascontiguousarray(np.moveaxis(contracted, -1, mode))


def unfold_last(tensor: np.ndarray) -> np.ndarray:
    """Unfold along the last mode into an I_N x (prod of the others) matrix.

    Entry (i_1,...,i_N) lands in row i_N and column
    (i_1-1)I_2...I_{N-1} + ... + i_{N-1} (1-based), i.e. the leading indices
    in row-major order.
    """
    tensor = np.asarray(tensor, dtype=float)
    return np.ascontiguousarray(tensor.reshape(-1, tensor.shape[-1]).T)


def fold_last(matrix: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Exact inverse of :func:`unfold_last` for the given target shape."""
    matrix = np.asarray(matrix, dtype=float)
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"invalid target dims {dims}")
    lead = math.prod(dims[:-1])
    if matrix.shape != (dims[-1], lead):
        raise ValueError(
            f"cannot fold matrix of shape {matrix.shape} into dims {dims}; "
            f"expected shape {(dims[-1], lead)}"
        )
    return np.ascontiguousarray(matrix.T.reshape(dims))


def kronecker(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def kronecker_chain(matrices: list[np.ndarray]) -> np.ndarray:
    """Kronecker product of a list of matrices, left to right.

    Test-oracle scale only: the learning path never materializes this matrix.
    """
    out = np.asarray(matrices[0], dtype=float)
    for m in matrices[1:]:
        out = np.kron(out, m)
    return out


def correlate_separable(
    x: np.ndarray, factors: list[np.ndarray], stride: int = 1
) -> np.ndarray:
    """Analyze every (strided) window of the last N axes with one factor per mode.

    With ``N = len(factors)`` and factor i of shape (k_i, n_i), the result has
    shape ``x.shape[:-N] + (m_1, ..., m_N, k_1, ..., k_N)``, where
    ``m_i = (x.shape[-N + i] - n_i) // stride + 1`` counts the window origins
    ``0, stride, 2 * stride, ...`` along mode i.  Entry ``[..., p, :]`` is the
    separable analysis of the n_1 x ... x n_N window starting at
    ``stride * p``: a bank of k_1 ... k_N separable correlation filters.

    Each mode is one GEMM over all window origins at once
    (``sliding_window_view(..., n_i) @ F_i.T``), so windows that overlap
    share their partial products instead of recomputing them.  Every output
    entry is the same chain of n_i-term dot products as the per-window mode
    products, and rounds the same.  A window as long as its axis (``m_i = 1``)
    is the plain mode product.
    """
    out = np.asarray(x, dtype=float)
    lead = out.ndim - len(factors)
    if lead < 0:
        raise ValueError(
            f"{len(factors)} factors need at least {len(factors)} axes, got {out.ndim}"
        )
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    for mode, factor in enumerate(factors):
        factor = np.asarray(factor, dtype=float)
        axis = lead + mode
        if factor.ndim != 2 or not 1 <= factor.shape[1] <= out.shape[axis]:
            raise ValueError(
                f"factor for mode {mode} has shape {factor.shape}; its window "
                f"does not fit axis length {out.shape[axis]}"
            )
        k, n = factor.shape
        windows = np.lib.stride_tricks.sliding_window_view(out, n, axis=axis)
        windows = windows[(slice(None),) * axis + (slice(None, None, stride),)]
        out = (windows.reshape(-1, n) @ factor.T).reshape(windows.shape[:-1] + (k,))
    return out


def apply_separable(tensor: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Apply one factor per mode: ``tensor x_1 F_1 x_2 F_2 ... x_N F_N``.

    Vectorized (row-major ravel) this equals the Kronecker chain of the
    factors applied to ``tensor.ravel()``.
    """
    tensor = np.asarray(tensor, dtype=float)
    if len(factors) != tensor.ndim:
        raise ValueError(
            f"need one factor per mode: tensor order {tensor.ndim}, "
            f"got {len(factors)} factors"
        )
    factors = [np.asarray(factor, dtype=float) for factor in factors]
    for mode, factor in enumerate(factors):
        if factor.shape[1] != tensor.shape[mode]:
            raise ValueError(
                f"factor for mode {mode} has shape {factor.shape} but tensor "
                f"axis {mode} has length {tensor.shape[mode]}"
            )
    out = correlate_separable(tensor, factors)
    return out.reshape(tuple(len(f) for f in factors))
