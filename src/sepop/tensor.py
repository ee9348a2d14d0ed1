"""Separable (per-mode) analysis of every window of a tensor, and its adjoint.

Tensors are plain C-contiguous ``numpy.ndarray`` values with row-major
storage (last index fastest), so the vectorization of a separable analysis is
the Kronecker chain of its factors applied to ``tensor.ravel()``.  Every factor
is applied by one kernel, :func:`rotate_product`, a GEMM over a leading axis:
learning chains it over patch batches, and the analysis of every window over
stacks of shifted slices.  Formulas in the docs are stated 1-based; all code
indices are 0-based.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import product

import numpy as np

# The adjoint synthesizes this many bytes of coefficients at a time, so that a
# block and its partial products stay in a per-core L2 cache.
_BLOCK_BYTES = 256 * 1024
# The analysis fills about this many bytes of its result at a time, so that a
# slab and its partial products stay in cache until its caller has used them.
_SLAB_BYTES = 2 * 1024 * 1024


def rotate_product(x: np.ndarray, factor: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Contract the leading axis of ``x`` with a (k, n) factor and put the new axis last.

    One GEMM, whose operand ``x.reshape(n, -1).T`` BLAS reads transposed in place (a
    C-contiguous ``x`` is not copied); each entry is ``np.tensordot``'s over axis 0, bit for bit.
    The result is written into ``out`` (C-contiguous, of the result's shape) if it is given."""
    x, factor = np.asarray(x, dtype=float), np.asarray(factor, dtype=float)
    rows = x.reshape(len(x), math.prod(x.shape[1:])).T
    if out is None:
        return (rows @ factor.T).reshape(x.shape[1:] + (len(factor),))
    np.matmul(rows, factor.T, out=out.reshape(len(rows), len(factor)))
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

    The result is filled one slab of its first axis at a time (see
    :func:`correlate_separable_slabs`).  Within a slab, mode i stacks the n_i
    shifted (strided) slices of the partial product along its axis and
    contracts them with F_i in one :func:`rotate_product`, which puts k_i last:
    one GEMM over the slab's window origins, so windows that overlap share
    their partial products instead of recomputing them.  Every output entry
    is the same chain of n_i-term dot products as the per-window mode
    products, and rounds the same.  A window as long as its axis (``m_i = 1``)
    is the plain mode product.
    """
    out, slabs = correlate_separable_slabs(x, factors, stride)
    for _ in slabs:
        pass
    return out


def correlate_separable_slabs(
    x: np.ndarray, factors: list[np.ndarray], stride: int = 1
) -> tuple[np.ndarray, Iterator[int]]:
    """The uninitialized result of :func:`correlate_separable` and an iterator that fills it.

    Each step fills the next slab of whole planes of the result's first axis
    (a leading axis, or with none the first mode's window origins) and yields
    how many of the result's flat (C-order) entries are now final, so a
    caller can consume the entries while they are still in cache.  A slab
    holds about :data:`_SLAB_BYTES` of planes, and at least two: a slab of one
    plane can make numpy take another matmul path (matrix-vector, or strides
    it hands to BLAS instead of its own loop), which rounds differently, so a
    one-plane remainder joins the slab before it.  A slab along window origins
    reads ``stride * (planes - 1) + n_1`` input rows, its windows' halo
    included.  The last mode's GEMM writes straight into the result.
    """
    x = np.ascontiguousarray(x, dtype=float)  # np.stack keeps its slices' memory order
    lead = x.ndim - len(factors)
    if not factors:
        raise ValueError("at least one factor is needed")
    if lead < 0:
        raise ValueError(
            f"{len(factors)} factors need at least {len(factors)} axes, got {x.ndim}"
        )
    if stride < 1:
        raise ValueError(f"stride must be at least 1, got {stride}")
    factors = [np.asarray(factor, dtype=float) for factor in factors]
    for mode, factor in enumerate(factors):
        length = x.shape[lead + mode]
        if factor.ndim != 2 or not 1 <= factor.shape[1] <= length:
            raise ValueError(
                f"factor for mode {mode} has shape {factor.shape}; its window "
                f"does not fit axis length {length}"
            )
    starts = tuple((d - f.shape[1]) // stride + 1 for f, d in zip(factors, x.shape[lead:]))
    out = np.empty(x.shape[:lead] + starts + tuple(len(f) for f in factors))
    return out, _fill_slabs(x, factors, stride, lead, out)


def _fill_slabs(
    x: np.ndarray, factors: list[np.ndarray], stride: int, lead: int, out: np.ndarray
) -> Iterator[int]:
    """Fill ``out`` slab by slab for :func:`correlate_separable_slabs`."""
    plane = math.prod(out.shape[1:])
    planes = max(2, _SLAB_BYTES // max(8 * plane, 1))
    total, first = len(out), factors[0].shape[1]
    start = 0
    while start < total:
        stop = total if total - start <= planes + 1 else start + planes
        # A slab along window origins also reads its windows' halo.
        part = x[start:stop] if lead else x[stride * start : stride * (stop - 1) + first]
        for mode, factor in enumerate(factors):
            axis, (k, n) = lead + mode, factor.shape
            span = stride * ((part.shape[axis] - n) // stride) + 1
            before = (slice(None),) * axis
            shifted = [part[before + (slice(a, a + span, stride),)] for a in range(n)]
            # Each window offset's slice of the part, stacked in C order by contiguous runs.
            # A one-row factor takes numpy's matrix-vector path, which rounds by the operand's
            # layout, so there the offsets go last and the product reads rows, one window each.
            offsets = 0 if k > 1 else -1
            stack = np.moveaxis(np.stack(shifted, axis=offsets), offsets, 0)
            if mode + 1 < len(factors):
                part = rotate_product(stack, factor)
            else:
                rotate_product(stack, factor, out=out[start:stop])
        yield stop * plane
        start = stop


def correlate_separable_adjoint(
    coeffs: np.ndarray, factors: list[np.ndarray], shape: tuple[int, ...], stride: int = 1
) -> np.ndarray:
    """Exact adjoint of :func:`correlate_separable` for inputs of ``shape``.

    ``coeffs`` has the layout that ``correlate_separable`` returns for an
    input of ``shape``.  Each window's coefficients are synthesized with the
    transposed factors and added into the window, summed where windows
    overlap.  The window origins are synthesized in blocks of rows of the
    (origins, k_1 ... k_N) coefficient matrix, each small enough to stay in
    cache: the block is transposed to put (k_1, ..., k_N) first, then mode i
    is ``F_i.T @ z`` batched over the window offsets already synthesized, so
    every entry is the same k_i-term dot product as a per-window adjoint.
    The windows are then added in, one offset at a time in lexicographic
    order; leading axes pass through.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    shape = tuple(shape)
    modes = len(factors)
    lead = len(shape) - modes
    factors = [np.asarray(factor, dtype=float) for factor in factors]
    sizes = tuple(factor.shape[1] for factor in factors)
    if lead < 0 or stride < 1 or any(n > d for n, d in zip(sizes, shape[lead:])):
        raise ValueError(
            f"{modes} factors with windows {sizes} and stride {stride} do not fit shape {shape}"
        )
    starts = tuple((d - n) // stride + 1 for n, d in zip(sizes, shape[lead:]))
    grid = shape[:lead] + starts
    expected = grid + tuple(len(factor) for factor in factors)
    if coeffs.shape != expected:
        raise ValueError(f"coefficients of shape {coeffs.shape}, expected {expected}")

    rows = coeffs.reshape(-1, math.prod(len(factor) for factor in factors))
    origins = len(rows)
    block = max(2, _BLOCK_BYTES // (8 * rows.shape[1]))
    synth = np.empty((math.prod(sizes), origins))
    start = 0
    while start < origins:
        # A one-row block would take numpy's matrix-vector path, which rounds
        # differently, so a one-row remainder joins the block before it.
        stop = origins if origins - start <= block + 1 else start + block
        z = np.ascontiguousarray(rows[start:stop].T)
        for mode, factor in enumerate(factors):
            z = factor.T @ z.reshape(math.prod(sizes[:mode]), len(factor), -1)
        synth[:, start:stop] = z.reshape(len(synth), -1)
        start = stop
    per_mode = [
        [slice(a, a + stride * m, stride) for a in range(n)] for n, m in zip(sizes, starts)
    ]
    out = np.zeros(shape)
    for piece, window in zip(synth.reshape((-1,) + grid), product(*per_mode)):
        out[(Ellipsis, *window)] += piece
    return out

