"""Separable (per-mode) analysis of every window of a tensor, and its adjoint.

Tensors are plain C-contiguous ``numpy.ndarray`` values with row-major
storage (last index fastest), so the vectorization of a separable analysis is
the Kronecker chain of its factors applied to ``tensor.ravel()``.  Every
factor is applied by one kernel, :func:`rotate_product`, a GEMM over the
first axis issued in cache-sized blocks of rows: learning chains it over
cache-sized blocks of whole patches, and the analysis of every window of an
order-N tensor, one factor per mode, over stacks of shifted slices, one
cache-sized slab of the result at a time.  The adjoint of that analysis
synthesizes the windows with one GEMM per mode and block of window origins,
walked and added in along the axis with the most origins.  The GEMM rows,
the slabs, the adjoint's blocks and learning's blocks of patches follow one
rule, :func:`_blocks`, and one budget, :data:`BLOCK_BYTES` (256 KiB), which
:mod:`sepop.objective`'s penalty passes share.  Every analysis, of windows or
of patch batches, checks its factors with :func:`window_grid` alone.
Formulas in the docs are stated 1-based; all code indices are 0-based.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

# Every blocked pass (GEMM rows, analysis slabs, adjoint blocks, learning's blocks of patches,
# the penalty's chunks) takes about this many bytes at a time, so a block and its partial
# products stay in a per-core L2 cache.  Each pass reads it when called (a patch batch when it
# is laid out); its result is the same bit for bit at any budget, but for the learning
# gradient, which sums over the blocks of patches.
BLOCK_BYTES = 256 * 1024


def _blocks(total: int, budget_bytes: int, row_bytes: int):
    """Consecutive ``(start, stop)`` blocks of ``total`` rows of ``row_bytes`` each, about
    ``budget_bytes`` a block and at least two rows.  A one-row remainder joins the block
    before it: a GEMM of one row takes numpy's matrix-vector path, which rounds by the
    operand's layout."""
    block = max(2, budget_bytes // max(row_bytes, 1))
    start = 0
    while start < total:
        stop = total if total - start <= block + 1 else start + block
        yield start, stop
        start = stop


def rotate_product(x: np.ndarray, factor: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Contract the first axis of ``x`` with a (k, n) factor and put the new axis last.

    A GEMM whose operand ``x.reshape(n, -1).T`` BLAS reads transposed in place (a
    C-contiguous ``x`` is not copied), issued in the :func:`_blocks` of its rows, each about
    :data:`BLOCK_BYTES` of operand and result rows, so that a block's packed operand and
    result stay in cache.  Each entry is ``np.tensordot``'s over axis 0, bit for bit.  The
    result is written into ``out`` (C-contiguous, of the result's shape) if it is given."""
    x, factor = np.asarray(x, dtype=float), np.asarray(factor, dtype=float)
    rows = x.reshape(len(x), math.prod(x.shape[1:])).T
    (total, n), k = rows.shape, len(factor)
    if out is None:
        result = np.empty((total, k))
        out = result.reshape(x.shape[1:] + (k,))
    else:
        result = out.reshape(total, k)
    for start, stop in _blocks(total, BLOCK_BYTES, 8 * (n + k)):
        np.matmul(rows[start:stop], factor.T, out=result[start:stop])
    return out


def window_grid(factors: list, shape: tuple) -> tuple[list[np.ndarray], tuple[int, ...]]:
    """The factors as float arrays, and the number of window origins along each axis of
    ``shape``, ``shape[i] - n_i + 1``: one 2-D (k_i, n_i) factor per axis, whose window fits
    it (``1 <= n_i <= shape[i]``), or a ``ValueError``."""
    factors = [np.asarray(factor, dtype=float) for factor in factors]
    if not factors or len(factors) != len(shape):
        raise ValueError(
            f"{len(factors)} factors cannot analyze a tensor of order {len(shape)}: "
            "one factor per axis is needed"
        )
    for mode, (factor, length) in enumerate(zip(factors, shape)):
        if factor.ndim != 2 or not 1 <= factor.shape[1] <= length:
            raise ValueError(
                f"factor for mode {mode} has shape {factor.shape}; it needs two axes and a "
                f"window that fits axis length {length}"
            )
    return factors, tuple(d - factor.shape[1] + 1 for factor, d in zip(factors, shape))


def correlate_separable(x: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """Analyze every window of an order-N tensor with one factor per mode.

    With ``N = len(factors) = x.ndim`` and factor i of shape (k_i, n_i), the
    result has shape ``(m_1, ..., m_N, k_1, ..., k_N)``, where
    ``m_i = x.shape[i] - n_i + 1`` counts the window origins along mode i.
    Entry ``[p, :]`` is the separable analysis of the n_1 x ... x n_N window
    starting at ``p``: a bank of k_1 ... k_N separable correlation filters.

    The result is filled one slab of whole planes of its first axis (the
    first mode's window origins) at a time, the :func:`_blocks` of those
    planes, about :data:`BLOCK_BYTES` each, so that a slab's partial products
    stay in cache (a slab of one plane could make numpy take another matmul
    path, which rounds differently).  A slab reads ``planes + n_1 - 1``
    input rows, its windows' halo included.  Within a slab, mode i stacks
    the n_i shifted slices of the partial product along its axis and
    contracts them with F_i in one :func:`rotate_product`, which puts k_i
    last: one GEMM over the slab's window origins, so windows that overlap
    share their partial products instead of recomputing them; the last
    mode's GEMM writes straight into the result.  Every output entry is the
    same chain of n_i-term dot products as the per-window mode products, and
    rounds the same.  A window as long as its axis (``m_i = 1``) is the
    plain mode product.
    """
    x = np.ascontiguousarray(x, dtype=float)  # np.stack keeps its slices' memory order
    factors, grid = window_grid(factors, x.shape)
    out = np.empty(grid + tuple(len(f) for f in factors))
    first = factors[0].shape[1]
    for start, stop in _blocks(len(out), BLOCK_BYTES, 8 * math.prod(out.shape[1:])):
        # A slab also reads its windows' halo.
        part = x[start : stop - 1 + first]
        for mode, factor in enumerate(factors):
            n = factor.shape[1]
            span = part.shape[mode] - n + 1
            before = (slice(None),) * mode
            # Each window offset's slice of the part, stacked in C order by contiguous runs.
            stack = np.stack([part[before + (slice(a, a + span),)] for a in range(n)])
            if mode + 1 < len(factors):
                part = rotate_product(stack, factor)
            else:
                rotate_product(stack, factor, out=out[start:stop])
    return out


def correlate_separable_adjoint(
    coeffs: np.ndarray, factors: list[np.ndarray], shape: tuple[int, ...]
) -> np.ndarray:
    """Exact adjoint of :func:`correlate_separable` for inputs of ``shape``.

    ``shape`` is of order N, one axis per factor, and ``coeffs`` has the
    layout that ``correlate_separable`` returns for an input of ``shape``.
    Each window's coefficients are synthesized with the transposed factors
    and added into the window, summed where windows overlap.  The window
    origins are walked with the axis of most origins last (on a tie the later
    axis, so a cube keeps C order), so that each add runs along the longest
    axis: on a thin 28x28x4 grid, runs of 28 instead of 4.  They are
    synthesized in consecutive blocks of that walk, about :data:`BLOCK_BYTES`
    of coefficients each (see :func:`_blocks`), each gathered from the C-order
    coefficients with one fancy-index copy that puts (k_1, ..., k_N) first;
    then mode i is ``F_i.T @ z`` batched over the window offsets already
    synthesized, so every entry is the same k_i-term dot product as a
    per-window adjoint; the last mode's GEMM writes straight into the block's
    columns of the (window offsets, origins) synthesis.  The windows are then
    added in, one offset at a time in lexicographic order, into a volume laid
    out in walk order, which one transposed copy returns to ``shape``.  Every
    voxel receives the same windows in the same order as from a per-window
    adjoint, so the result is the same bit for bit, whatever the blocks and
    the walk.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    factors, grid = window_grid(factors, shape)
    modes, sizes = len(factors), tuple(factor.shape[1] for factor in factors)
    expected = grid + tuple(len(factor) for factor in factors)
    if coeffs.shape != expected:
        raise ValueError(f"coefficients of shape {coeffs.shape}, expected {expected}")

    # Walk the origins with the axis of most origins last (on a tie the later one), so the
    # scatter-add runs along it.
    longest = max(range(modes), key=lambda mode: (grid[mode], mode))
    order = [*range(longest), *range(longest + 1, modes), longest]
    walk = tuple(grid[axis] for axis in order)
    width, origins = math.prod(len(factor) for factor in factors), math.prod(grid)
    rows = coeffs.reshape(origins, width)
    walked = np.arange(origins).reshape(grid).transpose(order).ravel()  # rows in walk order
    synth = np.empty((math.prod(sizes), origins))
    last = factors[-1]
    into = synth.reshape(math.prod(sizes[:-1]), sizes[-1], origins)
    for start, stop in _blocks(origins, BLOCK_BYTES, 8 * width):
        # The block's origins in walk order, with (k_1, ..., k_N) first.
        z = rows.T[:, walked[start:stop]]
        for mode, factor in enumerate(factors[:-1]):
            z = factor.T @ z.reshape(math.prod(sizes[:mode]), len(factor), -1)
        np.matmul(last.T, z.reshape(len(into), len(last), -1), out=into[:, :, start:stop])
    per_mode = [[slice(a, a + m) for a in range(n)] for n, m in zip(sizes, grid)]
    out = np.zeros(tuple(shape[axis] for axis in order))
    for piece, window in zip(synth.reshape((-1,) + walk), product(*per_mode)):
        out[tuple(window[axis] for axis in order)] += piece
    return np.ascontiguousarray(out.transpose(np.argsort(order)))
