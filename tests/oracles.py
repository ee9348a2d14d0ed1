"""Dense definitions that the tests check the package's multilinear algebra against.

The package never materializes a Kronecker product or unfolds a tensor; these
helpers state what its separable evaluations must equal.  :func:`mode_product`
is the ``tensordot`` n-mode product that a chain of one-mode correlations must
equal bit for bit, :func:`leading_mode_product` the ``tensordot`` product over
the leading axis that :func:`sepop.tensor.rotate_product` must equal bit for
bit, :func:`whole_array_analysis` the one-GEMM-per-mode analysis
that the slab-by-slab :func:`sepop.tensor.correlate_separable` must equal bit
for bit, and :func:`whole_array_adjoint` the one-transpose adjoint that the
blocked :func:`sepop.tensor.correlate_separable_adjoint` must equal bit for
bit.
:func:`kronecker_learning_gradient` is the learning gradient's sparsity part through the
dense Kronecker operator, the oracle independent of both gradient implementations.
:func:`extract_patch` is the per-patch definition of a training window, and
:func:`cosparsity` counts the near-zero analysis coefficients of a patch.
:func:`reconstruction_objective` gives the finite-difference oracles the
reconstruction objective and gradient that the solver evaluates, and
:func:`solver_settings` the frozen loops of ``reference_solvers`` their
``cfg``.
:func:`radial_mask` and :func:`mssim` are the point-by-point mask loop and the
per-slice ``scipy.signal.convolve2d`` SSIM that the package's vectorized
versions replaced.
"""

from __future__ import annotations

import math
from itertools import product
from types import SimpleNamespace

import numpy as np

from sepop import cg, reconstruct
from sepop.objective import sparsity_measure
from sepop.tensor import correlate_separable


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
    """Kronecker product of a list of matrices, left to right."""
    out = np.asarray(matrices[0], dtype=float)
    for m in matrices[1:]:
        out = np.kron(out, m)
    return out


def kronecker_learning_gradient(factors: list[np.ndarray], patches: np.ndarray, nu: float) -> list[np.ndarray]:
    """The gradient of the learning cost's sparsity term, the mean over patches of the
    squared sum of log(1 + nu c^2), w.r.t. each factor, through the dense operator.

    With the patches as rows X and Omega the Kronecker chain of the factors, the
    coefficients are C = X Omega^T, and G = (dL/dC)^T X, a (prod k, prod n) array, is
    dL/dOmega.  dL/dF_i is G, as (k_1, ..., k_N, n_1, ..., n_N), contracted over each other
    mode's pair of axes (k_j, n_j) with F_j.
    """
    factors = [np.asarray(factor, dtype=float) for factor in factors]
    x = np.asarray(patches, dtype=float).reshape(len(patches), -1)
    c = x @ kronecker_chain(factors).T
    per_patch = np.log1p(nu * c * c).sum(axis=1)
    dc = (2.0 * per_patch / len(x))[:, None] * (2.0 * nu * c / (1.0 + nu * c * c))
    g = (dc.T @ x).reshape(tuple(f.shape[0] for f in factors) + tuple(f.shape[1] for f in factors))
    rows, cols = "abcdefgh"[: len(factors)], "ijklmnop"[: len(factors)]
    grads = []
    for mode in range(len(factors)):
        others = [j for j in range(len(factors)) if j != mode]
        spec = ",".join([rows + cols] + [rows[j] + cols[j] for j in others])
        grads.append(np.einsum(f"{spec}->{rows[mode]}{cols[mode]}", g, *(factors[j] for j in others),
                               optimize=True))
    return grads


def mode_product(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """Contract ``tensor``'s axis ``mode`` with the columns of ``matrix`` by ``tensordot``.

    The result keeps the new axis in place of the contracted one.
    """
    contracted = np.tensordot(tensor, np.asarray(matrix, dtype=float), axes=([mode], [1]))
    return np.ascontiguousarray(np.moveaxis(contracted, -1, mode))


def leading_mode_product(tensor: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Contract ``tensor``'s leading axis with the columns of ``matrix`` by ``tensordot``.

    The new axis comes last.
    """
    return np.tensordot(
        np.asarray(tensor, dtype=float), np.asarray(matrix, dtype=float), axes=([0], [1])
    )


def whole_array_analysis(x: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    """``correlate_separable`` with each mode one GEMM over all window origins at once.

    Mode i is ``sliding_window_view(..., n_i) @ F_i.T`` over the
    whole array, its windows reshaped to rows (a copy where they cannot be
    viewed as rows).
    """
    out = np.asarray(x, dtype=float)
    for mode, factor in enumerate(factors):
        factor = np.asarray(factor, dtype=float)
        k, n = factor.shape
        windows = np.lib.stride_tricks.sliding_window_view(out, n, axis=mode)
        out = (windows.reshape(-1, n) @ factor.T).reshape(windows.shape[:-1] + (k,))
    return out


def whole_array_adjoint(
    coeffs: np.ndarray, factors: list[np.ndarray], shape: tuple[int, ...]
) -> np.ndarray:
    """The adjoint of ``correlate_separable`` with one transpose of all coefficients.

    All coefficients are transposed at once to put (k_1, ..., k_N) first, mode
    i is ``F_i.T @ z`` over every window origin, and the windows are added in
    one offset at a time in lexicographic order.
    """
    factors = [np.asarray(factor, dtype=float) for factor in factors]
    modes = len(factors)
    sizes = tuple(factor.shape[1] for factor in factors)
    grid = tuple(d - n + 1 for n, d in zip(sizes, shape))
    z = np.ascontiguousarray(np.moveaxis(coeffs, range(-modes, 0), range(modes)))
    for mode, factor in enumerate(factors):
        z = factor.T @ z.reshape(math.prod(sizes[:mode]), len(factor), -1)
    per_mode = [[slice(a, a + m) for a in range(n)] for n, m in zip(sizes, grid)]
    out = np.zeros(shape)
    for piece, window in zip(z.reshape((-1,) + grid), product(*per_mode)):
        out[window] += piece
    return out


def extract_patch(vol, center: tuple[int, int, int], dims: tuple[int, int, int]) -> np.ndarray:
    """Copy the dims-sized window centered at ``center`` (0-based voxel index).

    Odd window dims center exactly; even dims extend one voxel less on the
    high side.  Windows crossing the boundary are rejected, never padded.
    """
    data = vol.data
    starts = []
    for axis, (c, d) in enumerate(zip(center, dims, strict=True)):
        if d < 1:
            raise ValueError(f"patch dims must be positive, got {dims}")
        start = c - d // 2
        if start < 0 or start + d > data.shape[axis]:
            raise ValueError(
                f"patch {dims} at center {center} exceeds volume bounds "
                f"{data.shape} on axis {axis}"
            )
        starts.append(start)
    sl = tuple(slice(s, s + d) for s, d in zip(starts, dims, strict=True))
    return data[sl].copy()


def cosparsity(coeffs: np.ndarray, eps: float = 1e-3) -> int:
    """Number of coefficient entries with magnitude <= eps.

    The zero threshold is a convention of this implementation, not a given.
    """
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    coeffs = np.asarray(coeffs, dtype=float)
    return int(np.count_nonzero(np.abs(coeffs) <= eps))


def sample_term(signal: np.ndarray, factors: list[np.ndarray], nu: float) -> float:
    """Squared sparsity measure of the analyzed signal."""
    return sparsity_measure(correlate_separable(signal, factors), nu) ** 2


def reconstruction_objective(v, y, op, factors, cfg) -> tuple[float, np.ndarray]:
    """Cost and gradient of the reconstruction objective at ``v``, as the solver sees them."""
    cost, gradient = reconstruct._evaluate(np.asarray(v, dtype=float), y, op, factors, cfg)
    return cost, gradient()


def solver_settings(max_iters: int, geometry: cg.Geometry) -> SimpleNamespace:
    """The ``cfg`` that ``reference_solvers`` reads, under its old field names:
    the iteration cap, the geometry's line-search fields and the ``cg``
    constants as they are when this is called."""
    return SimpleNamespace(
        max_iters=max_iters,
        grad_tol=cg.GRAD_TOL,
        ls_history_decay=geometry.history_decay,
        ls_sufficient_decrease=cg.SUFFICIENT_DECREASE,
        ls_backtrack=cg.BACKTRACK,
        ls_max_trials=geometry.max_trials,
    )


def radial_mask(h: int, w: int, num_lines: int) -> np.ndarray:
    """The radial sampling pattern, one point of one line at a time."""
    cy, cx = h // 2, w // 2
    mask = np.zeros((h, w), dtype=bool)
    mask[cy, cx] = True
    half_diag = math.hypot(h, w) / 2.0
    steps = np.arange(0.0, half_diag + 1.0, 0.5)
    for i in range(num_lines):
        theta = math.pi * i / num_lines
        dy, dx = math.sin(theta), math.cos(theta)
        for t in steps:
            r = cy + int(round(t * dy))
            c = cx + int(round(t * dx))
            rm, cm = 2 * cy - r, 2 * cx - c
            if 0 <= r < h and 0 <= c < w and 0 <= rm < h and 0 <= cm < w:
                mask[r, c] = True
                mask[rm, cm] = True
    return mask


def _gaussian_window(size: int = 11, sigma: float = 1.5) -> np.ndarray:
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords**2) / (2.0 * sigma * sigma))
    window = np.outer(g, g)
    return window / window.sum()


def _ssim_slice(x: np.ndarray, y: np.ndarray, window: np.ndarray, peak: float) -> float:
    from scipy.signal import convolve2d

    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    mu_x = convolve2d(x, window, mode="valid")
    mu_y = convolve2d(y, window, mode="valid")
    xx = convolve2d(x * x, window, mode="valid") - mu_x * mu_x
    yy = convolve2d(y * y, window, mode="valid") - mu_y * mu_y
    xy = convolve2d(x * y, window, mode="valid") - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * xy + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (xx + yy + c2)
    return float(np.mean(num / den))


def mssim(ref, test) -> float:
    """Mean SSIM with the 2-D Gaussian window, one slice at a time."""
    lo, hi = ref.intensity_range
    window = _gaussian_window()
    values = [
        _ssim_slice(ref.data[:, :, k], test.data[:, :, k], window, hi - lo)
        for k in range(ref.data.shape[2])
    ]
    return float(np.mean(values))
