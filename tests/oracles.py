"""Dense definitions that the tests check the package's multilinear algebra against.

The package never materializes a Kronecker product or unfolds a tensor; these
helpers state what its separable evaluations must equal.
:func:`extract_patch` is the per-patch definition of a training window, and
:func:`cosparsity` counts the near-zero analysis coefficients of a patch.
:func:`reconstruction_objective` gives the finite-difference oracles the
reconstruction objective and gradient that the solver evaluates.
"""

from __future__ import annotations

import math

import numpy as np

from sepop import reconstruct
from sepop.objective import sparsity_measure
from sepop.tensor import apply_separable


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
    return sparsity_measure(apply_separable(signal, factors), nu) ** 2


def reconstruction_objective(v, y, op, factors, cfg) -> tuple[float, np.ndarray]:
    """Cost and gradient of the reconstruction objective at ``v``, as the solver sees them."""
    cost, gradient = reconstruct._evaluate(np.asarray(v, dtype=float), y, op, factors, cfg)
    return cost, gradient()
