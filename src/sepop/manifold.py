"""Geometry of unit-row-norm matrices (the oblique manifold) and its product.

A point is a k x n matrix whose rows all have unit Euclidean norm; an operator
factor additionally has k >= n.  A tangent vector at a point has each row
orthogonal to the corresponding row of the base point; projecting onto that
space is also how :data:`sepop.cg.OBLIQUE` transports.  Product-manifold
operations act factor-wise on lists of points/tangents.
"""

from __future__ import annotations

import math

import numpy as np

ROW_NORM_TOL = 1e-12


class DegenerateStepError(RuntimeError):
    """A retraction step produced a (near-)zero row that cannot be normalized."""


def check_factor(matrix: np.ndarray) -> np.ndarray:
    """Validate a factor: 2-D, k >= n, unit-norm rows. Returns the array."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"factor must be 2-D, got shape {matrix.shape}")
    k, n = matrix.shape
    if k < n:
        raise ValueError(f"factor must be tall (k >= n), got {k}x{n}")
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(np.abs(norms - 1.0) > ROW_NORM_TOL):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise ValueError(f"factor rows must have unit norm (worst deviation {worst:.3e})")
    return matrix


def project_tangent(base: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Project ``direction`` onto the tangent space at ``base`` row-wise."""
    base = np.asarray(base, dtype=float)
    direction = np.asarray(direction, dtype=float)
    if direction.shape != base.shape:
        raise ValueError(
            f"shape mismatch: base {base.shape} vs direction {direction.shape}"
        )
    radial = np.sum(direction * base, axis=1, keepdims=True)
    return direction - radial * base


def retract(base: np.ndarray, tangent: np.ndarray, step: float) -> np.ndarray:
    """Step from ``base`` along ``tangent`` and renormalize each row."""
    base = np.asarray(base, dtype=float)
    tangent = np.asarray(tangent, dtype=float)
    if tangent.shape != base.shape:
        raise ValueError(f"shape mismatch: base {base.shape} vs tangent {tangent.shape}")
    if not math.isfinite(step):
        raise ValueError(f"step size must be finite, got {step}")
    stepped = base + step * tangent
    norms = np.linalg.norm(stepped, axis=1, keepdims=True)
    if np.any(norms < 1e-14):
        raise DegenerateStepError(
            f"retraction step {step} produced a near-zero row (min norm "
            f"{float(norms.min()):.3e})"
        )
    return stepped / norms


def inner(x: np.ndarray, y: np.ndarray) -> float:
    """Frobenius inner product of two same-shape tangent vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(np.sum(x * y))


def random_factor(k: int, n: int, rng: np.random.Generator | int) -> np.ndarray:
    """Gaussian rows normalized to unit length; deterministic given the seed."""
    if k < n:
        raise ValueError(f"need k >= n, got {k}x{n}")
    rng = np.random.default_rng(rng)
    rows = rng.standard_normal((k, n))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# Product-manifold helpers: a product point is a list of factors, a product
# tangent a list of same-shaped matrices.

def product_project(point: list[np.ndarray], direction: list[np.ndarray]) -> list[np.ndarray]:
    return [project_tangent(p, d) for p, d in zip(point, direction, strict=True)]


def product_retract(point: list[np.ndarray], tangent: list[np.ndarray], step: float) -> list[np.ndarray]:
    return [retract(p, t, step) for p, t in zip(point, tangent, strict=True)]


def product_inner(x: list[np.ndarray], y: list[np.ndarray]) -> float:
    return sum(inner(a, b) for a, b in zip(x, y, strict=True))


def product_norm(x: list[np.ndarray]) -> float:
    return math.sqrt(product_inner(x, x))


def random_point(shapes: list[tuple[int, int]], rng: np.random.Generator | int) -> list[np.ndarray]:
    rng = np.random.default_rng(rng)
    return [random_factor(k, n, rng) for k, n in shapes]
