"""Computed flop and byte counts of the contraction kernels.

These are counted from array shapes, not measured.  Flops count two per
multiply-add of the contractions; elementwise work (``log1p`` and its
derivative) and the 125-offset scatter-add, which both strategies share,
are left out.  Bytes count, for every stage, its float64 input plus its
output, as if no stage found its input in cache.

Two strategies evaluate the same map:

* ``sep``: one mode product per factor, as the package does today;
* ``dense``: one GEMM with the 216x125 Kronecker product of the factors,
  after copying the sliding windows into contiguous memory.
"""

from __future__ import annotations

import math

WORD = 8


def chain(batch: int, dims: list[int], factors: list[tuple[int, int]], modes: list[int]) -> tuple[int, int]:
    """Flops and bytes of mode products applied in ``modes`` order.

    ``factors[m]`` is (rows, cols) and maps axis m from cols to rows.
    """
    flops = traffic = 0
    dims = list(dims)
    for m in modes:
        rows, cols = factors[m]
        size_in = batch * math.prod(dims)
        dims[m] = rows
        size_out = batch * math.prod(dims)
        flops += 2 * size_out * cols
        traffic += (size_in + size_out) * WORD
    return flops, traffic


def learning(T: int, patch: tuple[int, ...], shapes: list[tuple[int, int]]) -> dict[str, float]:
    """One analysis and one gradient of the learning cost over T patches."""
    n = list(patch)
    rows = math.prod(k for k, _ in shapes)
    cols = math.prod(n)
    order = list(range(len(shapes)))
    a_flops, a_bytes = chain(T, n, shapes, order)
    pointwise = 2 * T * rows * WORD
    g_flops, g_bytes = a_flops, a_bytes + pointwise
    for mode, (k, c) in enumerate(shapes):
        others = [m for m in order if m != mode]
        f, b = chain(T, n, shapes, others)
        partial = T * rows // k * c
        g_flops += f + 2 * T * rows * c
        g_bytes += b + (T * rows + partial + k * c) * WORD
    gemm = 2 * T * rows * cols
    gemm_bytes = (T * cols + T * rows + rows * cols) * WORD
    return {
        "learn_analyze_sep_mflop": a_flops / 1e6,
        "learn_analyze_dense_mflop": gemm / 1e6,
        "learn_analyze_sep_mib": a_bytes / 2**20,
        "learn_analyze_dense_mib": gemm_bytes / 2**20,
        "learn_grad_sep_mflop": g_flops / 1e6,
        "learn_grad_dense_mflop": 2 * gemm / 1e6,
        "learn_grad_sep_mib": g_bytes / 2**20,
        "learn_grad_dense_mib": (2 * gemm_bytes + pointwise) / 2**20,
    }


def recon_eval(volume: tuple[int, ...], patch: tuple[int, ...], shapes: list[tuple[int, int]]) -> dict[str, float]:
    """One regularizer evaluation (analysis, derivative, synthesis) over every patch."""
    P = math.prod(v - d + 1 for v, d in zip(volume, patch))
    n = list(patch)
    rows = math.prod(k for k, _ in shapes)
    cols = math.prod(n)
    order = list(range(len(shapes)))
    a_flops, a_bytes = chain(P, n, shapes, order)
    transposed = [(c, k) for k, c in shapes]
    s_flops, s_bytes = chain(P, [k for k, _ in shapes], transposed, order)
    pointwise = 2 * P * rows * WORD
    copy = 2 * P * cols * WORD
    gemm = 2 * P * rows * cols
    gemm_bytes = (P * cols + P * rows + rows * cols) * WORD
    return {
        "recon_eval_sep_mflop": (a_flops + s_flops) / 1e6,
        "recon_eval_dense_mflop": 2 * gemm / 1e6,
        "recon_eval_sep_mib": (a_bytes + pointwise + s_bytes) / 2**20,
        "recon_eval_dense_mib": (copy + 2 * gemm_bytes + pointwise) / 2**20,
    }


def computed(volume: tuple[int, ...]) -> dict[str, float]:
    """Counts at T=2000 for learning and at ``volume`` for reconstruction."""
    shapes = [(6, 5)] * 3
    patch = (5, 5, 5)
    return {**learning(2000, patch, shapes), **recon_eval(volume, patch, shapes)}
