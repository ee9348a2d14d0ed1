"""Frozen definitions of the learning and reconstruction objectives, as test oracles.

``objective_and_gradient`` analyzes each strided 5x5x5 window of the volume
with three ``tensordot`` mode products and synthesizes the gradient the same
way, patch by patch: the regularizer exactly as it is defined.
``SliceFourierMeasurement`` transforms one slice at a time.  The package
evaluates both in vectorized form (a separable correlation over the whole
volume, one FFT over all slices); the tests require its results to equal
these bit for bit, so that the solver follows the same trajectory.

``learning_cost`` and ``learning_gradient`` evaluate the learning cost
without any shared work: each analyzes the batch itself, and the gradient
applies the other factors afresh for every mode.  The package's versions,
whether the cost and the gradient share one analysis or each computes its
own, must equal these bit for bit.  The barrier terms are the package's own.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from sepop.objective import (
    coherence_penalty,
    coherence_penalty_gradient,
    rank_penalty,
    rank_penalty_gradient,
)
from sepop.reconstruct import FourierMeasurement


def analyze_batch(patches, factors):
    coeffs = np.asarray(patches, dtype=float)
    for mode, factor in enumerate(factors):
        coeffs = np.tensordot(coeffs, np.asarray(factor, dtype=float), axes=([mode + 1], [1]))
        coeffs = np.ascontiguousarray(np.moveaxis(coeffs, -1, mode + 1))
    return coeffs


def learning_cost(factors, patches, params):
    coeffs = analyze_batch(patches, factors)
    axes = tuple(range(1, coeffs.ndim))
    per_sample = np.sum(np.log1p(params.nu * coeffs * coeffs), axis=axes)
    cost = float(np.mean(per_sample**2))
    if params.kappa > 0:
        cost += params.kappa * sum(rank_penalty(f) for f in factors)
    if params.mu > 0:
        cost += params.mu * sum(coherence_penalty(f) for f in factors)
    return cost


def learning_gradient(factors, patches, params):
    patches = np.asarray(patches, dtype=float)
    count = patches.shape[0]
    coeffs = analyze_batch(patches, factors)
    axes = tuple(range(1, coeffs.ndim))
    per_sample = np.sum(np.log1p(params.nu * coeffs * coeffs), axis=axes)
    scale = (2.0 * per_sample).reshape((count,) + (1,) * (coeffs.ndim - 1))
    weighted = scale * (2.0 * params.nu * coeffs / (1.0 + params.nu * coeffs * coeffs))

    grads = []
    for mode in range(len(factors)):
        partial = patches
        for other, factor in enumerate(factors):
            if other == mode:
                continue
            partial = np.moveaxis(
                np.tensordot(partial, np.asarray(factor, dtype=float), axes=([other + 1], [1])),
                -1,
                other + 1,
            )
        w_mat = np.moveaxis(weighted, mode + 1, 1).reshape(count, weighted.shape[mode + 1], -1)
        p_mat = np.moveaxis(partial, mode + 1, 1).reshape(count, partial.shape[mode + 1], -1)
        grad = np.einsum("tkr,tnr->kn", w_mat, p_mat) / count
        if params.kappa > 0:
            grad = grad + params.kappa * rank_penalty_gradient(factors[mode])
        if params.mu > 0:
            grad = grad + params.mu * coherence_penalty_gradient(factors[mode])
        grads.append(grad)
    return grads


def objective_and_gradient(v, y, op, factors, cfg):
    residual = op.forward(v) - y
    data_term = 0.5 * float(np.real(np.vdot(residual, residual)))
    grad = op.adjoint(residual)

    d1, d2, d3 = cfg.patch_dims
    s = cfg.patch_stride
    windows = np.lib.stride_tricks.sliding_window_view(v, cfg.patch_dims)[::s, ::s, ::s]
    p1, p2, p3 = windows.shape[:3]
    overlap = math.prod(-(-d // s) for d in cfg.patch_dims)
    coeffs = windows
    for mode, factor in enumerate(factors):
        coeffs = np.moveaxis(
            np.tensordot(coeffs, np.asarray(factor, dtype=float), axes=([mode + 3], [1])),
            -1,
            mode + 3,
        )
    weight = cfg.lam / overlap
    reg_term = weight * float(np.sum(np.log1p(cfg.nu * coeffs * coeffs)))

    dcoeffs = 2.0 * cfg.nu * coeffs / (1.0 + cfg.nu * coeffs * coeffs)
    dpatch = dcoeffs
    for mode, factor in enumerate(factors):
        dpatch = np.moveaxis(
            np.tensordot(dpatch, np.asarray(factor, dtype=float).T, axes=([mode + 3], [1])),
            -1,
            mode + 3,
        )
    reg_grad = np.zeros_like(v)
    for a, b, c in product(range(d1), range(d2), range(d3)):
        reg_grad[a : a + s * p1 : s, b : b + s * p2 : s, c : c + s * p3 : s] += dpatch[
            :, :, :, a, b, c
        ]
    grad = grad + weight * reg_grad
    return data_term + reg_term, grad


class SliceFourierMeasurement(FourierMeasurement):
    """The per-slice centered 2D DFT, one ``fft2`` call per slice."""

    def forward(self, data):
        data = np.asarray(data, dtype=float)
        keep = self.mask.mask
        out = []
        for k in range(self.dims[2]):
            spectrum = np.fft.fftshift(np.fft.fft2(data[:, :, k], norm="ortho"))
            out.append(spectrum[keep])
        return np.concatenate(out)

    def adjoint(self, measurement):
        keep = self.mask.mask
        per_slice = int(keep.sum())
        measurement = np.asarray(measurement)
        out = np.empty(self.dims, dtype=float)
        for k in range(self.dims[2]):
            spectrum = np.zeros(keep.shape, dtype=complex)
            spectrum[keep] = measurement[k * per_slice : (k + 1) * per_slice]
            out[:, :, k] = np.real(np.fft.ifft2(np.fft.ifftshift(spectrum), norm="ortho"))
        return out
