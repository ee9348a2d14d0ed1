"""Frozen per-patch definition of the reconstruction objective, as a test oracle.

``objective_and_gradient`` analyzes each strided 5x5x5 window of the volume
with three ``tensordot`` mode products and synthesizes the gradient the same
way, patch by patch: the regularizer exactly as it is defined.
``SliceFourierMeasurement`` transforms one slice at a time.  The package
evaluates both in vectorized form (a separable correlation over the whole
volume, one FFT over all slices); the tests require its results to equal
these bit for bit, so that the solver follows the same trajectory.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from sepop.reconstruct import FourierMeasurement


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
