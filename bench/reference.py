"""Frozen reference kernels that gauge the machine's speed during a run.

A shared virtual machine runs the same code at speeds that drift by 15 to
50 % over seconds to minutes, with no steal time: the host's other tenants
slow the vCPU's caches and memory, not its share of time.  The drift
moves the median command time between runs more than any bound a
regression check could use.  So ``worker.py`` times one of these kernels
between every two commands and divides each command's time by the mean of
the reference times on either side of it.

Each kernel is a copy of the package's hot path as it stood when the
benchmark was defined, held here so that no later change to ``src/`` moves
it: the learning cost and gradient for ``learn``, and the reconstruction
objective and gradient (regularizer, plus the per-slice FFT pair for
``cs``) for ``denoise`` and ``cs``.  It therefore slows down with the
machine the way the command does, while a change to the package moves the
command and not the reference.  The tracking holds for user-space work
only, which is why ``run.py`` keeps glibc from returning freed memory to
the kernel: with that, over a 100 s `cs` process whose raw command times
ranged from 1.0 to 1.7 s, the scaled medians of its four quarters agreed
within 1.5 %.

``NOMINAL_S`` is the median time of one reference measurement on a 2-vCPU
Intel Xeon VM with one BLAS thread and those allocator settings; ``wall_s``
is reported as command time over reference time, times this constant, so
it reads as seconds at that machine's usual speed.
"""

from __future__ import annotations

import time
from itertools import product

import numpy as np

NU = 1e4
PATCH = (5, 5, 5)
SHAPES = [(6, 5)] * 3
T = 2000


def _unit_rows(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    f = rng.standard_normal(shape)
    return f / np.linalg.norm(f, axis=1, keepdims=True)


def _analyze(patches: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    out = patches
    for mode, factor in enumerate(factors):
        out = np.moveaxis(np.tensordot(out, factor, axes=([mode + 1], [1])), -1, mode + 1)
    return out


def learning_step(patches: np.ndarray, factors: list[np.ndarray]) -> float:
    """One learning cost and one Euclidean gradient, without the barriers."""
    count = patches.shape[0]
    axes = tuple(range(1, patches.ndim))
    coeffs = _analyze(patches, factors)
    cost = float(np.mean(np.sum(np.log1p(NU * coeffs * coeffs), axis=axes) ** 2))
    coeffs = _analyze(patches, factors)
    per_sample = np.sum(np.log1p(NU * coeffs * coeffs), axis=axes)
    scale = (2.0 * per_sample).reshape((count,) + (1,) * (coeffs.ndim - 1))
    weighted = scale * (2.0 * NU * coeffs / (1.0 + NU * coeffs * coeffs))
    for mode in range(len(factors)):
        partial = patches
        for other, factor in enumerate(factors):
            if other != mode:
                partial = np.moveaxis(
                    np.tensordot(partial, factor, axes=([other + 1], [1])), -1, other + 1
                )
        w_mat = np.moveaxis(weighted, mode + 1, 1).reshape(count, weighted.shape[mode + 1], -1)
        p_mat = np.moveaxis(partial, mode + 1, 1).reshape(count, partial.shape[mode + 1], -1)
        cost += float(np.einsum("tkr,tnr->kn", w_mat, p_mat).sum()) / count
    return cost


def recon_step(v: np.ndarray, factors: list[np.ndarray], keep: np.ndarray | None) -> float:
    """One reconstruction objective and gradient; ``keep`` adds the FFT pair."""
    grad = np.zeros_like(v)
    if keep is not None:
        per_slice = int(keep.sum())
        meas = np.concatenate(
            [np.fft.fftshift(np.fft.fft2(v[:, :, k], norm="ortho"))[keep] for k in range(v.shape[2])]
        )
        for k in range(v.shape[2]):
            spectrum = np.zeros(keep.shape, dtype=complex)
            spectrum[keep] = meas[k * per_slice : (k + 1) * per_slice]
            grad[:, :, k] = np.real(np.fft.ifft2(np.fft.ifftshift(spectrum), norm="ortho"))
    windows = np.lib.stride_tricks.sliding_window_view(v, PATCH)
    p1, p2, p3 = windows.shape[:3]
    coeffs = windows
    for mode, factor in enumerate(factors):
        coeffs = np.moveaxis(np.tensordot(coeffs, factor, axes=([mode + 3], [1])), -1, mode + 3)
    cost = float(np.sum(np.log1p(NU * coeffs * coeffs)))
    dpatch = 2.0 * NU * coeffs / (1.0 + NU * coeffs * coeffs)
    for mode, factor in enumerate(factors):
        dpatch = np.moveaxis(np.tensordot(dpatch, factor.T, axes=([mode + 3], [1])), -1, mode + 3)
    reg = np.zeros_like(v)
    for a, b, c in product(*(range(d) for d in PATCH)):
        reg[a : a + p1, b : b + p2, c : c + p3] += dpatch[:, :, :, a, b, c]
    grad += reg
    return cost + float(np.sum(grad))


class Reference:
    """A fixed amount of frozen work for one workload, on seeded inputs."""

    def __init__(self, workload: str, dims: tuple[int, int, int]):
        rng = np.random.default_rng(20140606)
        self.factors = [_unit_rows(rng, shape) for shape in SHAPES]
        if workload == "learn":
            patches = rng.standard_normal((T, *PATCH)) * 40.0
            self.step = lambda: learning_step(patches, self.factors)
        else:
            volume = rng.uniform(0.0, 255.0, dims)
            keep = None
            if workload == "cs":
                keep = rng.random(dims[:2]) < 0.6
            self.step = lambda: recon_step(volume, self.factors, keep)
        self.reps = REPS[workload]

    def time(self) -> float:
        """Seconds of one reference measurement."""
        t0 = time.perf_counter()
        for _ in range(self.reps):
            self.step()
        return time.perf_counter() - t0


# Steps per measurement: about a seventh of one command of the workload.
REPS = {"learn": 6, "denoise": 2, "cs": 10}
NOMINAL_S = {"learn": 0.21, "denoise": 0.33, "cs": 0.18}


def scaled(durations: list[float], refs: list[float], nominal_s: float) -> list[float]:
    """Each duration over the mean of the reference times around it, times ``nominal_s``.

    ``refs`` has one more entry than ``durations``: ``refs[i]`` was taken
    just before command i and ``refs[i + 1]`` just after it.
    """
    if len(refs) != len(durations) + 1:
        raise ValueError(f"{len(durations)} commands need {len(durations) + 1} reference times, got {len(refs)}")
    return [nominal_s * d * 2.0 / (refs[i] + refs[i + 1]) for i, d in enumerate(durations)]
