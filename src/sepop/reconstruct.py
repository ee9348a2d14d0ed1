"""Regularized volumetric reconstruction and image-quality metrics.

Solves the inverse problem: half the squared measurement residual plus a
patch-sparsity regularizer evaluated on every fully interior patch, analyzed
by the separable operator factors.  The solver is the package's
conjugate gradient (:mod:`sepop.cg`) in its flat geometry, which carries the
line-search rule (monotone Armijo backtracking, 50 trials); the gradient is
computed only at the points it moves to.

Analyzing every patch with the separable operator is a separable
correlation (:func:`sepop.tensor.correlate_separable`), and the cost sums
the penalty over its coefficients (:func:`sepop.objective.sparsity_measure`);
the gradient applies the correlation's adjoint
(:func:`sepop.tensor.correlate_separable_adjoint`).  Both are the same dot
products, in the same order, as the per-patch definition, so cost and
gradient are bit-identical to it.  The penalty on the coefficients, its sum
and its derivative, is the learning cost's, from :mod:`sepop.objective`.

Two measurement models are provided: identity (denoising) and per-slice
centered unitary 2D Fourier sampling on a boolean mask (CS recovery), which
transforms all slices in one slice-major ``fft2`` and reads the mask's bins
unshifted.  Every operator passes a randomized adjoint-consistency check at
construction.

MSSIM blurs its slices itself, one in-plane axis at a time as a sum of
weighted shifted slices; it does not use the separable kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from sepop import cg
from sepop.objective import check_nu, sparsity_gradient, sparsity_measure
from sepop.tensor import correlate_separable, correlate_separable_adjoint, window_grid
from sepop.volume import Volume


@dataclass(frozen=True)
class ReconConfig:
    lam: float
    nu: float = 1000.0
    max_iters: int = 200
    patch_dims: tuple[int, int, int] = (5, 5, 5)
    # Patches start at every voxel.  Not a field: only the benchmark's patch count
    # (bench/instrument.py) reads it, and it goes with patch_dims at the next benchmark change.
    patch_stride: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        check_nu(self.nu)
        cg.SolverConfig(max_iters=self.max_iters)  # the iteration cap's owner checks it


# ---------------------------------------------------------------------------
# Sampling masks

@dataclass
class SamplingMask:
    mask: np.ndarray  # boolean (h, w), identical across slices

    def __post_init__(self) -> None:
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {self.mask.shape}")
        h, w = self.mask.shape
        if not self.mask[h // 2, w // 2]:
            raise ValueError("mask must sample the DC bin")

    @property
    def sampling_rate(self) -> float:
        return float(self.mask.mean())


def radial_mask(h: int, w: int, num_lines: int) -> SamplingMask:
    """Union of ``num_lines`` digital lines through the centered DC bin.

    Angles are equally spaced in [0, pi).  Points are added together with
    their 180-degree mirror about DC so the in-grid pattern is symmetric.
    """
    if h < 4 or w < 4:
        raise ValueError(f"mask grid must be at least 4x4, got {h}x{w}")
    if num_lines < 1:
        raise ValueError("num_lines must be at least 1")
    cy, cx = h // 2, w // 2
    mask = np.zeros((h, w), dtype=bool)
    mask[cy, cx] = True
    half_diag = math.hypot(h, w) / 2.0
    steps = np.arange(0.0, half_diag + 1.0, 0.5)
    thetas = [math.pi * i / num_lines for i in range(num_lines)]
    # One row per line, one column per step; np.rint rounds half to even, like round.
    r = cy + np.rint(np.outer([math.sin(theta) for theta in thetas], steps)).astype(int)
    c = cx + np.rint(np.outer([math.cos(theta) for theta in thetas], steps)).astype(int)
    rm, cm = 2 * cy - r, 2 * cx - c
    inside = (0 <= r) & (r < h) & (0 <= c) & (c < w) & (0 <= rm) & (rm < h) & (0 <= cm) & (cm < w)
    mask[np.concatenate([r[inside], rm[inside]]), np.concatenate([c[inside], cm[inside]])] = True
    return SamplingMask(mask)


def radial_mask_for_rate(h: int, w: int, rate: float) -> SamplingMask:
    """Smallest line count whose radial mask reaches the target rate.

    Masks of up to 4 (h + w) + 1 lines are tried.  A rate that none of them
    reaches is refused with a ``ValueError`` naming the highest rate reached: on
    an even grid, row 0 and column 0 are never sampled, as their mirror about
    DC falls outside the grid.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must lie in (0, 1], got {rate}")
    highest = 0.0
    for num_lines in range(1, 4 * (h + w) + 2):
        m = radial_mask(h, w, num_lines)
        if m.sampling_rate >= rate:
            return m
        highest = max(highest, m.sampling_rate)
    raise ValueError(
        f"rate {rate} is not reached by any radial mask on a {h}x{w} grid; "
        f"the highest rate reached is {highest}"
    )


# ---------------------------------------------------------------------------
# Measurement operators

class MeasurementOp:
    """Linear map from volumes to measurement vectors, with exact adjoint."""

    def __init__(self, dims: tuple[int, int, int]):
        self.dims = tuple(int(d) for d in dims)
        self._check_adjoint()

    def forward(self, data: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, measurement: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_adjoint(self) -> None:
        rng = np.random.default_rng(12345)
        for _ in range(3):
            v = rng.standard_normal(self.dims)
            y = self.forward(v)
            m = rng.standard_normal(y.shape)
            if np.iscomplexobj(y):
                m = m + 1j * rng.standard_normal(y.shape)
            lhs = float(np.real(np.vdot(y, m)))
            rhs = float(np.sum(v * self.adjoint(m)))
            if abs(lhs - rhs) > 1e-10 * max(abs(lhs), abs(rhs), 1.0):
                raise AssertionError(
                    f"{type(self).__name__} failed the adjoint test: {lhs!r} vs {rhs!r}"
                )


class IdentityMeasurement(MeasurementOp):
    """Direct voxel observation (denoising)."""

    def forward(self, data: np.ndarray) -> np.ndarray:
        return np.asarray(data, dtype=float).ravel()

    def adjoint(self, measurement: np.ndarray) -> np.ndarray:
        return np.real(np.asarray(measurement)).reshape(self.dims)


class FourierMeasurement(MeasurementOp):
    """Per-slice centered unitary 2D DFT sampled on a shared mask.

    Slices are taken along the third axis; kept coefficients are stacked
    slice-major into one complex vector, each slice's in the mask's row-major
    order.  The mask marks bins of the fftshifted (centered) spectrum; the
    operator maps them once, at construction, to the unshifted bins
    ``((r - h//2) % h, (c - w//2) % w)`` that ``fft2`` returns, and transforms
    a slice-major copy of the volume, so no spectrum is shifted.
    """

    def __init__(self, dims: tuple[int, int, int], mask: SamplingMask):
        if mask.mask.shape != tuple(dims[:2]):
            raise ValueError(f"mask shape {mask.mask.shape} does not match slice dims {dims[:2]}")
        h, w = mask.mask.shape
        rows, cols = np.nonzero(mask.mask)
        self._bins = ((rows - h // 2) % h, (cols - w // 2) % w)
        super().__init__(dims)

    def forward(self, data: np.ndarray) -> np.ndarray:
        slices = np.ascontiguousarray(np.moveaxis(np.asarray(data, dtype=float), 2, 0))
        spectra = np.fft.fft2(slices, axes=(1, 2), norm="ortho")
        return spectra[(slice(None), *self._bins)].ravel()

    def adjoint(self, measurement: np.ndarray) -> np.ndarray:
        per_slice = len(self._bins[0])
        measurement = np.asarray(measurement)
        if measurement.size != per_slice * self.dims[2]:
            raise ValueError(
                f"measurement length {measurement.size} does not match "
                f"{per_slice} samples x {self.dims[2]} slices"
            )
        spectra = np.zeros((self.dims[2], *self.dims[:2]), dtype=complex)
        spectra[(slice(None), *self._bins)] = measurement.reshape(self.dims[2], per_slice)
        slices = np.fft.ifft2(spectra, axes=(1, 2), norm="ortho")
        return np.ascontiguousarray(np.moveaxis(slices.real, 0, 2))


# ---------------------------------------------------------------------------
# Reconstruction objective and solver

def _evaluate(
    v: np.ndarray,
    y: np.ndarray,
    op: MeasurementOp,
    factors: list[np.ndarray],
    cfg: ReconConfig,
) -> tuple[float, Callable[[], np.ndarray]]:
    """The objective at ``v`` and a callable for its gradient there.

    The gradient takes over the residual and the analysis coefficients that
    the cost computed, so it can be called once; it overwrites the
    coefficients with the penalty's derivative and frees them as soon as it
    has used them.  The cost is two calls, the analysis and then the sum of
    the penalty over it, and neither it nor the gradient holds a second
    coefficient-sized array: the analysis fills the coefficients one slab at
    a time, and the penalty's sum and derivative work through the flat
    coefficients one chunk at a time, both of :data:`sepop.tensor.BLOCK_BYTES`.
    """
    residual = op.forward(v) - y
    data_term = 0.5 * float(np.real(np.vdot(residual, residual)))

    # Normalization of the patch sum: the number of patches covering an
    # interior voxel.
    weight = cfg.lam / math.prod(cfg.patch_dims)
    coeffs = correlate_separable(v, factors)
    reg_term = weight * sparsity_measure(coeffs, cfg.nu)
    state = [residual, coeffs]

    def gradient() -> np.ndarray:
        residual, coeffs = state
        state.clear()
        grad = op.adjoint(residual)
        sparsity_gradient(coeffs, cfg.nu)
        reg_grad = correlate_separable_adjoint(coeffs, factors, v.shape)
        del coeffs
        return grad + weight * reg_grad

    return data_term + reg_term, gradient


def reconstruct(
    y: np.ndarray,
    op: MeasurementOp,
    factors: list[np.ndarray],
    cfg: ReconConfig,
    trace: list[float] | None = None,
) -> Volume:
    """Minimize the data-fidelity plus patch-sparsity objective over volumes.

    Starts from the adjoint image (zero-filling for Fourier data), refused with a ``ValueError``
    if a term or its gradient's norm is not finite there, and runs the package's conjugate
    gradient for ``cfg.max_iters`` iterations at most in :data:`sepop.cg.FLAT`, whose line search
    is monotone Armijo backtracking, so the objective values appended to ``trace`` (one per
    iterate, the first at the start) never increase.
    """
    factors, _origins = window_grid(factors, op.dims)
    if (windows := tuple(f.shape[1] for f in factors)) != tuple(cfg.patch_dims):
        raise ValueError(f"factor windows {windows} differ from the patch dims {cfg.patch_dims}")
    solver = cg.SolverConfig(max_iters=cfg.max_iters)
    start = op.adjoint(np.asarray(y))
    try:
        v, report = cg.minimize(lambda x: _evaluate(x, y, op, factors, cfg), start, solver, cg.FLAT)
    except ArithmeticError:  # the solver refuses the start: name the term
        cost, gradient = _evaluate(start, y, op, factors, cfg)
        if math.isfinite(cost + cg.FLAT.norm(gradient())):
            raise
        residual = op.forward(start) - y
        term = "regularizer" if math.isfinite(np.vdot(residual, residual).real) else "data"
        raise ValueError(f"the {term} term or its gradient's norm is not finite at the start, "
                         f"lam {cfg.lam}, nu {cfg.nu}")
    if trace is not None:
        trace.extend(report.costs)
    return Volume(v)


# ---------------------------------------------------------------------------
# Quality metrics

def psnr(ref: Volume, test: Volume) -> float:
    """Peak signal-to-noise ratio in dB, the peak being the reference's intensity range;
    identical volumes give ``inf``, and squared differences that overflow a ``ValueError``."""
    if ref.data.shape != test.data.shape:
        raise ValueError(f"shape mismatch: {ref.data.shape} vs {test.data.shape}")
    mse = float(np.mean((ref.data - test.data) ** 2))
    if mse == 0.0:
        return math.inf
    if not math.isfinite(mse):
        raise ValueError("PSNR overflows: the squared differences exceed the float64 range")
    lo, hi = ref.intensity_range
    return 10.0 * math.log10((hi - lo) * (hi - lo) / mse)


_SSIM_WINDOW = 11
# The normalized 1-D Gaussian, sigma 1.5 (2 sigma^2 = 4.5); its outer product with itself
# is the SSIM window.
_SSIM_TAPS = np.exp(-((np.arange(_SSIM_WINDOW) - (_SSIM_WINDOW - 1) / 2.0) ** 2) / 4.5)
_SSIM_TAPS /= _SSIM_TAPS.sum()


def check_mssim_dims(dims: tuple[int, ...]) -> None:
    """Refuse volumes whose slices are smaller than the 11x11 SSIM window,
    so a command that reports MSSIM can do so before its work starts."""
    h, w = dims[:2]
    if h < _SSIM_WINDOW or w < _SSIM_WINDOW:
        raise ValueError(
            f"slices must be at least {_SSIM_WINDOW}x{_SSIM_WINDOW} for SSIM, got {h}x{w}"
        )


def _blur(a: np.ndarray) -> np.ndarray:
    """Every slice of (slices, h, w) correlated with the SSIM window, fully interior
    windows only: per in-plane axis, the 11 weighted shifted slices summed into one
    output (the window is symmetric, so correlation equals convolution)."""
    for axis in (1, 2):
        m = a.shape[axis] - _SSIM_WINDOW + 1
        shifted = [a[(slice(None),) * axis + (slice(j, j + m),)] for j in range(_SSIM_WINDOW)]
        out = shifted[0] * _SSIM_TAPS[0]
        term = np.empty_like(out)
        for tap, part in zip(_SSIM_TAPS[1:], shifted[1:]):
            out += np.multiply(part, tap, out=term)
        a = out
    return a


def mssim(ref: Volume, test: Volume) -> float:
    """Mean SSIM over fully interior 11x11 Gaussian windows, then over slices;
    the constants scale with the reference's intensity range.

    The window is separable, so every slice is blurred at once, one in-plane
    axis at a time (:func:`_blur`).
    """
    if ref.data.shape != test.data.shape:
        raise ValueError(f"shape mismatch: {ref.data.shape} vs {test.data.shape}")
    check_mssim_dims(ref.dims)
    lo, hi = ref.intensity_range
    c1 = (0.01 * (hi - lo)) ** 2
    c2 = (0.03 * (hi - lo)) ** 2
    x = np.moveaxis(ref.data, 2, 0)
    y = np.moveaxis(test.data, 2, 0)
    mu_x, mu_y = _blur(x), _blur(y)
    xx = _blur(x * x) - mu_x * mu_x
    yy = _blur(y * y) - mu_y * mu_y
    xy = _blur(x * y) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * xy + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (xx + yy + c2)
    value = float(np.mean(np.mean(num / den, axis=(1, 2))))
    if not math.isfinite(value):  # den >= c1 * c2 > 0, so only an overflow makes it so
        raise ValueError("MSSIM overflows: the squared values exceed the float64 range")
    return value
