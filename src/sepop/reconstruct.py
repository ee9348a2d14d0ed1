"""Regularized volumetric reconstruction and image-quality metrics.

Solves the inverse problem: half the squared measurement residual plus a
patch-sparsity regularizer evaluated on every (strided) fully interior patch,
analyzed by the separable operator factors.  Optimization is nonlinear
conjugate gradient in the flat volume space with monotone Armijo backtracking.

The regularizer is evaluated over the whole volume at once: analyzing every
patch with the separable operator is a separable correlation
(:func:`sepop.tensor.correlate_separable`, one GEMM per mode), and its
adjoint is one GEMM per mode followed by a scatter-add over the patch
offsets.  Both are the same dot products, in the same order, as the
per-patch definition, so cost and gradient are bit-identical to it.

Two measurement models are provided: identity (denoising) and per-slice
centered unitary 2D Fourier sampling on a boolean mask (CS recovery).  Every
operator passes a randomized adjoint-consistency check at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from sepop.tensor import correlate_separable
from sepop.volume import Volume


@dataclass(frozen=True)
class ReconConfig:
    lam: float
    nu: float = 1000.0
    max_iters: int = 200
    grad_tol: float = 1e-4
    patch_stride: int = 1
    patch_dims: tuple[int, int, int] = (5, 5, 5)

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.nu <= 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.patch_stride < 1:
            raise ValueError("patch_stride must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


# ---------------------------------------------------------------------------
# Sampling masks

@dataclass
class SamplingMask:
    mask: np.ndarray  # boolean (h, w), identical across slices
    sampling_rate: float

    def __post_init__(self) -> None:
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {self.mask.shape}")
        h, w = self.mask.shape
        if not self.mask[h // 2, w // 2]:
            raise ValueError("mask must sample the DC bin")


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
    return SamplingMask(mask, float(mask.mean()))


def radial_mask_for_rate(h: int, w: int, rate: float) -> SamplingMask:
    """Smallest line count whose radial mask reaches the target rate."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must lie in (0, 1], got {rate}")
    num_lines = 1
    while True:
        m = radial_mask(h, w, num_lines)
        if m.sampling_rate >= rate:
            return m
        if m.sampling_rate >= 1.0 or num_lines > 4 * (h + w):
            return m
        num_lines += 1


def save_mask(m: SamplingMask, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"sepop-mask v1 rate {m.sampling_rate!r}\n")
        for row in m.mask.astype(int):
            fh.write("".join(str(v) for v in row) + "\n")


def load_mask(path: str) -> SamplingMask:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("sepop-mask v1 rate "):
        raise ValueError(f"{path}: not a sepop mask file")
    rate = float(lines[0].split()[-1])
    grid = np.array([[c == "1" for c in row] for row in lines[1:]], dtype=bool)
    return SamplingMask(grid, rate)


# ---------------------------------------------------------------------------
# Measurement operators

class MeasurementOp:
    """Linear map from volumes to measurement vectors, with exact adjoint."""

    kind = "abstract"

    def __init__(self, dims: tuple[int, int, int]):
        self.dims = tuple(int(d) for d in dims)
        self._check_adjoint()

    def forward(self, data: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, measurement: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_adjoint(self, trials: int = 3, tol: float = 1e-10) -> None:
        rng = np.random.default_rng(12345)
        for _ in range(trials):
            v = rng.standard_normal(self.dims)
            y = self.forward(v)
            m = rng.standard_normal(y.shape)
            if np.iscomplexobj(y):
                m = m + 1j * rng.standard_normal(y.shape)
            lhs = float(np.real(np.vdot(y, m)))
            rhs = float(np.sum(v * self.adjoint(m)))
            scale = max(abs(lhs), abs(rhs), 1.0)
            if abs(lhs - rhs) > tol * scale:
                raise AssertionError(
                    f"{self.kind} operator failed the adjoint test: "
                    f"{lhs!r} vs {rhs!r}"
                )


class IdentityMeasurement(MeasurementOp):
    """Direct voxel observation (denoising)."""

    kind = "identity"

    def forward(self, data: np.ndarray) -> np.ndarray:
        return np.asarray(data, dtype=float).ravel()

    def adjoint(self, measurement: np.ndarray) -> np.ndarray:
        return np.real(np.asarray(measurement)).reshape(self.dims)


class FourierMeasurement(MeasurementOp):
    """Per-slice centered unitary 2D DFT sampled on a shared mask.

    Slices are taken along the third axis; kept coefficients are stacked
    slice-major into one complex vector.
    """

    kind = "fourier"

    def __init__(self, dims: tuple[int, int, int], mask: SamplingMask):
        if mask.mask.shape != tuple(dims[:2]):
            raise ValueError(
                f"mask shape {mask.mask.shape} does not match slice dims {dims[:2]}"
            )
        self.mask = mask
        super().__init__(dims)

    def forward(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=float)
        keep = self.mask.mask
        spectrum = np.fft.fftshift(np.fft.fft2(data, axes=(0, 1), norm="ortho"), axes=(0, 1))
        # spectrum[keep] is (samples, slices); its transpose ravels slice-major.
        return spectrum[keep].T.ravel()

    def adjoint(self, measurement: np.ndarray) -> np.ndarray:
        keep = self.mask.mask
        per_slice = int(keep.sum())
        measurement = np.asarray(measurement)
        if measurement.size != per_slice * self.dims[2]:
            raise ValueError(
                f"measurement length {measurement.size} does not match "
                f"{per_slice} samples x {self.dims[2]} slices"
            )
        spectrum = np.zeros(self.dims, dtype=complex)
        spectrum[keep] = measurement.reshape(self.dims[2], per_slice).T
        image = np.fft.ifft2(np.fft.ifftshift(spectrum, axes=(0, 1)), axes=(0, 1), norm="ortho")
        return np.ascontiguousarray(image.real)


def save_measurement(y: np.ndarray, op: MeasurementOp, path: str, mask_ref: str = "") -> None:
    y = np.asarray(y, dtype=complex)
    with open(path + ".hdr", "w", encoding="utf-8") as fh:
        fh.write(
            f"sepop-measurement v1 kind {op.kind} dims "
            f"{op.dims[0]} {op.dims[1]} {op.dims[2]} count {y.size} "
            f"mask {mask_ref or '-'}\n"
        )
    pairs = np.empty((y.size, 2), dtype="<f8")
    pairs[:, 0] = y.real
    pairs[:, 1] = y.imag
    pairs.tofile(path)


def load_measurement(path: str) -> tuple[np.ndarray, dict[str, str]]:
    with open(path + ".hdr", "r", encoding="utf-8") as fh:
        tokens = fh.readline().split()
    if tokens[:2] != ["sepop-measurement", "v1"]:
        raise ValueError(f"{path}: not a sepop measurement file")
    meta = {
        "kind": tokens[3],
        "dims": " ".join(tokens[5:8]),
        "count": tokens[9],
        "mask": tokens[11],
    }
    pairs = np.fromfile(path, dtype="<f8")
    count = int(meta["count"])
    if pairs.size != 2 * count:
        raise ValueError(f"{path}: payload has {pairs.size} floats, header says {count} pairs")
    pairs = pairs.reshape(count, 2)
    return pairs[:, 0] + 1j * pairs[:, 1], meta


# ---------------------------------------------------------------------------
# Reconstruction objective and solver

def _patch_starts(size: int, patch: int, stride: int) -> int:
    return (size - patch) // stride + 1


def _objective_and_gradient(
    v: np.ndarray,
    y: np.ndarray,
    op: MeasurementOp,
    factors: list[np.ndarray],
    cfg: ReconConfig,
) -> tuple[float, np.ndarray]:
    residual = op.forward(v) - y
    data_term = 0.5 * float(np.real(np.vdot(residual, residual)))
    grad = op.adjoint(residual)

    d1, d2, d3 = cfg.patch_dims
    s = cfg.patch_stride
    # Normalization of the patch sum: the number of patches covering an
    # interior voxel, so the regularizer strength is independent of the
    # overlap produced by the stride.
    overlap = math.prod(-(-d // s) for d in cfg.patch_dims)
    weight = cfg.lam / overlap
    # (p1, p2, p3, k1, k2, k3): the coefficients of every strided patch.
    coeffs = correlate_separable(v, factors, s)
    p1, p2, p3 = coeffs.shape[:3]
    q = cfg.nu * coeffs
    q *= coeffs
    reg_term = weight * float(np.sum(np.log1p(q)))

    # d/dc log(1 + nu c^2) = 2 nu c / (1 + nu c^2), in place over the coefficients.
    q += 1.0
    coeffs *= 2.0 * cfg.nu
    coeffs /= q
    del q
    # Adjoint of the analysis, coefficient-major: after one transpose to
    # (k1, k2, k3, p1, p2, p3), mode i is F_i.T @ z batched over the patch
    # offsets already synthesized, leaving (d1, .., di, k(i+1), .., p1, p2, p3).
    # Every entry is the same k_i-term dot product as the per-patch adjoint.
    z = np.ascontiguousarray(np.moveaxis(coeffs, (3, 4, 5), (0, 1, 2)))
    del coeffs
    for mode, factor in enumerate(factors):
        factor = np.asarray(factor, dtype=float)
        z = factor.T @ z.reshape(math.prod(cfg.patch_dims[:mode]), len(factor), -1)
    z = z.reshape(cfg.patch_dims + (p1, p2, p3))
    reg_grad = np.zeros_like(v)
    for a, b, c in product(range(d1), range(d2), range(d3)):
        reg_grad[a : a + s * p1 : s, b : b + s * p2 : s, c : c + s * p3 : s] += z[a, b, c]
    del z
    grad = grad + weight * reg_grad
    return data_term + reg_term, grad


def reconstruction_objective(
    v: np.ndarray,
    y: np.ndarray,
    op: MeasurementOp,
    factors: list[np.ndarray],
    cfg: ReconConfig,
) -> float:
    return _objective_and_gradient(np.asarray(v, dtype=float), y, op, factors, cfg)[0]


def reconstruction_gradient(
    v: np.ndarray,
    y: np.ndarray,
    op: MeasurementOp,
    factors: list[np.ndarray],
    cfg: ReconConfig,
) -> np.ndarray:
    return _objective_and_gradient(np.asarray(v, dtype=float), y, op, factors, cfg)[1]


def reconstruct(
    y: np.ndarray,
    op: MeasurementOp,
    factors: list[np.ndarray],
    cfg: ReconConfig,
    trace: list[float] | None = None,
) -> Volume:
    """Minimize the data-fidelity plus patch-sparsity objective over volumes.

    Starts from the adjoint image (zero-filling for Fourier data); PR+
    nonlinear CG with monotone Armijo backtracking, so the recorded objective
    trace is non-increasing.
    """
    for mode, (factor, d) in enumerate(zip(factors, cfg.patch_dims, strict=True)):
        if np.asarray(factor).shape[1] != d:
            raise ValueError(
                f"factor for mode {mode} has {np.asarray(factor).shape[1]} "
                f"columns but patch dim is {d}"
            )
    v = op.adjoint(np.asarray(y))
    cost, grad = _objective_and_gradient(v, y, op, factors, cfg)
    if not math.isfinite(cost):
        raise ArithmeticError(f"non-finite reconstruction objective at start: {cost}")
    if trace is not None:
        trace.append(cost)

    tol = cfg.grad_tol * math.sqrt(v.size)
    direction = -grad
    prev_step = None
    for _ in range(cfg.max_iters):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            break
        dd = float(np.sum(direction * grad))
        if dd >= 0:
            direction = -grad
            dd = -gnorm * gnorm
        step = prev_step if prev_step is not None else 1.0 / max(gnorm, 1e-12)
        accepted = False
        for _trial in range(50):
            candidate = v + step * direction
            cand_cost, cand_grad = _objective_and_gradient(candidate, y, op, factors, cfg)
            if math.isfinite(cand_cost) and cand_cost <= cost + 1e-4 * step * dd:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        beta_num = float(np.sum(cand_grad * (cand_grad - grad)))
        beta = max(0.0, beta_num / (gnorm * gnorm))
        direction = -cand_grad + beta * direction
        v, cost, grad = candidate, cand_cost, cand_grad
        prev_step = step * 2.0
        if trace is not None:
            trace.append(cost)
    return Volume(v)


# ---------------------------------------------------------------------------
# Quality metrics

def psnr(ref: Volume, test: Volume, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB; identical volumes give ``inf``."""
    if ref.data.shape != test.data.shape:
        raise ValueError(f"shape mismatch: {ref.data.shape} vs {test.data.shape}")
    mse = float(np.mean((ref.data - test.data) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


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


def mssim(ref: Volume, test: Volume, peak: float = 255.0) -> float:
    """Mean SSIM over fully interior 11x11 Gaussian windows, then over slices."""
    if ref.data.shape != test.data.shape:
        raise ValueError(f"shape mismatch: {ref.data.shape} vs {test.data.shape}")
    h, w, depth = ref.data.shape
    if h < 11 or w < 11:
        raise ValueError(f"slices must be at least 11x11 for SSIM, got {h}x{w}")
    window = _gaussian_window()
    values = [
        _ssim_slice(ref.data[:, :, k], test.data[:, :, k], window, peak)
        for k in range(depth)
    ]
    return float(np.mean(values))
