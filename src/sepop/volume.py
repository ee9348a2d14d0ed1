"""Volumetric data: file I/O, synthetic phantoms, noise, training-patch sampling.

Volumes are order-3 float arrays with an intensity-range annotation.  The
``.vol`` file format is raw little-endian float64 in row-major order with a
JSON sidecar header (``<name>.vol.json``); see docs/formats.md.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Volume:
    data: np.ndarray
    intensity_range: tuple[float, float] = (0.0, 255.0)

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 3:
            raise ValueError(f"volume must be order 3, got shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("volume contains non-finite values")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass
class TrainingSet:
    """A batch of same-sized, normalized patches.

    ``meta["draws"]`` is the number of windows drawn to obtain them.
    """

    patches: np.ndarray  # (T, d1, d2, d3)
    meta: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return self.patches.shape[0]


def build_training_set(
    vol: Volume,
    count: int,
    patch_dims: tuple[int, int, int],
    flat_tol: float = 1.0,
    seed: int = 0,
) -> TrainingSet:
    """Sample ``count`` non-flat patches at uniform random centers.

    Each draw takes one center per axis from ``default_rng(seed)``, in axis
    order; a window centered there (even dims extend one voxel less on the
    high side) lies wholly inside the volume.  Patches with standard
    deviation <= ``flat_tol`` are rejected and redrawn (sampling with
    replacement).  Accepted patches are mean-subtracted and scaled to unit
    Frobenius norm.  After ``100 * count`` draws without enough patches the
    volume is refused with a ``ValueError`` naming the counts.

    Draws are made and tested in batches, no larger than the number of
    patches still missing, so ``meta["draws"]`` counts the draws up to the
    last accepted one exactly as a draw-by-draw loop would.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    patch_dims = tuple(patch_dims)
    if any(d < 1 for d in patch_dims):
        raise ValueError(f"patch dims must be positive, got {patch_dims}")
    data = vol.data
    if any(d > sz for sz, d in zip(data.shape, patch_dims, strict=True)):
        raise ValueError(f"volume {data.shape} too small for patches {patch_dims}")

    # Window starts range over [0, size - d]: the same number of values as
    # the centers, so each draw consumes the generator as a center would.
    windows = np.lib.stride_tricks.sliding_window_view(data, patch_dims)
    rng = np.random.default_rng(seed)
    patches = np.empty((count,) + patch_dims, dtype=float)
    axes = tuple(range(1, len(patch_dims) + 1))
    accepted = 0
    draws = 0
    limit = 100 * count
    while accepted < count:
        if draws >= limit:
            raise ValueError(
                f"flatness rejection too severe: {accepted} of {count} patches "
                f"accepted after {draws} draws (flat_tol={flat_tol})"
            )
        batch = min(count - accepted, limit - draws)
        starts = rng.integers(0, windows.shape[: len(patch_dims)], size=(batch, len(patch_dims)))
        candidates = windows[tuple(starts.T)]
        flat = candidates.std(axis=axes) <= flat_tol
        keep = np.flatnonzero(~flat)[: count - accepted]
        draws += batch if accepted + len(keep) < count else int(keep[-1]) + 1
        chosen = candidates[keep]
        chosen -= chosen.mean(axis=axes, keepdims=True)
        # matmul of a row with itself is the BLAS dot product np.linalg.norm takes.
        rows = chosen.reshape(-1, math.prod(patch_dims))
        norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]))
        patches[accepted : accepted + len(keep)] = chosen / norms.reshape((-1,) + (1,) * len(axes))
        accepted += len(keep)

    return TrainingSet(patches=patches, meta={"draws": draws})


def add_awgn(vol: Volume, sigma: float, seed: int = 0) -> Volume:
    """Add i.i.d. zero-mean Gaussian noise of standard deviation ``sigma``."""
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if sigma == 0:
        return Volume(vol.data.copy(), vol.intensity_range)
    rng = np.random.default_rng(seed)
    noisy = vol.data + sigma * rng.standard_normal(vol.data.shape)
    return Volume(noisy, vol.intensity_range)


def synth_phantom(dims: tuple[int, int, int], seed: int = 0) -> Volume:
    """Piecewise-constant stand-in volume: random ellipsoids on a background.

    Intensities lie in [0, 255]; deterministic given the seed.
    """
    dims = tuple(int(d) for d in dims)
    if any(d < 8 for d in dims):
        raise ValueError(f"phantom dims must be at least 8 per axis, got {dims}")
    rng = np.random.default_rng(seed)
    vol = np.full(dims, 20.0)
    grids = np.meshgrid(*[np.arange(d, dtype=float) for d in dims], indexing="ij")
    n_blobs = max(6, math.prod(dims) // 4000)
    for _ in range(n_blobs):
        center = [rng.uniform(0.2 * d, 0.8 * d) for d in dims]
        radii = [rng.uniform(0.12 * d, 0.3 * d) for d in dims]
        intensity = rng.uniform(60.0, 240.0)
        dist = sum(((g - c) / r) ** 2 for g, c, r in zip(grids, center, radii))
        vol[dist <= 1.0] = intensity
    return Volume(np.clip(vol, 0.0, 255.0), (0.0, 255.0))


# ---------------------------------------------------------------------------
# File I/O

def _header_path(path: str) -> str:
    return path + ".json"


def write_volume(vol: Volume, path: str) -> None:
    header = {
        "dims": list(vol.data.shape),
        "intensity_range": list(vol.intensity_range),
        "byte_order": "LE",
        "dtype": "f64",
    }
    with open(_header_path(path), "w", encoding="utf-8") as fh:
        json.dump(header, fh)
        fh.write("\n")
    np.ascontiguousarray(vol.data, dtype="<f8").tofile(path)


def read_volume(path: str) -> Volume:
    hpath = _header_path(path)
    if not os.path.exists(hpath):
        raise ValueError(f"missing volume header {hpath}")
    with open(hpath, "r", encoding="utf-8") as fh:
        try:
            header = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{hpath}: malformed header: {exc}") from exc
    for key in ("dims", "intensity_range", "byte_order", "dtype"):
        if key not in header:
            raise ValueError(f"{hpath}: missing header field {key!r}")
    if header["byte_order"] != "LE" or header["dtype"] != "f64":
        raise ValueError(f"{hpath}: unsupported encoding {header['byte_order']}/{header['dtype']}")
    dims = tuple(int(d) for d in header["dims"])
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise ValueError(f"{hpath}: invalid dims {dims}")
    raw = np.fromfile(path, dtype="<f8")
    expected = math.prod(dims)
    if raw.size != expected:
        raise ValueError(
            f"{path}: payload has {raw.size} values, header dims {dims} "
            f"require {expected}"
        )
    if not np.all(np.isfinite(raw)):
        bad = int(np.flatnonzero(~np.isfinite(raw))[0])
        raise ValueError(f"{path}: non-finite value at flat index {bad}")
    lo, hi = header["intensity_range"]
    return Volume(raw.reshape(dims), (float(lo), float(hi)))


def import_raw_volume(
    path: str,
    dims: tuple[int, int, int],
    dtype: str = "u8",
    intensity_range: tuple[float, float] = (0.0, 255.0),
) -> Volume:
    """Import a headerless 8/16-bit raw grid (e.g. atlas exports) as a Volume."""
    dtypes = {"u8": "u1", "u16": "<u2"}
    if dtype not in dtypes:
        raise ValueError(f"unsupported raw dtype {dtype!r}; expected one of {sorted(dtypes)}")
    raw = np.fromfile(path, dtype=dtypes[dtype])
    expected = math.prod(dims)
    if raw.size != expected:
        raise ValueError(f"{path}: {raw.size} samples, dims {dims} require {expected}")
    data = raw.astype(float).reshape(dims)
    peak = data.max()
    if peak > 0:
        lo, hi = intensity_range
        data = lo + (hi - lo) * data / peak
    return Volume(data, intensity_range)
