"""Frozen per-draw training-set sampler, as a test oracle.

Each draw takes three scalar centers from the generator, copies the window
around them, and rejects it if its standard deviation is at most
``flat_tol``; an accepted window is mean-subtracted and scaled to unit
Frobenius norm.  The package draws and tests whole batches of windows at
once; the tests require its patches and its draw count to equal these bit
for bit, and its draw-limit failure to come after the same number of draws.
"""

from __future__ import annotations

import numpy as np

from oracles import extract_patch


def build_training_set(vol, count, patch_dims, flat_tol=1.0, seed=0):
    """Return ``(patches, draws)``; raise ``RuntimeError`` at the draw limit."""
    if count < 1:
        raise ValueError("count must be at least 1")
    data = vol.data
    los = [d // 2 for d in patch_dims]
    his = [sz - d + d // 2 for sz, d in zip(data.shape, patch_dims, strict=True)]
    if any(h < lo for lo, h in zip(los, his)):
        raise ValueError(f"volume {data.shape} too small for patches {patch_dims}")

    rng = np.random.default_rng(seed)
    patches = np.empty((count,) + tuple(patch_dims), dtype=float)
    accepted = 0
    draws = 0
    limit = 100 * count
    while accepted < count:
        if draws >= limit:
            raise RuntimeError(
                f"flatness rejection too severe: {accepted} of {count} patches "
                f"accepted after {draws} draws (flat_tol={flat_tol})"
            )
        center = tuple(int(rng.integers(lo, hi + 1)) for lo, hi in zip(los, his))
        draws += 1
        patch = extract_patch(vol, center, patch_dims)
        if patch.std() <= flat_tol:
            continue
        patch = patch - patch.mean()
        patches[accepted] = patch / np.linalg.norm(patch)
        accepted += 1
    return patches, draws
