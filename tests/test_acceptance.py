"""End-to-end acceptance checks.

Each test prints exactly one ``criterion N: PASS/FAIL`` line on the terminal
(bypassing capture) and then asserts, so a red criterion still reports its
measured numbers.  The heavyweight pipelines (synthetic efficacy, denoising,
undersampled Fourier recovery) are executed twice so the determinism check can
compare bit-identical metric rows.
"""

import math
import time

import numpy as np
import pytest

from sepop import cg, learn, manifold, objective, tensor, volume
from sepop import reconstruct as rec_mod
from sepop.learn import SolverConfig, learn_operators, minimize_on_product
from sepop.objective import LearningParams
from sepop.reconstruct import (
    FourierMeasurement,
    IdentityMeasurement,
    ReconConfig,
    mssim,
    psnr,
    radial_mask_for_rate,
)

import oracles

PATCH = (5, 5, 5)
SHAPES = [(6, 5)] * 3
PARAMS = LearningParams()  # nu=1000, kappa=500, mu=0.5


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# shared pipelines, each run twice for the determinism criterion

_runs: dict[tuple[str, int], dict] = {}


def synthetic_cosparse_patches(count, factors, seed, noise=1e-3):
    rng = np.random.default_rng(seed)
    dims = tuple(f.shape[1] for f in factors)
    out = np.empty((count,) + dims)
    for t in range(count):
        vecs = []
        for f in factors:
            rows = rng.choice(f.shape[0], size=f.shape[1] - 1, replace=False)
            vecs.append(np.linalg.svd(f[rows])[2][-1])
        patch = vecs[0]
        for v in vecs[1:]:
            patch = np.multiply.outer(patch, v)
        patch = patch + noise * rng.standard_normal(dims)
        out[t] = patch / np.linalg.norm(patch)
    return out


def _normalized_mean_cosparsity(patches, factors, eps=1e-2):
    coeffs = objective.analyze_batch(patches, factors)
    flat = coeffs.reshape(coeffs.shape[0], -1)
    norms = np.linalg.norm(flat, axis=1, keepdims=True)
    flat = flat / np.where(norms > 0, norms, 1.0)
    return float(np.mean(np.sum(np.abs(flat) <= eps, axis=1)))


def _synthetic_pipeline():
    rng = np.random.default_rng(21)
    true = [manifold.random_factor(6, 5, rng) for _ in range(3)]
    train = synthetic_cosparse_patches(2000, true, seed=8)
    held = synthetic_cosparse_patches(500, true, seed=9)
    cfg = SolverConfig(max_iters=300, seed=6)
    init = manifold.random_point(SHAPES, np.random.default_rng(cfg.seed))
    factors, _report = learn_operators(train, SHAPES, PARAMS, cfg)
    g_init = objective.mean_sparsity(held, init, PARAMS.nu)
    g_learned = objective.mean_sparsity(held, factors, PARAMS.nu)
    cos_init = _normalized_mean_cosparsity(held, init)
    cos_learned = _normalized_mean_cosparsity(held, factors)
    return {
        "g_init": g_init,
        "g_learned": g_learned,
        "cos_init": cos_init,
        "cos_learned": cos_learned,
        "rows": [f"synthetic,{g_learned / g_init!r},{cos_init!r},{cos_learned!r}"],
    }


def _denoise_pipeline():
    vol = volume.synth_phantom((32, 32, 32), seed=5)
    noisy = volume.add_awgn(vol, 15.0, seed=1)
    train = volume.build_training_set(vol, 2000, PATCH, flat_tol=1.0, seed=11)
    factors, _ = learn_operators(
        train.patches, SHAPES, PARAMS, SolverConfig(max_iters=300, seed=3)
    )
    op = IdentityMeasurement(vol.dims)
    y = op.forward(noisy.data)
    rec = rec_mod.reconstruct(y, op, factors, ReconConfig(lam=200.0 * 15.0, max_iters=200))
    return {
        "noisy_psnr": psnr(vol, noisy),
        "noisy_mssim": mssim(vol, noisy),
        "rec_psnr": psnr(vol, rec),
        "rec_mssim": mssim(vol, rec),
        "rows": [
            f"noisy,{psnr(vol, noisy)!r},{mssim(vol, noisy)!r}",
            f"denoised,{psnr(vol, rec)!r},{mssim(vol, rec)!r}",
        ],
    }


def _cs_pipeline():
    vol = volume.synth_phantom((32, 32, 8), seed=5)
    train = volume.build_training_set(vol, 2000, PATCH, flat_tol=1.0, seed=11)
    factors, _ = learn_operators(
        train.patches, SHAPES, PARAMS, SolverConfig(max_iters=300, seed=3)
    )
    mask = radial_mask_for_rate(32, 32, 0.60)
    op = FourierMeasurement(vol.dims, mask)
    y = op.forward(vol.data)
    zf = volume.Volume(op.adjoint(y))
    rec = rec_mod.reconstruct(y, op, factors, ReconConfig(lam=1500.0, max_iters=600))
    return {
        "rate": float(mask.mask.mean()),
        "zf_psnr": psnr(vol, zf),
        "zf_mssim": mssim(vol, zf),
        "rec_psnr": psnr(vol, rec),
        "rec_mssim": mssim(vol, rec),
        "rows": [
            f"zero-filling,{psnr(vol, zf)!r},{mssim(vol, zf)!r}",
            f"reconstruction,{psnr(vol, rec)!r},{mssim(vol, rec)!r}",
        ],
    }


_PIPELINES = {
    "synthetic": _synthetic_pipeline,
    "denoise": _denoise_pipeline,
    "cs": _cs_pipeline,
}


def get_run(name, idx):
    key = (name, idx)
    if key not in _runs:
        start = time.monotonic()
        _runs[key] = _PIPELINES[name]()
        _runs[key]["seconds"] = time.monotonic() - start
    return _runs[key]


# ---------------------------------------------------------------------------


def test_criterion_1_separability(capsys):
    rng = np.random.default_rng(0)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        signal = rng.standard_normal(PATCH)
        factors = [rng.standard_normal((6, 5)) for _ in range(3)]
        via_modes = tensor.correlate_separable(signal, factors).ravel()
        via_kron = oracles.kronecker_chain(factors) @ signal.ravel()
        worst = max(worst, np.linalg.norm(via_modes - via_kron) / np.linalg.norm(via_kron))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    announce(capsys, 1, ok, f"max relative deviation {worst:.2e} over 50 instances, {elapsed:.2f}s")


def test_criterion_2_gradient_correctness(capsys):
    start = time.monotonic()
    h = 1e-6
    worst_learn = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        patches = rng.standard_normal((3,) + PATCH)
        factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
        grads = objective.learning_gradient(factors, patches, PARAMS)
        for mode in range(3):
            fd = np.zeros_like(factors[mode])
            for idx in np.ndindex(fd.shape):
                bumped = [f.copy() for f in factors]
                bumped[mode][idx] += h
                up = objective.learning_cost(bumped, patches, PARAMS)
                bumped[mode][idx] -= 2 * h
                down = objective.learning_cost(bumped, patches, PARAMS)
                fd[idx] = (up - down) / (2 * h)
            worst_learn = max(
                worst_learn, np.linalg.norm(fd - grads[mode]) / np.linalg.norm(fd)
            )

    worst_rec = 0.0
    dims = (6, 6, 5)
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
        v = 10.0 * rng.standard_normal(dims)
        if seed % 2 == 0:
            op = IdentityMeasurement(dims)
            y = op.forward(10.0 * rng.standard_normal(dims))
        else:
            mask_arr = rng.random((6, 6)) < 0.5
            mask_arr[3, 3] = True
            op = FourierMeasurement(dims, rec_mod.SamplingMask(mask_arr))
            y = op.forward(10.0 * rng.standard_normal(dims))
        cfg = ReconConfig(lam=5.0, max_iters=1)
        _cost, grad = oracles.reconstruction_objective(v, y, op, factors, cfg)
        fd = np.zeros(dims)
        for idx in np.ndindex(dims):
            bump = v.copy()
            bump[idx] += h
            up = oracles.reconstruction_objective(bump, y, op, factors, cfg)[0]
            bump[idx] -= 2 * h
            down = oracles.reconstruction_objective(bump, y, op, factors, cfg)[0]
            fd[idx] = (up - down) / (2 * h)
        worst_rec = max(worst_rec, np.linalg.norm(fd - grad) / np.linalg.norm(fd))

    elapsed = time.monotonic() - start
    ok = worst_learn <= 1e-5 and worst_rec <= 1e-4 and elapsed < 60.0
    announce(
        capsys, 2, ok,
        f"learning gradient max rel err {worst_learn:.2e} (tol 1e-5), "
        f"reconstruction {worst_rec:.2e} (tol 1e-4), 40 instances, {elapsed:.1f}s",
    )


def test_criterion_3_manifold_invariants(capsys):
    rng = np.random.default_rng(7)
    patches = rng.standard_normal((100,) + PATCH)
    cfg = SolverConfig(max_iters=60, seed=4)
    init = manifold.random_point(SHAPES, np.random.default_rng(cfg.seed))

    accepted: list[list[np.ndarray]] = []

    def evaluate(fs):
        def gradient():
            accepted.append([f.copy() for f in fs])
            return objective.learning_gradient(fs, patches, PARAMS)

        return objective.learning_cost(fs, patches, PARAMS), gradient

    _point, report = minimize_on_product(evaluate, init, cfg)

    worst_norm = 0.0
    finite = True
    for point in accepted:
        for f in point:
            worst_norm = max(worst_norm, float(np.max(np.abs(np.linalg.norm(f, axis=1) - 1.0))))
            try:
                hv = objective.rank_penalty(f)
                rv = objective.coherence_penalty(f)
                finite = finite and math.isfinite(hv) and math.isfinite(rv)
            except objective.BarrierError:
                finite = False

    accept_ok = True
    for i, (step, dd, ref) in enumerate(
        zip(report.step_sizes, report.directional_derivs, report.reference_values)
    ):
        if report.costs[i + 1] > ref + cg.SUFFICIENT_DECREASE * step * dd + 1e-9:
            accept_ok = False

    ok = worst_norm <= 1e-12 and finite and accept_ok and len(accepted) >= 10
    announce(
        capsys, 3, ok,
        f"{len(accepted)} accepted iterates, max row-norm deviation {worst_norm:.2e}, "
        f"barrier terms finite {finite}, averaged sufficient-decrease held {accept_ok}",
    )


def test_criterion_4_closed_form_anchors(capsys):
    h_err = abs(objective.rank_penalty(np.eye(5)) - 1.0)
    r_val = objective.coherence_penalty(np.eye(5))
    e = np.zeros(5)
    e[2] = 1.0
    g_err = abs(objective.sparsity_measure(e, 1000.0) - math.log(1001.0))
    a = volume.Volume(np.full((8, 8, 8), 100.0))
    b = volume.Volume(np.full((8, 8, 8), 110.0))
    p_err = abs(psnr(a, b) - 20.0 * math.log10(25.5))
    ok = h_err <= 1e-12 and r_val == 0.0 and g_err <= 1e-12 and p_err <= 1e-9
    announce(
        capsys, 4, ok,
        f"rank-penalty error {h_err:.1e}, coherence at orthogonal rows {r_val!r}, "
        f"log-penalty error {g_err:.1e}, shift-PSNR error {p_err:.1e} dB",
    )


def test_criterion_5_synthetic_efficacy(capsys):
    run = get_run("synthetic", 0)
    ratio = run["g_learned"] / run["g_init"]
    ok = (
        ratio <= 0.5
        and run["cos_learned"] > run["cos_init"]
        and run["seconds"] < 600.0
    )
    announce(
        capsys, 5, ok,
        f"held-out sparsity ratio {ratio:.3f} (need <= 0.5), mean cosparsity "
        f"{run['cos_init']:.1f} -> {run['cos_learned']:.1f}, {run['seconds']:.0f}s",
    )


def test_criterion_6_denoising(capsys):
    run = get_run("denoise", 0)
    gain = run["rec_psnr"] - run["noisy_psnr"]
    ok = gain >= 3.0 and run["rec_mssim"] > run["noisy_mssim"] and run["seconds"] < 900.0
    announce(
        capsys, 6, ok,
        f"PSNR {run['noisy_psnr']:.2f} -> {run['rec_psnr']:.2f} dB ({gain:+.2f}, need >= +3), "
        f"MSSIM {run['noisy_mssim']:.3f} -> {run['rec_mssim']:.3f}, {run['seconds']:.0f}s",
    )


def test_criterion_7_undersampled_fourier(capsys):
    run = get_run("cs", 0)
    gain = run["rec_psnr"] - run["zf_psnr"]
    ok = run["rate"] >= 0.20 and gain >= 2.0 and run["seconds"] < 900.0
    announce(
        capsys, 7, ok,
        f"radial rate {run['rate']:.2f}, PSNR {run['zf_psnr']:.2f} -> {run['rec_psnr']:.2f} dB "
        f"({gain:+.2f}, need >= +2), {run['seconds']:.0f}s",
    )


def test_criterion_8_reproduction_path(capsys, tmp_path):
    # absolute benchmark numbers are out of reach at desk scale; the repo
    # instead ships a raw-volume importer plus default hyperparameters and
    # targets the qualitative orderings (denoised >> noisy, learned
    # regularizer > zero-filling), which the pipelines above measure
    raw = (np.arange(120, dtype=np.uint8) % 251).reshape(4, 5, 6)
    path = tmp_path / "atlas.raw"
    raw.tofile(path)
    imported = volume.import_raw_volume(str(path), (4, 5, 6), dtype="u8")
    importer_ok = imported.dims == (4, 5, 6) and imported.data.max() == 255.0
    readme = open("README.md", encoding="utf-8").read() if _exists("README.md") else ""
    documented = "import_raw_volume" in readme
    den = get_run("denoise", 0)
    cs = get_run("cs", 0)
    orderings = den["rec_psnr"] > den["noisy_psnr"] + 3.0 and cs["rec_psnr"] > cs["zf_psnr"]
    ok = importer_ok and documented and orderings
    announce(
        capsys, 8, ok,
        f"raw importer round-trip {importer_ok}, reproduction path documented {documented}, "
        f"qualitative orderings hold {orderings}",
    )


def _exists(path):
    import os

    return os.path.exists(path)


def test_criterion_9_determinism(capsys):
    mismatches = []
    for name in ("synthetic", "denoise", "cs"):
        first = get_run(name, 0)["rows"]
        second = get_run(name, 1)["rows"]
        if first != second:
            mismatches.append(name)
    ok = not mismatches
    announce(
        capsys, 9, ok,
        "metric rows bit-identical across reruns of the synthetic, denoising and "
        "undersampled-Fourier pipelines"
        + ("" if ok else f"; mismatch in {', '.join(mismatches)}"),
    )
