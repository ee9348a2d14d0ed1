#!/usr/bin/env python3
"""Undersampled Fourier recovery: radial mask, learned regularizer, CG solver.

Example:
    python3 scripts/cs_experiment.py --dims 32,32,8 --rate 0.60
"""

import argparse
import time

from sepop import learn, objective, reconstruct, volume
from sepop.reconstruct import (
    FourierMeasurement,
    ReconConfig,
    mssim,
    psnr,
    radial_mask_for_rate,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", default="32,32,8")
    ap.add_argument("--rate", type=float, default=0.60)
    ap.add_argument("--lambda", dest="lam", type=float, default=1500.0)
    ap.add_argument("--T", type=int, default=2000)
    ap.add_argument("--learn-iters", type=int, default=300)
    ap.add_argument("--recon-iters", type=int, default=600)
    ap.add_argument("--phantom-seed", type=int, default=5)
    ap.add_argument("--train-seed", type=int, default=11)
    ap.add_argument("--solver-seed", type=int, default=3)
    args = ap.parse_args()

    dims = tuple(int(d) for d in args.dims.split(","))
    vol = volume.synth_phantom(dims, seed=args.phantom_seed)

    train = volume.build_training_set(vol, args.T, (5, 5, 5), seed=args.train_seed)
    t0 = time.monotonic()
    factors, report = learn.learn_operators(
        train.patches, [(6, 5)] * 3, objective.LearningParams(),
        learn.SolverConfig(max_iters=args.learn_iters, seed=args.solver_seed),
    )
    print(f"learning: {report.iterations} iters ({report.termination}), "
          f"{time.monotonic() - t0:.0f}s")

    mask = radial_mask_for_rate(dims[0], dims[1], args.rate)
    print(f"radial mask: {mask.sampling_rate:.4f} sampling rate")
    op = FourierMeasurement(vol.dims, mask)
    y = op.forward(vol.data)
    zf = volume.Volume(op.adjoint(y))
    print(f"zero-filling: PSNR {psnr(vol, zf):.2f} dB, MSSIM {mssim(vol, zf):.4f}")

    t0 = time.monotonic()
    rec = reconstruct.reconstruct(
        y, op, factors, ReconConfig(lam=args.lam, max_iters=args.recon_iters)
    )
    print(f"reconstruction: PSNR {psnr(vol, rec):.2f} dB, MSSIM {mssim(vol, rec):.4f}, "
          f"{time.monotonic() - t0:.0f}s (lambda {args.lam:g})")


if __name__ == "__main__":
    main()
