"""Command-line frontend: gen | learn | denoise | cs | eval.

Exit codes: 0 success, 1 validation error, 2 runtime error.  All commands are
deterministic under fixed flags and seeds; metric output is printed as a
human-readable line and a machine CSV row.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from sepop import learn as learn_mod
from sepop import manifold
from sepop import reconstruct as recon_mod
from sepop import volume as volume_mod
from sepop.objective import LearningParams

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class ValidationError(Exception):
    pass


def _parse_dims(text: str, count: int = 3) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"malformed dims {text!r}: {exc}") from exc
    if len(dims) != count or any(d < 1 for d in dims):
        raise ValidationError(f"dims must be {count} positive integers, got {text!r}")
    return dims


def _parse_shapes(text: str) -> list[tuple[int, int]]:
    shapes = []
    for part in text.split(","):
        try:
            k, n = part.lower().split("x")
            shape = (int(k), int(n))
        except ValueError as exc:
            raise ValidationError(f"malformed shape {part!r}: {exc}") from exc
        if shape[0] < shape[1]:
            raise ValidationError(f"shape {part!r} must be tall (k >= n)")
        shapes.append(shape)
    return shapes


def _require_file(path: str, what: str) -> None:
    if not os.path.exists(path):
        raise ValidationError(f"{what} not found: {path}")


def _metrics_row(label: str, ref: volume_mod.Volume, test: volume_mod.Volume) -> str:
    p = recon_mod.psnr(ref, test)
    s = recon_mod.mssim(ref, test)
    p_text = "identical" if math.isinf(p) else f"{p:.4f}"
    print(f"{label}: PSNR {p_text} dB, MSSIM {s:.6f}")
    return f"{label},{p!r},{s!r}"


def _write_csv(path: str | None, rows: list[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("label,psnr_db,mssim\n")
            for row in rows:
                fh.write(row + "\n")


def cmd_gen(args: argparse.Namespace) -> int:
    dims = _parse_dims(args.dims)
    if any(d < 8 for d in dims):
        raise ValidationError(f"phantom dims must be at least 8 per axis, got {dims}")
    vol = volume_mod.synth_phantom(dims, seed=args.seed)
    volume_mod.write_volume(vol, args.out)
    print(f"wrote {args.out} ({dims[0]}x{dims[1]}x{dims[2]})")
    return EXIT_OK


def cmd_learn(args: argparse.Namespace) -> int:
    _require_file(args.train_vol, "training volume")
    patch_dims = _parse_dims(args.patch)
    shapes = _parse_shapes(args.shape)
    if len(shapes) != 3:
        raise ValidationError("need exactly 3 factor shapes for volumetric data")
    for mode, ((_k, n), d) in enumerate(zip(shapes, patch_dims)):
        if n != d:
            raise ValidationError(
                f"factor columns for mode {mode} ({n}) must equal patch dim ({d})"
            )
    params = LearningParams(nu=args.nu, kappa=args.kappa, mu=args.mu)
    cfg = learn_mod.SolverConfig(max_iters=args.max_iters, seed=args.seed)

    vol = volume_mod.read_volume(args.train_vol)
    train = volume_mod.build_training_set(
        vol, args.T, patch_dims, flat_tol=args.flat_tol, seed=args.seed
    )
    log_lines: list[str] = []
    factors, report = learn_mod.learn_operators(
        train.patches, shapes, params, cfg, log_lines=log_lines
    )
    learn_mod.save_operators(
        args.out,
        factors,
        params,
        extra={
            "patch_dims": ",".join(str(d) for d in patch_dims),
            "train_count": str(args.T),
            "flat_tol": repr(args.flat_tol),
            "seed": str(args.seed),
            "termination": report.termination.replace(" ", "_"),
        },
    )
    with open(args.out + ".log", "w", encoding="utf-8") as fh:
        fh.write("\n".join(log_lines) + "\n")
    print(
        f"learned {len(factors)} factors in {report.iterations} iterations "
        f"({report.termination}); cost {report.costs[0]:.6g} -> {report.costs[-1]:.6g}"
    )
    return EXIT_OK


def _load_factors(path: str) -> list[np.ndarray]:
    _require_file(path, "operator file")
    factors, _meta = learn_mod.load_operators(path)
    for mode, factor in enumerate(factors):
        try:
            manifold.check_factor(factor)
        except ValueError as exc:
            raise ValidationError(f"{path}: mode {mode}: {exc}") from None
    return factors


def cmd_denoise(args: argparse.Namespace) -> int:
    _require_file(args.input, "input volume")
    factors = _load_factors(args.op)
    if args.sigma < 0:
        raise ValidationError(f"sigma must be nonnegative, got {args.sigma}")
    lam = args.lam if args.lam is not None else 200.0 * args.sigma
    if lam <= 0:
        raise ValidationError(f"lambda must be positive, got {lam}")
    ref = volume_mod.read_volume(args.ref) if args.ref else None

    vol = volume_mod.read_volume(args.input)
    noisy = volume_mod.add_awgn(vol, args.sigma, seed=args.seed) if args.sigma > 0 else vol
    op = recon_mod.IdentityMeasurement(noisy.dims)
    y = op.forward(noisy.data)
    cfg = recon_mod.ReconConfig(
        lam=lam, nu=args.nu, max_iters=args.max_iters, patch_dims=_parse_dims(args.patch)
    )
    result = recon_mod.reconstruct(y, op, factors, cfg)
    volume_mod.write_volume(result, args.out)

    rows = []
    if ref is not None:
        rows.append(_metrics_row("noisy", ref, noisy))
        rows.append(_metrics_row("denoised", ref, result))
    else:
        rows.append(_metrics_row("denoised-vs-input", noisy, result))
    _write_csv(args.csv, rows)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_cs(args: argparse.Namespace) -> int:
    _require_file(args.input, "input volume")
    factors = _load_factors(args.op)
    if not 0.0 < args.rate <= 1.0:
        raise ValidationError(f"rate must lie in (0, 1], got {args.rate}")
    vol = volume_mod.read_volume(args.input)
    h, w, _depth = vol.dims
    mask = recon_mod.radial_mask_for_rate(h, w, args.rate)
    op = recon_mod.FourierMeasurement(vol.dims, mask)
    y = op.forward(vol.data)

    zero_fill = volume_mod.Volume(op.adjoint(y))
    cfg = recon_mod.ReconConfig(
        lam=args.lam, nu=args.nu, max_iters=args.max_iters, patch_dims=_parse_dims(args.patch)
    )
    result = recon_mod.reconstruct(y, op, factors, cfg)
    volume_mod.write_volume(result, args.out)
    if args.mask_out:
        recon_mod.save_mask(mask, args.mask_out)
    if args.meas_out:
        recon_mod.save_measurement(y, op, args.meas_out, mask_ref=args.mask_out or "")

    print(f"radial mask: {mask.sampling_rate:.4f} sampling rate")
    rows = [
        _metrics_row("zero-filling", vol, zero_fill),
        _metrics_row("reconstruction", vol, result),
    ]
    _write_csv(args.csv, rows)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    _require_file(args.ref, "reference volume")
    _require_file(args.test, "test volume")
    ref = volume_mod.read_volume(args.ref)
    test = volume_mod.read_volume(args.test)
    if ref.dims != test.dims:
        raise ValidationError(f"dims mismatch: {ref.dims} vs {test.dims}")
    rows = [_metrics_row("eval", ref, test)]
    _write_csv(args.csv, rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepop",
        description="Separable analysis operator learning and volumetric reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic phantom volume")
    p.add_argument("--dims", default="32,32,32")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("learn", help="learn separable operator factors from a volume")
    p.add_argument("--train-vol", required=True)
    p.add_argument("--patch", default="5,5,5")
    p.add_argument("--shape", default="6x5,6x5,6x5")
    p.add_argument("--T", type=int, default=20000)
    p.add_argument("--nu", type=float, default=1000.0)
    p.add_argument("--kappa", type=float, default=500.0)
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--flat-tol", type=float, default=1.0)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("denoise", help="denoise a volume with a learned operator")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--nu", type=float, default=1000.0)
    p.add_argument("--patch", default="5,5,5")
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ref", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("cs", help="undersampled Fourier measurement and recovery")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--rate", type=float, default=0.20)
    p.add_argument("--lambda", dest="lam", type=float, default=1500.0)
    p.add_argument("--nu", type=float, default=1000.0)
    p.add_argument("--patch", default="5,5,5")
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--out", required=True)
    p.add_argument("--mask-out", default=None)
    p.add_argument("--meas-out", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_cs)

    p = sub.add_parser("eval", help="PSNR/MSSIM between two volumes")
    p.add_argument("--ref", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
