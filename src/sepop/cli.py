"""Command-line frontend: gen | learn | denoise | cs | eval.

It parses flags, calls the library and prints: the library function that reads
a value checks it, and defaults come from the config dataclasses or the module
that reads them.  Output paths, and the sidecar file that each ``--out`` brings
(a volume's header, the learn log; the module that writes it names it), are
checked before any command runs: no two of them may name the same file, and
none may name an input (a volume, its header or the operator file).

Exit codes: 0 success, 1 validation error, 2 runtime error.  All commands are
deterministic under fixed flags and seeds; metric output is printed as a
human-readable line and a machine CSV row.
"""

from __future__ import annotations

import argparse
import math
import os
import re
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


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"malformed dims {text!r}: {exc}") from exc


def _parse_shapes(text: str) -> list[tuple[int, int]]:
    shapes = []
    for part in text.split(","):
        try:
            k, n = part.lower().split("x")
            shape = (int(k), int(n))
        except ValueError as exc:
            raise ValueError(f"malformed shape {part!r}: {exc}") from exc
        shapes.append(shape)
    return shapes


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


def _check_outputs(args: argparse.Namespace) -> None:
    for flag in ("out", "csv"):
        if vars(args).get(flag) == "":
            raise ValueError(f"--{flag} needs a file name, got an empty one")
    out = vars(args).get("out")
    sidecar = args.sidecar(out) if out else None
    paths = list(filter(None, (out, sidecar, vars(args).get("csv"))))
    for path in paths:
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"output {path} is a directory or lies in a missing one")
    # The inputs, then each output in turn: no output may name a file named before it.
    volumes = filter(None, map(vars(args).get, ("input", "ref", "test", "train_vol")))
    inputs = [p for vol in volumes for p in (vol, volume_mod.header_path(vol))]
    inputs += filter(None, [vars(args).get("op")])
    named = {os.path.realpath(p): f"input {p}" for p in inputs}
    for path in paths:
        real = os.path.realpath(path)
        if real in named:
            raise ValueError(f"output {path} and {named[real]} name the same file")
        named[real] = f"output {path}"


def cmd_gen(args: argparse.Namespace) -> int:
    dims = _parse_dims(args.dims)
    vol = volume_mod.synth_phantom(dims, seed=args.seed)
    volume_mod.write_volume(vol, args.out)
    print(f"wrote {args.out} ({dims[0]}x{dims[1]}x{dims[2]})")
    return EXIT_OK


def cmd_learn(args: argparse.Namespace) -> int:
    shapes = _parse_shapes(args.shape)
    # Each factor acts on the fibres of its mode, so its column count is that patch dim.
    patch_dims = tuple(n for _k, n in shapes)
    params = LearningParams(nu=args.nu, kappa=args.kappa, mu=args.mu)
    cfg = learn_mod.SolverConfig(max_iters=args.max_iters, seed=args.seed)

    vol = volume_mod.read_volume(args.train_vol)
    train = volume_mod.build_training_set(
        vol, args.T, patch_dims, flat_tol=args.flat_tol, seed=args.seed
    )
    factors, report = learn_mod.learn_operators(train.patches, shapes, params, cfg)
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
    with open(learn_mod.log_path(args.out), "w", encoding="utf-8") as fh:
        fh.write(report.training_log())
    print(
        f"learned {len(factors)} factors in {report.iterations} iterations "
        f"({report.termination}); cost {report.costs[0]:.6g} -> {report.costs[-1]:.6g}"
    )
    return EXIT_OK


def _load_solve(args: argparse.Namespace, lam: float) -> tuple[list, recon_mod.ReconConfig]:
    """The factors in ``--op`` and the solve's settings, both checked before any volume is read."""
    factors, _meta = learn_mod.load_operators(args.op)
    for mode, factor in enumerate(factors):
        try:
            manifold.check_factor(factor)
        except ValueError as exc:
            raise ValueError(f"{args.op}: mode {mode}: {exc}") from None
    patch_dims = tuple(f.shape[1] for f in factors)
    return factors, recon_mod.ReconConfig(lam, args.nu, args.max_iters, patch_dims=patch_dims)


def _recover(
    args: argparse.Namespace, y: np.ndarray, op: recon_mod.MeasurementOp, solve: tuple,
    rows: list[str], label: str, ref: volume_mod.Volume, source: volume_mod.Volume,
) -> int:
    """Solve with the factors and settings ``solve`` of :func:`_load_solve`, and write the
    result, in the intensity range of the input ``source``, once its metrics row (``label``,
    against ``ref``) has joined the ``rows`` computed before the solve: a metric may refuse it."""
    result = volume_mod.Volume(recon_mod.reconstruct(y, op, *solve).data, source.intensity_range)
    rows = rows + [_metrics_row(label, ref, result)]
    volume_mod.write_volume(result, args.out)
    _write_csv(args.csv, rows)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_denoise(args: argparse.Namespace) -> int:
    volume_mod.check_sigma(args.sigma)  # before it derives the default lambda
    if args.lam is None and args.sigma == 0:
        raise ValueError("--lambda is required when --sigma is 0 (its default is 200*sigma)")
    solve = _load_solve(args, args.lam if args.lam is not None else 200.0 * args.sigma)
    ref = volume_mod.read_volume(args.ref) if args.ref else None

    vol = volume_mod.read_volume(args.input)
    recon_mod.check_mssim_dims(vol.dims)
    noisy = volume_mod.add_awgn(vol, args.sigma, seed=args.seed)
    op = recon_mod.IdentityMeasurement(noisy.dims)
    y = op.forward(noisy.data)
    if ref is None:
        return _recover(args, y, op, solve, [], "denoised-vs-input", noisy, vol)
    # The noisy row's PSNR refuses a reference of another shape before the solve.
    return _recover(args, y, op, solve, [_metrics_row("noisy", ref, noisy)], "denoised", ref, vol)


def cmd_cs(args: argparse.Namespace) -> int:
    solve = _load_solve(args, args.lam)
    vol = volume_mod.read_volume(args.input)
    recon_mod.check_mssim_dims(vol.dims)
    mask = recon_mod.radial_mask_for_rate(*vol.dims[:2], args.rate)
    print(f"radial mask: {mask.sampling_rate:.4f} sampling rate")
    op = recon_mod.FourierMeasurement(vol.dims, mask)
    y = op.forward(vol.data)
    zero_fill = volume_mod.Volume(op.adjoint(y))
    rows = [_metrics_row("zero-filling", vol, zero_fill)]
    return _recover(args, y, op, solve, rows, "reconstruction", vol, vol)


def cmd_eval(args: argparse.Namespace) -> int:
    ref = volume_mod.read_volume(args.ref)
    test = volume_mod.read_volume(args.test)
    rows = [_metrics_row("eval", ref, test)]
    _write_csv(args.csv, rows)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reads a negative number written in exponent notation, as infinity or as nan (``-1e-3``,
    ``-inf``, ``-nan``) as a flag's value, as it reads ``-0.001``, so that the library refuses
    the value by name: argparse's own pattern for a negative number has none of these, and
    would take such a value for an unknown option."""

    _NEGATIVE_NUMBER = re.compile(
        r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER  # subparsers are _Parsers too


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sepop",
        description="Separable analysis operator learning and volumetric reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic phantom volume")
    p.add_argument("--dims", default="32,32,32")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen, sidecar=volume_mod.header_path)

    p = sub.add_parser("learn", help="learn separable operator factors from a volume")
    p.add_argument("--train-vol", required=True)
    p.add_argument("--shape", default="6x5,6x5,6x5")
    p.add_argument("--T", type=int, default=20000)
    p.add_argument("--nu", type=float, default=LearningParams.nu)
    p.add_argument("--kappa", type=float, default=LearningParams.kappa)
    p.add_argument("--mu", type=float, default=LearningParams.mu)
    p.add_argument("--flat-tol", type=float, default=volume_mod.DEFAULT_FLAT_TOL)
    p.add_argument("--max-iters", type=int, default=learn_mod.SolverConfig.max_iters)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_learn, sidecar=learn_mod.log_path)

    p = sub.add_parser("denoise", help="denoise a volume with a learned operator")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--nu", type=float, default=recon_mod.ReconConfig.nu)
    p.add_argument("--max-iters", type=int, default=recon_mod.ReconConfig.max_iters)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ref", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_denoise, sidecar=volume_mod.header_path)

    p = sub.add_parser("cs", help="undersampled Fourier measurement and recovery")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--rate", type=float, default=0.20)
    p.add_argument("--lambda", dest="lam", type=float, default=1500.0)
    p.add_argument("--nu", type=float, default=recon_mod.ReconConfig.nu)
    p.add_argument("--max-iters", type=int, default=recon_mod.ReconConfig.max_iters)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_cs, sidecar=volume_mod.header_path)

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
        _check_outputs(args)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
