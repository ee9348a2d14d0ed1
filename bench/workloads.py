"""The three workloads: their CLI commands, generated inputs and output checks.

Every workload drives ``sepop.cli.main`` with the argument vector a user
would type.  Inputs come in two kinds:

* the *probe*: the acceptance configuration (phantom seed 5, noise seed 1,
  training seed 3).  It is the first command of every run.  The quality
  metrics and the traced counts are read from it, so they are exact and
  independent of ``--seed``: over seeds, phantom content alone moves PSNR
  gains and MSSIM by about 10 %, which would hide a quality regression of
  that size.
* seeded inputs: phantom, noise and training seeds drawn from
  ``SeedSequence([seed, i])`` for the i-th command.  They make up the rest
  of the timed commands.

Iteration caps are fixed below the point where the solvers stop on
tolerance, so every command of a workload does nearly the same work
whatever its input, and ``wall_s`` does not depend on how far a particular
phantom happens to be from convergence.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

PROBE = {"phantom": 5, "noise": 1, "train": 3}
HELD_OUT_SEED = 9
HELD_OUT_COUNT = 500
SHAPES = [(6, 5)] * 3
PATCH = (5, 5, 5)


@dataclass
class Command:
    """One CLI call: its argument vector and the files its checks read."""

    argv: list[str]
    files: dict[str, str] = field(default_factory=dict)


@dataclass
class Outcome:
    reasons: list[str]
    quality: dict[str, float]


def seeds_for(seed: int, index: int) -> dict[str, int]:
    if index == 0:
        return dict(PROBE)
    state = np.random.SeedSequence([seed, index]).generate_state(3)
    return {k: int(v) % (2**31) for k, v in zip(("phantom", "noise", "train"), state)}


def _write_phantom(pkg, dims, seed: int, path: str) -> str:
    pkg.volume.write_volume(pkg.volume.synth_phantom(dims, seed=seed), path)
    return path


def _csv_rows(path: str) -> dict[str, tuple[float, float]]:
    with open(path, "r", encoding="utf-8") as fh:
        return {r["label"]: (float(r["psnr_db"]), float(r["mssim"])) for r in csv.DictReader(fh)}


def _read_back(pkg, path: str, reasons: list[str]) -> None:
    try:
        pkg.volume.read_volume(path)  # rejects non-finite voxels
    except (OSError, ValueError) as exc:
        reasons.append(f"output volume unreadable or non-finite: {exc}")


class Learn:
    name = "learn"
    dims = (32, 32, 32)
    max_iters = 40

    def command(self, pkg, work: str, tag: str, seeds: dict[str, int], max_iters: int) -> Command:
        vol = _write_phantom(pkg, self.dims, seeds["phantom"], os.path.join(work, f"{tag}.vol"))
        out = os.path.join(work, f"{tag}-op.txt")
        argv = [
            "learn", "--train-vol", vol, "--T", "2000", "--max-iters", str(max_iters),
            "--seed", str(seeds["train"]), "--out", out,
        ]
        return Command(argv, {"vol": vol, "out": out})


    def check(self, pkg, cmd: Command, quality: bool) -> Outcome:
        reasons: list[str] = []
        factors = []
        try:
            factors, meta = pkg.learn.load_operators(cmd.files["out"])
            for mode, factor in enumerate(factors):
                if not np.all(np.isfinite(factor)):
                    reasons.append(f"factor {mode} has non-finite values")
                else:
                    pkg.manifold.check_factor(factor)
            if meta.get("termination") == "line-search_failure":
                reasons.append("learning ended in line-search failure")
            with open(cmd.files["out"] + ".log", "r", encoding="utf-8") as fh:
                costs = [float(line.split()[3]) for line in fh if line.startswith("iter ")]
            if not costs or not costs[-1] < costs[0]:
                reasons.append(f"final cost does not improve on the initial cost: {costs[:1]} {costs[-1:]}")
        except (OSError, ValueError, IndexError) as exc:
            reasons.append(f"operator output invalid: {exc}")
        values = {}
        if quality and not reasons:
            values = self._quality(pkg, cmd, factors)
        return Outcome(reasons, values)

    def _quality(self, pkg, cmd: Command, factors: list) -> dict[str, float]:
        """Criterion-5 sparsity ratio, and a short denoise with the learned operator."""
        vol = pkg.volume.read_volume(cmd.files["vol"])
        init = pkg.manifold.random_point(SHAPES, np.random.default_rng(PROBE["train"]))
        values = {"sparsity_ratio": sparsity_ratio(pkg, vol, factors, init)}
        small = pkg.volume.synth_phantom((16, 16, 16), seed=PROBE["phantom"])
        noisy = pkg.volume.add_awgn(small, 15.0, seed=PROBE["noise"])
        op = pkg.reconstruct.IdentityMeasurement(small.dims)
        cfg = pkg.reconstruct.ReconConfig(lam=3000.0, max_iters=15)
        rec = pkg.reconstruct.reconstruct(op.forward(noisy.data), op, factors, cfg)
        rp = pkg.reconstruct
        values["psnr_gain_db"] = rp.psnr(small, rec) - rp.psnr(small, noisy)
        values["mssim"] = rp.mssim(small, rec)
        return values


class Denoise:
    name = "denoise"
    dims = (32, 32, 32)
    max_iters = 10

    def __init__(self, operator: str):
        self.operator = operator

    def command(self, pkg, work: str, tag: str, seeds: dict[str, int], max_iters: int) -> Command:
        vol = _write_phantom(pkg, self.dims, seeds["phantom"], os.path.join(work, f"{tag}.vol"))
        out = os.path.join(work, f"{tag}-out.vol")
        table = os.path.join(work, f"{tag}.csv")
        argv = [
            "denoise", "--in", vol, "--op", self.operator, "--sigma", "15", "--lambda", "3000",
            "--max-iters", str(max_iters), "--seed", str(seeds["noise"]), "--ref", vol,
            "--out", out, "--csv", table,
        ]
        return Command(argv, {"vol": vol, "out": out, "csv": table})

    # CSV labels of the baseline and the output, and whether MSSIM must rise too.
    baseline, result, mssim_must_rise = "noisy", "denoised", True

    def check(self, pkg, cmd: Command, quality: bool) -> Outcome:
        reasons: list[str] = []
        _read_back(pkg, cmd.files["out"], reasons)
        values = {}
        try:
            rows = _csv_rows(cmd.files["csv"])
            (p_base, s_base), (p_out, s_out) = rows[self.baseline], rows[self.result]
            if not p_out > p_base:
                reasons.append(f"{self.result} PSNR not above {self.baseline}: {p_base} -> {p_out}")
            if self.mssim_must_rise and not s_out > s_base:
                reasons.append(f"{self.result} MSSIM not above {self.baseline}: {s_base} -> {s_out}")
            values = {"psnr_gain_db": p_out - p_base, "mssim": s_out}
        except (OSError, KeyError, ValueError) as exc:
            reasons.append(f"metrics table invalid: {exc}")
        if quality and not reasons:
            values["sparsity_ratio"] = frozen_sparsity_ratio(pkg, cmd, self.operator)
        return Outcome(reasons, values if quality else {})


class Cs(Denoise):
    name = "cs"
    dims = (32, 32, 8)
    max_iters = 30
    baseline, result, mssim_must_rise = "zero-filling", "reconstruction", False

    def command(self, pkg, work: str, tag: str, seeds: dict[str, int], max_iters: int) -> Command:
        vol = _write_phantom(pkg, self.dims, seeds["phantom"], os.path.join(work, f"{tag}.vol"))
        out = os.path.join(work, f"{tag}-out.vol")
        table = os.path.join(work, f"{tag}.csv")
        argv = [
            "cs", "--in", vol, "--op", self.operator, "--rate", "0.60", "--lambda", "1500",
            "--max-iters", str(max_iters), "--out", out, "--csv", table,
        ]
        return Command(argv, {"vol": vol, "out": out, "csv": table})


def sparsity_ratio(pkg, vol, factors: list, init: list) -> float:
    """Held-out mean log-sparsity under ``factors`` over that under ``init``."""
    held = pkg.volume.build_training_set(vol, HELD_OUT_COUNT, PATCH, seed=HELD_OUT_SEED)
    nu = pkg.objective.LearningParams().nu
    return pkg.objective.mean_sparsity(held.patches, factors, nu) / pkg.objective.mean_sparsity(
        held.patches, init, nu
    )


def frozen_sparsity_ratio(pkg, cmd: Command, operator: str) -> float:
    """The frozen operator's sparsity ratio against the init it was learned from."""
    factors, _meta = pkg.learn.load_operators(operator)
    init = pkg.manifold.random_point(SHAPES, np.random.default_rng(PROBE["train"]))
    return sparsity_ratio(pkg, pkg.volume.read_volume(cmd.files["vol"]), factors, init)


def make(name: str, operator: str):
    if name == "learn":
        return Learn()
    if name == "denoise":
        return Denoise(operator)
    if name == "cs":
        return Cs(operator)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("learn", "denoise", "cs")
