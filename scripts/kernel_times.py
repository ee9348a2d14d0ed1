#!/usr/bin/env python3
"""Time the package's hot kernels in the working tree, and at a parent commit if one is given.

Usage, from anywhere inside the repository::

    scripts/kernel_times.py [PARENT_REF] [--rounds 4] [--reps 25]

With ``PARENT_REF``, it and the working tree are exported as
``scripts/bench_pairs.py`` exports them; without one, the checkout this script
lives in is timed where it is, and no ``git`` is run.  Each round runs one
fresh worker process per kernel and side, one at a time, the first side
alternating round to round; a worker imports ``sepop`` from its side's
``src``, builds the same seeded inputs, makes ``--reps`` untimed calls of its
one kernel to warm it, then times ``--reps`` calls of it, so no kernel's
times depend on what the kernels timed before it allocated.  Workers run with
one BLAS thread and the benchmark's malloc settings.  Per kernel and side, the
minimum and median over every timed call are printed in milliseconds.  With a
parent, each round's change/parent ratio of the two workers' minima is formed,
and its median and interquartile range over the rounds are printed: the speed
of the machine drifts between worker processes, which a ratio within a round
cancels and a difference of the overall minima does not.  ``--tiny`` uses
small shapes, to check the tool itself.  The temporary copies are removed
however the script ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from bench_pairs import export_ref, export_worktree, git, quartiles
from compare_outputs import MALLOC_ENV, THREAD_VARS  # bench/common.py's

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Learning batch size, the reconstruction volumes of the denoise and cs workloads (tiny
# slices fit MSSIM's 11x11 window), and a volume between the two for the separable kernels.
SIZES = {
    "full": {"T": 2000, "cube": (32, 32, 32), "thin": (32, 32, 8), "mid": (32, 32, 24)},
    "tiny": {"T": 40, "cube": (12, 12, 12), "thin": (12, 12, 5), "mid": (12, 12, 9)},
}


def kernels(size: str) -> dict:
    """Name -> (set-up run before each timed call, or None; the call), on seeded inputs,
    for the ``sepop`` on the path."""
    import numpy as np

    from sepop import manifold, objective, reconstruct, tensor
    from sepop.volume import Volume

    dims = SIZES[size]
    rng = np.random.default_rng(20)
    factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
    params = objective.LearningParams()
    patches = rng.standard_normal((dims["T"], 5, 5, 5))
    batch = objective.PatchBatch.of(patches)
    # What each mode's product reads in an analysis of the whole batch at once.
    inputs = [np.ascontiguousarray(np.moveaxis(patches, 0, -1))]
    for factor in factors[:-1]:
        inputs.append(tensor.rotate_product(inputs[-1], factor))
    table = {
        f"rotate_product analysis mode {i + 1}": (None, lambda i=i: tensor.rotate_product(inputs[i], factors[i]))
        for i in range(3)
    }
    # The gradient releases the analysis it is given, so each call is given a fresh one, as in
    # a solve, computed before the call is timed.
    given: list = []
    table["learning_gradient given its analysis"] = (
        lambda: given.append(objective.patch_analysis(factors, batch, params.nu)),
        lambda: objective.learning_gradient(factors, batch, params, given.pop()))
    table["patch_analysis"] = (None, lambda: objective.patch_analysis(factors, batch, params.nu))
    table["learning cost"] = (None, lambda: objective.learning_cost(factors, batch, params))

    def cost_and_gradient():
        analysis = objective.patch_analysis(factors, batch, params.nu)
        objective.learning_cost(factors, batch, params, analysis)
        objective.learning_gradient(factors, batch, params, analysis)

    table["learning cost+gradient"] = (None, cost_and_gradient)
    for name in ("cube", "thin", "mid"):
        shape = dims[name]
        label = "x".join(map(str, shape))
        volume = rng.standard_normal(shape)
        coeffs = tensor.correlate_separable(volume, factors)
        table[f"correlate_separable {label}"] = (None, lambda v=volume: tensor.correlate_separable(v, factors))
        table[f"correlate_separable_adjoint {label}"] = (
            None, lambda c=coeffs, s=shape: tensor.correlate_separable_adjoint(c, factors, s))
        if name == "mid":
            continue
        scratch = np.empty_like(coeffs)
        table[f"sparsity_measure {label}"] = (None, lambda c=coeffs: objective.sparsity_measure(c, params.nu))
        table[f"sparsity_gradient {label}"] = (
            lambda c=coeffs, s=scratch: np.copyto(s, c),
            lambda s=scratch: objective.sparsity_gradient(s, params.nu))
    shape = dims["thin"]
    label = "x".join(map(str, shape))
    volume = rng.standard_normal(shape)
    op = reconstruct.FourierMeasurement(shape, reconstruct.radial_mask_for_rate(*shape[:2], 0.6))
    measured = op.forward(volume)
    table[f"Fourier forward {label}"] = (None, lambda: op.forward(volume))
    table[f"Fourier adjoint {label}"] = (None, lambda: op.adjoint(measured))
    for name in ("cube", "thin"):
        shape = dims[name]
        label = "x".join(map(str, shape))
        ref = Volume(rng.uniform(0, 255, shape))
        noisy = Volume(ref.data + rng.normal(0, 15, shape))
        table[f"mssim {label}"] = (None, lambda r=ref, t=noisy: reconstruct.mssim(r, t))
    return table


def worker(size: str, reps: int, name: str | None) -> None:
    """Print, as JSON, the kernel ``name``'s ``reps`` call times in ms, or without a name
    every kernel's name, for the ``sepop`` on the path."""
    table = kernels(size)
    if name is None:
        print(json.dumps(list(table)))
        return
    prepare, call = table[name]
    samples = []
    for rep in range(2 * reps):  # the first ``reps`` calls warm the kernel
        if prepare:
            prepare()
        begin = time.perf_counter()
        call()
        if rep >= reps:
            samples.append(1e3 * (time.perf_counter() - begin))
    print(json.dumps(samples))


def round_ratios(parent: list[list[float]], change: list[list[float]]) -> dict:
    """The :func:`bench_pairs.quartiles` over rounds of each round's change/parent ratio of
    the minimum call time, from one kernel's per-round call times on each side."""
    return quartiles([min(new) / min(old) for old, new in zip(parent, change)])


def run_worker(checkout: str, size: str, reps: int, name: str | None = None):
    """What :func:`worker` prints, from a fresh process on ``checkout``'s ``sepop``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), **MALLOC_ENV)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", "--reps", str(reps)]
    if size == "tiny":
        cmd.append("--tiny")
    if name is not None:
        cmd += ["--kernel", name]
    done = subprocess.run(cmd, env=env, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"kernel worker in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref", metavar="PARENT_REF", nargs="?")
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--reps", type=int, default=25)
    parser.add_argument("--tiny", action="store_const", const="tiny", default="full", dest="size")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--kernel", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.reps < 1:
        parser.error("--rounds and --reps must be at least 1")
    if args.worker:
        worker(args.size, args.reps, args.kernel)
        return 0

    sides = ("parent", "change") if args.parent_ref else ("change",)
    # side -> kernel -> one list of call times per round
    samples: dict[str, dict[str, list[list[float]]]] = {side: {} for side in sides}
    tmp = tempfile.mkdtemp(prefix="kernel-times-")
    try:
        if args.parent_ref:
            root = git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()
            checkouts = {side: os.path.join(tmp, side) for side in sides}
            export_ref(root, args.parent_ref, checkouts["parent"])
            export_worktree(root, checkouts["change"])
        else:
            checkouts = {"change": CHECKOUT}
        names = run_worker(checkouts["change"], args.size, args.reps)
        for round_ in range(args.rounds):
            for name in names:
                for side in sides if round_ % 2 == 0 else sides[::-1]:
                    times = run_worker(checkouts[side], args.size, args.reps, name)
                    samples[side].setdefault(name, []).append(times)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"{'kernel (ms)':40s}" + "".join(f"{side + ' min':>13s}{side + ' median':>15s}" for side in sides)
          + ("  ratio median [q1, q3]" if args.parent_ref else ""))
    for name in samples["change"]:
        row = f"{name:40s}"
        for side in sides:
            times = [t for round_times in samples[side][name] for t in round_times]
            row += f"{min(times):13.3f}{statistics.median(times):15.3f}"
        if args.parent_ref:
            ratio = round_ratios(samples["parent"][name], samples["change"][name])
            row += f"  {ratio['median']:12.3f} [{ratio['q1']:.3f}, {ratio['q3']:.3f}]"
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
