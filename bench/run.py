"""sepop benchmark: one closed-loop user running one CLI command at a time.

Usage, from the root of a checkout::

    python3 bench/run.py --workload learn|denoise|cs --seed N --seconds S --trace 0|1

Every measurement happens in a fresh ``worker.py`` process with BLAS
pinned to one thread and glibc kept from returning freed memory to the
kernel.

``--trace 0`` runs two set-up-only processes and one measuring process and
prints the end-to-end metrics: ``wall_s`` (median time of one timed CLI
command, each scaled by the frozen reference kernel of ``reference.py``
timed around it, in seconds at the usual speed of the machine the
kernel was calibrated on), ``setup_s`` (median over the three processes of
process start to the first timed command, scaled the same way by the
reference timed right after it), ``peak_rss_mib`` (peak resident
memory of the measuring process), and the quality of the probe command's
output: ``psnr_gain_db``, ``mssim`` and ``sparsity_ratio``.

``--trace 1`` runs an untraced and a traced measuring process, each for
half the window, and prints the per-layer metrics read from the traced one
plus ``trace.overhead_s``, the traced ``wall_s`` minus the untraced one.
Spans are written to ``.bench_out``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
checkout without ``src/sepop`` or the frozen operator exits 2 before any
measurement and prints no result.
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

import common
import kernels
import reference
import workloads

DEADLINE_S = 170.0
SETUP_PROCESSES = 3
WORKER = os.path.join(common.BENCH_DIR, "worker.py")
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "psnr_gain_db": "dB",
    "mssim": "index",
    "sparsity_ratio": "ratio",
}


class WorkerError(Exception):
    pass


def worker_env() -> dict[str, str]:
    # One BLAS thread, within nproc: on a shared 2-core machine, per-process
    # median times over three processes spread about 6 % with one thread
    # and 12 % with two, and iteration counts and costs are identical.
    env = dict(os.environ)
    for var in common.THREAD_VARS:
        env[var] = "1"
    # glibc serves every allocation from the heap and never trims it, so the
    # numpy temporaries of one evaluation reuse the pages of the last one.
    # By default it maps and unmaps them each time, and the page faults that
    # follow cost a third of a `cs` command in kernel time that, on a shared
    # VM, varies independently of user-space speed; the reference kernel of
    # reference.py can only track the latter.
    env.update(common.MALLOC_ENV)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, work: str, deadline: float, extra: list[str]) -> dict:
    out = os.path.join(work, f"worker-{time.monotonic_ns()}.json")
    argv = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--work", work, "--out", out, *extra,
    ]
    argv += ["--launch-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(
            argv, env=worker_env(), capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(out, "r", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(args, work: str, deadline: float) -> tuple[dict, dict]:
    runs = [
        run_worker(args, work, deadline, ["--seconds", "0", "--setup-only"])
        for _ in range(SETUP_PROCESSES - 1)
    ]
    main = run_worker(args, work, deadline, ["--seconds", str(args.seconds)])
    runs.append(main)
    nominal_s = reference.NOMINAL_S[args.workload]
    main["scaled"] = reference.scaled(main["durations"], main["refs"], nominal_s)
    # Set-up is scaled like a command, by the reference timed right after it.
    main["setups"] = [run["setup_s"] for run in runs]
    main["setups_scaled"] = [run["setup_s"] * nominal_s / run["refs"][0] for run in runs]
    values = {
        "wall_s": statistics.median(main["scaled"]),
        "setup_s": statistics.median(main["setups_scaled"]),
        "peak_rss_mib": main["peak_rss_mib"],
        **main["quality"],
    }
    missing = [name for name in END_TO_END if name not in values]
    if missing:
        main["failures"].append(f"no value for {', '.join(missing)}")
    metrics = {name: (values.get(name, 0.0), unit) for name, unit in END_TO_END.items()}
    return metrics, main


def per_layer(args, work: str, deadline: float) -> tuple[dict, dict]:
    half = ["--seconds", str(args.seconds / 2), "--min-commands", "2"]
    plain = run_worker(args, work, deadline, half)
    os.makedirs(common.OUT_DIR, exist_ok=True)
    spans = os.path.join(common.OUT_DIR, f"{args.workload}-seed{args.seed}-spans.jsonl")
    traced = run_worker(args, work, deadline, [*half, "--trace", "--trace-out", spans])
    nominal_s = reference.NOMINAL_S[args.workload]
    plain_s, traced_s = (reference.scaled(r["durations"], r["refs"], nominal_s) for r in (plain, traced))
    n = min(len(plain_s), len(traced_s))
    overhead = statistics.median(traced_s[:n]) - statistics.median(plain_s[:n])
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["trace.overhead_s"] = (overhead, "s")
    dims = workloads.make(args.workload, common.FIXTURE_OP).dims
    for name, value in kernels.computed(dims).items():
        metrics[f"computed.{name}"] = (value, "MFLOP" if name.endswith("mflop") else "MiB")
    traced["notes"]["computed.*"] = (
        f"computed from shapes, not measured: learning at T=2000, reconstruction at {dims}"
    )
    traced["failures"] = plain["failures"] + traced["failures"]
    traced["attempted"] += plain["attempted"]
    traced["spans_file"] = os.path.relpath(spans, common.ROOT)
    return metrics, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(common.SRC, "sepop", "__init__.py")):
        print(f"error: no sepop sources under {common.SRC}", file=sys.stderr)
        return 2
    if args.workload != "learn" and not os.path.isfile(common.FIXTURE_OP):
        print(f"error: frozen operator missing: {common.FIXTURE_OP}", file=sys.stderr)
        return 2

    os.makedirs(common.WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.WORK_DIR)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(args, work, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = detail["failures"]
    attempted = detail["attempted"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} commands, median {statistics.median(detail['durations']):.4f} s")
    print(f"reference kernel: median {statistics.median(detail['refs']):.4f} s over "
          f"{len(detail['refs'])} measurements")
    if detail.get("setups"):
        print(f"set-up: raw median {statistics.median(detail['setups']):.4f} s")
    print("env " + json.dumps(detail["env"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':40s} {len(failures) / attempted:14.6g} ratio")
    for name, note in sorted(detail.get("notes", {}).items()):
        print(f"  note {name}: {note}")
    for failure in failures:
        print(f"  FAILED {failure}")

    os.makedirs(common.OUT_DIR, exist_ok=True)
    record = os.path.join(common.OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "metrics": metrics, **detail}, fh, indent=1)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
