"""One measuring process: set up, run CLI commands in a closed loop, check them.

Started by ``run.py`` in a fresh interpreter with BLAS threads already
pinned through the environment.  It imports ``sepop`` from the checkout,
writes its generated inputs, warms every layer the workload's command uses
with one full-size command capped at one iteration, and then calls
``sepop.cli.main(argv)`` one command at a time.  Command 0 is the probe
input; command i > 0 uses the inputs of ``SeedSequence([seed, i])``.
Commands are started while the time left in the window is at least the
median command time plus the median reference time (below), and at least
``--min-commands`` are made.

The frozen reference kernel of ``reference.py`` is timed right after
set-up and after every command, so that set-up time and each command's
time can be scaled by the machine's speed around them.

With ``--setup-only`` it stops where the first command would start.  The
result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time

import common
import reference
import workloads


def run_command(cli, argv: list[str]) -> tuple[int, str]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-commands", type=int, default=3)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--launch-ns", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    pkg = common.import_sepop()
    if args.workload != "learn":
        common.load_fixture(pkg)
    workload = workloads.make(args.workload, common.FIXTURE_OP)

    def command(index: int) -> workloads.Command:
        seeds = workloads.seeds_for(args.seed, index)
        return workload.command(pkg, args.work, f"in{index}", seeds, workload.max_iters)

    commands = [command(i) for i in range(args.min_commands)]
    # One full-size command with a 1-iteration cap warms every layer the
    # workload uses: lazy imports, and the allocator at full array sizes
    # (a first full-size call ran up to 1.5x slower than later ones).
    warm = workload.command(pkg, args.work, "warm", workloads.PROBE, 1)
    code, text = run_command(pkg.cli, warm.argv)
    if code != 0:
        raise SystemExit(f"warm-up command {warm.argv} exited {code}: {text}")

    # Set-up ends here; what follows is the benchmark's own apparatus.
    setup_s = (time.monotonic_ns() - args.launch_ns) * 1e-9
    ref = reference.Reference(args.workload, workload.dims)
    ref.step()
    refs = [ref.time()]
    result: dict = {"setup_s": setup_s, "refs": refs}
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    tracer = seen = None
    if args.trace:
        from tracing import Tracer
        import instrument

        tracer = Tracer()
        seen = instrument.install(tracer, pkg)

    start_ns = time.monotonic_ns()

    durations: list[float] = []
    codes: list[tuple[int, str]] = []
    while True:
        elapsed = (time.monotonic_ns() - start_ns) * 1e-9
        index = len(durations)
        cycle = statistics.median(durations) + statistics.median(refs) if durations else 0.0
        if index >= args.min_commands and elapsed + cycle > args.seconds:
            break
        if index == len(commands):
            commands.append(command(index))
        if tracer is not None:
            tracer.run = index
        t0 = time.perf_counter()
        codes.append(run_command(pkg.cli, commands[index].argv))
        durations.append(time.perf_counter() - t0)
        refs.append(ref.time())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        tracer.uninstall()
        metrics, notes = instrument.layer_metrics(tracer.spans, seen, len(durations))
        result["layers"] = {k: list(v) for k, v in metrics.items()}
        result["notes"] = notes
        if args.trace_out:
            tracer.dump(args.trace_out)

    # Outputs are checked after the loop, untraced and outside the window.
    failures: list[str] = []
    quality: dict[str, float] = {}
    for index, (cmd, (code, text)) in enumerate(zip(commands, codes)):
        if code != 0:
            failures.append(f"command {index}: exit code {code}: {text.strip()[-300:]}")
            continue
        outcome = workload.check(pkg, cmd, quality=index == 0 and tracer is None)
        if outcome.reasons:
            failures.append(f"command {index}: " + "; ".join(outcome.reasons))
        if index == 0:
            quality = outcome.quality

    result.update(
        {
            "env": common.environment(),
            "durations": durations,
            "failures": failures,
            "attempted": len(durations),
            "peak_rss_mib": peak_kib / 1024.0,
            "quality": quality,
        }
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except common.SetupError as exc:
        print(f"setup error: {exc}", file=sys.stderr)
        sys.exit(2)
