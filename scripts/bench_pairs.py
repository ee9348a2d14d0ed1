#!/usr/bin/env python3
"""Run the benchmark in alternating pairs: a parent commit against the working tree.

Usage, from anywhere inside the repository::

    scripts/bench_pairs.py PARENT_REF --workload W --seeds A..B [--seconds 30] [--out FILE]

``PARENT_REF`` is exported with ``git archive`` into a temporary directory,
and the working tree (tracked files with their uncommitted edits, plus
untracked files that ``.gitignore`` does not exclude) into another.  For each
seed from A to B, ``bench/run.py --workload W --seed S --seconds T`` runs once
in each copy, one run at a time; the first side alternates pair to pair,
starting with the parent.  Each pair is printed as it finishes, then, per
end-to-end metric of ``BENCHMARK.json``, each side's median and inclusive
quartiles, the pairs the change won, and whether it meets the claim rule:
better in at least 9 of 10 pairs (ties count for neither side), with the
medians apart, in the better direction, by more than the parent's
interquartile range; and the no-regression rule: "within bound", "worse
beyond bound" (the change's median worse than the parent's by more than the
metric's ``bound`` in ``BENCHMARK.json``, a fraction of the parent's median),
or "unresolved (parent IQR wider than the bound)", unless every run of the
change is better than every run of the parent.

With ``--out``, the pairs and summary are written as
``workloads[W]`` of a ``BENCH_*.json`` file (an existing file keeps its other
workloads and fields), with ``command``, ``hardware`` and ``method`` filled
in; the prose fields (``title``, ``claim``, ``other_metrics``) are left for
the author.  The temporary copies are removed, and no benchmark process is
left running, however the script ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")


def git(root: str, *args: str) -> bytes:
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True).stdout


def export_ref(root: str, ref: str, dest: str) -> None:
    """Extract the tree of ``ref`` into ``dest`` with ``git archive``."""
    os.makedirs(dest)
    archive = dest + ".tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", root, "archive", "--format=tar", ref], check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    os.remove(archive)


def export_worktree(root: str, dest: str) -> None:
    """Copy the working tree's tracked and unignored untracked files into ``dest``."""
    listed = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in filter(None, listed.decode().split("\0")):
        src = os.path.join(root, rel)
        if not os.path.isfile(src):  # a tracked file deleted in the working tree
            continue
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))


def run_side(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its end-to-end metrics and command counts."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    # Its own process group, so that its worker processes go with it if this script is stopped.
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{stderr}")
    result = json.loads(lines[-1])
    row = {name: entry["value"] for name, entry in result["metrics"].items()}
    row["commands"] = result["attempted"]
    row["failed"] = result["failed"]
    return row


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def regression_verdict(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """The no-regression rule: the change's median may be worse than the parent's by at most
    ``bound`` times the parent's median, unresolved where the parent's IQR is wider than
    that, unless every change run is better (``sign`` -1 where lower is better) than every
    parent run."""
    spread = quartiles(parent)
    allowed = bound * abs(spread["median"])
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "within bound"
    if spread["iqr"] > allowed:
        return "unresolved (parent IQR wider than the bound)"
    loss = sign * (spread["median"] - statistics.median(change))
    return "worse beyond bound" if loss > allowed else "within bound"


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    summary = {}
    for metric in metrics:
        name = metric["name"]
        sign = -1.0 if metric["better"] == "lower" else 1.0
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        gains = [sign * (c - p) for p, c in zip(parent, change)]
        mid = statistics.median(parent)
        wins, spread = sum(g > 0 for g in gains), quartiles(parent)
        summary[name] = {
            "parent": spread,
            "change": quartiles(change),
            "change_better_pairs": wins,
            "tied_pairs": sum(g == 0 for g in gains),
            "median_change_pct": 100.0 * (statistics.median(change) - mid) / mid if mid else 0.0,
            "meets_claim_rule": (10 * wins >= 9 * len(pairs)
                                 and sign * (statistics.median(change) - mid) > spread["iqr"]),
            "bound": metric["bound"],
            "regression": regression_verdict(parent, change, sign, metric["bound"]),
        }
    return summary


def hardware() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy  # the interpreter that runs the benchmark's workers

    return (f"{os.cpu_count()}-CPU {model}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, one BLAS thread, the benchmark's malloc settings")


def parse_seeds(text: str) -> list[int]:
    first, sep, last = text.partition("..")
    if not sep or int(last) < int(first):
        raise argparse.ArgumentTypeError(f"seeds must read A..B with A <= B, got {text!r}")
    return list(range(int(first), int(last) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref", metavar="PARENT_REF")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, metavar="A..B")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", help="BENCH_*.json file to write the workload's pairs into")
    args = parser.parse_args()

    root = git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        checkouts = {side: os.path.join(tmp, side) for side in SIDES}
        export_ref(root, args.parent_ref, checkouts["parent"])
        export_worktree(root, checkouts["change"])
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_side(checkouts[side], args.workload, seed, args.seconds)
            pairs.append(pair)
            p, c = pair["parent"]["wall_s"], pair["change"]["wall_s"]
            print(f"seed {seed} ({order[0]} first): wall_s parent {p:.4f} change {c:.4f} "
                  f"({100 * (c - p) / p:+.1f} %)", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = summarize(pairs, metrics)
    for name, s in summary.items():
        par, chg = s["parent"], s["change"]
        print(f"{name:15s} parent {par['median']:.6g} [{par['q1']:.6g}, {par['q3']:.6g}]  "
              f"change {chg['median']:.6g} [{chg['q1']:.6g}, {chg['q3']:.6g}]  "
              f"{s['median_change_pct']:+.2f} %  change better in {s['change_better_pairs']}"
              f"/{len(pairs)}, tied {s['tied_pairs']}; "
              f"{'meets' if s['meets_claim_rule'] else 'does not meet'} the claim rule; "
              f"{s['regression']} ({100 * s['bound']:g} %)")

    if args.out:
        record = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                record = json.load(fh)
        record.setdefault("title", "")
        record["command"] = (f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                             "(trace 0), run by scripts/bench_pairs.py in a git export of each side")
        record["hardware"] = hardware()
        record["method"] = (f"alternating pairs against {args.parent_ref} (the first side alternates "
                            "pair to pair), same seed on both sides, one run at a time. wall_s and "
                            "setup_s are the benchmark's reference-scaled seconds. Quartiles are inclusive.")
        record.setdefault("workloads", {})[args.workload] = {"summary": summary, "pairs": pairs}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
