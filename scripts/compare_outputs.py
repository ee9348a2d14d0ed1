#!/usr/bin/env python3
"""Run the README's Quick-start at a parent commit and in the working tree, and compare the files.

Usage, from anywhere inside the repository::

    scripts/compare_outputs.py PARENT_REF

``PARENT_REF`` and the working tree are exported as ``scripts/bench_pairs.py``
exports them.  The ``sh`` block under the working tree README's "Quick start"
heading is run in a fresh directory per side, one command at a time, each
``sepop ...`` as ``python -m sepop.cli ...`` with that side's ``src`` on
``PYTHONPATH`` and the benchmark's one-thread settings; what the commands
print goes to one more file, ``quick-start.stdout``.  Every file that either
side wrote is then compared byte for byte and printed as "same" or "differs"
(a file that only one side wrote differs).  The exit status is 1 if any file
differs, and 0 if every file is the same.  The temporary copies are removed
however the script ends.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import shlex
import shutil
import subprocess
import sys
import tempfile

from bench_pairs import SIDES, export_ref, export_worktree, git

# The benchmark's worker environment has one owner, bench/common.py, which the scripts
# read as it is (kernel_times.py takes MALLOC_ENV from here too).
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
from common import MALLOC_ENV, THREAD_VARS  # noqa: E402,F401


def quick_start(readme: str) -> list[list[str]]:
    """The argument vectors of the ``sh`` block under the README's "Quick start" heading."""
    lines = readme.splitlines()
    heading = next(i for i, line in enumerate(lines) if line.startswith("## Quick start"))
    begin = lines.index("```sh", heading) + 1
    block = "\n".join(lines[begin : lines.index("```", begin)]).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv for argv in commands if argv]


def run_quick_start(checkout: str, commands: list[list[str]], rundir: str) -> None:
    """Run each ``sepop`` command with ``checkout``'s package, in ``rundir``, and write
    what they print to ``rundir``'s ``quick-start.stdout`` after the last."""
    os.makedirs(rundir)
    printed = []
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    for argv in commands:
        if argv[0] != "sepop":
            raise ValueError(f"not a sepop command: {shlex.join(argv)}")
        done = subprocess.run([sys.executable, "-m", "sepop.cli", *argv[1:]], cwd=rundir,
                              env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{shlex.join(argv)} in {checkout} exited {done.returncode}:\n"
                               f"{done.stderr}")
        printed.append(done.stdout)
    with open(os.path.join(rundir, "quick-start.stdout"), "w", encoding="utf-8") as fh:
        fh.write("".join(printed))


def files_under(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _dirs, names in os.walk(root) for name in names}


def compare_dirs(parent: str, change: str) -> dict[str, str]:
    """Each file under either directory, by relative path: "same" if both hold it
    with the same bytes, else "differs"."""
    names = files_under(parent) | files_under(change)
    return {
        name: "same" if all(os.path.isfile(os.path.join(d, name)) for d in (parent, change))
        and filecmp.cmp(os.path.join(parent, name), os.path.join(change, name), shallow=False)
        else "differs"
        for name in sorted(names)
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref", metavar="PARENT_REF")
    args = parser.parse_args()

    root = git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        commands = quick_start(fh.read())
    tmp = tempfile.mkdtemp(prefix="compare-outputs-")
    try:
        checkouts = {side: os.path.join(tmp, side) for side in SIDES}
        export_ref(root, args.parent_ref, checkouts["parent"])
        export_worktree(root, checkouts["change"])
        for side in SIDES:
            run_quick_start(checkouts[side], commands, os.path.join(tmp, "run-" + side))
        verdicts = compare_dirs(*(os.path.join(tmp, "run-" + side) for side in SIDES))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, verdict in verdicts.items():
        print(f"{verdict:8s} {name}")
    return int(any(verdict != "same" for verdict in verdicts.values()))


if __name__ == "__main__":
    raise SystemExit(main())
