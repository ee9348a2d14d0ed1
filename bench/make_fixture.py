"""Regenerate the frozen operator that the ``denoise`` and ``cs`` workloads use.

The operator is learned once, with the acceptance configuration (a 32^3
phantom of seed 5, T=2000 patches, solver seed 3, 300-iteration cap), and
stored with the exact commands and a SHA-256 of the file.  Reconstruction
workloads load this file instead of learning, so a change to learning cannot
change what they compute.

Usage, from the repository root::

    python3 bench/make_fixture.py

Rewrites ``bench/fixture/operator.txt`` and ``bench/fixture/operator.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import common

COMMANDS = [
    ["gen", "--dims", "32,32,32", "--seed", "5", "--out", "phantom.vol"],
    [
        "learn", "--train-vol", "phantom.vol", "--T", "2000", "--max-iters", "300",
        "--seed", "3", "--out", "operator.txt",
    ],
]


def main() -> int:
    cli = common.import_sepop().cli
    os.makedirs(common.WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="fixture-", dir=common.WORK_DIR)
    cwd = os.getcwd()
    try:
        os.chdir(work)
        for argv in COMMANDS:
            code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"sepop {' '.join(argv)} exited {code}")
        os.chdir(cwd)
        shutil.copyfile(os.path.join(work, "operator.txt"), common.FIXTURE_OP)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "commands": [["sepop"] + argv for argv in COMMANDS],
        "sha256": common.sha256_file(common.FIXTURE_OP),
    }
    with open(common.FIXTURE_META, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {common.FIXTURE_OP} sha256 {record['sha256']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
