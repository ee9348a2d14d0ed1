"""The exit-code contract of the numeric flags, over generated command lines.

Each example runs ``learn``, ``denoise`` or ``cs`` on a 16^3 phantom with
``--T 40 --max-iters 2`` and some of the command's numeric flags set to
extreme values: 0, +-0.0, 5e-324, 1e-300, 1, 1e300, 1e308 and their
negatives, seeds of either sign.  Whatever the values, the command exits 0 or
1, never 2 (a runtime error).  On exit 1 it prints one ``error:`` line and
leaves the output it was given as it found it, and writes no other file; on
exit 0 every output it wrote reads back finite, except a PSNR of identical
volumes, which is +inf.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sepop import cli, learn, manifold, volume
from sepop.objective import LearningParams

MAGNITUDES = ["5e-324", "1e-300", "1", "1e300", "1e308"]
NUMBERS = st.sampled_from(["0", "0.0", "-0.0"] + MAGNITUDES + ["-" + m for m in MAGNITUDES])
SEEDS = st.integers(min_value=-(2**64), max_value=2**64).map(str)
FLAGS = {
    "learn": {"--nu": NUMBERS, "--kappa": NUMBERS, "--mu": NUMBERS, "--flat-tol": NUMBERS,
              "--seed": SEEDS},
    "denoise": {"--sigma": NUMBERS, "--lambda": NUMBERS, "--nu": NUMBERS, "--seed": SEEDS},
    "cs": {"--rate": NUMBERS, "--lambda": NUMBERS, "--nu": NUMBERS},
}
SENTINEL = b"left by an earlier run\n"


@st.composite
def command_lines(draw):
    """A command and a value for each of one or more of its numeric flags."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = draw(st.lists(st.sampled_from(sorted(FLAGS[command])), min_size=1, unique=True))
    return command, {flag: draw(FLAGS[command][flag]) for flag in flags}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The phantom, an operator file, and a directory for each example's outputs."""
    root = tmp_path_factory.mktemp("contract")
    phantom, ops = str(root / "p.vol"), str(root / "ops.txt")
    volume.write_volume(volume.synth_phantom((16, 16, 16), seed=7), phantom)
    rng = np.random.default_rng(3)
    factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
    learn.save_operators(ops, factors, LearningParams())
    return phantom, ops, root


def assert_reads_back_finite(command: str, out: str, csv_path: str) -> None:
    if command == "learn":
        learn.load_operators(out)  # refuses a non-finite entry
        with open(learn.log_path(out), encoding="utf-8") as fh:
            for line in fh:
                assert all(math.isfinite(float(v)) for v in line.split()[3::2]), line
        return
    volume.read_volume(out)  # refuses a non-finite voxel
    with open(csv_path, encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            # +inf is the PSNR of identical volumes, which a solve that cannot move writes
            psnr, mssim = float(row["psnr_db"]), float(row["mssim"])
            assert (math.isfinite(psnr) or psnr == math.inf) and math.isfinite(mssim), row


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=command_lines())
def test_numeric_flags_exit_0_or_1(inputs, drawn):
    phantom, ops, root = inputs
    command, values = drawn
    workdir = root / f"run{len(os.listdir(root))}"
    workdir.mkdir()
    out, csv_path = str(workdir / "out"), str(workdir / "m.csv")
    with open(out, "wb") as fh:
        fh.write(SENTINEL)
    if command == "learn":
        argv = ["learn", "--train-vol", phantom, "--T", "40"]
    else:
        argv = [command, "--in", phantom, "--op", ops, "--csv", csv_path]
    argv += ["--max-iters", "2", "--out", out]
    # argparse takes a separate "-1e300" for an option, as it does not look like a negative number
    argv += [f"{flag}={value}" for flag, value in values.items()]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with np.errstate(all="ignore"):
            code = cli.main(argv)
    assert code in (0, 1), (argv, err.getvalue())
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert os.listdir(workdir) == ["out"], argv
        with open(out, "rb") as fh:
            assert fh.read() == SENTINEL, argv
    else:
        assert_reads_back_finite(command, out, csv_path)
