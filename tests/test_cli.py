import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sepop import cli, learn, manifold, volume
from sepop.objective import LearningParams


def run(*args):
    return cli.main(list(args))


@pytest.fixture
def phantom(tmp_path):
    path = str(tmp_path / "p.vol")
    assert run("gen", "--dims", "16,16,16", "--seed", "7", "--out", path) == 0
    return path


@pytest.fixture
def operators(tmp_path):
    path = str(tmp_path / "ops.txt")
    rng = np.random.default_rng(3)
    factors = [manifold.random_factor(6, 5, rng) for _ in range(3)]
    learn.save_operators(path, factors, LearningParams())
    return path


class TestGen:
    def test_writes_readable_volume(self, phantom):
        vol = volume.read_volume(phantom)
        assert vol.dims == (16, 16, 16)

    def test_repeatable(self, tmp_path):
        a = str(tmp_path / "a.vol")
        b = str(tmp_path / "b.vol")
        run("gen", "--dims", "12,12,12", "--seed", "4", "--out", a)
        run("gen", "--dims", "12,12,12", "--seed", "4", "--out", b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_malformed_dims(self, tmp_path):
        assert run("gen", "--dims", "12x12x12", "--out", str(tmp_path / "x.vol")) == 1

    def test_too_small_dims(self, tmp_path, capsys):
        assert run("gen", "--dims", "4,12,12", "--out", str(tmp_path / "x.vol")) == 1
        assert "phantom dims must be at least 8 per axis" in capsys.readouterr().err


class TestLearn:
    def test_small_run_writes_operator_and_log(self, tmp_path, phantom):
        out = str(tmp_path / "ops.txt")
        code = run(
            "learn", "--train-vol", phantom, "--T", "100", "--max-iters", "10",
            "--seed", "1", "--out", out,
        )
        assert code == 0
        factors, meta = learn.load_operators(out)
        assert len(factors) == 3
        assert factors[0].shape == (6, 5)
        # default hyperparameters recorded in the header
        assert meta["nu"] == "1000.0"
        assert meta["kappa"] == "500.0"
        assert meta["mu"] == "0.5"
        assert meta["flat_tol"] == "1.0"
        log = open(out + ".log").read().splitlines()
        costs = [float(line.split()[3]) for line in log]
        assert costs[-1] < costs[0]

    def test_wide_shape_rejected(self, tmp_path, phantom, capsys):
        code = run(
            "learn", "--train-vol", phantom, "--shape", "4x5,6x5,6x5",
            "--out", str(tmp_path / "o.txt"),
        )
        assert code == 1
        assert "factor shape 4x5 for mode 0 is not tall" in capsys.readouterr().err

    def test_missing_volume(self, tmp_path):
        assert run("learn", "--train-vol", str(tmp_path / "no.vol"), "--out", "o") == 1

    def test_flat_volume_exits_1_naming_the_counts(self, tmp_path, capsys):
        path = str(tmp_path / "flat.vol")
        volume.write_volume(volume.Volume(np.full((12, 12, 12), 7.0)), path)
        code = run("learn", "--train-vol", path, "--T", "20", "--out", str(tmp_path / "o.txt"))
        assert code == 1
        assert "flatness rejection too severe: 0 of 20 patches accepted after 2000 draws" in (
            capsys.readouterr().err
        )

    def test_negative_flat_tol_exits_1_naming_the_flag(self, tmp_path, phantom, capsys):
        args = ["learn", "--train-vol", phantom, "--T", "50", "--max-iters", "2"]
        assert run(*args, "--flat-tol", "-1", "--out", str(tmp_path / "o.txt")) == 1
        assert "flat_tol must be nonnegative, got -1.0" in capsys.readouterr().err
        assert run(*args, "--flat-tol", "0", "--out", str(tmp_path / "o.txt")) == 0


def test_patch_dims_come_from_the_operator(tmp_path, phantom):
    ops = str(tmp_path / "ops.txt")
    code = run(
        "learn", "--train-vol", phantom, "--shape", "6x4,6x4,6x4", "--T", "100",
        "--max-iters", "5", "--seed", "1", "--out", ops,
    )
    assert code == 0
    assert learn.load_operators(ops)[1]["patch_dims"] == "4,4,4"
    for command in (["denoise", "--sigma", "5"], ["cs", "--rate", "0.5"]):
        code = run(
            command[0], "--in", phantom, "--op", ops, *command[1:], "--max-iters", "2",
            "--out", str(tmp_path / "r.vol"),
        )
        assert code == 0, command[0]


@pytest.mark.parametrize("modes", [2, 4])
@pytest.mark.parametrize("command", [["denoise", "--sigma", "5"], ["cs", "--rate", "0.5"]])
def test_operator_with_wrong_mode_count_exits_1(tmp_path, phantom, capsys, command, modes):
    path = str(tmp_path / "ops.txt")
    rng = np.random.default_rng(3)
    factors = [manifold.random_factor(6, 5, rng) for _ in range(modes)]
    learn.save_operators(path, factors, LearningParams())
    code = run(
        command[0], "--in", phantom, "--op", path, *command[1:], "--max-iters", "2",
        "--out", str(tmp_path / "r.vol"),
    )
    assert code == 1
    assert f"{modes} factors cannot analyze a tensor of order 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("denoise", "--lambda", "nan", "lam must be positive and finite, got nan"),
        ("denoise", "--lambda", "inf", "lam must be positive and finite, got inf"),
        ("denoise", "--nu", "nan", "nu must be positive and finite, got nan"),
        ("denoise", "--sigma", "nan", "sigma must be nonnegative and finite, got nan"),
        ("cs", "--lambda", "nan", "lam must be positive and finite, got nan"),
        ("learn", "--nu", "nan", "nu must be positive and finite, got nan"),
        ("learn", "--kappa", "nan", "kappa and mu must be nonnegative and finite, got nan, 0.5"),
        ("learn", "--mu", "nan", "kappa and mu must be nonnegative and finite, got 500.0, nan"),
        ("learn", "--flat-tol", "nan", "flat_tol must be nonnegative, got nan"),
    ],
)
def test_non_finite_flag_exits_1_naming_the_field(
    tmp_path, phantom, operators, capsys, command, flag, value, message
):
    argv = flag_run(command, flag, phantom, operators) + [flag, value, "--out", str(tmp_path / "out")]
    assert run(*argv) == 1
    assert message in capsys.readouterr().err


def flag_run(command, flag, phantom, operators):
    """A short run of ``command`` without ``flag`` or ``--out``."""
    if command == "learn":
        return ["learn", "--train-vol", phantom, "--T", "50", "--max-iters", "2"]
    args = [command, "--in", phantom, "--op", operators, "--max-iters", "2"]
    if command == "denoise" and flag != "--sigma":
        args += ["--sigma", "5"]
    return args


@pytest.mark.parametrize(
    "value, shown", [("-1e-3", "-0.001"), ("-1E+2", "-100.0"), ("-inf", "-inf"), ("-nan", "nan")]
)
@pytest.mark.parametrize(
    "command, flag, message",
    [
        ("learn", "--nu", "nu must be positive and finite, got {}"),
        ("learn", "--kappa", "kappa and mu must be nonnegative and finite, got {}, 0.5"),
        ("learn", "--mu", "kappa and mu must be nonnegative and finite, got 500.0, {}"),
        ("learn", "--flat-tol", "flat_tol must be nonnegative, got {}"),
        ("denoise", "--sigma", "sigma must be nonnegative and finite, got {}"),
        ("denoise", "--lambda", "lam must be positive and finite, got {}"),
        ("denoise", "--nu", "nu must be positive and finite, got {}"),
        ("cs", "--rate", "rate must lie in (0, 1], got {}"),
        ("cs", "--lambda", "lam must be positive and finite, got {}"),
        ("cs", "--nu", "nu must be positive and finite, got {}"),
    ],
)
def test_negative_float_as_its_own_token_is_refused_by_its_value(
    tmp_path, phantom, operators, capsys, command, flag, message, value, shown
):
    # argparse's own negative-number pattern has no exponent, infinity or nan: it took
    # "-1e-3" for an option and exited with "expected one argument"
    capsys.readouterr()
    argv = flag_run(command, flag, phantom, operators) + [flag, value, "--out", str(tmp_path / "out")]
    assert run(*argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message.format(shown)}"]
    assert not (tmp_path / "out").exists()


def test_an_unknown_option_after_a_flag_is_still_refused(tmp_path, phantom, operators, capsys):
    argv = flag_run("cs", "--lambda", phantom, operators)
    argv += ["--lambda", "-x", "--out", str(tmp_path / "out")]
    assert run(*argv) == 1
    assert "argument --lambda: expected one argument" in capsys.readouterr().err


def small_run(command, phantom, operators, tmp_path):
    """A short valid run of ``command`` with each output it has under ``tmp_path``."""
    out, csv = ["--out", str(tmp_path / "r.vol")], ["--csv", str(tmp_path / "m.csv")]
    recover = ["--op", operators, "--max-iters", "2", *out, *csv]
    return {
        "gen": ["gen", "--dims", "16,16,16", *out],
        "learn": ["learn", "--train-vol", phantom, "--T", "50", "--max-iters", "2", *out],
        "denoise": ["denoise", "--in", phantom, "--sigma", "5", *recover],
        "cs": ["cs", "--in", phantom, "--rate", "0.5", *recover],
        "eval": ["eval", "--ref", phantom, "--test", phantom, *csv],
    }[command]


def with_value(argv, flag, value):
    if flag in argv:
        return argv[: argv.index(flag) + 1] + [value] + argv[argv.index(flag) + 2 :]
    return argv + [flag, value]


def forbid_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the reconstruction ran")

    monkeypatch.setattr(cli.recon_mod, "reconstruct", no_solve)


def assert_nothing_written(tmp_path):
    """None of the outputs that ``small_run`` names exists."""
    assert not (tmp_path / "r.vol").exists()
    assert not Path(volume.header_path(str(tmp_path / "r.vol"))).exists()
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("command", ["denoise", "cs"])
def test_undersized_slices_exit_1_before_the_solve(
    tmp_path, operators, capsys, monkeypatch, command
):
    # both commands report MSSIM, whose 11x11 window does not fit an 8x8 slice
    small = str(tmp_path / "s.vol")
    assert run("gen", "--dims", "8,8,8", "--out", small) == 0
    capsys.readouterr()
    forbid_solve(monkeypatch)
    argv = small_run(command, small, operators, tmp_path)
    assert run(*argv) == 1
    assert "slices must be at least 11x11 for SSIM, got 8x8" in capsys.readouterr().err
    assert_nothing_written(tmp_path)


def test_reference_of_another_shape_exits_1_before_the_solve(
    tmp_path, phantom, operators, capsys, monkeypatch
):
    # the noisy row, computed before the solve, compares the reference with the input
    other = str(tmp_path / "o.vol")
    assert run("gen", "--dims", "16,16,12", "--out", other) == 0
    capsys.readouterr()
    forbid_solve(monkeypatch)
    argv = small_run("denoise", other, operators, tmp_path) + ["--ref", phantom]
    assert run(*argv) == 1
    assert "shape mismatch: (16, 16, 16) vs (16, 16, 12)" in capsys.readouterr().err
    assert_nothing_written(tmp_path)


@pytest.mark.parametrize("command", ["denoise", "cs"])
def test_non_positive_max_iters_exits_1_writing_nothing(
    tmp_path, phantom, operators, capsys, command
):
    argv = with_value(small_run(command, phantom, operators, tmp_path), "--max-iters", "0")
    assert run(*argv) == 1
    assert "max_iters must be positive" in capsys.readouterr().err
    assert_nothing_written(tmp_path)


@pytest.mark.parametrize("command, seed", [("gen", "-1"), ("learn", "-3"), ("denoise", "-2")])
def test_negative_seed_exits_1_naming_it(tmp_path, phantom, operators, capsys, command, seed):
    capsys.readouterr()
    argv = small_run(command, phantom, operators, tmp_path) + [f"--seed={seed}"]
    assert run(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: seed must be a non-negative integer, got {seed}"]
    assert_nothing_written(tmp_path)


@pytest.mark.parametrize(
    "settings, lam",
    [(["--sigma", "1e300"], "2e+302"), (["--sigma", "15", "--lambda", "1e308"], "1e+308"),
     (["--sigma", "15", "--lambda", "1e300"], "1e+300")],  # the last: the gradient's norm
)
def test_non_finite_starting_cost_exits_1_writing_nothing(
    tmp_path, phantom, operators, capsys, settings, lam
):
    # the penalty overflows at the start: the solve refuses it, naming the term, lam and nu
    argv = with_value(small_run("denoise", phantom, operators, tmp_path), "--max-iters", "1")
    for flag, value in zip(settings[::2], settings[1::2]):
        argv = with_value(argv, flag, value)
    with np.errstate(over="ignore"):
        assert run(*argv) == 1
    message = "the regularizer term or its gradient's norm is not finite at the start, "
    assert message + f"lam {lam}, nu 1000.0" in capsys.readouterr().err
    assert_nothing_written(tmp_path)


@pytest.mark.parametrize(
    "flag, value, term, weights",
    [("--kappa", "1e308", "rank barrier", "nu 1000.0, kappa 1e+308, mu 0.5"),
     ("--mu", "1e308", "coherence barrier", "nu 1000.0, kappa 500.0, mu 1e+308"),
     # finite costs whose gradient's norm is not: the barrier's gradient, of about kappa,
     # squares past the float range, and the penalty's derivative 2 nu c / (1 + nu c^2)
     # forms 2 nu = inf
     ("--kappa", "1e300", "rank barrier", "nu 1000.0, kappa 1e+300, mu 0.5"),
     ("--nu", "1e308", "sparsity", "nu 1e+308, kappa 500.0, mu 0.5")],
)
def test_learning_start_of_non_finite_cost_exits_1_writing_nothing(
    tmp_path, phantom, operators, capsys, flag, value, term, weights
):
    argv = with_value(small_run("learn", phantom, operators, tmp_path), flag, value)
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(*argv) == 1
    message = f"the {term} term or its gradient's norm is not finite at the start, {weights}"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.vol").exists()
    assert not Path(learn.log_path(str(tmp_path / "r.vol"))).exists()


def test_metrics_that_overflow_exit_1_writing_nothing(tmp_path, phantom, operators, capsys):
    # noise of sigma 1e300 squares to inf; a negligible regularizer leaves the noisy volume
    argv = small_run("denoise", phantom, operators, tmp_path)
    for flag, value in (("--sigma", "1e300"), ("--lambda", "5e-324"), ("--nu", "5e-324")):
        argv = with_value(argv, flag, value)
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(*argv) == 1
    assert "error: MSSIM overflows" in capsys.readouterr().err
    assert_nothing_written(tmp_path)


@pytest.mark.parametrize("command", [["denoise", "--sigma", "15"], ["cs", "--rate", "0.6"]])
def test_output_keeps_the_input_intensity_range(tmp_path, phantom, operators, command):
    # the solve returns a volume of the default range [0, 255]; the command writes the input's
    wide, out = str(tmp_path / "wide.vol"), str(tmp_path / "r.vol")
    volume.write_volume(volume.Volume(4.0 * volume.read_volume(phantom).data, (0.0, 1020.0)), wide)
    argv = [command[0], "--in", wide, "--op", operators, *command[1:], "--max-iters", "2"]
    assert run(*argv, "--out", out) == 0
    assert volume.read_volume(out).intensity_range == (0.0, 1020.0)


@pytest.mark.parametrize("field, value", [("dims", [True, 16, 16]), ("intensity_range", [True, 255])])
def test_boolean_header_value_exits_1_naming_the_field(tmp_path, phantom, capsys, field, value):
    hpath = volume.header_path(phantom)
    with open(hpath, encoding="utf-8") as fh:
        header = json.load(fh)
    header[field] = value
    with open(hpath, "w", encoding="utf-8") as fh:
        json.dump(header, fh)
    assert run("eval", "--ref", phantom, "--test", phantom) == 1
    assert f"malformed header field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        (command, flag, value, message)
        for command in ("denoise", "cs")
        for flag, value, message in [
            ("--max-iters", "0", "max_iters must be positive"),
            ("--lambda", "0", "lam must be positive and finite, got 0.0"),
            ("--lambda", "nan", "lam must be positive and finite, got nan"),
        ]
    ]
    + [("denoise", "--sigma", "-1", "sigma must be nonnegative and finite, got -1.0")],
)
def test_invalid_solve_settings_exit_1_before_any_volume_is_read(
    tmp_path, phantom, operators, capsys, monkeypatch, command, flag, value, message
):
    def no_read(*args, **kwargs):
        raise AssertionError("a volume was read")

    capsys.readouterr()
    monkeypatch.setattr(cli.volume_mod, "read_volume", no_read)
    argv = with_value(small_run(command, phantom, operators, tmp_path), flag, value)
    assert run(*argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
    assert_nothing_written(tmp_path)


OUTPUT_FLAGS = [
    ("gen", "--out"),
    ("learn", "--out"),
    ("denoise", "--out"),
    ("denoise", "--csv"),
    ("cs", "--out"),
    ("cs", "--csv"),
    ("eval", "--csv"),
]


@pytest.mark.parametrize("where", ["missing directory", "directory"])
@pytest.mark.parametrize("command, flag", OUTPUT_FLAGS)
def test_bad_output_path_exits_1_before_any_work(
    tmp_path, phantom, operators, capsys, command, flag, where
):
    (tmp_path / "folder").mkdir()
    bad = str(tmp_path / ("nowhere/x" if where == "missing directory" else "folder"))
    before = sorted(tmp_path.rglob("*"))
    assert run(*with_value(small_run(command, phantom, operators, tmp_path), flag, bad)) == 1
    assert f"output {bad} is a directory or lies in a missing one" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command, flag", OUTPUT_FLAGS)
def test_empty_output_path_exits_1_before_any_work(
    tmp_path, phantom, operators, capsys, monkeypatch, command, flag
):
    # run in tmp_path, where a file named from the empty path (a '.json' header) would land
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert run(*with_value(small_run(command, phantom, operators, tmp_path), flag, "")) == 1
    assert f"{flag} needs a file name, got an empty one" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "command, sidecar",
    [("gen", ".json"), ("learn", ".log"), ("denoise", ".json"), ("cs", ".json")],
)
def test_directory_at_the_sidecar_path_exits_1_before_any_work(
    tmp_path, phantom, operators, capsys, command, sidecar
):
    # the header or training log written beside --out is an output too
    bad = tmp_path / ("r.vol" + sidecar)
    bad.mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert run(*small_run(command, phantom, operators, tmp_path)) == 1
    assert f"output {bad} is a directory or lies in a missing one" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "command, flag",
    [("denoise", "--op"), ("learn", "--train-vol"), ("cs", "--in"), ("denoise", "--ref")],
)
def test_directory_input_exits_1_naming_it(tmp_path, phantom, operators, capsys, command, flag):
    # a volume header sits beside the directory, so only the path's type is wrong
    folder = tmp_path / "folder"
    folder.mkdir()
    shutil.copy(phantom + ".json", str(folder) + ".json")
    argv = with_value(small_run(command, phantom, operators, tmp_path), flag, str(folder))
    assert run(*argv) == 1
    assert str(folder) in capsys.readouterr().err


@pytest.mark.parametrize("target", ["out", "header", "header by another path"])
@pytest.mark.parametrize("command", ["denoise", "cs"])
def test_outputs_that_name_one_file_exit_1_before_any_work(
    tmp_path, phantom, operators, capsys, command, target
):
    # a CSV written over the volume or its header leaves a volume that cannot be read
    (tmp_path / "folder").mkdir()
    out = str(tmp_path / "r.vol")
    csv = {
        "out": out,
        "header": volume.header_path(out),
        "header by another path": str(tmp_path / "folder" / ".." / "r.vol.json"),
    }[target]
    before = sorted(tmp_path.rglob("*"))
    assert run(*with_value(small_run(command, phantom, operators, tmp_path), "--csv", csv)) == 1
    err = capsys.readouterr().err
    assert "name the same file" in err and csv in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "command, output, flag, target",
    [
        (command, output, flag, target)
        for command, output, flag in [
            ("learn", "--out", "--train-vol"),
            ("denoise", "--out", "--in"),
            ("denoise", "--csv", "--in"),
            ("denoise", "--csv", "--ref"),
            ("cs", "--out", "--in"),
            ("cs", "--csv", "--in"),
            ("eval", "--csv", "--ref"),
            ("eval", "--csv", "--test"),
        ]
        for target in ("payload", "header")
    ]
    + [("denoise", "--out", "--op", "file"), ("cs", "--csv", "--op", "file")],
)
def test_an_output_that_names_an_input_exits_1_before_any_work(
    tmp_path, phantom, operators, capsys, command, output, flag, target
):
    # the input under test is a copy of its own, so only its flag can name it
    if flag == "--op":
        given = str(tmp_path / "own.txt")
        shutil.copy(operators, given)
    else:
        given = str(tmp_path / "own.vol")
        shutil.copy(phantom, given)
        shutil.copy(volume.header_path(phantom), volume.header_path(given))
    argv = with_value(small_run(command, phantom, operators, tmp_path), flag, given)
    named = volume.header_path(given) if target == "header" else given
    before = {path: path.read_bytes() for path in sorted(tmp_path.rglob("*")) if path.is_file()}
    assert run(*with_value(argv, output, named)) == 1
    assert f"output {named} and input {named} name the same file" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in sorted(tmp_path.rglob("*")) if path.is_file()} == before


def test_the_same_file_by_another_path_is_refused(tmp_path, phantom, operators, capsys):
    (tmp_path / "folder").mkdir()
    other = str(tmp_path / "folder" / ".." / os.path.basename(phantom))
    argv = with_value(small_run("denoise", phantom, operators, tmp_path), "--out", other)
    assert run(*argv) == 1
    assert f"output {other} and input {phantom} name the same file" in capsys.readouterr().err
    assert volume.read_volume(phantom).dims == (16, 16, 16)


def python(*args):
    """Run a fresh interpreter that imports ``sepop`` from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_exit_status_at_the_process_boundary(tmp_path):
    def sepop(*args):
        return python("-m", "sepop.cli", *args)

    refused = sepop("gen", "--dims", "4,12,12", "--out", str(tmp_path / "x.vol"))
    assert refused.returncode == 1
    assert refused.stdout == ""
    assert "error: phantom dims must be at least 8 per axis" in refused.stderr
    written = sepop("gen", "--dims", "8,8,8", "--out", str(tmp_path / "x.vol"))
    assert written.returncode == 0, written.stderr
    assert volume.read_volume(str(tmp_path / "x.vol")).dims == (8, 8, 8)


def test_metric_commands_import_no_scipy(tmp_path):
    vol, ops = str(tmp_path / "v.vol"), str(tmp_path / "ops.txt")
    slab = volume.synth_phantom((16, 16, 8), seed=2).data[..., :4]
    volume.write_volume(volume.Volume(slab), vol)
    rng = np.random.default_rng(3)
    shapes = [(6, 5), (6, 5), (4, 3)]
    learn.save_operators(ops, [manifold.random_factor(k, n, rng) for k, n in shapes])
    commands = [
        ["eval", "--ref", vol, "--test", vol],
        ["cs", "--in", vol, "--op", ops, "--max-iters", "1", "--out", str(tmp_path / "r.vol")],
    ]
    script = "\n".join([
        "import sys",
        "from sepop import cli",
        f"for argv in {commands!r}:",
        "    if cli.main(argv):",
        "        sys.exit(f'{argv[0]} failed')",
        "loaded = sorted(name for name in sys.modules if name.startswith('scipy'))",
        "sys.exit(f'scipy modules loaded: {loaded}' if loaded else 0)",
    ])
    result = python("-c", script)
    assert result.returncode == 0, result.stderr


class TestDenoise:
    def test_sigma_zero_tiny_lambda_roundtrip(self, tmp_path, phantom, operators):
        out = str(tmp_path / "d.vol")
        code = run(
            "denoise", "--in", phantom, "--op", operators, "--sigma", "0",
            "--lambda", "1e-9", "--out", out, "--ref", phantom,
            "--csv", str(tmp_path / "m.csv"),
        )
        assert code == 0
        rows = open(tmp_path / "m.csv").read().splitlines()
        label, psnr_db, _ = rows[-1].split(",")
        assert label == "denoised"
        assert psnr_db == "inf" or float(psnr_db) > 100.0

    def test_missing_operator_file(self, tmp_path, phantom):
        code = run(
            "denoise", "--in", phantom, "--op", str(tmp_path / "no.ops"),
            "--sigma", "5", "--out", str(tmp_path / "d.vol"),
        )
        assert code == 1

    @pytest.mark.parametrize(
        "defect", ["truncated block", "truncated header", "nan entry", "long row", "not UTF-8"]
    )
    def test_malformed_operator_file_exits_1_naming_it(
        self, tmp_path, phantom, operators, capsys, defect
    ):
        lines = open(operators).read().splitlines()
        first = lines.index("mode 0 6 5")
        if defect == "truncated block":
            lines = lines[: first + 3]
        elif defect == "truncated header":
            lines = lines[:first]
        elif defect == "nan entry":
            lines[first + 1] = " ".join(["nan"] + lines[first + 1].split()[1:])
        elif defect == "long row":
            lines[first + 1] = " ".join(repr(2.0 * float(v)) for v in lines[first + 1].split())
        bad = tmp_path / "bad_ops.txt"
        prefix = b"\xff" if defect == "not UTF-8" else b""
        bad.write_bytes(prefix + ("\n".join(lines) + "\n").encode())
        code = run(
            "denoise", "--in", phantom, "--op", str(bad), "--sigma", "5",
            "--max-iters", "2", "--out", str(tmp_path / "d.vol"),
        )
        assert code == 1
        assert "bad_ops.txt" in capsys.readouterr().err

    def test_lambda_defaults_to_200_sigma(self, tmp_path, phantom, operators, capsys):
        # sigma 0, given or by default, leaves lambda no default: refused, naming the flag
        out = tmp_path / "d.vol"
        for sigma in (["--sigma", "0"], []):
            argv = ["denoise", "--in", phantom, "--op", operators, *sigma, "--out", str(out)]
            assert run(*argv) == 1
            err = capsys.readouterr().err
            assert "--lambda is required" in err and "200*sigma" in err
            assert not out.exists()

    def test_ref_without_payload_exits_1_naming_it(self, tmp_path, phantom, operators, capsys):
        ref = str(tmp_path / "ref.vol")
        volume.write_volume(volume.read_volume(phantom), ref)
        Path(ref).unlink()
        code = run(
            "denoise", "--in", phantom, "--op", operators, "--sigma", "5",
            "--max-iters", "2", "--ref", ref, "--out", str(tmp_path / "d.vol"),
        )
        assert code == 1
        assert f"missing volume payload {ref}" in capsys.readouterr().err


class TestCs:
    def test_tiny_lambda_keeps_zero_fill(self, tmp_path, phantom, operators):
        # digital radial lines cannot cover every pixel: 0.87890625 is the densest
        # attainable mask on a 16x16 slice; with a negligible regularizer weight the
        # reconstruction stays at the data-consistent zero-filling estimate
        out = str(tmp_path / "r.vol")
        csv = str(tmp_path / "m.csv")
        code = run(
            "cs", "--in", phantom, "--op", operators, "--rate", "0.87890625",
            "--lambda", "1e-6", "--max-iters", "30", "--out", out, "--csv", csv,
        )
        assert code == 0
        rows = {r.split(",")[0]: float(r.split(",")[1]) for r in open(csv).read().splitlines()[1:]}
        assert rows["reconstruction"] == pytest.approx(rows["zero-filling"], abs=1e-3)
        assert rows["reconstruction"] > 30.0

    def test_zero_fill_row_present(self, tmp_path, phantom, operators):
        csv = str(tmp_path / "m.csv")
        code = run(
            "cs", "--in", phantom, "--op", operators, "--rate", "0.5",
            "--lambda", "100", "--max-iters", "5", "--out", str(tmp_path / "r.vol"),
            "--csv", csv,
        )
        assert code == 0
        labels = [r.split(",")[0] for r in open(csv).read().splitlines()[1:]]
        assert labels == ["zero-filling", "reconstruction"]

    def test_rate_out_of_range(self, tmp_path, phantom, operators, capsys):
        code = run(
            "cs", "--in", phantom, "--op", operators, "--rate", "1.5",
            "--out", str(tmp_path / "r.vol"),
        )
        assert code == 1
        assert "rate must lie in (0, 1], got 1.5" in capsys.readouterr().err

    def test_rate_above_the_densest_mask_exits_1(self, tmp_path, phantom, operators, capsys):
        out = str(tmp_path / "r.vol")
        code = run("cs", "--in", phantom, "--op", operators, "--rate", "1.0", "--out", out)
        assert code == 1
        assert ("rate 1.0 is not reached by any radial mask on a 16x16 grid; "
                "the highest rate reached is 0.87890625") in capsys.readouterr().err
        assert not Path(out).exists()


class TestEval:
    def test_identical_files(self, tmp_path, phantom):
        csv = str(tmp_path / "m.csv")
        assert run("eval", "--ref", phantom, "--test", phantom, "--csv", csv) == 0
        row = open(csv).read().splitlines()[-1].split(",")
        assert row[1] == "inf"
        assert float(row[2]) == 1.0

    def test_shifted_volumes_closed_form(self, tmp_path):
        a = volume.Volume(np.full((16, 16, 16), 100.0))
        b = volume.Volume(np.full((16, 16, 16), 110.0))
        pa, pb = str(tmp_path / "a.vol"), str(tmp_path / "b.vol")
        volume.write_volume(a, pa)
        volume.write_volume(b, pb)
        csv = str(tmp_path / "m.csv")
        assert run("eval", "--ref", pa, "--test", pb, "--csv", csv) == 0
        psnr_db = float(open(csv).read().splitlines()[-1].split(",")[1])
        assert psnr_db == pytest.approx(20.0 * math.log10(25.5), abs=1e-9)

    def test_dims_mismatch(self, tmp_path):
        a = volume.Volume(np.zeros((12, 12, 12)))
        b = volume.Volume(np.zeros((12, 12, 14)))
        pa, pb = str(tmp_path / "a.vol"), str(tmp_path / "b.vol")
        volume.write_volume(a, pa)
        volume.write_volume(b, pb)
        assert run("eval", "--ref", pa, "--test", pb) == 1

    @pytest.mark.parametrize(
        "field, value", [("dims", "5"), ("dims", "null"), ("intensity_range", "5"),
                         ("intensity_range", "[0, 1, 2]")],
    )
    def test_malformed_header_exits_1_naming_file_and_field(self, capsys, phantom, field, value):
        hpath = volume.header_path(phantom)
        header = open(hpath).read()
        old = {"dims": "[16, 16, 16]", "intensity_range": "[0.0, 255.0]"}[field]
        with open(hpath, "w") as fh:
            fh.write(header.replace(old, value))
        assert run("eval", "--ref", phantom, "--test", phantom) == 1
        assert f"{hpath}: malformed header field {field!r}" in capsys.readouterr().err

    def test_header_that_is_not_utf8_exits_1_naming_it(self, capsys, phantom):
        hpath = volume.header_path(phantom)
        with open(hpath, "r+b") as fh:
            fh.write(b"\xff")
        assert run("eval", "--ref", phantom, "--test", phantom) == 1
        assert f"{hpath}: malformed header" in capsys.readouterr().err


class TestDeterminism:
    def test_rerun_produces_identical_csv(self, tmp_path, phantom, operators):
        csvs = []
        for name in ("m1.csv", "m2.csv"):
            csv = str(tmp_path / name)
            run(
                "denoise", "--in", phantom, "--op", operators, "--sigma", "10",
                "--seed", "5", "--max-iters", "10", "--out", str(tmp_path / "d.vol"),
                "--ref", phantom, "--csv", csv,
            )
            csvs.append(open(csv).read())
        assert csvs[0] == csvs[1]


def test_readme_quick_start_commands_parse():
    # every `sepop` line of the README Quick start block, `\` continuations joined
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("sepop ")]
    assert [argv[1] for argv in commands] == ["gen", "learn", "denoise", "cs", "eval"]
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README Quick start command does not parse: {' '.join(argv)}")
