import math

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

    def test_too_small_dims(self, tmp_path):
        assert run("gen", "--dims", "4,12,12", "--out", str(tmp_path / "x.vol")) == 1


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
        log = open(out + ".log").read().splitlines()
        costs = [float(line.split()[3]) for line in log]
        assert costs[-1] < costs[0]

    def test_wide_shape_rejected(self, tmp_path, phantom):
        code = run(
            "learn", "--train-vol", phantom, "--shape", "4x5,6x5,6x5",
            "--out", str(tmp_path / "o.txt"),
        )
        assert code == 1

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
    assert f"operator has {modes} modes but the patches have order 3" in capsys.readouterr().err


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
        "defect", ["truncated block", "truncated header", "nan entry", "long row"]
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
        else:
            lines[first + 1] = " ".join(repr(2.0 * float(v)) for v in lines[first + 1].split())
        bad = tmp_path / "bad_ops.txt"
        bad.write_text("\n".join(lines) + "\n")
        code = run(
            "denoise", "--in", phantom, "--op", str(bad), "--sigma", "5",
            "--max-iters", "2", "--out", str(tmp_path / "d.vol"),
        )
        assert code == 1
        assert "bad_ops.txt" in capsys.readouterr().err

    def test_lambda_defaults_to_200_sigma(self, tmp_path, phantom, operators):
        # sigma 0 without an explicit lambda gives lambda 0, a validation error
        code = run(
            "denoise", "--in", phantom, "--op", operators, "--sigma", "0",
            "--out", str(tmp_path / "d.vol"),
        )
        assert code == 1


class TestCs:
    def test_tiny_lambda_keeps_zero_fill(self, tmp_path, phantom, operators):
        # digital radial lines cannot cover every pixel, so "--rate 1.0" yields
        # the densest attainable mask; with a negligible regularizer weight the
        # reconstruction stays at the data-consistent zero-filling estimate
        out = str(tmp_path / "r.vol")
        csv = str(tmp_path / "m.csv")
        code = run(
            "cs", "--in", phantom, "--op", operators, "--rate", "1.0",
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
            "--csv", csv, "--mask-out", str(tmp_path / "mask.txt"),
        )
        assert code == 0
        labels = [r.split(",")[0] for r in open(csv).read().splitlines()[1:]]
        assert labels == ["zero-filling", "reconstruction"]

    def test_rate_out_of_range(self, tmp_path, phantom, operators):
        code = run(
            "cs", "--in", phantom, "--op", operators, "--rate", "1.5",
            "--out", str(tmp_path / "r.vol"),
        )
        assert code == 1


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
