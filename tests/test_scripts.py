"""The repository scripts' own logic, on tiny inputs (the scripts' full runs take minutes)."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def compare_outputs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import compare_outputs

    return compare_outputs


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import bench_pairs

    return bench_pairs


def write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def test_compare_dirs_names_every_file_of_either_side(tmp_path, compare_outputs):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side in (parent, change):
        write(side / "ops.txt", b"mode 0 6 5\n")
        write(side / "sub" / "m.csv", b"noisy,1.0,0.5\n")
    write(parent / "d.vol", b"\x00\x01")
    write(change / "d.vol", b"\x00\x02")
    write(change / "extra.log", b"")
    assert compare_outputs.compare_dirs(str(parent), str(change)) == {
        "d.vol": "differs",
        "extra.log": "differs",
        "ops.txt": "same",
        "sub/m.csv": "same",
    }


def test_quick_start_reads_the_readme_commands(compare_outputs):
    commands = compare_outputs.quick_start((ROOT / "README.md").read_text(encoding="utf-8"))
    assert commands and all(argv[0] == "sepop" for argv in commands)
    # a command continued over lines is one argument vector, without comments
    learn = next(argv for argv in commands if argv[1] == "learn")
    assert learn[-2:] == ["--out", "ops.txt"]
    assert not any(arg.startswith("#") for argv in commands for arg in argv)


def pairs_of(parent: list[float], change: list[float]) -> list[dict]:
    return [{"parent": {"wall_s": p, "mssim": p}, "change": {"wall_s": c, "mssim": c}}
            for p, c in zip(parent, change)]


METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.05},
           {"name": "mssim", "better": "higher", "bound": 0.05}]
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]  # IQR 0.02


@pytest.mark.parametrize(
    "change, wall_s_meets",
    [
        ([p - 0.05 for p in PARENT], True),  # lower in 10/10, medians 0.05 apart
        ([p - 0.05 for p in PARENT[:9]] + [1.2], True),  # lower in 9/10
        ([p - 0.05 for p in PARENT[:8]] + [1.2, 1.2], False),  # lower in 8/10
        ([p - 0.05 for p in PARENT[:8]] + PARENT[8:], False),  # 8 wins and 2 ties
        ([p - 0.01 for p in PARENT], False),  # lower in 10/10, medians under the IQR apart
    ],
)
def test_claim_rule(bench_pairs, change, wall_s_meets):
    summary = bench_pairs.summarize(pairs_of(PARENT, change), METRICS)
    assert summary["wall_s"]["meets_claim_rule"] is wall_s_meets
    # the same numbers are worse where higher is better
    assert summary["mssim"]["meets_claim_rule"] is False


UNRESOLVED = "unresolved (parent IQR wider than the bound)"


@pytest.mark.parametrize(
    "shift, bound, wall_s, mssim",
    [
        (0.0, 0.05, "within bound", "within bound"),
        (0.04, 0.05, "within bound", "within bound"),  # 4 % worse, inside a 5 % bound
        (0.06, 0.05, "worse beyond bound", "within bound"),  # 6 % more is better for mssim
        (-0.06, 0.05, "within bound", "worse beyond bound"),
        (-0.02, 0.01, UNRESOLVED, UNRESOLVED),  # the parent's IQR, 0.02, is over 1 % of 1.0
        # every run of the change better than every run of the parent: resolved
        (-0.07, 0.01, "within bound", UNRESOLVED),
        (0.07, 0.01, UNRESOLVED, "within bound"),
    ],
)
def test_no_regression_rule(bench_pairs, shift, bound, wall_s, mssim):
    metrics = [dict(metric, bound=bound) for metric in METRICS]
    summary = bench_pairs.summarize(pairs_of(PARENT, [p + shift for p in PARENT]), metrics)
    assert summary["wall_s"]["regression"] == wall_s
    assert summary["mssim"]["regression"] == mssim
    assert summary["wall_s"]["bound"] == bound


def test_kernel_times_prints_a_row_per_kernel(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    monkeypatch.chdir(ROOT)
    import kernel_times

    assert kernel_times.main(["--tiny", "--rounds", "1", "--reps", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    names = list(kernel_times.kernels("tiny"))
    assert names and len(rows) == len(names)
    for name, row in zip(names, rows):
        assert row.startswith(name)
        low, median = map(float, row[len(name):].split())
        assert 0 < low <= median


def test_kernel_times_without_a_parent_runs_no_git(monkeypatch, capsys, tmp_path):
    # Without PARENT_REF the checkout the script lives in is timed where it is, so the
    # tool also works in an export without ``.git``.
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    monkeypatch.chdir(tmp_path)
    import kernel_times

    def refuse(*args, **kwargs):
        raise AssertionError("git called without a parent")

    monkeypatch.setattr(kernel_times, "git", refuse)
    monkeypatch.setattr(kernel_times, "export_worktree", refuse)
    assert kernel_times.main(["--tiny", "--rounds", "1", "--reps", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == len(kernel_times.kernels("tiny"))


def test_kernel_times_ratios_are_per_round(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import kernel_times

    # The machine runs twice as fast in rounds 3 and 4; within every round the change's
    # minimum is 0.9 of the parent's, which the overall minima (1.8 against 1.0) hide.
    parent = [[2.0, 2.4], [2.1, 2.0], [1.0, 1.3], [1.0, 1.1]]
    change = [[1.8, 2.5], [1.9, 1.8], [0.9, 1.2], [0.9, 0.95]]
    ratio = kernel_times.round_ratios(parent, change)
    assert ratio["n"] == 4
    assert ratio["median"] == pytest.approx(0.9)
    assert ratio["iqr"] == pytest.approx(0.0, abs=1e-12)
    ratio = kernel_times.round_ratios([[1.0], [1.0], [1.0]], [[0.8], [1.0], [1.2]])
    assert (ratio["q1"], ratio["median"], ratio["q3"]) == pytest.approx((0.9, 1.0, 1.1))


def test_kernel_times_worker_times_only_its_kernel(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import kernel_times

    calls = {"a": 0, "b": 0}

    def count(name):
        calls[name] += 1

    table = {name: (None, lambda name=name: count(name)) for name in calls}
    monkeypatch.setattr(kernel_times, "kernels", lambda size: table)
    kernel_times.worker("tiny", 3, "b")
    samples = json.loads(capsys.readouterr().out)
    assert len(samples) == 3 and all(t >= 0 for t in samples)
    assert calls == {"a": 0, "b": 6}  # as many warming calls as timed ones
    kernel_times.worker("tiny", 3, None)
    assert json.loads(capsys.readouterr().out) == ["a", "b"]
    assert calls == {"a": 0, "b": 6}
