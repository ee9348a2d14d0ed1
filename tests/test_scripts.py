"""The experiment scripts in ``scripts/`` run end to end at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["denoise_experiment.py", "cs_experiment.py"])
def test_experiment_script_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / script), "--dims", "16,16,16",
            "--T", "200", "--learn-iters", "3", "--recon-iters", "2",
        ],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "PSNR" in result.stdout
