"""Paths and helpers shared by the benchmark's scripts.

Every path is relative to the checkout that holds this directory, so the
benchmark reads and writes nothing outside it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")
FIXTURE_OP = os.path.join(BENCH_DIR, "fixture", "operator.txt")
FIXTURE_META = os.path.join(BENCH_DIR, "fixture", "operator.json")

MODULES = ("tensor", "manifold", "objective", "learn", "volume", "reconstruct", "cli")


class SetupError(Exception):
    """The checkout cannot run the benchmark (missing sources or fixture)."""


def import_sepop():
    """Import ``sepop`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "sepop", "__init__.py")):
        raise SetupError(f"no sepop sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("sepop")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != SRC:
        raise SetupError(f"imported sepop from {pkg.__file__}, not from {SRC}")
    for name in MODULES:
        importlib.import_module(f"sepop.{name}")
    return pkg


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def load_fixture(pkg) -> list:
    """Load and validate the frozen operator.

    ``learn.load_operators`` checks neither finiteness nor unit-norm rows, so
    the benchmark does: the hash must match the recorded one, every value
    must be finite and every factor must pass ``manifold.check_factor``.
    """
    import numpy as np

    if not (os.path.isfile(FIXTURE_OP) and os.path.isfile(FIXTURE_META)):
        raise SetupError(f"frozen operator fixture missing under {os.path.dirname(FIXTURE_OP)}")
    with open(FIXTURE_META, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    digest = sha256_file(FIXTURE_OP)
    if digest != meta["sha256"]:
        raise SetupError(f"{FIXTURE_OP}: sha256 {digest} differs from recorded {meta['sha256']}")
    factors, _header = pkg.learn.load_operators(FIXTURE_OP)
    if len(factors) != 3:
        raise SetupError(f"{FIXTURE_OP}: expected 3 factors, read {len(factors)}")
    for mode, factor in enumerate(factors):
        if not np.all(np.isfinite(factor)):
            raise SetupError(f"{FIXTURE_OP}: factor {mode} has non-finite values")
        try:
            pkg.manifold.check_factor(factor)
        except ValueError as exc:
            raise SetupError(f"{FIXTURE_OP}: factor {mode}: {exc}") from exc
    return factors


MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment() -> dict:
    """Interpreter, library, BLAS, thread and CPU facts of this process."""
    import platform

    import numpy as np
    import scipy

    blas = (np.show_config(mode="dicts") or {}).get("Build Dependencies", {}).get("blas", {})
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "malloc": {var: os.environ.get(var) for var in MALLOC_ENV},
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }
