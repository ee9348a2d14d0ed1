"""Learning separable analysis operators on a product of oblique manifolds.

``learn_operators`` minimizes the learning cost of :mod:`sepop.objective`
over one unit-row-norm factor per mode with the package's conjugate gradient
(:mod:`sepop.cg`) in its oblique geometry, which carries the line-search rule
(nonmonotone acceptance, 40 trials); :func:`minimize_on_product` is that
solver for any cost on the product manifold.  The patches are laid out once per
run and analyzed once per evaluation; the cost and the gradient at that point
share the analysis.  The module also reads and writes the operator file format.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable

import numpy as np

from sepop import cg, manifold
from sepop.cg import LearnReport, SolverConfig
from sepop.objective import LearningParams, PatchBatch, learning_cost, learning_gradient
from sepop.objective import patch_analysis


def minimize_on_product(
    evaluate: Callable[[list[np.ndarray]], tuple[float, Callable[[], list[np.ndarray]]]],
    init: list[np.ndarray],
    cfg: SolverConfig,
) -> tuple[list[np.ndarray], LearnReport]:
    """PR+ conjugate gradient on a product of unit-row-norm manifolds.

    ``evaluate(factors)`` returns the cost and a zero-argument callable for
    the Euclidean gradients there (see :func:`sepop.cg.minimize`);
    projection onto the tangent space happens in the solver.  Barrier and
    degenerate-step errors raised during trial steps shrink the step instead
    of aborting.
    """
    point = [np.asarray(f, dtype=float).copy() for f in init]
    return cg.minimize(evaluate, point, cfg, cg.OBLIQUE)


def learn_operators(
    patches: np.ndarray,
    shapes: list[tuple[int, int]],
    params: LearningParams,
    cfg: SolverConfig,
) -> tuple[list[np.ndarray], LearnReport]:
    """Learn one unit-row-norm factor per mode from a batch of patches.

    ``patches`` is a (T, n_1, ..., n_N) array; ``shapes`` gives the (k_i, n_i) factor sizes,
    each tall.  The run starts from random factors drawn with ``cfg.seed``, refused with a
    ``ValueError`` if a term or its gradient's norm is not finite there, and searched with
    :data:`sepop.cg.OBLIQUE`'s line search.  Returns the learned factors and the run report.
    """
    for mode, shape in enumerate(shapes):
        if len(shape) != 2 or shape[0] < shape[1]:
            size = "x".join(map(str, shape))
            raise ValueError(f"factor shape {size} for mode {mode} is not tall (k x n, k >= n)")
    start = manifold.random_point(shapes, np.random.default_rng(cfg.seed))
    batch = PatchBatch.of(patches)  # laid out once; every evaluation reads it

    def evaluate(fs):
        analysis = patch_analysis(fs, batch, params.nu)
        cost = learning_cost(fs, batch, params, analysis)
        return cost, lambda: learning_gradient(fs, batch, params, analysis)

    try:
        return minimize_on_product(evaluate, start, cfg)
    except ArithmeticError:  # the solver refuses the start: add the terms in turn, name the first
        for term, kappa, mu in (("sparsity", 0.0, 0.0), ("rank barrier", params.kappa, 0.0),
                                ("coherence barrier", params.kappa, params.mu)):
            terms = LearningParams(params.nu, kappa, mu)
            with contextlib.suppress(ArithmeticError):  # a crossed barrier raises BarrierError
                grad = cg.OBLIQUE.project(start, learning_gradient(start, batch, terms))
                if np.isfinite(learning_cost(start, batch, terms) + cg.OBLIQUE.norm(grad)):
                    continue
            raise ValueError(f"the {term} term or its gradient's norm is not finite at the start, "
                             f"nu {params.nu}, kappa {params.kappa}, mu {params.mu}")
        raise


# ---------------------------------------------------------------------------
# Operator file format (text, one block per mode; see docs/formats.md)

def save_operators(
    path: str,
    factors: list[np.ndarray],
    params: LearningParams | None = None,
    extra: dict[str, str] | None = None,
) -> None:
    lines = ["sepop-operators v1", f"modes {len(factors)}"]
    if params is not None:
        lines += [f"nu {params.nu!r}", f"kappa {params.kappa!r}", f"mu {params.mu!r}"]
    for key, value in (extra or {}).items():
        lines.append(f"{key} {value}")
    for mode, factor in enumerate(factors):
        factor = np.asarray(factor, dtype=float)
        k, n = factor.shape
        lines.append(f"mode {mode} {k} {n}")
        for row in factor:
            lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def log_path(path: str) -> str:
    """The training log that ``sepop learn`` writes beside the operator file at ``path``."""
    return path + ".log"


def load_operators(path: str) -> tuple[list[np.ndarray], dict[str, str]]:
    """Read an operator file; every malformed file raises ``ValueError`` naming it.

    Besides the syntax, the ``modes`` header must match the number of mode
    blocks and every value must be finite.  Whether the factors lie on the
    oblique manifold is left to the caller (:func:`manifold.check_factor`).
    """
    if not os.path.isfile(path):
        raise ValueError(f"operator file {path} is missing or not a regular file")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(number, ln.split()) for number, ln in enumerate(fh, 1) if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines or lines[0][1] != ["sepop-operators", "v1"]:
        raise ValueError(f"{path}: not a sepop operator file")
    meta: dict[str, str] = {}
    factors: list[np.ndarray] = []
    i = 1
    while i < len(lines):
        number, tokens = lines[i]
        if tokens[0] != "mode":
            meta[tokens[0]] = " ".join(tokens[1:])
            i += 1
            continue
        header = " ".join(tokens)
        try:
            mode, k, n = (int(t) for t in tokens[1:])
        except ValueError:
            raise ValueError(
                f"{path}: line {number}: expected 'mode i k n', got {header!r}"
            ) from None
        if mode != len(factors) or k < 1 or n < 1:
            raise ValueError(f"{path}: line {number}: bad mode block header {header!r}")
        block = lines[i + 1 : i + 1 + k]
        if len(block) < k:
            raise ValueError(f"{path}: truncated in mode {mode}: {len(block)} of {k} rows")
        for row_number, row in block:
            if len(row) != n:
                raise ValueError(
                    f"{path}: row length mismatch in mode block at line {row_number}"
                )
        try:
            factor = np.array([[float(v) for v in row] for _, row in block])
        except ValueError:
            raise ValueError(f"{path}: non-numeric entry in mode {mode}") from None
        if not np.all(np.isfinite(factor)):
            raise ValueError(f"{path}: mode {mode} has non-finite entries")
        factors.append(factor)
        i += 1 + k
    if meta.get("modes") != str(len(factors)):
        raise ValueError(
            f"{path}: header says modes {meta.get('modes', '(missing)')} "
            f"but the file has {len(factors)} mode blocks"
        )
    return factors, meta
