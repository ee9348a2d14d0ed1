"""Geometric conjugate gradient over the product of oblique manifolds.

The core driver minimizes an arbitrary smooth cost over a product of
unit-row-norm matrix manifolds with a PR+ conjugate gradient: projection-based
vector transport, direction reset on non-descent, and the exponentially
averaged nonmonotone step acceptance rule (decay-weighted reference value C_k
updated as Q_{k+1} = d*Q_k + 1, C_{k+1} = (d*Q_k*C_k + f_{k+1}) / Q_{k+1}).
``learn_operators`` wires the driver to the separable-operator learning cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from sepop import manifold
from sepop.manifold import DegenerateStepError
from sepop.objective import BarrierError, LearningParams, learning_cost, learning_gradient


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 500
    grad_tol: float = 1e-4
    ls_history_decay: float = 0.85
    ls_sufficient_decrease: float = 1e-4
    ls_backtrack: float = 0.5
    ls_max_trials: int = 40
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if not 0.0 <= self.ls_history_decay < 1.0:
            raise ValueError("ls_history_decay must lie in [0, 1)")
        if not 0.0 < self.ls_sufficient_decrease < 1.0:
            raise ValueError("ls_sufficient_decrease must lie in (0, 1)")
        if not 0.0 < self.ls_backtrack < 1.0:
            raise ValueError("ls_backtrack must lie in (0, 1)")
        if self.ls_max_trials < 1:
            raise ValueError("ls_max_trials must be positive")


@dataclass
class LearnReport:
    """Per-iteration traces of a solver run.

    ``costs[i]`` is the cost at iterate i (``costs[0]`` is the initial cost);
    ``grad_norms`` aligns with ``costs``.  ``step_sizes``,
    ``directional_derivs`` and ``reference_values`` have one entry per
    accepted step: the accepted step length, the directional derivative at the
    step's start, and the reference value C_k the acceptance was tested
    against.
    """

    costs: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    step_sizes: list[float] = field(default_factory=list)
    directional_derivs: list[float] = field(default_factory=list)
    reference_values: list[float] = field(default_factory=list)
    iterations: int = 0
    termination: str = ""

    def training_log(self) -> str:
        """One ``iter i cost c grad_norm g step t`` line per iterate (docs/formats.md)."""
        steps = [0.0] + self.step_sizes
        return "".join(
            f"iter {i} cost {cost!r} grad_norm {norm!r} step {step!r}\n"
            for i, (cost, norm, step) in enumerate(zip(self.costs, self.grad_norms, steps))
        )


def nonmonotone_accept(
    candidate_cost: float,
    reference_value: float,
    directional_derivative: float,
    step: float,
    sufficient_decrease: float,
) -> bool:
    """Accept iff the candidate improves on the averaged reference value."""
    if directional_derivative >= 0:
        raise ValueError("acceptance test requires a descent direction")
    return candidate_cost <= reference_value + sufficient_decrease * step * directional_derivative


def minimize_on_product(
    cost_fn: Callable[[list[np.ndarray]], float],
    grad_fn: Callable[[list[np.ndarray]], list[np.ndarray]],
    init: list[np.ndarray],
    cfg: SolverConfig,
    use_conjugate: bool = True,
) -> tuple[list[np.ndarray], LearnReport]:
    """PR+ conjugate gradient on a product of unit-row-norm manifolds.

    ``grad_fn`` returns Euclidean gradients; projection onto the tangent space
    happens here.  Barrier and degenerate-step errors raised by ``cost_fn``
    during trial steps shrink the step instead of aborting.  With
    ``use_conjugate`` false every direction is the projected steepest descent
    (comparison baseline).
    """
    point = [np.asarray(f, dtype=float).copy() for f in init]
    tol = cfg.grad_tol * math.sqrt(sum(f.size for f in point))

    cost = float(cost_fn(point))
    grad = manifold.product_project(point, grad_fn(point))
    grad_norm = manifold.product_norm(grad)

    report = LearnReport()
    report.costs.append(cost)
    report.grad_norms.append(grad_norm)

    direction = [-g for g in grad]
    ref_value = cost
    ref_weight = 1.0
    prev_step = None
    prev_dd = None
    termination = "max_iters"

    for iteration in range(1, cfg.max_iters + 1):
        if grad_norm <= tol:
            termination = "tolerance"
            break

        dd = manifold.product_inner(direction, grad)
        if dd >= 0:
            direction = [-g for g in grad]
            dd = -grad_norm**2

        # Initial trial step: scale the previous accepted step by the ratio of
        # directional derivatives; the first iteration uses 1/|grad|.
        if prev_step is None:
            trial = 1.0 / max(grad_norm, 1e-12)
        else:
            ratio = prev_dd / dd if dd != 0 else 1.0
            trial = prev_step * min(max(ratio, 1e-2), 1e2)
        trial = min(max(trial, 1e-8), 1e2)

        accepted = False
        best_cost = math.inf
        best_point = None
        best_trial = None
        for _ in range(cfg.ls_max_trials):
            try:
                candidate = manifold.product_retract(point, direction, trial)
                candidate_cost = float(cost_fn(candidate))
            except (BarrierError, DegenerateStepError):
                trial *= cfg.ls_backtrack
                continue
            if candidate_cost < best_cost:
                best_cost = candidate_cost
                best_point = candidate
                best_trial = trial
            if nonmonotone_accept(candidate_cost, ref_value, dd, trial, cfg.ls_sufficient_decrease):
                accepted = True
                break
            trial *= cfg.ls_backtrack

        if not accepted:
            if best_point is not None and best_cost < cost:
                point, cost = best_point, best_cost
                grad = manifold.product_project(point, grad_fn(point))
                grad_norm = manifold.product_norm(grad)
                report.costs.append(cost)
                report.grad_norms.append(grad_norm)
                report.step_sizes.append(best_trial)
                report.directional_derivs.append(dd)
                report.reference_values.append(ref_value)
                report.iterations = iteration
            termination = "line-search failure"
            break

        new_point = candidate
        new_cost = candidate_cost
        new_grad = manifold.product_project(new_point, grad_fn(new_point))
        new_grad_norm = manifold.product_norm(new_grad)

        if use_conjugate:
            # PR+ coefficient with the previous gradient transported along.
            old_grad_t = manifold.product_transport(new_point, grad)
            numer = manifold.product_inner(
                new_grad, [a - b for a, b in zip(new_grad, old_grad_t)]
            )
            denom = grad_norm**2
            beta = max(0.0, numer / denom) if denom > 0 else 0.0
            dir_t = manifold.product_transport(new_point, direction)
            direction = [-g + beta * d for g, d in zip(new_grad, dir_t)]
        else:
            direction = [-g for g in new_grad]

        report.costs.append(new_cost)
        report.grad_norms.append(new_grad_norm)
        report.step_sizes.append(trial)
        report.directional_derivs.append(dd)
        report.reference_values.append(ref_value)
        report.iterations = iteration

        new_weight = cfg.ls_history_decay * ref_weight + 1.0
        ref_value = (cfg.ls_history_decay * ref_weight * ref_value + new_cost) / new_weight
        ref_weight = new_weight

        point, cost, grad, grad_norm = new_point, new_cost, new_grad, new_grad_norm
        prev_step, prev_dd = trial, dd

    if termination == "max_iters" and grad_norm <= tol:
        termination = "tolerance"
    report.termination = termination
    return point, report


def learn_operators(
    patches: np.ndarray,
    shapes: list[tuple[int, int]],
    params: LearningParams,
    cfg: SolverConfig,
    init: list[np.ndarray] | None = None,
) -> tuple[list[np.ndarray], LearnReport]:
    """Learn one unit-row-norm factor per mode from a batch of patches.

    ``patches`` is a (T, n_1, ..., n_N) array; ``shapes`` gives the (k_i, n_i)
    factor sizes.  Returns the learned factors and the run report.

    The cost and gradient share one memo for the run (see
    :mod:`sepop.objective`): the gradient at an accepted step reuses the
    analysis its cost evaluation made, and any other point (the line-search
    failure's best trial, say) is analyzed afresh.  The result is bit-identical
    to evaluating both without a memo.
    """
    patches = np.asarray(patches, dtype=float)
    if patches.ndim != len(shapes) + 1:
        raise ValueError(
            f"patch batch of order {patches.ndim - 1} does not match "
            f"{len(shapes)} factor shapes"
        )
    if patches.shape[0] < 1:
        raise ValueError("training set is empty")
    for mode, (k, n) in enumerate(shapes):
        if k < n:
            raise ValueError(f"factor shape {k}x{n} for mode {mode} is not tall")
        if n != patches.shape[mode + 1]:
            raise ValueError(
                f"factor for mode {mode} expects signals of length {n}, "
                f"patches have {patches.shape[mode + 1]}"
            )

    if init is not None:
        start = [manifold.check_factor(f).copy() for f in init]
    else:
        start = manifold.random_point(shapes, np.random.default_rng(cfg.seed))

    memo: dict = {}
    return minimize_on_product(
        lambda fs: learning_cost(fs, patches, params, memo=memo),
        lambda fs: learning_gradient(fs, patches, params, memo=memo),
        start,
        cfg,
    )


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


def load_operators(path: str) -> tuple[list[np.ndarray], dict[str, str]]:
    """Read an operator file; every malformed file raises ``ValueError`` naming it.

    Besides the syntax, the ``modes`` header must match the number of mode
    blocks and every value must be finite.  Whether the factors lie on the
    oblique manifold is left to the caller (:func:`manifold.check_factor`).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(number, ln.split()) for number, ln in enumerate(fh, 1) if ln.strip()]
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
