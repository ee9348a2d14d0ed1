"""The package's one nonlinear conjugate gradient, for learning and reconstruction.

:func:`minimize` is PR+ conjugate gradient over a :class:`Geometry`, which
supplies tangent projection, retraction, vector transport, inner product and
norm, and its own line-search rule: the first trial step, the decay of the
acceptance reference and the trial budget.  :data:`OBLIQUE` is the product of
unit-row-norm matrix manifolds that operator learning searches (tangent
projection, also its transport; row renormalization; the previous accepted step
scaled by the ratio of directional derivatives, clamped to [1e-8, 1e2];
nonmonotone, 40 trials); :data:`FLAT` the volume space of reconstruction
(identity projection, a separate identity transport, ``v + t d``, twice the
previous accepted step; monotone, 50 trials).  The gradient tolerance, the
Armijo constant and the backtracking factor are this module's, shared by both.

Steps are accepted by the nonmonotone rule of Zhang and Hager: the reference
value C_k is updated as Q_{k+1} = d*Q_k + 1, C_{k+1} = (d*Q_k*C_k + f_{k+1}) /
Q_{k+1}.  With decay d = 0 it is the current cost: monotone Armijo.

The objective is one callable, ``evaluate(point) -> (cost, gradient)``, where
``gradient()`` gives the Euclidean gradient at that point and may reuse what
the cost computed.  It is called only at the points the solver moves to; a
rejected trial's ``gradient`` is dropped before the next trial is evaluated.
A failed line search moves to its best trial, if that lowers the cost, and
evaluates it again for the gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from sepop import manifold, volume
from sepop.manifold import DegenerateStepError
from sepop.objective import BarrierError

# A trial that raises one of these is a too-long step: the line search shrinks it.
REJECTED_STEP = (BarrierError, DegenerateStepError)

# Both geometries stop at a gradient norm of GRAD_TOL * sqrt(size), accept a
# trial step t if f <= C + SUFFICIENT_DECREASE * t * dd, and shrink it by BACKTRACK.
GRAD_TOL = 1e-4
SUFFICIENT_DECREASE = 1e-4
BACKTRACK = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """The iteration cap, and the seed of a learning run's random start."""

    max_iters: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        volume.check_seed(self.seed)


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


@dataclass(frozen=True)
class Geometry:
    """What :func:`minimize` needs to know about a search space.

    ``combine(f, *tangents)`` applies the arithmetic expression ``f`` to
    same-shaped tangent vectors; ``size(point)`` counts the coordinates, which
    scales the gradient tolerance; ``first_step(prev_step, prev_dd, dd,
    grad_norm)`` is the first trial step of a line search, given the previous
    accepted step and directional derivative (``None`` on the first iteration),
    the current directional derivative (always negative) and gradient norm
    (always above the tolerance); ``history_decay`` is the decay d of the
    acceptance reference (0: monotone Armijo); ``max_trials`` the number of
    trial steps before a line search fails.
    """

    project: Callable[[Any, Any], Any]
    retract: Callable[[Any, Any, float], Any]
    transport: Callable[[Any, Any], Any]
    inner: Callable[[Any, Any], float]
    norm: Callable[[Any], float]
    combine: Callable[..., Any]
    size: Callable[[Any], int]
    first_step: Callable[[float | None, float | None, float, float], float]
    history_decay: float
    max_trials: int


def _ratio_step(prev_step, prev_dd, dd, grad_norm) -> float:
    trial = 1.0 / grad_norm if prev_step is None else prev_step * min(max(prev_dd / dd, 1e-2), 1e2)
    return min(max(trial, 1e-8), 1e2)


def _doubling_step(prev_step, prev_dd, dd, grad_norm) -> float:
    return 1.0 / grad_norm if prev_step is None else prev_step * 2.0


# The manifold functions are looked up at call time, so that wrappers
# installed on ``sepop.manifold`` (a tracer, say) see every call.
OBLIQUE = Geometry(
    project=lambda point, grad: manifold.product_project(point, grad),
    retract=lambda point, tangent, step: manifold.product_retract(point, tangent, step),
    transport=lambda point, tangent: manifold.product_project(point, tangent),
    inner=lambda x, y: manifold.product_inner(x, y),
    norm=lambda x: manifold.product_norm(x),
    combine=lambda f, *tangents: [f(*parts) for parts in zip(*tangents, strict=True)],
    size=lambda point: sum(f.size for f in point),
    first_step=_ratio_step,
    history_decay=0.85,
    max_trials=40,
)

FLAT = Geometry(
    project=lambda point, grad: grad,
    retract=lambda point, tangent, step: point + step * tangent,
    transport=lambda point, tangent: tangent,
    inner=lambda x, y: float(np.sum(x * y)),
    norm=lambda x: float(np.linalg.norm(x)),
    combine=lambda f, *tangents: f(*tangents),
    size=lambda point: point.size,
    first_step=_doubling_step,
    history_decay=0.0,
    max_trials=50,
)


def minimize(
    evaluate: Callable[[Any], tuple[float, Callable[[], Any]]],
    init: Any,
    cfg: SolverConfig,
    geometry: Geometry,
) -> tuple[Any, LearnReport]:
    """PR+ conjugate gradient from ``init``; returns the last iterate and the report.

    The run ends on "tolerance" (gradient norm at most :data:`GRAD_TOL` times
    the square root of the size), "max_iters" or "line-search failure".
    """
    geo = geometry
    point = init
    tol = GRAD_TOL * math.sqrt(geo.size(point))

    cost, gradient = evaluate(point)
    cost = float(cost)
    if not math.isfinite(cost):
        raise ArithmeticError(f"non-finite cost at the starting point: {cost}")
    grad = geo.project(point, gradient())
    del gradient
    grad_norm = geo.norm(grad)
    if not math.isfinite(grad_norm):  # the acceptance bound would be -inf: no trial could pass
        raise ArithmeticError(f"non-finite gradient norm at the starting point: {grad_norm}")

    report = LearnReport(costs=[cost], grad_norms=[grad_norm])

    def record(iteration: int, step: float, dd: float, ref_value: float) -> None:
        report.costs.append(cost)
        report.grad_norms.append(grad_norm)
        report.step_sizes.append(step)
        report.directional_derivs.append(dd)
        report.reference_values.append(ref_value)
        report.iterations = iteration

    direction = geo.combine(lambda g: -g, grad)
    ref_value, ref_weight = cost, 1.0
    prev_step = prev_dd = None
    termination = "max_iters"

    for iteration in range(1, cfg.max_iters + 1):
        if grad_norm <= tol:
            termination = "tolerance"
            break

        dd = geo.inner(direction, grad)
        if dd >= 0:
            direction = geo.combine(lambda g: -g, grad)
            dd = -grad_norm**2
        trial = geo.first_step(prev_step, prev_dd, dd, grad_norm)

        accepted = False
        best_cost, best_point, best_trial = math.inf, None, None
        for _ in range(geo.max_trials):
            try:
                candidate = geo.retract(point, direction, trial)
                candidate_cost, gradient = evaluate(candidate)
            except REJECTED_STEP:
                trial *= BACKTRACK
                continue
            candidate_cost = float(candidate_cost)
            if candidate_cost < best_cost:
                best_cost, best_point, best_trial = candidate_cost, candidate, trial
            if candidate_cost <= ref_value + SUFFICIENT_DECREASE * trial * dd:
                accepted = True
                break
            del gradient  # frees the rejected trial's state before the next evaluation
            trial *= BACKTRACK

        if not accepted:
            if best_point is not None and best_cost < cost:
                point, cost = best_point, best_cost
                _cost, gradient = evaluate(point)
                grad = geo.project(point, gradient())
                del gradient
                grad_norm = geo.norm(grad)
                record(iteration, best_trial, dd, ref_value)
            termination = "line-search failure"
            break

        new_grad = geo.project(candidate, gradient())
        del gradient
        new_grad_norm = geo.norm(new_grad)

        # PR+ coefficient with the previous gradient transported along.
        old_grad_t = geo.transport(candidate, grad)
        numer = geo.inner(new_grad, geo.combine(lambda a, b: a - b, new_grad, old_grad_t))
        beta = max(0.0, numer / grad_norm**2)
        dir_t = geo.transport(candidate, direction)
        direction = geo.combine(lambda g, d: -g + beta * d, new_grad, dir_t)

        point, cost, grad, grad_norm = candidate, candidate_cost, new_grad, new_grad_norm
        record(iteration, trial, dd, ref_value)

        new_weight = geo.history_decay * ref_weight + 1.0
        ref_value = (geo.history_decay * ref_weight * ref_value + cost) / new_weight
        ref_weight = new_weight
        prev_step, prev_dd = trial, dd

    if termination == "max_iters" and grad_norm <= tol:
        termination = "tolerance"
    report.termination = termination
    return point, report
