"""Frozen copies of the two conjugate-gradient loops the package once had, as test oracles.

``minimize_on_product`` is the learning solver (PR+ on a product of oblique
manifolds, nonmonotone Zhang–Hager acceptance, first step from the ratio of
directional derivatives) and ``reconstruct`` the reconstruction solver (PR+
in flat space, monotone Armijo, first step twice the previous accepted one),
each exactly as it was before both became :func:`sepop.cg.minimize` in its
two geometries.  The arithmetic is copied verbatim; ``reconstruct`` only
gained the records a comparison needs (accepted steps, termination).  The
package's solver must follow the same trajectories bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from sepop import manifold
from sepop.cg import LearnReport
from sepop.manifold import DegenerateStepError
from sepop.objective import BarrierError


def nonmonotone_accept(candidate_cost, reference_value, directional_derivative, step, sufficient_decrease):
    if directional_derivative >= 0:
        raise ValueError("acceptance test requires a descent direction")
    return candidate_cost <= reference_value + sufficient_decrease * step * directional_derivative


def minimize_on_product(cost_fn, grad_fn, init, cfg, use_conjugate=True):
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
            old_grad_t = manifold.product_project(new_point, grad)
            numer = manifold.product_inner(
                new_grad, [a - b for a, b in zip(new_grad, old_grad_t)]
            )
            denom = grad_norm**2
            beta = max(0.0, numer / denom) if denom > 0 else 0.0
            dir_t = manifold.product_project(new_point, direction)
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


def reconstruct(y, op, cfg, objective_and_gradient):
    """The reconstruction loop; returns the final volume, cost trace, accepted steps and termination.

    ``objective_and_gradient(v)`` returns the cost and the gradient at ``v``.
    """
    trace, steps, termination = [], [], "max_iters"
    v = op.adjoint(np.asarray(y))
    cost, grad = objective_and_gradient(v)
    if not math.isfinite(cost):
        raise ArithmeticError(f"non-finite reconstruction objective at start: {cost}")
    trace.append(cost)

    tol = cfg.grad_tol * math.sqrt(v.size)
    direction = -grad
    prev_step = None
    for _ in range(cfg.max_iters):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= tol:
            termination = "tolerance"
            break
        dd = float(np.sum(direction * grad))
        if dd >= 0:
            direction = -grad
            dd = -gnorm * gnorm
        step = prev_step if prev_step is not None else 1.0 / max(gnorm, 1e-12)
        accepted = False
        for _trial in range(50):
            candidate = v + step * direction
            cand_cost, cand_grad = objective_and_gradient(candidate)
            if math.isfinite(cand_cost) and cand_cost <= cost + 1e-4 * step * dd:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            termination = "line-search failure"
            break
        beta_num = float(np.sum(cand_grad * (cand_grad - grad)))
        beta = max(0.0, beta_num / (gnorm * gnorm))
        direction = -cand_grad + beta * direction
        v, cost, grad = candidate, cand_cost, cand_grad
        prev_step = step * 2.0
        trace.append(cost)
        steps.append(step)
    if termination == "max_iters" and float(np.linalg.norm(grad)) <= tol:
        termination = "tolerance"
    return v, trace, steps, termination
