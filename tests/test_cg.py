"""The shared conjugate-gradient driver against the two solvers it replaced, and on its own."""

import dataclasses
import math
import os
import weakref

import numpy as np
import pytest

from sepop import cg, learn, manifold, reconstruct, volume
from sepop.objective import LearningParams
from sepop.reconstruct import FourierMeasurement, IdentityMeasurement, ReconConfig

import oracles
import reference_solvers

# The benchmark's frozen operator, learned with the acceptance configuration.
FIXTURE_OP = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "fixture", "operator.txt")


@pytest.fixture(scope="module")
def operator():
    return learn.load_operators(FIXTURE_OP)[0]


@pytest.fixture
def reports(monkeypatch):
    """Every report ``cg.minimize`` returns during the test, in order."""
    seen = []
    minimize = cg.minimize

    def spy(*args, **kwargs):
        point, report = minimize(*args, **kwargs)
        seen.append(report)
        return point, report

    monkeypatch.setattr(cg, "minimize", spy)
    return seen


def assert_reconstruction_equals_the_reference(y, op, factors, cfg, reports):
    trace: list[float] = []
    out = reconstruct.reconstruct(y, op, factors, cfg, trace=trace)
    (report,) = reports

    def objective_and_gradient(v):
        return oracles.reconstruction_objective(v, y, op, factors, cfg)

    want_v, want_trace, want_steps, want_termination = reference_solvers.reconstruct(
        y, op, oracles.solver_settings(cfg.max_iters, cg.FLAT), objective_and_gradient
    )
    assert trace == report.costs == want_trace
    assert report.step_sizes == want_steps
    assert report.termination == want_termination
    assert np.array_equal(out.data, want_v)
    return report


def denoise_problem(dims, max_iters):
    vol = volume.synth_phantom(dims, seed=5)
    noisy = volume.add_awgn(vol, 15.0, seed=1)
    op = IdentityMeasurement(vol.dims)
    return op.forward(noisy.data), op, ReconConfig(lam=3000.0, max_iters=max_iters)


class TestReconstructionEqualsTheFrozenSolver:
    """``reconstruct`` follows the loop it used to have, bit for bit."""

    def test_cs_probe(self, operator, reports):
        vol = volume.synth_phantom((32, 32, 8), seed=5)
        op = FourierMeasurement(vol.dims, reconstruct.radial_mask_for_rate(32, 32, 0.6))
        cfg = ReconConfig(lam=1500.0, max_iters=30)
        report = assert_reconstruction_equals_the_reference(
            op.forward(vol.data), op, operator, cfg, reports
        )
        assert report.iterations == 30 and report.termination == "max_iters"

    @pytest.mark.parametrize("dims, max_iters", [((32, 32, 32), 10), ((16, 16, 16), 15)])
    def test_denoise(self, operator, reports, dims, max_iters):
        y, op, cfg = denoise_problem(dims, max_iters)
        report = assert_reconstruction_equals_the_reference(y, op, operator, cfg, reports)
        assert report.iterations == max_iters


def quadratic(weights, target):
    """f(x) = 1/2 sum w (x - target)^2 in flat geometry, with every evaluation logged."""
    calls = []

    def evaluate(x):
        cost = 0.5 * float(np.sum(weights * (x - target) ** 2))
        calls.append((x.copy(), cost))
        return cost, lambda: weights * (x - target)

    return evaluate, calls


class TestFlatGeometry:
    weights = np.logspace(0, 2, 12).reshape(3, 4)
    target = np.arange(12.0).reshape(3, 4)

    def test_converges_monotonically_in_reconstruct_configuration(self, monkeypatch):
        monkeypatch.setattr(cg, "GRAD_TOL", 1e-8)
        evaluate, _calls = quadratic(self.weights, self.target)
        x, report = cg.minimize(evaluate, np.zeros((3, 4)), cg.SolverConfig(max_iters=500), cg.FLAT)
        assert report.termination == "tolerance"
        assert all(b <= a for a, b in zip(report.costs, report.costs[1:]))
        np.testing.assert_allclose(x, self.target, atol=1e-6)

    def test_line_search_failure_keeps_the_best_trial(self, monkeypatch):
        # A demanding sufficient-decrease constant and two trials per line
        # search: some line search fails after trials that did lower the cost.
        monkeypatch.setattr(cg, "SUFFICIENT_DECREASE", 0.9)
        evaluate, calls = quadratic(self.weights, self.target)
        cfg, geometry = cg.SolverConfig(max_iters=500), dataclasses.replace(cg.FLAT, max_trials=2)
        x, report = cg.minimize(evaluate, np.zeros((3, 4)), cfg, geometry)
        assert report.termination == "line-search failure"
        (*_, (first, first_cost), (second, second_cost), (again, again_cost)) = calls
        best, best_cost = min([(first, first_cost), (second, second_cost)], key=lambda c: c[1])
        # the failed search's best trial is evaluated again for its gradient
        assert np.array_equal(again, best) and again_cost == best_cost
        assert report.costs[-1] == best_cost < report.costs[-2]
        assert np.array_equal(x, best)
        assert len(report.costs) == report.iterations + 1 == len(report.step_sizes) + 1

    def test_gradient_only_at_accepted_points(self, monkeypatch):
        monkeypatch.setattr(cg, "GRAD_TOL", 1e-8)
        evaluate, calls = quadratic(self.weights, self.target)
        gradient_calls = []

        def counted(x):
            cost, gradient = evaluate(x)
            return cost, lambda: gradient_calls.append(x.copy()) or gradient()

        _x, report = cg.minimize(counted, np.zeros((3, 4)), cg.SolverConfig(max_iters=500), cg.FLAT)
        assert report.termination == "tolerance"
        assert len(calls) > len(gradient_calls), "no line-search trial was rejected"
        assert len(gradient_calls) == len(report.costs)
        # the gradient points are the iterates, in order
        iterate_costs = [0.5 * float(np.sum(self.weights * (x - self.target) ** 2)) for x in gradient_calls]
        assert iterate_costs == report.costs

    def test_non_finite_start_is_refused(self):
        def evaluate(x):
            return float("nan"), lambda: x

        with pytest.raises(ArithmeticError, match="non-finite cost at the starting point"):
            cg.minimize(evaluate, np.zeros(3), cg.SolverConfig(), cg.FLAT)

    def test_start_of_non_finite_gradient_norm_is_refused(self):
        # finite entries whose squared norm overflows: the first step, 1 / norm, would be 0
        def evaluate(x):
            return 0.0, lambda: np.full(3, 1e200)

        with np.errstate(over="ignore"):
            with pytest.raises(ArithmeticError, match="non-finite gradient norm at the starting point"):
                cg.minimize(evaluate, np.zeros(3), cg.SolverConfig(), cg.FLAT)


class TestRejectedSteps:
    """A trial that hits a barrier or a degenerate retraction is a too-long step."""

    target = np.array([3.0, 4.0])

    def barrier_quadratic(self, radius, error):
        """f(x) = 1/2 |x - target|^2, raising ``error`` outside the ball of ``radius``."""
        trials = []

        def evaluate(x):
            trials.append(x.copy())
            if np.linalg.norm(x) > radius:
                raise error("outside the feasible ball")
            return 0.5 * float(np.sum((x - self.target) ** 2)), lambda: x - self.target

        return evaluate, trials

    @pytest.mark.parametrize("error", cg.REJECTED_STEP, ids=lambda e: e.__name__)
    def test_rejected_trial_is_shrunk(self, error):
        # The first trial is the unit step towards the target; only half of it
        # stays inside the ball.
        evaluate, trials = self.barrier_quadratic(0.6, error)
        x, report = cg.minimize(evaluate, np.zeros(2), cg.SolverConfig(max_iters=1), cg.FLAT)
        assert [np.linalg.norm(t) for t in trials[1:]] == pytest.approx([1.0, 0.5])
        assert report.iterations == 1 and report.step_sizes == [0.5 / 5.0]
        assert report.costs[1] < report.costs[0]
        np.testing.assert_allclose(x, self.target / 10.0)

    def test_every_trial_rejected_is_a_line_search_failure(self):
        evaluate, trials = self.barrier_quadratic(0.0, cg.REJECTED_STEP[0])
        geometry = dataclasses.replace(cg.FLAT, max_trials=5)
        x, report = cg.minimize(evaluate, np.zeros(2), cg.SolverConfig(), geometry)
        assert len(trials) == 1 + 5
        assert report.termination == "line-search failure" and report.iterations == 0
        assert np.array_equal(x, np.zeros(2)) and report.costs == [12.5]

    def test_other_errors_propagate(self):
        evaluate, _trials = self.barrier_quadratic(0.6, ZeroDivisionError)
        with pytest.raises(ZeroDivisionError):
            cg.minimize(evaluate, np.zeros(2), cg.SolverConfig(), cg.FLAT)


class TestEachGeometryCarriesItsRule:
    """Learning searches nonmonotonically with 40 trials, reconstruction by
    monotone Armijo with 50: the values the two solvers have always used."""

    # geometry, decay of the acceptance reference, trials per line search
    RULES = {"flat": (cg.FLAT, 0.0, 50), "oblique": (cg.OBLIQUE, 0.85, 40)}

    @staticmethod
    def problem(geometry, reject=False):
        """f = 1/2 <x - target, w (x - target)> from a start in ``geometry``;
        with ``reject``, every point but the start is a too-long step."""
        rng = np.random.default_rng(4)
        shapes = [(4, 3), (5, 3)]
        start = manifold.random_point(shapes, rng)
        weights = [rng.uniform(1.0, 100.0, s) for s in shapes]
        targets = [rng.normal(size=s) for s in shapes]
        if geometry is cg.FLAT:
            start, weights, targets = np.zeros(shapes[0]), weights[0], targets[0]
        calls = []

        def evaluate(x):
            calls.append(x)
            if reject and len(calls) > 1:
                raise cg.REJECTED_STEP[0]("outside the feasible set")
            error = geometry.combine(lambda a, t: a - t, x, targets)
            gradient = geometry.combine(lambda e, w: w * e, error, weights)
            return 0.5 * geometry.inner(error, gradient), lambda: gradient

        return evaluate, calls, start

    @pytest.mark.parametrize("name", ["flat", "oblique"])
    def test_trial_budget(self, name):
        geometry, _decay, trials = self.RULES[name]
        evaluate, calls, start = self.problem(geometry, reject=True)
        _point, report = cg.minimize(evaluate, start, cg.SolverConfig(), geometry)
        assert len(calls) == 1 + trials
        assert report.termination == "line-search failure" and report.iterations == 0

    @pytest.mark.parametrize("name", ["flat", "oblique"])
    def test_reference_value_decay(self, name):
        geometry, decay, _trials = self.RULES[name]
        evaluate, _calls, start = self.problem(geometry)
        _point, report = cg.minimize(evaluate, start, cg.SolverConfig(max_iters=20), geometry)
        assert report.iterations >= 5 and report.termination != "line-search failure"
        ref, weight = report.costs[0], 1.0
        for got, cost in zip(report.reference_values, report.costs[1:], strict=True):
            assert got == ref
            new_weight = decay * weight + 1.0
            ref, weight = (decay * weight * ref + cost) / new_weight, new_weight


class TestStepRulesSeeOnlyDescent:
    """``minimize`` turns every non-descent direction into -grad and stops at the
    gradient tolerance before it asks for a step, so a step rule never sees
    dd >= 0 and the PR+ update never divides by a zero gradient norm."""

    def test_in_reconstruction_and_learning(self, monkeypatch):
        seen = {"FLAT": [], "OBLIQUE": []}
        for name, calls in seen.items():
            geometry = getattr(cg, name)

            def recording(*args, rule=geometry.first_step, calls=calls):
                calls.append(args)
                return rule(*args)

            monkeypatch.setattr(cg, name, dataclasses.replace(geometry, first_step=recording))
        y, op, cfg = denoise_problem((12, 12, 12), 8)
        reconstruct.reconstruct(y, op, manifold.random_point([(6, 5)] * 3, 4), cfg)
        vol = volume.synth_phantom((16, 16, 16), seed=5)
        patches = volume.build_training_set(vol, 100, (5, 5, 5), flat_tol=1.0, seed=11).patches
        learn.learn_operators(patches, [(6, 5)] * 3, LearningParams(), cg.SolverConfig(max_iters=10))
        sizes = {"FLAT": 12**3, "OBLIQUE": 3 * 6 * 5}
        for name, calls in seen.items():
            tol = cg.GRAD_TOL * math.sqrt(sizes[name])
            assert len(calls) > 1, name  # the first step and at least one ratio or doubling
            for _prev_step, _prev_dd, dd, grad_norm in calls:
                assert dd < 0 and grad_norm > tol, name


class TestTrialStateIsReleased:
    def test_no_earlier_gradient_is_alive_during_an_evaluation(self, monkeypatch):
        # Each evaluation's gradient holds the residual and the analysis
        # coefficients of its trial volume (two coefficient arrays of 36 MiB
        # each at 32^3).  The solver must drop a rejected trial's gradient
        # before it evaluates the next trial, and an accepted one once it
        # has called it.
        evaluate = reconstruct._evaluate
        gradients: list[weakref.ref] = []
        alive_at_evaluation: list[int] = []

        def tracked(*args):
            alive_at_evaluation.append(sum(ref() is not None for ref in gradients))
            cost, gradient = evaluate(*args)
            gradients.append(weakref.ref(gradient))
            return cost, gradient

        monkeypatch.setattr(reconstruct, "_evaluate", tracked)
        y, op, cfg = denoise_problem((12, 12, 12), 8)
        trace: list[float] = []
        reconstruct.reconstruct(y, op, manifold.random_point([(6, 5)] * 3, 4), cfg, trace=trace)
        assert len(alive_at_evaluation) > len(trace), "no line-search trial was rejected"
        assert alive_at_evaluation == [0] * len(alive_at_evaluation)
