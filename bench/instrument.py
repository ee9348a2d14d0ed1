"""Attach a tracer to every layer of ``sepop`` and turn its spans into metrics.

Each public function is wrapped under the name its caller looks up: a
function that one module imports from another by name (``learn`` imports
``learning_cost`` and ``learning_gradient``) is wrapped on the importing
module as well, and keeps the span name of the module that defines it.
``forward`` and ``adjoint`` are wrapped on each ``MeasurementOp`` subclass,
and ``MeasurementOp.__init__`` (which runs the adjoint self-check) on the
base class.  No private function is wrapped.
"""

from __future__ import annotations

import inspect
import math
import statistics

import common
from tracing import Span, Tracer, self_seconds

TERMINATION_CODES = {"tolerance": 1, "max_iters": 2, "line-search failure": 3}


class Observations:
    """Values read from arguments and results of wrapped calls, per command."""

    def __init__(self) -> None:
        self.recon_iters: dict[int, int] = {}
        self.coeff_bytes: dict[int, int] = {}
        self.learn_iters: dict[int, int] = {}
        self.termination: dict[int, str] = {}
        self.sample: dict[int, tuple[int, int]] = {}


def install(tracer: Tracer, pkg) -> Observations:
    seen = Observations()

    def reconstruct_adapter(original):
        def call(y, op, factors, cfg, trace=None):
            own = [] if trace is None else trace
            before = len(own)
            try:
                return original(y, op, factors, cfg, trace=own)
            finally:
                run = tracer.run
                seen.recon_iters[run] = seen.recon_iters.get(run, 0) + max(len(own) - before - 1, 0)
                patches = math.prod(
                    (n - d) // cfg.patch_stride + 1 for n, d in zip(op.dims, cfg.patch_dims)
                )
                coeffs = math.prod(len(f) for f in factors)
                seen.coeff_bytes[run] = patches * coeffs * 8

        return call

    def learn_adapter(original):
        def call(*args, **kwargs):
            factors, report = original(*args, **kwargs)
            seen.learn_iters[tracer.run] = report.iterations
            seen.termination[tracer.run] = report.termination
            return factors, report

        return call

    def sample_adapter(original):
        def call(*args, **kwargs):
            train = original(*args, **kwargs)
            seen.sample[tracer.run] = (train.count, int(train.meta["draws"]))
            return train

        return call

    adapters = {
        "reconstruct.reconstruct": reconstruct_adapter,
        "learn.learn_operators": learn_adapter,
        "volume.build_training_set": sample_adapter,
    }
    for short in common.MODULES:
        module = getattr(pkg, short)
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not obj.__module__.startswith("sepop."):
                continue
            name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
            tracer.wrap(module, attr, name, adapters.get(name))
    recon = pkg.reconstruct
    tracer.wrap(recon.MeasurementOp, "__init__", "reconstruct.MeasurementOp.__init__")
    for cls in (recon.IdentityMeasurement, recon.FourierMeasurement):
        for method in ("forward", "adjoint"):
            tracer.wrap(cls, method, f"reconstruct.{cls.__name__}.{method}")
    return seen


# ---------------------------------------------------------------------------
# Metrics from spans


def quantiles(values: list[float]) -> tuple[float, float, str]:
    """Median, and the highest of p99/p95/p90/p75/p50 with >= 10 samples above.

    With fewer than 11 samples the maximum is reported instead.
    """
    if not values:
        return 0.0, 0.0, "none"
    ordered = sorted(values)
    n = len(ordered)
    median = statistics.median(ordered)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return median, ordered[min(n - 1, math.ceil(n * q / 100) - 1)], f"p{q}"
    return median, ordered[-1], "max"


def layer_metrics(spans: list[Span], seen: Observations, runs: int) -> tuple[dict, dict]:
    """Per-layer metrics and the notes explaining them.

    Counts come from command 0 (the probe), so they repeat exactly between
    traced runs; times are medians over commands, or over calls for the
    per-call timings.
    """
    selfs = self_seconds(spans)
    notes: dict[str, str] = {}
    per_run: list[dict[str, float]] = [dict() for _ in range(runs)]

    def add(run: int, key: str, value: float) -> None:
        per_run[run][key] = per_run[run].get(key, 0.0) + value

    durations: dict[str, list[float]] = {}
    for index, span in enumerate(spans):
        parent = spans[span.parent] if span.parent is not None else None
        run = span.run
        add(run, f"{span.layer}.self_s", selfs[index])
        if parent is None or parent.layer != span.layer:
            add(run, f"{span.layer}.calls", 1)
            add(run, f"{span.layer}.s", span.seconds)
        durations.setdefault(span.name, []).append(span.seconds * 1e3)
        add(run, f"n:{span.name}", 1)
        if span.name == "objective.learning_cost" and span.error == "BarrierError":
            add(run, "objective.barrier_rejects", 1)
        if span.name == "manifold.product_retract" and parent and parent.name == "learn.minimize_on_product":
            add(run, "learn.ls_trials", 1)
        if parent is not None and parent.name == "reconstruct.reconstruct":
            add(run, "recon.op_s", span.seconds)
            if span.name.endswith(".forward"):
                add(run, "reconstruct.evals", 1)
            if span.name.startswith("reconstruct.FourierMeasurement."):
                durations.setdefault("solve:" + span.name, []).append(span.seconds * 1e3)
        if span.name == "reconstruct.reconstruct":
            add(run, "recon.solve_s", span.seconds)
        if span.name in ("volume.read_volume", "volume.write_volume"):
            add(run, "volume.io_s", span.seconds)
        if span.name in ("reconstruct.radial_mask_for_rate", "reconstruct.MeasurementOp.__init__"):
            add(run, "reconstruct.op_setup_s", span.seconds)
        if span.name == "volume.build_training_set":
            add(run, "volume.sample_s", span.seconds)
        if span.name == "learn.load_operators":
            add(run, "learn.load_ops_ms", span.seconds * 1e3)

    probe = per_run[0] if per_run else {}

    def count(key: str) -> float:
        return probe.get(key, 0.0)

    def per_command(key: str) -> float:
        return statistics.median(r.get(key, 0.0) for r in per_run) if per_run else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in common.MODULES:
        out[f"{layer}.calls"] = (count(f"{layer}.calls"), "count")
        out[f"{layer}.s"] = (per_command(f"{layer}.s"), "s")
        out[f"{layer}.self_s"] = (per_command(f"{layer}.self_s"), "s")
        if not count(f"{layer}.calls"):
            notes[f"{layer}.*"] = f"unmeasured: this command never calls sepop.{layer}"

    def timing(key: str, name: str) -> None:
        med, hi, label = quantiles(durations.get(name, []))
        out[f"{key}.med"] = (med, "ms")
        out[f"{key}.hi"] = (hi, "ms")
        notes[f"{key}.hi"] = f"{label} of {len(durations.get(name, []))} calls"

    out["objective.cost_calls"] = (count("n:objective.learning_cost"), "count")
    timing("objective.cost_ms", "objective.learning_cost")
    out["objective.grad_calls"] = (count("n:objective.learning_gradient"), "count")
    timing("objective.grad_ms", "objective.learning_gradient")
    out["objective.analyze_calls"] = (count("n:objective.analyze_batch"), "count")
    iters = seen.learn_iters.get(0, 0)
    out["objective.analyses_per_iter"] = (count("n:objective.analyze_batch") / iters if iters else 0.0, "ratio")
    out["objective.barrier_rejects"] = (count("objective.barrier_rejects"), "count")

    trials = count("learn.ls_trials")
    out["learn.iters"] = (float(iters), "count")
    out["learn.ls_trials"] = (trials, "count")
    out["learn.ls_accept_ratio"] = (iters / trials if trials else 0.0, "ratio")
    termination = seen.termination.get(0, "")
    out["learn.termination"] = (float(TERMINATION_CODES.get(termination, 0)), "code")
    notes["learn.termination"] = termination or "learn_operators not called"
    out["learn.load_ops_ms"] = (per_command("learn.load_ops_ms"), "ms")

    out["volume.sample_s"] = (per_command("volume.sample_s"), "s")
    accepted, draws = seen.sample.get(0, (0, 0))
    out["volume.sample_accept_ratio"] = (accepted / draws if draws else 0.0, "ratio")
    notes["volume.sample_accept_ratio"] = f"{accepted} of {draws} draws"
    out["volume.io_s"] = (per_command("volume.io_s"), "s")

    evals = count("reconstruct.evals")
    r_iters = seen.recon_iters.get(0, 0)
    out["reconstruct.iters"] = (float(r_iters), "count")
    out["reconstruct.evals"] = (evals, "count")
    out["reconstruct.evals_per_iter"] = (evals / r_iters if r_iters else 0.0, "ratio")
    self_ms = [
        (r.get("recon.solve_s", 0.0) - r.get("recon.op_s", 0.0)) * 1e3 / r["reconstruct.evals"]
        for r in per_run
        if r.get("reconstruct.evals")
    ]
    out["reconstruct.self_ms_per_eval"] = (statistics.median(self_ms) if self_ms else 0.0, "ms")
    out["reconstruct.coeff_mib"] = (seen.coeff_bytes.get(0, 0) / 2**20, "MiB")
    notes["reconstruct.coeff_mib"] = "computed from the volume, patch and factor sizes"
    timing("reconstruct.fwd_ms", "solve:reconstruct.FourierMeasurement.forward")
    timing("reconstruct.adj_ms", "solve:reconstruct.FourierMeasurement.adjoint")
    out["reconstruct.op_setup_s"] = (per_command("reconstruct.op_setup_s"), "s")
    timing("reconstruct.psnr_ms", "reconstruct.psnr")
    timing("reconstruct.mssim_ms", "reconstruct.mssim")
    if not evals:
        notes["reconstruct.iters"] = "unmeasured: this command never calls reconstruct"
    return out, notes
