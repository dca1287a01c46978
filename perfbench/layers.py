"""The traced run: per-layer time, counts and self-time attribution.

The traced run wraps public entry points of each layer of :mod:`repro` in
spans opened from this file, enables the program's own spans and profiler
counters (``repro.obs.trace.tracing``, ``repro.obs.profiling.profiled``),
runs one pass of the workload, and folds the spans into per-layer
metrics. End-to-end metrics never come from here: tracing costs time,
and ``obs.trace_overhead_frac`` says how much.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext

import numpy as np

import openloop
import workloads as wl
from repro.obs import profiling as prof
from repro.obs import trace as tr

# Public functions wrapped in a span named after the layer metric they feed.
# Every module that imported the function by name is patched too.
FUNCTION_ENTRY_POINTS = (
    ("repro.pipeline.algorithm1", "quantization_stage", "pipeline.quant_stage"),
    ("repro.pipeline.algorithm1", "approximation_stage", "pipeline.approx_stage"),
    ("repro.quant.convert", "calibrate_model", "quant.calibrate"),
    ("repro.distill.teacher", "precompute_teacher_logits", "distill.teacher_logits"),
    ("repro.ge.estimator", "estimate_error_model", "ge.error_model"),
    ("repro.sim.proxsim", "evaluate_accuracy", "sim.eval"),
)
METHOD_ENTRY_POINTS = (
    ("repro.autograd.tensor", "Tensor", "backward", "autograd.backward"),
    ("repro.train.optim", "SGD", "step", "train.optim"),
    ("repro.quant.qfunction", "QuantConv2dFunction", "forward", "quant.layer_forward"),
    ("repro.quant.qfunction", "QuantConv2dFunction", "backward", "quant.layer_backward"),
    ("repro.quant.qfunction", "QuantLinearFunction", "forward", "quant.layer_forward"),
    ("repro.quant.qfunction", "QuantLinearFunction", "backward", "quant.layer_backward"),
)

# Spans whose self time is loop or model-forward overhead outside any
# kernel-level span: the share of traced time they hold is what no layer
# metric accounts for (obs.unattributed_frac).
CONTAINER_SPANS = frozenset({
    "bench.pass", "pipeline.quant_stage", "pipeline.approx_stage", "pipeline.eval",
    "stage.quantization", "stage.approximation", "epoch", "eval", "sim.eval",
    "distill.teacher_logits", "sweep.cell", "parallel.task", "serve.batch",
})
# Externally timed request spans cover queueing, not work; they are kept
# out of the self-time fold.
LATENCY_SPANS = frozenset({"serve.request"})

# Span-name prefixes that belong to a module other than their first word.
_MODULE_OF_PREFIX = {
    "stage": "pipeline", "sweep": "pipeline", "epoch": "train", "eval": "sim",
    "mc": "ge", "checkpoint": "resilience",
}
MODULES = (
    "pipeline", "train", "autograd", "quant", "approx", "ge", "distill", "sim",
    "serve", "parallel",
)

# Layer metric -> span whose total duration it reports.
SPAN_TOTALS = {
    "pipeline.quant_stage_s": "pipeline.quant_stage",
    "pipeline.approx_stage_s": "pipeline.approx_stage",
    "pipeline.eval_s": "pipeline.eval",
    "train.epoch_s": "epoch",
    "train.optim_s": "train.optim",
    "autograd.backward_s": "autograd.backward",
    "autograd.im2col_s": "autograd.im2col",
    "autograd.col2im_s": "autograd.col2im",
    "quant.layer_fwd_s": "quant.layer_forward",
    "quant.layer_bwd_s": "quant.layer_backward",
    "quant.calibrate_s": "quant.calibrate",
    "approx.lut_gather_s": "approx.lut_gather",
    "approx.blas_s": "approx.matmul_blas",
    "approx.exact_matmul_s": "approx.exact_matmul",
    "ge.error_model_s": "ge.error_model",
    "distill.teacher_logits_s": "distill.teacher_logits",
    "sim.eval_s": "sim.eval",
}

PER_LAYER = (
    *SPAN_TOTALS,
    "quant.fake_quant_s",
    "pipeline.sweep_cell_s_p50",
    "approx.lut_gathered_mb",
    "approx.plan_hit_ratio",
    "approx.plan_builds",
    "approx.plan_repairs",
    "approx.plan_revalidates",
    "ge.mc_fallbacks",
    "sim.top1",
    "serve.queue_wait_ms_p50",
    "serve.queue_wait_ms_p99",
    "serve.batch_ms_p50",
    "serve.batch_size_mean",
    "serve.batch_occupancy",
    "parallel.busy_share",
    "loadgen.lag_p99_ms",
    "loadgen.achieved_rps",
    "obs.unattributed_frac",
    "obs.epoch_unattributed_frac",
    "obs.trace_overhead_frac",
    *(f"self.{m}_s" for m in MODULES),
)


def module_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return _MODULE_OF_PREFIX.get(head, head)


def _spanned(fn, name: str):
    def wrapper(*args, **kwargs):
        with tr.span(name):
            return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


@contextmanager
def wrapped_entry_points():
    """Wrap every entry point of :data:`FUNCTION_ENTRY_POINTS` and
    :data:`METHOD_ENTRY_POINTS` in a span; restore them on exit."""
    patches = []  # (owner, attribute, original)
    try:
        for module_name, attr, span_name in FUNCTION_ENTRY_POINTS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = _spanned(original, span_name)
            for module in list(sys.modules.values()):
                if getattr(module, "__dict__", {}).get(attr) is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for module_name, cls_name, attr, span_name in METHOD_ENTRY_POINTS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, _spanned(original, span_name))
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def program_epoch_unattributed(spans) -> float:
    """Share of epoch time in no span of the program's own: the spans this
    file opens are dropped and their children re-parented to the nearest
    program span (ROADMAP item 1's coverage measure)."""
    ours = {"bench.pass", "pipeline.eval"}
    ours |= {name for *_, name in FUNCTION_ENTRY_POINTS + METHOD_ENTRY_POINTS}
    by_id = {s.span_id: s for s in spans}

    def program_parent(span):
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.name in ours:
            parent = by_id.get(parent.parent_id)
        return parent

    child_ns: dict[str, int] = {}
    for s in spans:
        if s.name not in ours and s.name not in LATENCY_SPANS:
            parent = program_parent(s)
            if parent is not None:
                child_ns[parent.span_id] = child_ns.get(parent.span_id, 0) + s.dur_ns
    epochs = [s for s in spans if s.name == "epoch"]
    total = sum(s.dur_ns for s in epochs)
    own = sum(max(s.dur_ns - child_ns.get(s.span_id, 0), 0) for s in epochs)
    return own / total if total else 0.0


def self_times(spans) -> dict[str, float]:
    """Self seconds per span name: duration minus direct children's."""
    spans = [s for s in spans if s.name not in LATENCY_SPANS]
    child_ns: dict[str, int] = {}
    for s in spans:
        if s.parent_id is not None:
            child_ns[s.parent_id] = child_ns.get(s.parent_id, 0) + s.dur_ns
    out: dict[str, float] = {}
    for s in spans:
        own = max(s.dur_ns - child_ns.get(s.span_id, 0), 0) / 1e9
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def fold(spans, report: prof.ProfileReport) -> dict[str, float]:
    """Per-layer metrics every workload reports (0 where a layer is idle)."""
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + s.dur_ns / 1e9
    metrics = {metric: totals.get(name, 0.0) for metric, name in SPAN_TOTALS.items()}

    def count(name: str) -> int:
        stat = report.counter(name)
        return stat.calls if stat is not None else 0

    hits, revalidates = count("approx.plan_cache_hit"), count("approx.plan_cache_revalidate")
    attempts = hits + revalidates + count("approx.plan_cache_miss") + count(
        "approx.plan_cache_bypass"
    )
    gathered = report.counter("approx.lut_gathered_values")
    mc = report.timer("ge.montecarlo_profile")
    metrics.update({
        "approx.lut_gathered_mb": gathered.bytes / 1e6 if gathered else 0.0,
        "approx.plan_hit_ratio": (hits + revalidates) / attempts if attempts else 0.0,
        "approx.plan_builds": count("approx.plan_built"),
        "approx.plan_repairs": count("approx.plan_repaired"),
        "approx.plan_revalidates": revalidates,
        "ge.mc_fallbacks": mc.calls if mc else 0,
    })

    own = self_times(spans)
    # The 8A4W layers quantize their operands inside the fused layer
    # functions, so that work is the layers' self time.
    metrics["quant.fake_quant_s"] = totals.get("quant.fake_quantize", 0.0) + sum(
        own.get(name, 0.0) for name in ("quant.layer_forward", "quant.layer_backward")
    )
    traced = sum(own.values())
    unattributed = sum(v for name, v in own.items() if name in CONTAINER_SPANS)
    metrics["obs.unattributed_frac"] = unattributed / traced if traced else 0.0
    metrics["obs.epoch_unattributed_frac"] = program_epoch_unattributed(spans)
    per_module = {m: 0.0 for m in MODULES}
    for name, seconds in own.items():
        module = module_of(name)
        if module in per_module:
            per_module[module] += seconds
    metrics.update({f"self.{m}_s": v for m, v in per_module.items()})
    return metrics


def serve_layer_metrics(spans, max_batch: int) -> dict[str, float]:
    batches = {s.span_id: s for s in spans if s.name == "serve.batch"}
    waits = [
        (batches[s.parent_id].start_ns - s.start_ns) / 1e6
        for s in spans
        if s.name == "serve.request" and s.parent_id in batches
    ]
    sizes = [b.attrs.get("samples", 0) for b in batches.values()]
    durations = [b.dur_ns / 1e6 for b in batches.values()]
    return {
        "serve.queue_wait_ms_p50": float(np.quantile(waits, 0.5)) if waits else 0.0,
        "serve.queue_wait_ms_p99": float(np.quantile(waits, 0.99)) if waits else 0.0,
        "serve.batch_ms_p50": float(np.median(durations)) if durations else 0.0,
        "serve.batch_size_mean": float(np.mean(sizes)) if sizes else 0.0,
        "serve.batch_occupancy": float(np.mean(sizes)) / max_batch if sizes else 0.0,
    }


@contextmanager
def traced(root: bool = True):
    """Trace and profile the block; yields a dict filled with the spans and
    profiler report on exit. ``root`` opens a ``bench.pass`` span around
    the block, for work done on the calling thread."""
    captured: dict = {}
    with wrapped_entry_points(), prof.profiled() as report, tr.tracing() as recorder:
        with tr.span("bench.pass") if root else nullcontext():
            yield captured
    captured["spans"] = recorder.spans()
    captured["report"] = report


def run_traced(workload: str, seed: int, seconds: float, sizes: wl.Sizes) -> wl.Outcome:
    """Set up once, run an untraced warm-up and reference pass, then one
    traced pass; return the per-layer metrics."""
    out = wl.Outcome(metrics={})
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    if workload == "serve_open_t5":
        _trace_serve(out, metrics, seed, seconds, sizes)
    else:
        _trace_training(out, metrics, workload, seed, sizes)
    out.metrics = metrics
    return out


def _trace_training(out, metrics, workload: str, seed: int, sizes: wl.Sizes) -> None:
    if workload == "algo1_resnet20_t5":
        data, fp_model = wl.pretrained_resnet(sizes, seed)

        def one_pass():
            return wl.algo1_pass(data, fp_model, seed)
    else:
        data, quant = wl.sweep_setup(sizes, seed)

        def one_pass():
            return wl.sweep_pass(data, quant, seed)

    one_pass()  # warm-up: first-call costs stay out of both timings
    started = time.perf_counter()
    reference = one_pass()
    untraced_s = time.perf_counter() - started
    started = time.perf_counter()
    with traced() as captured:
        result = one_pass()
    traced_s = time.perf_counter() - started
    metrics.update(fold(captured["spans"], captured["report"]))
    metrics["obs.trace_overhead_frac"] = traced_s / untraced_s - 1.0
    out.attempted += 1
    if workload == "algo1_resnet20_t5":
        same = wl.digest(result[0]) == wl.digest(reference[0])
        out.check(same, "traced pass changed weights")
        metrics["sim.top1"] = result[1]
    else:
        cells = [s.dur_ns / 1e9 for s in captured["spans"] if s.name == "sweep.cell"]
        metrics["pipeline.sweep_cell_s_p50"] = statistics.median(cells) if cells else 0.0
        metrics["parallel.busy_share"] = sum(cells) / (wl.SWEEP_WORKERS * traced_s)
        out.attempted += len(result.points)
        out.failed += sum(1 for p in result.points if p.status != "ok")
        out.check(
            wl.accuracy_digest(result) == wl.accuracy_digest(reference),
            "traced sweep changed accuracies",
        )
        ok = [p.final_accuracy for p in result.points if p.status == "ok"]
        metrics["sim.top1"] = float(np.mean(ok)) if ok else 0.0


def _trace_serve(out, metrics, seed: int, seconds: float, sizes: wl.Sizes) -> None:
    data, model, server = wl.serve_setup(sizes, seed)
    rng = np.random.default_rng(seed)
    rate = sizes.serve_rates[0]

    def reference_rung():
        offsets = openloop.poisson_offsets(rate, 0.25 * seconds, rng)
        idx = rng.integers(0, len(data.test_x), size=len(offsets))
        return openloop.run_rung(server.submit, data.test_x[idx], offsets, rate), idx

    try:
        untraced = reference_rung()
        with traced(root=False) as captured:
            traced_rung = reference_rung()
    finally:
        server.stop()
    rungs = [untraced[0], traced_rung[0]]
    expected = wl.reference_logits(model, data.test_x)
    metrics["sim.top1"] = wl.check_responses(
        out, [(r.futures, idx) for r, idx in (untraced, traced_rung)], data, expected
    )
    spans = captured["spans"]
    metrics.update(fold(spans, captured["report"]))
    metrics.update(serve_layer_metrics(spans, wl.SERVE_CONFIG.max_batch))
    metrics["loadgen.lag_p99_ms"] = max(r.lag_p99_ms for r in rungs)
    metrics["loadgen.achieved_rps"] = rungs[0].achieved_rps
    base = float(np.mean(rungs[0].ok_latency_ms))
    metrics["obs.trace_overhead_frac"] = float(np.mean(rungs[1].ok_latency_ms)) / base - 1.0
    out.info["generator_bound"] = any(r.generator_bound for r in rungs)
