"""The benchmark's three workloads: set-up, one timed pass, and oracles.

Every workload builds its inputs from the seed alone, calls only public
functions of :mod:`repro`, and checks the program's outputs:

- ``algo1_resnet20_t5`` — Algorithm 1 on ResNet20: quantization stage,
  approximation stage (ApproxKD+GE on ``truncated5``), final eval.
- ``serve_open_t5`` — the quantized ResNet20 with ``truncated5`` behind
  ``repro.Server``, driven open-loop at a ladder of fixed rates.
- ``sweep_evo_w2`` — ``run_sweep`` over four EvoApprox designs and two
  methods on a quantized SimpleCNN with two workers.

Each ``run_*`` function returns a :class:`Outcome`: the end-to-end
metrics, the operation counts, and the digests that identify the outputs.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import openloop
from repro import (
    Server,
    ServeConfig,
    TrainConfig,
    approximation_stage,
    create_model,
    evaluate_accuracy,
    make_synthetic_cifar,
    quantization_stage,
)
from repro.approx import plan_cache_disabled
from repro.autograd.grad_mode import no_grad
from repro.autograd.tensor import Tensor
from repro.obs import trace as tr
from repro.pipeline.sweep import run_sweep
from repro.quant.convert import calibrate_model, quantize_model
from repro.sim.proxsim import attach_multiplier
from repro.train.optim import SGD, Optimizer
from repro.train.trainer import cross_entropy_loss, train_model
from repro.utils.serialization import model_state_arrays

IMAGE_SIZE = 16
MULTIPLIER = "truncated5"
EVO_MULTIPLIERS = ("evoapprox228", "evoapprox249", "evoapprox145", "evoapprox104")
SWEEP_METHODS = ("normal", "approxkd_ge")
SWEEP_WORKERS = 2
# Set-up runs this many times per run; ``setup_s`` is their median.
SETUPS = 3


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is what the benchmark measures."""

    resnet_train: int
    resnet_test: int
    resnet_pretrain_epochs: int
    sweep_train: int
    sweep_test: int
    sweep_pretrain_epochs: int
    min_passes: int
    # Ascending open-loop rates, requests/s; the first is the reference rate
    # whose p50/p90 are reported.
    serve_rates: tuple[float, ...]
    serve_slo_p99_ms: float
    serve_job_per_s: int  # saturated job size per second of --seconds


FULL = Sizes(
    resnet_train=384,
    resnet_test=128,
    resnet_pretrain_epochs=2,
    sweep_train=256,
    sweep_test=128,
    sweep_pretrain_epochs=2,
    min_passes=3,
    serve_rates=(50.0, 150.0, 225.0, 300.0),
    serve_slo_p99_ms=100.0,
    serve_job_per_s=120,
)
SMOKE = Sizes(
    resnet_train=40,
    resnet_test=20,
    resnet_pretrain_epochs=1,
    sweep_train=40,
    sweep_test=20,
    sweep_pretrain_epochs=1,
    min_passes=1,
    serve_rates=(20.0, 40.0),
    serve_slo_p99_ms=1000.0,
    serve_job_per_s=40,
)

# Pre-training and fine-tuning recipes. The stage recipe is explicit because
# the CLI defaults collapse these models.
PRETRAIN_LR = 0.05
PRETRAIN_BATCH = 32
STAGE_LR = 0.002
STAGE_BATCH = 64


def stage_config(seed: int) -> TrainConfig:
    return TrainConfig(epochs=1, batch_size=STAGE_BATCH, lr=STAGE_LR, seed=seed)


@dataclass
class Outcome:
    """What one run of a workload measured and checked."""

    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    info: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one oracle check; a mismatch is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.info.setdefault("oracle_failures", []).append(what)


def digest(model) -> str:
    """SHA-256 over every array of the model state, in name order."""
    h = hashlib.sha256()
    for name, array in sorted(model_state_arrays(model).items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def logits(model, x: np.ndarray) -> np.ndarray:
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


class SetupTimer:
    """Times :data:`SETUPS` runs of ``setup``; ``setup_s`` is their median.

    :meth:`first` runs the set-up the timed part uses; :meth:`repeat`, called
    after the timed part, runs the rest, so the repeats sample host speed
    late in the run as well as at start-up. Set-up is deterministic: every
    repeat must produce the same model, the second item of its result (an
    oracle). ``close`` releases a repeat's result.
    """

    def __init__(
        self, setup: Callable[[], tuple], close: Callable[[tuple], None] | None = None
    ):
        self.setup = setup
        self.close = close
        self.times: list[float] = []

    def _timed(self) -> tuple:
        started = time.perf_counter()
        state = self.setup()
        self.times.append(time.perf_counter() - started)
        return state

    def first(self) -> tuple:
        state = self._timed()
        self.digest = digest(state[1])
        return state

    def repeat(self, outcome: Outcome) -> None:
        for _ in range(SETUPS - 1):
            other = self._timed()
            outcome.check(digest(other[1]) == self.digest, "set-up not deterministic")
            if self.close is not None:
                self.close(other)
        outcome.metrics["setup_s"] = statistics.median(self.times)
        outcome.info["setup_runs_s"] = self.times


def run_passes(
    one_pass: Callable[[], object], seconds: float, min_passes: int
) -> tuple[list, list]:
    """Run ``one_pass`` once to warm up, then repeat it until ``seconds``
    have elapsed since the start and at least ``min_passes`` more ran.

    Returns (wall times of the passes after the warm-up, results of every
    pass, the warm-up's first). The warm-up fills caches and pays
    first-call costs; it counts in no timing.
    """
    started = time.perf_counter()
    walls, results = [], [one_pass()]
    while len(walls) < min_passes or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        results.append(one_pass())
        walls.append(time.perf_counter() - t0)
    return walls, results


def quantile_ms(values_s: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(values_s), q)) * 1e3


class StepTimer:
    """Times training steps from ``zero_grad`` to the end of ``step``.

    The trainer calls ``optimizer.zero_grad()`` first and
    ``optimizer.step()`` last in every batch, so the interval is one whole
    step: forward, loss, backward and the update. Only steps taken while
    ``active`` are kept; :meth:`new_pass` starts a new group. The first
    group is the warm-up pass's and counts in no timing.
    """

    def __init__(self):
        self.active = False
        self.passes: list[list[float]] = []
        self._start = None
        self._saved = None

    def __enter__(self) -> "StepTimer":
        timer = self
        zero_grad, step = Optimizer.zero_grad, SGD.step

        def timed_zero_grad(opt):
            timer._start = time.perf_counter()
            return zero_grad(opt)

        def timed_step(opt):
            result = step(opt)
            if timer.active and timer._start is not None:
                timer.passes[-1].append(time.perf_counter() - timer._start)
            timer._start = None
            return result

        self._saved = (zero_grad, step)
        Optimizer.zero_grad, SGD.step = timed_zero_grad, timed_step
        return self

    def __exit__(self, *exc) -> None:
        Optimizer.zero_grad, SGD.step = self._saved

    def new_pass(self) -> None:
        self.passes.append([])

    @property
    def steps_s(self) -> list[float]:
        return [step for group in self.passes[1:] for step in group]


# -- shared set-up -------------------------------------------------------------


def pretrained(
    model_name: str, num_train: int, num_test: int, epochs: int, seed: int, **model_kwargs
):
    """Synthetic data plus a full-precision model trained on it."""
    data = make_synthetic_cifar(num_train, num_test, image_size=IMAGE_SIZE, seed=seed)
    model = create_model(model_name, rng=seed, **model_kwargs)
    recipe = TrainConfig(
        epochs=epochs, batch_size=PRETRAIN_BATCH, lr=PRETRAIN_LR, seed=seed, eval_every=epochs
    )
    train_model(model, data, cross_entropy_loss(), recipe)
    return data, model


def pretrained_resnet(sizes: Sizes, seed: int):
    return pretrained(
        "resnet20", sizes.resnet_train, sizes.resnet_test, sizes.resnet_pretrain_epochs,
        seed, width_mult=0.25,
    )


# -- algo1_resnet20_t5 ---------------------------------------------------------


def algo1_pass(data, fp_model, seed: int, steps: StepTimer | None = None):
    """Algorithm 1 end to end; returns (approximate model, top-1)."""
    config = stage_config(seed)
    quant, _ = quantization_stage(fp_model, data, train_config=config, temperature=1.0)
    if steps is not None:
        steps.new_pass()
        steps.active = True
    approx, _ = approximation_stage(
        quant, data, MULTIPLIER, method="approxkd_ge", train_config=config, temperature=2.0
    )
    if steps is not None:
        steps.active = False
    with tr.span("pipeline.eval"):
        top1 = evaluate_accuracy(approx, data.test_x, data.test_y)
    return approx, top1


def run_algo1(seed: int, seconds: float, sizes: Sizes) -> Outcome:
    out = Outcome(metrics={})
    setups = SetupTimer(lambda: pretrained_resnet(sizes, seed))
    data, fp_model = setups.first()
    last = {}

    def one_pass():
        # Only the newest model stays alive, so memory does not grow with
        # the number of passes.
        last["model"], top1 = algo1_pass(data, fp_model, seed, steps)
        return digest(last["model"]), top1

    with StepTimer() as steps:
        walls, results = run_passes(one_pass, seconds, sizes.min_passes)
    setups.repeat(out)
    digests = [d for d, _ in results]
    for d in digests[1:]:
        out.check(d == digests[0], "Algorithm 1 pass not deterministic")
    final = last["model"]
    cached = logits(final, data.test_x)
    with plan_cache_disabled():
        uncached = logits(final, data.test_x)
    out.check(np.array_equal(cached, uncached), "logits differ without plan caches")
    out.attempted += len(walls)
    trained = 2 * len(data.train_x)  # one epoch in each stage
    out.metrics.update(
        wall_s=statistics.median(walls),
        p50_ms=quantile_ms(steps.steps_s, 0.50),
        p90_ms=quantile_ms(steps.steps_s, 0.90),
        throughput_per_s=trained / statistics.median(walls),
    )
    out.info.update(
        pass_walls_s=walls, steps=len(steps.steps_s), top1=results[-1][1],
        weights_digest=digests[0],
    )
    return out


# -- sweep_evo_w2 --------------------------------------------------------------


def sweep_setup(sizes: Sizes, seed: int):
    data, fp_model = pretrained(
        "simplecnn", sizes.sweep_train, sizes.sweep_test, sizes.sweep_pretrain_epochs,
        seed, base_width=8,
    )
    quant, _ = quantization_stage(
        fp_model, data, train_config=stage_config(seed), temperature=1.0
    )
    return data, quant


def sweep_pass(data, quant, seed: int):
    return run_sweep(
        quant, data, list(EVO_MULTIPLIERS), methods=SWEEP_METHODS,
        train_config=stage_config(seed), rng=seed, workers=SWEEP_WORKERS,
    )


def accuracy_digest(result) -> str:
    accs = [(p.multiplier, p.method, p.final_accuracy) for p in result.points]
    return hashlib.sha256(repr(accs).encode()).hexdigest()[:16]


def run_sweep_workload(seed: int, seconds: float, sizes: Sizes) -> Outcome:
    out = Outcome(metrics={})
    setups = SetupTimer(lambda: sweep_setup(sizes, seed))
    data, quant = setups.first()
    walls, results = run_passes(
        lambda: sweep_pass(data, quant, seed), seconds, sizes.min_passes
    )
    setups.repeat(out)
    cells = [p for result in results for p in result.points]
    out.attempted += len(cells)
    out.failed += sum(1 for p in cells if p.status != "ok")
    digests = [accuracy_digest(r) for r in results]
    for d in digests[1:]:
        out.check(d == digests[0], "sweep accuracies not deterministic")
    # The unit of work is one cell's fine-tune and evaluation, as the worker
    # timed it. A multiplier's cells summed would add the noise of two
    # co-scheduled cells and halve the samples.
    per_cell = [
        p.wall_time
        for r in results[1:]  # the warm-up pass counts in no timing
        for p in r.points
        if p.status == "ok"
    ]
    per_pass = len(EVO_MULTIPLIERS) * len(SWEEP_METHODS) * len(data.train_x)
    out.metrics.update(
        wall_s=statistics.median(walls),
        p50_ms=quantile_ms(per_cell, 0.50),
        p90_ms=quantile_ms(per_cell, 0.90),
        throughput_per_s=per_pass / statistics.median(walls),
    )
    ok = [p.final_accuracy for p in results[-1].points if p.status == "ok"]
    out.info.update(
        pass_walls_s=walls, cells=len(cells),
        top1=float(np.mean(ok)) if ok else 0.0, accuracy_digest=digests[0],
    )
    return out


# -- serve_open_t5 -------------------------------------------------------------

SERVE_CONFIG = ServeConfig(deadline_ms=5.0, max_batch=16, queue_depth=512, replicas=1)


def serve_setup(sizes: Sizes, seed: int):
    """Data, the quantized model with ``truncated5`` attached, and a
    started, warmed one-replica server."""
    data, fp_model = pretrained_resnet(sizes, seed)
    model = quantize_model(fp_model)
    calibrate_model(model, [data.train_x[:STAGE_BATCH]])
    attach_multiplier(model, MULTIPLIER)
    model.eval()
    server = Server(model, SERVE_CONFIG).start(warm=data.test_x[: SERVE_CONFIG.max_batch])
    return data, model, server


def serve_rounds(server, data, sizes: Sizes, seconds: float, rng: np.random.Generator):
    """The timed part of ``serve_open_t5``.

    Each round runs the reference rung (40% of the run in all), a chunk of
    the saturated job, and the next ladder rung (20% in all). Interleaving
    spreads every figure over the whole run, so slow drift in host speed
    moves them all alike. Returns ``(reference rungs, ladder rungs, job
    chunks)``, each rung or chunk paired with the test index of every
    request.
    """
    rounds = len(sizes.serve_rates) - 1 or 1
    ladder = list(sizes.serve_rates[1:])
    per_chunk = int(sizes.serve_job_per_s * seconds / rounds)
    reference, rungs, chunks = [], [], []

    def rung(rate: float, duration: float):
        offsets = openloop.poisson_offsets(rate, duration, rng)
        idx = rng.integers(0, len(data.test_x), size=len(offsets))
        return openloop.run_rung(server.submit, data.test_x[idx], offsets, rate), idx

    for r in range(rounds):
        reference.append(rung(sizes.serve_rates[0], 0.4 * seconds / rounds))
        idx = rng.integers(0, len(data.test_x), size=per_chunk)
        futures, chunk_s = openloop.run_saturated(
            server.submit, data.test_x[idx], outstanding=2 * SERVE_CONFIG.max_batch
        )
        chunks.append(((futures, chunk_s), idx))
        if r < len(ladder):
            rungs.append(rung(ladder[r], 0.2 * seconds / len(ladder)))
    return reference, rungs, chunks


def reference_logits(model, x: np.ndarray) -> np.ndarray:
    """Direct single-sample evaluation of every sample, one at a time."""
    return np.stack([logits(model, x[i : i + 1])[0] for i in range(len(x))])


def check_responses(out: Outcome, batches, data, reference) -> float:
    """Count failed and non-bitwise-equal responses over ``(futures, test
    indices)`` pairs; returns the top-1 of the served responses."""
    correct = served = 0
    for futures, idx in batches:
        out.attempted += len(futures)
        for future, i in zip(futures, idx):
            if future.exception() is not None:
                out.failed += 1
                continue
            row = future.result().logits
            served += 1
            if not np.array_equal(row, reference[i]):
                out.failed += 1
                out.info["oracle_failures"] = ["response differs from direct eval"]
            correct += int(np.argmax(row) == data.test_y[i])
    return correct / served if served else 0.0


def rung_summary(rung) -> dict:
    return {
        "rate": rung.rate, "sent": rung.sent, "failed": rung.failed,
        "p50_ms": round(rung.latency_quantile_ms(0.5), 3),
        "p99_ms": round(rung.latency_quantile_ms(0.99), 3),
        "windowed_p99_ms": round(rung.windowed_quantile_ms(0.99), 3),
        "tail_median_ms": round(rung.tail_median_ms, 3),
        "lag_p99_ms": round(rung.lag_p99_ms, 3),
        "achieved_rps": round(rung.achieved_rps, 2),
        "generator_bound": rung.generator_bound,
    }


def run_serve(seed: int, seconds: float, sizes: Sizes) -> Outcome:
    out = Outcome(metrics={})
    setups = SetupTimer(lambda: serve_setup(sizes, seed), close=lambda state: state[2].stop())
    data, model, server = setups.first()
    rng = np.random.default_rng(seed)
    try:
        reference, rungs, chunks = serve_rounds(server, data, sizes, seconds, rng)
    finally:
        server.stop()
    setups.repeat(out)
    expected = reference_logits(model, data.test_x)
    top1 = check_responses(
        out,
        [(r.futures, idx) for r, idx in reference + rungs]
        + [(futures, idx) for (futures, _), idx in chunks],
        data, expected,
    )
    ref = [r for r, _ in reference]
    job_s = sum(chunk_s for (_, chunk_s), _ in chunks)
    ladder = [ref[0]] + [r for r, _ in rungs]
    out.metrics.update(
        wall_s=job_s,
        p50_ms=float(np.median(np.concatenate([r.ok_latency_ms for r in ref]))),
        p90_ms=openloop.windowed_quantile_ms(ref, 0.90),
        throughput_per_s=sum(len(idx) for _, idx in chunks) / job_s,
    )
    out.info.update(
        top1=top1,
        generator_bound=any(r.generator_bound for r in ref),
        max_rps_at_slo=openloop.max_rate_at_slo(ladder, sizes.serve_slo_p99_ms),
        ladder=[rung_summary(r) for r in ladder],
    )
    return out


WORKLOADS = {
    "algo1_resnet20_t5": run_algo1,
    "serve_open_t5": run_serve,
    "sweep_evo_w2": run_sweep_workload,
}
