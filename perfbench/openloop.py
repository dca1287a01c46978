"""Open-loop load generator with one dispatcher thread.

Arrivals follow a precomputed Poisson schedule. The calling thread sleeps
until each request is due and then calls a non-blocking ``submit``; each
completion is timestamped by a future callback on the thread that
finishes the request. No thread is started per arrival, so the generator
itself stays cheap under the interpreter lock and a slow server cannot
throttle the arrival rate.

Latency runs from the time a request was *due*, not from when it was
actually sent, so a dispatcher stall is charged to every request it
delayed. How late the dispatcher ran is reported as ``lag``; a rung whose
lag p99 exceeds :data:`LAG_BOUND_MS` is flagged ``generator_bound`` and
its latencies must not be published.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# A dispatcher that runs this late at p99 measures itself, not the server.
LAG_BOUND_MS = 20.0
# Tail latency is taken per window of arrivals and the median over windows
# is reported: one host stall then moves a single window, not the figure.
WINDOW_S = 1.0


def poisson_offsets(rate: float, duration_s: float, rng: np.random.Generator) -> np.ndarray:
    """Due times (seconds from the rung start) of a Poisson arrival process."""
    if rate <= 0 or duration_s <= 0:
        raise ValueError(f"rate and duration must be positive, got {rate}, {duration_s}")
    # Draw comfortably more gaps than needed, then cut at the duration.
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration_s * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < duration_s]


@dataclass
class RungResult:
    """What one fixed-rate open-loop rung measured."""

    rate: float
    offsets: np.ndarray  # due times, s from rung start
    lag_ms: np.ndarray  # send time minus due time, per request
    latency_ms: np.ndarray  # completion minus due time (NaN where failed)
    futures: list  # one per request, in schedule order
    failed: int  # rejected at submit or completed with an exception
    duration_s: float  # first due time to last completion

    @property
    def sent(self) -> int:
        return len(self.offsets)

    @property
    def ok_latency_ms(self) -> np.ndarray:
        return self.latency_ms[~np.isnan(self.latency_ms)]

    @property
    def late_ms(self) -> np.ndarray:
        """Latency per request, a failed request counting as infinitely late."""
        return np.where(np.isnan(self.latency_ms), np.inf, self.latency_ms)

    def latency_quantile_ms(self, q: float) -> float:
        ok = self.ok_latency_ms
        return float(np.quantile(ok, q)) if ok.size else float("inf")

    def _per_window(self, values: np.ndarray, q: float) -> list[float]:
        """The ``q`` quantile of ``values`` in each :data:`WINDOW_S` window
        of arrivals holding at least 10 requests."""
        window = (self.offsets // WINDOW_S).astype(np.int64)
        return [
            float(np.quantile(values[window == w], q, method="inverted_cdf"))
            for w in np.unique(window)
            if np.count_nonzero(window == w) >= 10
        ]

    def window_quantiles_ms(self, q: float) -> list[float]:
        return self._per_window(self.late_ms, q)

    def windowed_quantile_ms(self, q: float) -> float:
        return windowed_quantile_ms([self], q)

    @property
    def lag_p99_ms(self) -> float:
        """Median over windows of the dispatcher's p99 lag: a generator
        that cannot keep up lags in every window, a host stall in one."""
        per_window = self._per_window(self.lag_ms, 0.99)
        if per_window:
            return float(np.median(per_window))
        return float(np.quantile(self.lag_ms, 0.99)) if self.sent else 0.0

    @property
    def generator_bound(self) -> bool:
        return self.lag_p99_ms > LAG_BOUND_MS

    @property
    def achieved_rps(self) -> float:
        """Send rate the dispatcher actually sustained."""
        span = self.offsets[-1] + self.lag_ms[-1] / 1e3 if self.sent else 0.0
        return self.sent / span if span > 0 else 0.0

    @property
    def tail_median_ms(self) -> float:
        """Median latency of the requests due in the rung's last window: a
        queue that kept growing through the rung shows up here."""
        last = self.offsets >= self.offsets[-1] - WINDOW_S
        return float(np.median(self.late_ms[last]))

    def meets_slo(self, slo_p99_ms: float) -> bool:
        """p99 within the limit, nothing failed and no backlog left over."""
        return (
            self.failed == 0
            and not self.generator_bound
            and self.windowed_quantile_ms(0.99) <= slo_p99_ms
            and self.tail_median_ms <= slo_p99_ms
        )


def windowed_quantile_ms(rungs: list[RungResult], q: float) -> float:
    """Median over every window of ``rungs`` of the window's ``q`` latency
    quantile; the pooled quantile when no window holds enough requests."""
    per_window = [value for rung in rungs for value in rung.window_quantiles_ms(q)]
    if per_window:
        return float(np.median(per_window))
    pooled = np.concatenate([rung.ok_latency_ms for rung in rungs])
    return float(np.quantile(pooled, q)) if pooled.size else float("inf")


def run_rung(
    submit: Callable[[np.ndarray], Future],
    payloads: Sequence[np.ndarray],
    offsets: np.ndarray,
    rate: float,
    timeout_s: float = 60.0,
) -> RungResult:
    """Send ``payloads[i]`` at ``offsets[i]`` seconds and wait for every reply.

    ``submit`` must not block on the server's work; an exception it raises
    (for instance backpressure) counts the request as failed.
    """
    n = len(offsets)
    if len(payloads) != n:
        raise ValueError(f"{len(payloads)} payloads for {n} arrivals")
    sent_ns = np.zeros(n, dtype=np.int64)
    done_ns = np.zeros(n, dtype=np.int64)
    futures: list = [None] * n
    remaining = [n]
    lock = threading.Lock()
    all_done = threading.Event()
    if n == 0:
        all_done.set()

    def finish(i: int) -> None:
        done_ns[i] = time.perf_counter_ns()
        with lock:
            remaining[0] -= 1
            if remaining[0] == 0:
                all_done.set()

    due_ns = (np.asarray(offsets) * 1e9).astype(np.int64)
    start_ns = time.perf_counter_ns()
    for i in range(n):
        wait = (start_ns + due_ns[i] - time.perf_counter_ns()) / 1e9
        if wait > 0:
            time.sleep(wait)
        sent_ns[i] = time.perf_counter_ns()
        try:
            future = submit(payloads[i])
        except Exception as exc:  # rejected at admission: a failed request
            future = Future()
            future.set_exception(exc)
        futures[i] = future
        future.add_done_callback(lambda _f, i=i: finish(i))
    if not all_done.wait(timeout_s):
        raise TimeoutError(f"{remaining[0]} of {n} requests still pending after {timeout_s}s")

    failed = np.array([f.exception() is not None for f in futures], dtype=bool)
    latency_ms = (done_ns - start_ns - due_ns) / 1e6
    latency_ms[failed] = np.nan
    return RungResult(
        rate=rate,
        offsets=np.asarray(offsets, dtype=np.float64),
        lag_ms=(sent_ns - start_ns - due_ns) / 1e6,
        latency_ms=latency_ms,
        futures=futures,
        failed=int(failed.sum()),
        duration_s=(int(done_ns.max()) - start_ns) / 1e9 if n else 0.0,
    )


def run_saturated(
    submit: Callable[[np.ndarray], Future],
    payloads: Sequence[np.ndarray],
    outstanding: int,
    timeout_s: float = 60.0,
) -> tuple[list, float]:
    """Send every payload, keeping ``outstanding`` requests in flight.

    A closed loop that never lets the server idle: returns the futures in
    send order and the seconds from the first send to the last completion,
    so ``len(payloads) / seconds`` is the server's sustained capacity.
    """
    slots = threading.Semaphore(outstanding)
    last_done = [0]
    futures = []

    def release(_future) -> None:
        last_done[0] = max(last_done[0], time.perf_counter_ns())
        slots.release()

    start_ns = time.perf_counter_ns()
    for payload in payloads:
        if not slots.acquire(timeout=timeout_s):
            raise TimeoutError(f"no reply within {timeout_s}s")
        try:
            future = submit(payload)
        except Exception as exc:  # rejected at admission: a failed request
            future = Future()
            future.set_exception(exc)
        future.add_done_callback(release)
        futures.append(future)
    for _ in range(outstanding):  # every slot back: all replies are in
        if not slots.acquire(timeout=timeout_s):
            raise TimeoutError(f"no reply within {timeout_s}s")
    return futures, (last_done[0] - start_ns) / 1e9


def max_rate_at_slo(rungs: list[RungResult], slo_p99_ms: float) -> float:
    """Highest offered rate whose p99 meets ``slo_p99_ms`` without backlog.

    ``rungs`` ascend in rate. Between the last passing rung and the first
    failing one, the rate is interpolated linearly in p99, so the figure
    moves smoothly instead of jumping between ladder steps.
    """
    if not rungs:
        raise ValueError("no rungs")
    passing = None
    for rung in rungs:
        if not rung.meets_slo(slo_p99_ms):
            break
        passing = rung
    else:
        return rungs[-1].rate
    failing = rung
    p_fail = failing.windowed_quantile_ms(0.99)
    if passing is None:
        # Even the lowest rate misses: scale it down by how far p99 overshoots.
        return failing.rate * min(slo_p99_ms / max(p_fail, 1e-9), 1.0)
    p_pass = passing.windowed_quantile_ms(0.99)
    if not np.isfinite(p_fail) or p_fail <= slo_p99_ms:
        return passing.rate  # failed on errors, lag or backlog, not on p99
    share = (slo_p99_ms - p_pass) / (p_fail - p_pass)
    return passing.rate + share * (failing.rate - passing.rate)
