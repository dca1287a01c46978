"""Load generator: open-loop (Poisson) arrivals and report plumbing.

The open-loop guarantee: the arrival process is driven by the offered
rate alone — the dispatcher issues requests on its pre-drawn exponential
schedule regardless of how fast the server answers, and the report's
``achieved_rps`` stays within sampling tolerance of ``offered_rps``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.errors import BackpressureError, ServeError
from repro.serve import Server, run_load
from repro.serve.loadgen import LAG_BOUND_MS

pytestmark = pytest.mark.serve


@pytest.fixture()
def server(quantized_model):
    srv = Server(quantized_model)
    srv.start()
    yield srv
    srv.stop()


class TestOpenLoop:
    def test_offered_rate_is_respected(self, server, tiny_dataset):
        offered = 300.0
        report = run_load(
            server, tiny_dataset, requests=150, mode="open", offered_rps=offered, seed=3
        )
        assert report.mode == "open"
        assert report.offered_rps == offered
        assert report.failed_requests == 0
        assert report.requests == 150
        # The dispatcher realizes one draw of the Poisson schedule; over
        # n arrivals the realized rate fluctuates by ~1/sqrt(n) (~8% at
        # n=150), so a 25% band is a real assertion, not a tautology.
        assert report.achieved_rps == pytest.approx(offered, rel=0.25)

    def test_slow_server_does_not_throttle_arrivals(self, server, tiny_dataset):
        """Unlike the closed loop, latency must not feed back into the
        offered rate: even when every request queues behind a batch, the
        dispatch rate tracks the schedule."""
        report = run_load(
            server,
            tiny_dataset,
            requests=80,
            mode="open",
            offered_rps=500.0,
            batch_fraction=0.5,
            batch_size=16,
            seed=7,
        )
        assert report.achieved_rps == pytest.approx(500.0, rel=0.3)
        assert report.requests == 80

    def test_dispatch_lag_is_recorded_per_request(self, server, tiny_dataset):
        report = run_load(
            server, tiny_dataset, requests=40, mode="open", offered_rps=200.0, seed=1
        )
        assert len(report.dispatch_lag_ms) == 40
        assert report.lag_p99_ms == pytest.approx(np.percentile(report.dispatch_lag_ms, 99))
        assert report.generator_bound == (report.lag_p99_ms > LAG_BOUND_MS)

    def test_slow_dispatch_is_flagged_generator_bound(self, server, tiny_dataset):
        report = run_load(
            _SlowAdmission(server, seconds=0.03),
            tiny_dataset,
            requests=20,
            mode="open",
            offered_rps=200.0,
            seed=2,
        )
        assert report.requests == 20
        assert report.lag_p99_ms > LAG_BOUND_MS
        assert report.generator_bound

    def test_backpressure_is_retried_without_blocking(self, server, tiny_dataset):
        flaky = _RejectFirst(server)
        report = run_load(
            flaky, tiny_dataset, requests=30, mode="open", offered_rps=300.0, seed=4
        )
        assert flaky.rejected == 30
        assert report.requests == 30
        assert report.failed_requests == 0

    def test_open_loop_requires_positive_rate(self, server, tiny_dataset):
        with pytest.raises(ServeError):
            run_load(server, tiny_dataset, requests=4, mode="open")
        with pytest.raises(ServeError):
            run_load(server, tiny_dataset, requests=4, mode="open", offered_rps=0.0)

    def test_unknown_mode_rejected(self, server, tiny_dataset):
        with pytest.raises(ServeError):
            run_load(server, tiny_dataset, requests=4, mode="poisson")


class _SlowAdmission:
    """A server front that takes ``seconds`` to accept each request."""

    def __init__(self, server, seconds):
        self._server, self._seconds = server, seconds

    def submit(self, x):
        time.sleep(self._seconds)
        return self._server.submit(x)

    def submit_batch(self, xs):
        time.sleep(self._seconds)
        return self._server.submit_batch(xs)

    def stats(self):
        return self._server.stats()


class _RejectFirst:
    """A server front that turns every request away once, then admits it."""

    def __init__(self, server):
        self._server, self._seen, self.rejected = server, set(), 0

    def _admit(self, x, submit):
        if id(x) not in self._seen:
            self._seen.add(id(x))
            self.rejected += 1
            raise BackpressureError("full", retry_after_s=0.002)
        return submit(x)

    def submit(self, x):
        return self._admit(x, self._server.submit)

    def submit_batch(self, xs):
        return self._admit(xs, self._server.submit_batch)

    def stats(self):
        return self._server.stats()


class TestClosedLoopReport:
    def test_closed_loop_reports_no_rate_fields(self, server, tiny_dataset):
        report = run_load(server, tiny_dataset, requests=16, concurrency=4, seed=0)
        assert report.mode == "closed"
        assert report.offered_rps is None
        assert report.achieved_rps is None
        assert report.dispatch_lag_ms is None and report.generator_bound is None
        assert report.requests == 16
        payload = report.to_dict()
        assert payload["mode"] == "closed"
        assert np.isfinite(payload["latency_p95_ms"])
