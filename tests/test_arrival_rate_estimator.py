"""`estimate_arrival_rate` vs a naive reference, under adversarial inputs.

PR 3 turned the arrival-rate estimator into a bisect window over a
*lazily-trimmed* monotone list (``_arrival_times`` + ``_arrival_start``).
These tests cross-check that fast path against a naive full-scan reference
implementation of the documented math on the patterns most likely to break
a windowed bisect:

* burst ties -- dozens of arrivals sharing one timestamp, exactly on the
  window boundary and exactly at ``now``,
* out-of-window backlog -- thousands of stale arrivals that must be trimmed
  without disturbing the rate (and actually *are* trimmed),
* empty windows -- no recent arrivals at all, with and without queue
  backlog pressure,
* the early-run floor (``now < window`` falls back to the initial rate),
* a seeded randomized interleaving of appends, clock jumps and calls.

The reference recomputes from the full untrimmed history every time, so any
divergence introduced by the lazy trimming shows up immediately.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.server import ServingSystemBase


def naive_rate(times, now, pending=0, initial_rate=0.35):
    """Reference implementation: full scan, no trimming, no bisect.

    The short window is four 30 s adaptation rounds, the long one three
    times that.
    """
    short = 120.0
    long = 3.0 * short

    def rate_over(window):
        span = min(window, max(now, 1.0))
        recent = sum(1 for t in times if t >= now - window)
        observed = recent / span
        if now < window:
            observed = max(observed, initial_rate)
        return observed

    observed = max(rate_over(short), rate_over(long))
    return max(observed + pending / short, 1e-3)


class EstimatorHarness:
    """Just enough serving-system surface to borrow the real estimator.

    Borrows :meth:`ServingSystemBase.estimate_arrival_rate` unmodified, so
    the code under test is the production method, state mutation (lazy
    trimming) included.  ``history`` keeps the untrimmed shadow copy the
    naive reference scans.
    """

    estimate_arrival_rate = ServingSystemBase.estimate_arrival_rate

    def __init__(self, times=(), now=0.0, pending=0, initial_rate=0.35):
        self.simulator = SimpleNamespace(now=now)
        self.request_queue = SimpleNamespace(pending=pending)
        self.initial_arrival_rate = initial_rate
        self._arrival_times = list(times)
        self._arrival_start = 0
        self.history = list(times)

    def arrive(self, time):
        self._arrival_times.append(time)
        self.history.append(time)

    def expected(self):
        return naive_rate(
            self.history,
            self.simulator.now,
            self.request_queue.pending,
            self.initial_arrival_rate,
        )


class TestAdversarialPatterns:
    def test_empty_history_uses_initial_rate_floor(self):
        harness = EstimatorHarness(now=0.0)
        assert harness.estimate_arrival_rate() == harness.expected()
        assert harness.estimate_arrival_rate() == pytest.approx(0.35)

    def test_early_run_floor_fades_once_windows_fill(self):
        # now < window keeps the initial-rate floor; later it must vanish.
        times = [float(t) for t in range(0, 60, 5)]
        early = EstimatorHarness(times=times, now=60.0)
        assert early.estimate_arrival_rate() == early.expected()
        late = EstimatorHarness(times=times, now=5000.0)
        assert late.estimate_arrival_rate() == late.expected()
        assert late.estimate_arrival_rate() == pytest.approx(1e-3)

    def test_burst_ties_on_the_window_boundary(self):
        # 40 arrivals at *exactly* now - short_window (120 s): bisect_left
        # must count every tie, like the naive ``t >= now - window`` scan
        # does.
        now = 1000.0
        boundary = now - 120.0
        long_boundary = now - 360.0
        times = sorted([long_boundary] * 25 + [boundary] * 40 + [now] * 10)
        harness = EstimatorHarness(times=times, now=now, pending=7)
        assert harness.estimate_arrival_rate() == harness.expected()

    def test_just_outside_the_boundary_is_excluded(self):
        now = 1000.0
        inside = now - 120.0
        outside = np.nextafter(inside, -np.inf)
        with_inside = EstimatorHarness(times=[inside] * 10, now=now)
        with_outside = EstimatorHarness(times=[outside] * 10, now=now)
        assert with_inside.estimate_arrival_rate() == with_inside.expected()
        assert with_outside.estimate_arrival_rate() == with_outside.expected()
        # The short window sees 10 fewer arrivals one ulp outside; the long
        # window still catches them, so the two must differ via the short
        # window only when the short rate dominates -- the reference decides.

    def test_empty_window_with_backlog_pressure(self):
        # Every arrival is ancient; only the queued requests produce demand.
        times = [float(t) for t in range(0, 500)]
        harness = EstimatorHarness(times=times, now=10_000.0, pending=33)
        assert harness.estimate_arrival_rate() == harness.expected()
        assert harness.estimate_arrival_rate() == pytest.approx(33 / 120.0)

    def test_out_of_window_backlog_is_trimmed_identically(self):
        # Thousands of stale arrivals: the lazy trim must fire, shrink the
        # list, and change nothing about the estimate.
        stale = [float(t) for t in range(5000)]
        recent = [9_990.0, 9_995.0, 9_999.0]
        harness = EstimatorHarness(times=stale + recent, now=10_000.0, pending=2)
        before = len(harness._arrival_times)
        rate = harness.estimate_arrival_rate()
        after = len(harness._arrival_times)
        assert rate == harness.expected()
        assert after < before, "the stale backlog must actually be trimmed"
        assert after == len(recent)
        assert harness._arrival_start == 0
        # Idempotent: a second call sees the trimmed list, same answer.
        assert harness.estimate_arrival_rate() == rate

    def test_trim_never_fires_below_the_hysteresis_floor(self):
        # A small stale prefix (<1024) must be skipped via _arrival_start
        # without deleting anything.
        stale = [float(t) for t in range(800)]
        recent = [9_999.0]
        harness = EstimatorHarness(times=stale + recent, now=10_000.0)
        rate = harness.estimate_arrival_rate()
        assert rate == harness.expected()
        assert len(harness._arrival_times) == 801
        assert harness._arrival_start == 800


class TestRandomizedCrossCheck:
    def test_interleaved_appends_clock_jumps_and_calls(self):
        # A long seeded life: arrivals stream in (with deliberate ties),
        # the clock jumps by random strides (sometimes far ahead, stranding
        # the whole history out of window), the queue fills and drains --
        # after every step the production estimator must equal the naive
        # full-history reference, across trims.
        rng = np.random.default_rng(20260727)
        harness = EstimatorHarness()
        now = 0.0
        trims_seen = 0
        for step in range(400):
            stride = float(rng.choice([1.0, 7.0, 40.0, 500.0, 2500.0]))
            now += stride
            harness.simulator.now = now
            for _ in range(int(rng.integers(0, 30))):
                offset = float(np.round(rng.uniform(0.0, stride), 1))
                harness.arrive(now - offset)
            # Arrivals enter in event order; sort the tail like the real
            # system's monotone append stream would have produced it.
            harness._arrival_times[harness._arrival_start:] = sorted(
                harness._arrival_times[harness._arrival_start:]
            )
            harness.history.sort()
            harness.request_queue.pending = int(rng.integers(0, 50))
            before = len(harness._arrival_times)
            assert harness.estimate_arrival_rate() == pytest.approx(
                harness.expected(), rel=0, abs=0
            ), f"diverged at step {step} (now={now})"
            if len(harness._arrival_times) < before:
                trims_seen += 1
        assert trims_seen >= 1, "the sweep must exercise the trim path"
