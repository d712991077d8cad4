"""Tests for requests, arrival processes and the MAF-like workload."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.arrival import (
    _DRAW_BLOCK,
    DEFAULT_ARRIVAL_RATES,
    FixedArrivals,
    GammaArrivals,
    TimeVaryingArrivals,
    default_rate_for,
)
from repro.workload.maf import synthesize_maf_profile
from repro.workload.request import Request


class TestRequest:
    def test_commit_and_remaining(self):
        request = Request(arrival_time=0.0, output_tokens=10)
        request.commit_tokens(4)
        assert request.committed_tokens == 4
        assert request.remaining_tokens == 6
        request.commit_tokens(100)
        assert request.committed_tokens == 10
        assert request.remaining_tokens == 0

    def test_drop_cache_resets_progress(self):
        request = Request(arrival_time=0.0, output_tokens=10)
        request.commit_tokens(7)
        request.drop_cache()
        assert request.committed_tokens == 0
        assert request.recomputed_tokens == 7
        request.drop_cache()
        assert request.recomputed_tokens == 7

    def test_new_request_has_not_started_or_completed(self):
        # The pipeline sets both timestamps (tests/test_engine_pipeline.py).
        request = Request(arrival_time=5.0)
        assert request.first_start_time is None
        assert request.completion_time is None

    def test_invalid_requests_rejected(self):
        with pytest.raises(ValueError):
            Request(arrival_time=-1.0)
        with pytest.raises(ValueError):
            Request(arrival_time=0.0, input_tokens=0)
        with pytest.raises(ValueError):
            Request(arrival_time=0.0).commit_tokens(-1)

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param({"arrival_time": float("nan")}, id="arrival-nan"),
            pytest.param({"arrival_time": float("inf")}, id="arrival-inf"),
            pytest.param({"output_tokens": 2.5}, id="output-fractional"),
            pytest.param({"output_tokens": float("nan")}, id="output-nan"),
            pytest.param({"output_tokens": float("inf")}, id="output-inf"),
            pytest.param({"input_tokens": 2.5}, id="input-fractional"),
        ],
    )
    def test_non_finite_time_and_non_integer_counts_rejected(self, fields):
        with pytest.raises(ValueError):
            Request(**{"arrival_time": 0.0, **fields})

    def test_numpy_integer_counts_accepted(self):
        request = Request(
            arrival_time=0.0, input_tokens=np.int64(8), output_tokens=np.int32(4)
        )
        assert (request.input_tokens, request.output_tokens) == (8, 4)
        assert type(request.output_tokens) is int

    def test_unique_ids(self):
        assert Request(arrival_time=0.0).request_id != Request(arrival_time=0.0).request_id


class TestArrivalProcesses:
    def test_gamma_rate_is_respected_on_long_horizon(self):
        times = GammaArrivals(rate=1.0, cv=6.0, seed=3).arrival_times(50_000.0)
        assert len(times) == pytest.approx(50_000, rel=0.1)
        assert all(0 <= t < 50_000.0 for t in times)
        assert times == sorted(times)

    def test_gamma_cv_controls_burstiness(self):
        smooth = np.diff(GammaArrivals(rate=1.0, cv=1.0, seed=0).arrival_times(20_000.0))
        bursty = np.diff(GammaArrivals(rate=1.0, cv=6.0, seed=0).arrival_times(20_000.0))
        cv_smooth = smooth.std() / smooth.mean()
        cv_bursty = bursty.std() / bursty.mean()
        assert cv_bursty > 2 * cv_smooth
        assert cv_bursty == pytest.approx(6.0, rel=0.25)

    def test_deterministic_per_seed(self):
        a = GammaArrivals(rate=0.35, cv=6.0, seed=11).arrival_times(1200.0)
        b = GammaArrivals(rate=0.35, cv=6.0, seed=11).arrival_times(1200.0)
        assert a == b

    def test_generate_builds_requests(self):
        requests = GammaArrivals(rate=0.5, seed=2, input_tokens=256, output_tokens=32).generate(600.0)
        assert all(isinstance(r, Request) for r in requests)
        assert all(r.input_tokens == 256 and r.output_tokens == 32 for r in requests)

    def test_fixed_arrivals(self):
        process = FixedArrivals([5.0, 1.0, 9.0])
        assert process.arrival_times(8.0) == [1.0, 5.0]

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda bad: GammaArrivals(rate=bad), id="gamma-rate"),
            pytest.param(lambda bad: GammaArrivals(rate=1.0, cv=bad), id="gamma-cv"),
            pytest.param(
                lambda bad: TimeVaryingArrivals([(0.0, 1.0)], cv=bad), id="time-varying-cv"
            ),
        ],
    )
    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(0.0, id="zero"),
            pytest.param(-2.0, id="negative"),
            # At the infinite or NaN values a stream yields 0.0 or nan forever.
            pytest.param(float("inf"), id="inf"),
            pytest.param(float("nan"), id="nan"),
        ],
    )
    def test_invalid_rates_rejected(self, build, bad):
        with pytest.raises(ValueError):
            build(bad)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(
                lambda bad: GammaArrivals(rate=1.0, output_tokens=bad), id="gamma-output"
            ),
            pytest.param(
                lambda bad: GammaArrivals(rate=1.0, input_tokens=bad), id="gamma-input"
            ),
            pytest.param(
                lambda bad: TimeVaryingArrivals([(0.0, 1.0)], output_tokens=bad),
                id="time-varying-output",
            ),
            pytest.param(lambda bad: FixedArrivals([1.0], output_tokens=bad), id="fixed-output"),
        ],
    )
    @pytest.mark.parametrize(
        "bad",
        [
            # Refused when the process is built, not at its first request.
            pytest.param(0, id="zero"),
            pytest.param(-3, id="negative"),
            pytest.param(2.5, id="fractional"),
            pytest.param(float("nan"), id="nan"),
            pytest.param(float("inf"), id="inf"),
        ],
    )
    def test_invalid_token_counts_rejected(self, build, bad):
        with pytest.raises(ValueError):
            build(bad)

    def test_numpy_integer_token_counts_accepted(self):
        process = GammaArrivals(rate=1.0, input_tokens=np.int64(256), output_tokens=np.int64(32))
        assert (process.input_tokens, process.output_tokens) == (256, 32)

    @pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan")])
    def test_invalid_fixed_times_rejected(self, bad):
        with pytest.raises(ValueError):
            FixedArrivals([1.0, bad, 3.0])

    def test_boundary_values_construct(self):
        assert GammaArrivals(rate=1e-6, cv=1e-6, seed=0).count_arrivals(10.0) >= 0
        zero_rate = TimeVaryingArrivals([(0.0, 0.0)], cv=1e-6, seed=0)
        assert zero_rate.arrival_times(10.0) == []
        assert FixedArrivals([0.0]).arrival_times(1.0) == [0.0]

    def test_default_rates_match_paper(self):
        assert default_rate_for("OPT-6.7B") == pytest.approx(1.5)
        assert default_rate_for("GPT-20B") == pytest.approx(0.35)
        assert default_rate_for("LLaMA-30B") == pytest.approx(0.2)
        with pytest.raises(KeyError):
            default_rate_for("GPT-3")
        assert set(DEFAULT_ARRIVAL_RATES) == {"OPT-6.7B", "GPT-20B", "LLaMA-30B"}

    @given(seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=15, deadline=None)
    def test_arrivals_sorted_and_in_range(self, seed):
        times = GammaArrivals(rate=0.35, cv=6.0, seed=seed).arrival_times(1200.0)
        assert times == sorted(times)
        assert all(0 <= t < 1200.0 for t in times)


class TestTimeVaryingArrivals:
    def test_rate_profile_lookup(self):
        process = TimeVaryingArrivals([(0.0, 0.5), (100.0, 2.0)], cv=1.0, seed=0)
        assert process.rate_at(50.0) == pytest.approx(0.5)
        assert process.rate_at(150.0) == pytest.approx(2.0)

    def test_rate_change_shows_up_in_counts(self):
        process = TimeVaryingArrivals([(0.0, 0.2), (2000.0, 2.0)], cv=1.0, seed=1)
        times = process.arrival_times(4000.0)
        early = sum(1 for t in times if t < 2000.0)
        late = sum(1 for t in times if t >= 2000.0)
        assert late > 3 * early

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            TimeVaryingArrivals([])

    @pytest.mark.parametrize(
        "piece",
        [
            pytest.param((0.0, -1.0), id="negative-rate"),
            pytest.param((0.0, float("inf")), id="infinite-rate"),
            pytest.param((0.0, float("nan")), id="nan-rate"),
            pytest.param((float("nan"), 1.0), id="nan-time"),
            pytest.param((float("inf"), 1.0), id="infinite-time"),
        ],
    )
    def test_negative_rate_rejected(self, piece):
        with pytest.raises(ValueError):
            TimeVaryingArrivals([piece])


class TestMAFProfile:
    def test_profile_shape(self):
        profile = synthesize_maf_profile()
        rates = [rate for _, rate in profile.breakpoints]
        assert max(rates) > rates[0]
        assert min(rates) > 0

    def test_rescaling_sets_mean_rate(self):
        profile = synthesize_maf_profile()
        rescaled = profile.rescaled(0.5)
        assert rescaled.mean_rate() == pytest.approx(0.5, rel=1e-6)
        with pytest.raises(ValueError):
            profile.rescaled(0.0)

    def test_profile_to_arrival_process(self):
        profile = synthesize_maf_profile(duration=600.0)
        process = profile.to_arrival_process(cv=2.0, seed=0)
        times = process.arrival_times(600.0)
        assert times
        assert all(0 <= t < 600.0 for t in times)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            synthesize_maf_profile(ramp_start_fraction=0.6, peak_fraction=0.5)


class TestStreamingIterTimes:
    """The generator-backed ``iter_times`` must be *bit-identical* to the
    scalar reference ``arrival_times`` -- the streaming arrival source feeds
    the simulator from it, so any divergence would silently change golden
    digests."""

    def test_gamma_iter_matches_reference(self):
        process = GammaArrivals(rate=1.0, cv=6.0, seed=3)
        assert list(process.iter_times(50_000.0)) == process.arrival_times(50_000.0)

    def test_time_varying_iter_matches_reference(self):
        profile = synthesize_maf_profile(duration=1800.0, seed=7).rescaled(3.0)
        process = profile.to_arrival_process(cv=6.0, seed=4)
        assert list(process.iter_times(1800.0)) == process.arrival_times(1800.0)

    def test_time_varying_zero_rate_pieces_match_reference(self):
        process = TimeVaryingArrivals(
            [(0.0, 0.5), (100.0, 0.0), (200.0, 2.0), (400.0, 0.0)], cv=2.0, seed=9
        )
        assert list(process.iter_times(600.0)) == process.arrival_times(600.0)

    def test_fixed_iter_matches_reference(self):
        process = FixedArrivals([1.0, 5.0, 9.0])
        assert list(process.iter_times(8.0)) == process.arrival_times(8.0)

    @given(st.integers(min_value=0, max_value=50), st.floats(min_value=10.0, max_value=5000.0))
    @settings(max_examples=25, deadline=None)
    def test_gamma_iter_matches_reference_any_seed(self, seed, duration):
        process = GammaArrivals(rate=0.8, cv=4.0, seed=seed)
        assert list(process.iter_times(duration)) == process.arrival_times(duration)

    def test_count_arrivals_matches_length(self):
        process = GammaArrivals(rate=1.5, cv=6.0, seed=11)
        assert process.count_arrivals(3000.0) == len(process.arrival_times(3000.0))

    #: perfbench's serve and ingest streams, and the paper's CV of 6.
    @pytest.mark.parametrize("rate, cv", [(13.0, 1.0), (40.0, 2.0), (1.5, 6.0)])
    def test_gamma_blocks_match_reference_over_seeds(self, rate, cv):
        duration = 2.5 * _DRAW_BLOCK / rate  # Two whole draw blocks and part of a third.
        for seed in range(50):
            process = GammaArrivals(rate=rate, cv=cv, seed=seed)
            times = process.arrival_times(duration)
            assert list(process.iter_times(duration)) == times
            assert process.count_arrivals(duration) == len(times)

    @pytest.mark.parametrize("cv", [1.0, 6.0])
    def test_gamma_blocks_cut_where_the_reference_stops(self, cv):
        process = GammaArrivals(rate=2.0, cv=cv, seed=5)
        times = process.arrival_times(4 * _DRAW_BLOCK / 2.0)
        assert len(times) > 2 * _DRAW_BLOCK
        durations = [
            0.0,
            times[0] / 2,  # Before the first arrival.
            times[0],
            times[_DRAW_BLOCK - 1],  # The last arrival of the first block.
            times[_DRAW_BLOCK],  # The first of the second.
            times[2 * _DRAW_BLOCK - 1],
            np.nextafter(times[_DRAW_BLOCK - 1], np.inf),
        ]
        for duration in durations:
            expected = process.arrival_times(duration)
            assert expected == [time for time in times if time < duration]
            assert list(process.iter_times(duration)) == expected
            assert process.count_arrivals(duration) == len(expected)

    def test_generate_uses_streaming_times(self):
        process = GammaArrivals(rate=0.5, cv=3.0, seed=2)
        requests = process.generate(600.0)
        assert [r.arrival_time for r in requests] == process.arrival_times(600.0)
