"""Request arrival processes.

The paper's stable-workload experiments use a Gamma arrival process with a
coefficient of variation (CV) of 6 to capture burstiness, at per-model rates
of 1.5 / 0.35 / 0.2 requests per second (OPT-6.7B / GPT-20B / LLaMA-30B).
The fluctuating-workload study replays a rescaled Microsoft Azure Functions
(MAF) trace; see :mod:`repro.workload.maf`.

All processes generate deterministic arrival timestamps given a seed, so
experiments are exactly reproducible.
"""

from __future__ import annotations

import itertools
import math
import operator
from abc import ABC, abstractmethod
from bisect import bisect_left
from typing import Iterable, Iterator, List, Sequence

import numpy as np

from .request import DEFAULT_INPUT_TOKENS, DEFAULT_OUTPUT_TOKENS, Request

#: Default per-model arrival rates (requests/second) from Section 6.1.
DEFAULT_ARRIVAL_RATES = {
    "OPT-6.7B": 1.5,
    "GPT-20B": 0.35,
    "LLaMA-30B": 0.2,
}

#: Random draws consumed per ``rng`` call by the streaming generators.
#: ``numpy.random.Generator`` consumes its bit stream identically for
#: batched and scalar draws, so the produced timestamps are bit-for-bit the
#: ones the scalar reference loop yields (pinned by tests).
#: :class:`GammaArrivals` turns each block into its arrival times with
#: numpy; :class:`TimeVaryingArrivals` adds one gap per arrival, at the
#: rate of the profile piece the clock is in.
_DRAW_BLOCK = 1024


def check_positive_finite(name: str, value: float) -> None:
    """Raise ``ValueError`` unless *value* is a finite number above zero.

    A rate or CV of ``inf`` or ``nan`` would make a stream yield ``0.0`` or
    ``nan`` forever, so it is refused when the process is built.
    """
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


def check_non_negative_finite(name: str, value: float) -> None:
    """Raise ``ValueError`` unless *value* is a finite number of at least zero."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and non-negative, got {value}")


def check_token_count(name: str, value: int) -> int:
    """Return *value* as an ``int``; raise ``ValueError`` unless it is a positive integer.

    Refusing a bad count when the process is built keeps it from failing
    at the first generated request, mid-run when arrivals are streamed.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be a positive integer, got {value!r}") from None
    if count <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return count


class ArrivalProcess(ABC):
    """Base class for request arrival processes.

    Subclasses provide :meth:`arrival_times` (the scalar reference
    implementation, kept simple and obviously correct) and may override
    :meth:`iter_times` with a streaming generator.  The two must produce
    bit-identical timestamps for any ``duration``; the streaming form is
    what lets a serving run schedule one pending arrival at a time instead
    of materialising a 100k-request workload up front.
    """

    def __init__(
        self,
        input_tokens: int = DEFAULT_INPUT_TOKENS,
        output_tokens: int = DEFAULT_OUTPUT_TOKENS,
    ) -> None:
        self.input_tokens = check_token_count("input_tokens", input_tokens)
        self.output_tokens = check_token_count("output_tokens", output_tokens)

    @abstractmethod
    def arrival_times(self, duration: float) -> List[float]:
        """Return sorted arrival timestamps over ``[0, duration)``."""

    def iter_times(self, duration: float) -> Iterator[float]:
        """Yield the arrival timestamps of ``arrival_times`` one at a time.

        The base implementation materialises the list; the built-in
        processes override this with O(1)-memory generators.
        """
        return iter(self.arrival_times(duration))

    def count_arrivals(self, duration: float) -> int:
        """Number of arrivals in ``[0, duration)`` without storing them."""
        return sum(1 for _ in self.iter_times(duration))

    def generate(self, duration: float) -> List[Request]:
        """Materialise :class:`~repro.workload.request.Request` objects."""
        return [
            Request(
                arrival_time=time,
                input_tokens=self.input_tokens,
                output_tokens=self.output_tokens,
            )
            for time in self.iter_times(duration)
        ]


class GammaArrivals(ArrivalProcess):
    """Gamma-distributed inter-arrival times with a configurable CV.

    A coefficient of variation above one produces bursts separated by idle
    gaps; the paper uses CV = 6 to emulate production burstiness.

    :meth:`iter_times` and :meth:`count_arrivals` take the arrivals a draw
    block at a time (see :meth:`_blocks`), so neither steps a generator
    per arrival.
    """

    def __init__(
        self,
        rate: float,
        cv: float = 6.0,
        seed: int = 0,
        input_tokens: int = DEFAULT_INPUT_TOKENS,
        output_tokens: int = DEFAULT_OUTPUT_TOKENS,
    ) -> None:
        super().__init__(input_tokens, output_tokens)
        check_positive_finite("arrival rate", rate)
        check_positive_finite("coefficient of variation", cv)
        self.rate = rate
        self.cv = cv
        self.seed = seed

    def arrival_times(self, duration: float) -> List[float]:
        # For a Gamma distribution CV = 1/sqrt(shape), mean = shape * scale.
        shape = 1.0 / (self.cv ** 2)
        scale = 1.0 / (self.rate * shape)
        rng = np.random.default_rng(self.seed)
        times: List[float] = []
        now = 0.0
        while True:
            now += rng.gamma(shape, scale)
            if now >= duration:
                break
            times.append(now)
        return times

    def iter_times(self, duration: float) -> Iterator[float]:
        return itertools.chain.from_iterable(
            map(np.ndarray.tolist, self._blocks(duration))
        )

    def count_arrivals(self, duration: float) -> int:
        return sum(map(len, self._blocks(duration)))

    def _blocks(self, duration: float) -> Iterator[np.ndarray]:
        """The arrival times before *duration*, one array per draw block.

        ``Generator.gamma(shape, scale)`` is ``standard_gamma(shape) *
        scale``, so a block of scaled standard draws holds the scalar
        loop's gaps.  Adding the running time to the first and summing the
        block with ``np.add.accumulate``, which adds left to right like the
        loop, gives its timestamps bit for bit; the block is cut at the
        first one at or past *duration*, found by bisection (the times never
        decrease).  ``bisect_left`` gives the index ``np.searchsorted``
        would, without paging in numpy's search code: that alone added
        ~0.5 MB to an ingest replay's peak RSS.
        """
        shape = 1.0 / (self.cv ** 2)
        scale = 1.0 / (self.rate * shape)
        rng = np.random.default_rng(self.seed)
        now = 0.0
        while True:
            times = rng.standard_gamma(shape, _DRAW_BLOCK) * scale
            times[0] += now
            np.add.accumulate(times, out=times)
            cut = bisect_left(times, duration)
            if cut < _DRAW_BLOCK:
                yield times[:cut]
                return
            yield times
            now = times[-1]


class TimeVaryingArrivals(ArrivalProcess):
    """Piecewise-constant arrival rate driven by a ``(time, rate)`` profile.

    Inter-arrival burstiness within each piece follows a Gamma process with
    the configured CV, which is how the paper replays the rescaled MAF trace.
    """

    def __init__(
        self,
        rate_profile: Sequence[tuple],
        cv: float = 6.0,
        seed: int = 0,
        input_tokens: int = DEFAULT_INPUT_TOKENS,
        output_tokens: int = DEFAULT_OUTPUT_TOKENS,
    ) -> None:
        super().__init__(input_tokens, output_tokens)
        if not rate_profile:
            raise ValueError("rate_profile must contain at least one (time, rate) pair")
        profile = sorted((float(t), float(r)) for t, r in rate_profile)
        if profile[0][0] > 0:
            profile.insert(0, (0.0, profile[0][1]))
        for time, rate in profile:
            if not (math.isfinite(time) and math.isfinite(rate) and rate >= 0):
                raise ValueError(
                    f"profile pieces need a finite time and a finite rate >= 0, "
                    f"got ({time}, {rate})"
                )
        check_positive_finite("coefficient of variation", cv)
        self.rate_profile = profile
        self.cv = cv
        self.seed = seed

    def rate_at(self, time: float) -> float:
        """Arrival rate in effect at *time*."""
        rate = self.rate_profile[0][1]
        for start, value in self.rate_profile:
            if start > time:
                break
            rate = value
        return rate

    def arrival_times(self, duration: float) -> List[float]:
        shape = 1.0 / (self.cv ** 2)
        rng = np.random.default_rng(self.seed)
        times: List[float] = []
        now = 0.0
        while now < duration:
            rate = self.rate_at(now)
            if rate <= 0:
                # Skip forward to the next profile change.
                upcoming = [start for start, _ in self.rate_profile if start > now]
                if not upcoming:
                    break
                now = upcoming[0]
                continue
            scale = 1.0 / (rate * shape)
            now += rng.gamma(shape, scale)
            if now < duration:
                times.append(now)
        return times

    def iter_times(self, duration: float) -> Iterator[float]:
        shape = 1.0 / (self.cv ** 2)
        rng = np.random.default_rng(self.seed)
        profile = self.rate_profile
        pieces = len(profile)
        piece = 0
        now = 0.0
        gaps: List[float] = []
        cursor = 0
        while now < duration:
            # The clock only moves forward, so the active profile piece is
            # found by advancing a pointer instead of rescanning the profile
            # per draw (``rate_at`` is O(pieces)).
            while piece + 1 < pieces and profile[piece + 1][0] <= now:
                piece += 1
            rate = profile[piece][1]
            if rate <= 0:
                if piece + 1 >= pieces:
                    return
                piece += 1
                now = profile[piece][0]
                continue
            if cursor >= len(gaps):
                gaps = rng.standard_gamma(shape, _DRAW_BLOCK).tolist()
                cursor = 0
            now += gaps[cursor] * (1.0 / (rate * shape))
            cursor += 1
            if now < duration:
                yield now


class FixedArrivals(ArrivalProcess):
    """Arrivals at explicitly provided timestamps (useful in tests)."""

    def __init__(
        self,
        times: Iterable[float],
        input_tokens: int = DEFAULT_INPUT_TOKENS,
        output_tokens: int = DEFAULT_OUTPUT_TOKENS,
    ) -> None:
        super().__init__(input_tokens, output_tokens)
        self._times = sorted(float(t) for t in times)
        if not all(math.isfinite(t) and t >= 0 for t in self._times):
            raise ValueError("arrival times must be finite and non-negative")

    def arrival_times(self, duration: float) -> List[float]:
        return [t for t in self._times if t < duration]


def default_rate_for(model_name: str) -> float:
    """Default arrival rate for one of the paper's models (Section 6.1)."""
    for key, rate in DEFAULT_ARRIVAL_RATES.items():
        if key.lower() == model_name.lower():
            return rate
    raise KeyError(f"no default arrival rate for model {model_name!r}")
