"""Execution-time distributions for stochastic workloads.

Fixed WCETs answer worst-case questions; distributions answer the
"what does the latency *distribution* look like" questions a DSE also
needs.  Each distribution samples integer femtosecond durations from a
caller-supplied ``random.Random``, so whole Monte-Carlo campaigns stay
reproducible (see :mod:`repro.campaign.montecarlo`).

Example::

    rng = random.Random(42)
    compute = Normal(2 * MS, 200 * US, minimum=500 * US)

    def body(fn):
        while True:
            yield from fn.execute(compute.sample(rng))
            ...
"""

from __future__ import annotations

import random
from typing import List, Sequence

from ..errors import ReproError
from ..kernel.time import Time


class Distribution:
    """Base class: sample non-negative integer durations."""

    def sample(self, rng: random.Random) -> Time:
        raise NotImplementedError

    def mean(self) -> float:
        """Analytical mean (used for sanity checks and utilization math)."""
        raise NotImplementedError


class Constant(Distribution):
    """Always the same duration (the degenerate case)."""

    def __init__(self, value: Time) -> None:
        if value < 0:
            raise ReproError(f"negative duration: {value}")
        self.value = value

    def sample(self, rng: random.Random) -> Time:
        return self.value

    def mean(self) -> float:
        return float(self.value)


class Uniform(Distribution):
    """Uniform over [low, high]."""

    def __init__(self, low: Time, high: Time) -> None:
        if not 0 <= low <= high:
            raise ReproError(f"bad uniform bounds: [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> Time:
        return rng.randint(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2


class Normal(Distribution):
    """Gaussian, clipped below at ``minimum`` (durations stay positive)."""

    def __init__(self, mu: Time, sigma: Time, minimum: Time = 1) -> None:
        if mu <= 0 or sigma < 0 or minimum < 0:
            raise ReproError(f"bad normal parameters: mu={mu} sigma={sigma}")
        self.mu = mu
        self.sigma = sigma
        self.minimum = minimum

    def sample(self, rng: random.Random) -> Time:
        return max(self.minimum, round(rng.gauss(self.mu, self.sigma)))

    def mean(self) -> float:
        return float(self.mu)  # clipping bias ignored (documented)


class Exponential(Distribution):
    """Exponential with the given mean, optionally capped."""

    def __init__(self, mean_value: Time, cap: Time = 0) -> None:
        if mean_value <= 0 or cap < 0:
            raise ReproError(f"bad exponential mean: {mean_value}")
        self.mean_value = mean_value
        self.cap = cap

    def sample(self, rng: random.Random) -> Time:
        value = round(rng.expovariate(1.0 / self.mean_value))
        if self.cap:
            value = min(value, self.cap)
        return max(1, value)

    def mean(self) -> float:
        return float(self.mean_value)


class Bimodal(Distribution):
    """Two modes (e.g. cache hit vs miss): ``first`` with prob ``p``."""

    def __init__(self, first: Distribution, second: Distribution,
                 p_first: float) -> None:
        if not 0 <= p_first <= 1:
            raise ReproError(f"probability out of range: {p_first}")
        self.first = first
        self.second = second
        self.p_first = p_first

    def sample(self, rng: random.Random) -> Time:
        chosen = self.first if rng.random() < self.p_first else self.second
        return chosen.sample(rng)

    def mean(self) -> float:
        return (self.p_first * self.first.mean()
                + (1 - self.p_first) * self.second.mean())


class Empirical(Distribution):
    """Resample uniformly from measured durations."""

    def __init__(self, values: Sequence[Time]) -> None:
        values = list(values)
        if not values:
            raise ReproError("empirical distribution needs samples")
        if any(v < 0 for v in values):
            raise ReproError("negative duration in empirical samples")
        self.values: List[Time] = values

    def sample(self, rng: random.Random) -> Time:
        return rng.choice(self.values)

    def mean(self) -> float:
        return sum(self.values) / len(self.values)
