"""Link-latency models.

The paper's testbed is a lightly-loaded 10 Mbit/s Ethernet where an Orbix RPC
round trip takes 3-5 ms.  We model one-way link latency with pluggable
distributions so experiments can use either the deterministic calibrated value
(for exact reproduction of the latency table) or a randomised one (for fault
and timing sweeps).
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence

Sampler = Callable[[], float]
"""A zero-argument latency sampler bound to one directed link (see
:meth:`LatencyModel.sampler`)."""


class LatencyModel:
    """Base class: returns a one-way latency sample per message."""

    def sample(self, rng: random.Random, source: str, destination: str) -> float:
        """Latency (virtual-time units, milliseconds by convention) for one message."""
        raise NotImplementedError

    def sampler(self, rng: random.Random, source: str, destination: str) -> "Sampler":
        """A zero-argument sampler bound to one directed link and one RNG.

        The network resolves this once per link instead of re-resolving the
        model and re-binding the RNG on every message.  Implementations must
        consume ``rng`` exactly as :meth:`sample` would, in the same order,
        so a run using bound samplers draws identical latencies (this is
        load-bearing for byte-identical traces).  The default wraps
        :meth:`sample`; subclasses pre-bind their RNG primitive so the
        per-message call does no attribute lookups at all.
        """
        return lambda: self.sample(rng, source, destination)

    def mean(self) -> float:
        """Expected latency; used by analytic step-count estimates."""
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Every message takes exactly ``value`` time units."""

    def __init__(self, value: float):
        if value < 0:
            raise ValueError("latency must be non-negative")
        self.value = value

    def sample(self, rng: random.Random, source: str, destination: str) -> float:
        return self.value

    def sampler(self, rng: random.Random, source: str, destination: str) -> "Sampler":
        value = self.value  # no RNG draw, no lookup: the link is constant
        return lambda: value

    def mean(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"FixedLatency({self.value})"


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float):
        if low < 0 or high < low:
            raise ValueError(f"invalid latency range [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random, source: str, destination: str) -> float:
        return rng.uniform(self.low, self.high)

    def sampler(self, rng: random.Random, source: str, destination: str) -> "Sampler":
        # Identical arithmetic to random.Random.uniform (a + (b-a)*random()),
        # with the method resolution hoisted out of the per-message path.
        low, span, draw = self.low, self.high - self.low, rng.random
        return lambda: low + span * draw()

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def __repr__(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


class ExponentialLatency(LatencyModel):
    """Latency of ``base + Exp(mean=tail_mean)``; models occasional slow links."""

    def __init__(self, base: float, tail_mean: float):
        if base < 0 or tail_mean < 0:
            raise ValueError("latency parameters must be non-negative")
        self.base = base
        self.tail_mean = tail_mean

    def sample(self, rng: random.Random, source: str, destination: str) -> float:
        tail = rng.expovariate(1.0 / self.tail_mean) if self.tail_mean > 0 else 0.0
        return self.base + tail

    def sampler(self, rng: random.Random, source: str, destination: str) -> "Sampler":
        base = self.base
        if self.tail_mean <= 0:
            return lambda: base
        draw, lambd = rng.expovariate, 1.0 / self.tail_mean
        return lambda: base + draw(lambd)

    def mean(self) -> float:
        return self.base + self.tail_mean

    def __repr__(self) -> str:
        return f"ExponentialLatency(base={self.base}, tail_mean={self.tail_mean})"


def three_tier_latency(client_names: Sequence[str], app_server_names: Sequence[str],
                       db_server_names: Sequence[str], *,
                       client_app_latency: float,
                       app_app_latency: float,
                       app_db_latency: float) -> "PerLinkLatency":
    """The standard client <-> app <-> db latency topology.

    Client/app links cross the Internet, app/app and app/db links stay inside
    the cluster; app-to-app traffic uses the default.  Shared by every
    deployment builder so all protocol stacks run on an identical network.
    """
    latency = PerLinkLatency(FixedLatency(app_app_latency))
    for client in client_names:
        for app in app_server_names:
            latency.set_link(client, app, FixedLatency(client_app_latency))
            latency.set_link(app, client, FixedLatency(client_app_latency))
    for app in app_server_names:
        for db in db_server_names:
            latency.set_link(app, db, FixedLatency(app_db_latency))
            latency.set_link(db, app, FixedLatency(app_db_latency))
    return latency


class PerLinkLatency(LatencyModel):
    """Different latency models per (source, destination) pair with a default.

    Used to model the three-tier topology where the client-to-server hop
    crosses the Internet while server-to-server and server-to-database hops
    stay inside the cluster.
    """

    def __init__(self, default: LatencyModel, overrides: Optional[dict[tuple[str, str], LatencyModel]] = None):
        self.default = default
        self.overrides: dict[tuple[str, str], LatencyModel] = dict(overrides or {})

    def set_link(self, source: str, destination: str, model: LatencyModel) -> None:
        """Override the latency model for one directed link."""
        self.overrides[(source, destination)] = model

    def _resolve(self, source: str, destination: str) -> LatencyModel:
        return self.overrides.get((source, destination), self.default)

    def sample(self, rng: random.Random, source: str, destination: str) -> float:
        return self._resolve(source, destination).sample(rng, source, destination)

    def sampler(self, rng: random.Random, source: str, destination: str) -> "Sampler":
        # Resolving the per-link override happens once here, not per message.
        return self._resolve(source, destination).sampler(rng, source, destination)

    def mean(self) -> float:
        return self.default.mean()

    def __repr__(self) -> str:
        return f"PerLinkLatency(default={self.default!r}, overrides={len(self.overrides)})"
