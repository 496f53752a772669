"""Per-host interruption processes with M/G/1 recovery semantics.

Paper Section III.A: interruption inter-arrivals on host *i* are iid
exponential with rate lambda_i; each interruption needs a service (recovery)
time drawn from a general distribution with mean mu. Interruptions arriving
while a previous one is still being serviced queue FCFS — the host is an
M/G/1 queue, and the host is *down* for the whole busy period.

:class:`InterruptionProcess` turns those assumptions into a lazy stream of
:class:`DowntimeEpisode` objects (busy periods). The mean episode length is
the M/G/1 busy-period mean mu / (1 - lambda*mu), which is exactly the E(Y)
of the paper's formula (3); tests cross-check the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.availability.distributions import (
    _NV_MAGICCONST,
    Distribution,
    Exponential,
    Lognormal,
)
from repro.util.rng import RandomSource
from repro.util.validation import check_positive


@dataclass(frozen=True)
class DowntimeEpisode:
    """One contiguous down window (an M/G/1 busy period).

    ``start`` is the arrival of the first interruption of the episode (the
    host goes down), ``end`` is when every queued interruption has been
    serviced (the host returns), and ``interruption_count`` is how many
    interruptions were folded into the episode.
    """

    start: float
    end: float
    interruption_count: int

    @property
    def duration(self) -> float:
        """Length of the down window."""
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"episode ends ({self.end}) before it starts ({self.start})")
        if self.interruption_count < 1:
            raise ValueError("an episode contains at least one interruption")


class InterruptionProcess:
    """Lazy generator of downtime episodes for a single host.

    Parameters
    ----------
    arrival:
        Inter-arrival distribution of interruptions. The paper assumes
        exponential; any positive distribution is accepted so ablations can
        probe the exponential assumption.
    service:
        Recovery-time distribution (general, per the paper).
    rng:
        Dedicated random stream for this host.
    max_interruptions_per_episode:
        Safety bound on how many queued interruptions one busy period may
        accumulate. An *unstable* host (lambda * mu >= 1) has, with positive
        probability, an infinite busy period — physically, a volunteer that
        leaves and never returns, which real SETI@home traces do contain.
        When the bound trips, the episode ends at the accumulated recovery
        point (already astronomically far in the future for any job); among
        stable hosts, only near-critical ones (rho close to 1) reach it.
    """

    def __init__(
        self,
        arrival: Distribution,
        service: Distribution,
        rng: RandomSource,
        max_interruptions_per_episode: int = 10_000,
    ) -> None:
        if max_interruptions_per_episode < 1:
            raise ValueError("max_interruptions_per_episode must be >= 1")
        self._arrival = arrival
        self._service = service
        self._rng = rng
        self._max_per_episode = max_interruptions_per_episode

    @property
    def arrival(self) -> Distribution:
        return self._arrival

    @property
    def max_interruptions_per_episode(self) -> int:
        """The per-episode fold bound (see the class docstring)."""
        return self._max_per_episode

    @property
    def service(self) -> Distribution:
        return self._service

    @property
    def arrival_rate(self) -> float:
        """lambda = 1 / mean inter-arrival."""
        return 1.0 / self._arrival.mean

    @property
    def service_mean(self) -> float:
        """mu = mean recovery time."""
        return self._service.mean

    @property
    def utilization(self) -> float:
        """M/G/1 utilisation rho = lambda * mu."""
        return self.arrival_rate * self.service_mean

    def is_stable(self) -> bool:
        """Whether the interruption queue is stable (rho < 1).

        An unstable host would eventually be down forever; the paper's
        formula (3) requires lambda*mu < 1.
        """
        return self.utilization < 1.0

    def expected_episode_duration(self) -> float:
        """Mean busy period mu / (1 - lambda*mu): the model's E(Y)."""
        if not self.is_stable():
            raise ValueError(
                f"interruption process unstable (lambda*mu={self.utilization:.3f} >= 1)"
            )
        return self.service_mean / (1.0 - self.utilization)

    def episodes(
        self,
        horizon: float,
        clock: Optional[RandomSource] = None,
        svc_rng: Optional[RandomSource] = None,
    ) -> Iterator[DowntimeEpisode]:
        """Yield downtime episodes whose *start* falls in [0, horizon).

        Episodes are emitted in increasing start order and never overlap.
        The last episode may end after ``horizon``; callers that need a
        bounded trace clip it (see ``AvailabilityTrace.from_episodes``).

        ``clock`` / ``svc_rng`` let bulk pregeneration
        (:mod:`repro.availability.pregen`) pass in streams built from
        bulk-derived seeds; they must equal the default substream
        derivations (``"arrivals"`` / ``"service"`` under this process's
        rng) for the realisation to stay byte-identical.

        This loop dominates whole-cluster build and run time at scale
        (~98% of the 16k-node kernel cell), so the two distribution pairs
        every shipped population uses — exponential arrivals with lognormal
        (SETI traces) or exponential (Table 2 emulation) recovery — dispatch
        to specialised generators that inline the CPython ``random`` draw
        formulas directly into the busy-period fold. No per-draw method
        calls, and no retained buffers: a suspended generator holds a few
        floats, not kilobytes, which is what keeps 226k concurrent per-host
        streams inside memory. Emitted episodes are bit-identical to the
        generic scalar path (pinned by tests/availability/test_vectorized.py).
        """
        check_positive("horizon", horizon)
        if clock is None:
            clock = self._rng.substream("arrivals")
        if svc_rng is None:
            svc_rng = self._rng.substream("service")
        arrival = self._arrival
        service = self._service
        if type(arrival) is Exponential:
            if type(service) is Lognormal:
                return self._episodes_expo_lognormal(clock, svc_rng, horizon)
            if type(service) is Exponential:
                return self._episodes_expo_expo(clock, svc_rng, horizon)
        return self._episodes_generic(clock, svc_rng, horizon)

    def _episodes_generic(
        self,
        clock: RandomSource,
        svc_rng: RandomSource,
        horizon: float,
    ) -> Iterator[DowntimeEpisode]:
        """Reference busy-period fold: one ``Distribution.sample`` per draw."""
        arrival = self._arrival
        service = self._service
        max_per = self._max_per_episode

        t = arrival.sample(clock)
        while t < horizon:
            # A new busy period begins at this arrival.
            start = t
            busy_until = t + service.sample(svc_rng)
            count = 1
            t += arrival.sample(clock)
            # Fold in every interruption that arrives before recovery ends.
            while t < busy_until and count < max_per:
                busy_until += service.sample(svc_rng)
                count += 1
                t += arrival.sample(clock)
            if t < busy_until:
                # Episode truncated by the safety bound (unstable host that
                # effectively never returns): resume arrivals after the end.
                # Exact for exponential inter-arrivals (memorylessness).
                t = busy_until + arrival.sample(clock)
            yield DowntimeEpisode(start=start, end=busy_until, interruption_count=count)

    def _episodes_expo_lognormal(
        self,
        clock: RandomSource,
        svc_rng: RandomSource,
        horizon: float,
    ) -> Iterator[DowntimeEpisode]:
        """Busy-period fold with ``expovariate``/``lognormvariate`` inlined.

        The arrival draw is ``-log(1 - u) / lambd`` (``Random.expovariate``)
        and the service draw is ``exp(mu + z * sigma)`` with ``z`` from the
        Kinderman-Monahan rejection sampler behind ``Random.normalvariate``
        — the exact formulas, so draws are bit-identical to the generic path
        and the stream advances by the same number of uniforms.
        """
        assert isinstance(self._arrival, Exponential)
        assert isinstance(self._service, Lognormal)
        lambd = self._arrival.rate
        mu = self._service.mu
        sigma = self._service.sigma
        max_per = self._max_per_episode
        arnd = clock.raw_random
        srnd = svc_rng.raw_random
        log = math.log
        exp = math.exp
        magic = _NV_MAGICCONST

        t = -log(1.0 - arnd()) / lambd
        while t < horizon:
            start = t
            while True:
                u1 = srnd()
                u2 = 1.0 - srnd()
                z = magic * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            busy_until = t + exp(mu + z * sigma)
            count = 1
            t += -log(1.0 - arnd()) / lambd
            while t < busy_until and count < max_per:
                while True:
                    u1 = srnd()
                    u2 = 1.0 - srnd()
                    z = magic * (u1 - 0.5) / u2
                    if z * z / 4.0 <= -log(u2):
                        break
                busy_until += exp(mu + z * sigma)
                count += 1
                t += -log(1.0 - arnd()) / lambd
            if t < busy_until:
                t = busy_until + -log(1.0 - arnd()) / lambd
            yield DowntimeEpisode(start=start, end=busy_until, interruption_count=count)

    def _episodes_expo_expo(
        self,
        clock: RandomSource,
        svc_rng: RandomSource,
        horizon: float,
    ) -> Iterator[DowntimeEpisode]:
        """Busy-period fold with ``expovariate`` inlined for both draws."""
        assert isinstance(self._arrival, Exponential)
        assert isinstance(self._service, Exponential)
        lambd = self._arrival.rate
        slambd = self._service.rate
        max_per = self._max_per_episode
        arnd = clock.raw_random
        srnd = svc_rng.raw_random
        log = math.log

        t = -log(1.0 - arnd()) / lambd
        while t < horizon:
            start = t
            busy_until = t + -log(1.0 - srnd()) / slambd
            count = 1
            t += -log(1.0 - arnd()) / lambd
            while t < busy_until and count < max_per:
                busy_until += -log(1.0 - srnd()) / slambd
                count += 1
                t += -log(1.0 - arnd()) / lambd
            if t < busy_until:
                t = busy_until + -log(1.0 - arnd()) / lambd
            yield DowntimeEpisode(start=start, end=busy_until, interruption_count=count)

    def episodes_list(self, horizon: float) -> List[DowntimeEpisode]:
        """Materialise :meth:`episodes` into a list."""
        return list(self.episodes(horizon))

    @classmethod
    def exponential(
        cls,
        mtbi: float,
        service: Distribution,
        rng: RandomSource,
    ) -> "InterruptionProcess":
        """Convenience constructor matching the paper's assumptions."""
        return cls(arrival=Exponential(mean=mtbi), service=service, rng=rng)

    def __repr__(self) -> str:
        return (
            f"InterruptionProcess(arrival={self._arrival!r}, "
            f"service={self._service!r})"
        )


def merge_episode_stream(
    episodes: Iterator[DowntimeEpisode],
    lookahead: Optional[int] = None,
) -> Iterator[DowntimeEpisode]:
    """Merge any episodes that touch or overlap into single episodes.

    :class:`InterruptionProcess` already emits disjoint episodes; this
    helper exists for trace post-processing (e.g. traces assembled from
    recorded event logs where windows may abut).
    """
    pending: Optional[DowntimeEpisode] = None
    for episode in episodes:
        if pending is None:
            pending = episode
            continue
        if episode.start <= pending.end:
            pending = DowntimeEpisode(
                start=pending.start,
                end=max(pending.end, episode.end),
                interruption_count=pending.interruption_count + episode.interruption_count,
            )
        else:
            yield pending
            pending = episode
    if pending is not None:
        yield pending
