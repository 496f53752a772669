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
from typing import Iterator, List, Optional, Tuple

from repro.availability.distributions import (
    _NV_MAGICCONST,
    Distribution,
    Exponential,
    Lognormal,
)
from repro.util.rng import RandomSource
from repro.util.validation import check_positive


class DowntimeEpisode:
    """One contiguous down window (an M/G/1 busy period).

    ``start`` is the arrival of the first interruption of the episode (the
    host goes down), ``end`` is when every queued interruption has been
    serviced (the host returns), and ``interruption_count`` is how many
    interruptions were folded into the episode.

    Episodes from :meth:`InterruptionProcess.episodes` are *lazy*: the
    busy-period fold is suspended after the first interruption and runs
    further only when a consumer needs to know more. :meth:`ends_after`
    folds just far enough to answer; :attr:`end`, :attr:`duration`,
    ``==``, ``hash`` and ``repr`` resolve the episode fully. The fold
    draws from the host's own two substreams, which nothing else touches,
    so a resolved lazy episode equals the eagerly folded one field for
    field. Until then :attr:`end_bound` is a lower bound on ``end`` and
    :attr:`interruption_count` counts the interruptions folded so far.
    """

    __slots__ = ("start", "_end", "_count", "_fold", "_offset")

    start: float

    def __init__(self, start: float, end: float, interruption_count: int) -> None:
        if end < start:
            raise ValueError(f"episode ends ({end}) before it starts ({start})")
        if interruption_count < 1:
            raise ValueError("an episode contains at least one interruption")
        self.start = start
        self._end = end
        self._count = interruption_count
        self._fold: Optional[_BusyPeriod] = None
        self._offset = 0.0

    @classmethod
    def _folding(
        cls, start: float, fold: "_BusyPeriod", offset: float = 0.0
    ) -> "DowntimeEpisode":
        """A lazy episode whose end is ``fold``'s, ``offset`` seconds earlier."""
        episode = cls.__new__(cls)
        episode.start = start
        episode._fold = fold
        episode._offset = offset
        return episode

    @property
    def end(self) -> float:
        """When the host returns (resolves the fold fully)."""
        if self._fold is not None:
            self.resolve()
        return self._end

    def resolve(self) -> "DowntimeEpisode":
        """Finish the fold (if any) and drop its state; returns ``self``."""
        fold = self._fold
        if fold is not None:
            if not fold.done:
                fold.advance(math.inf, 0.0)
            self._settle(fold)
        return self

    @property
    def interruption_count(self) -> int:
        """Interruptions folded so far; final once :attr:`resolved`.

        Never folds: reading it straight after ``next()`` on the stream
        costs nothing.
        """
        fold = self._fold
        return self._count if fold is None else fold.count

    @property
    def resolved(self) -> bool:
        """Whether the fold has finished (``end`` is known without folding)."""
        fold = self._fold
        return fold is None or fold.done

    @property
    def end_bound(self) -> float:
        """A lower bound on :attr:`end`, equal to it once :attr:`resolved`."""
        fold = self._fold
        if fold is None:
            return self._end
        return fold.busy_until - self._offset

    @property
    def duration(self) -> float:
        """Length of the down window."""
        return self.end - self.start

    def ends_after(self, when: float) -> bool:
        """Whether ``end > when``, folding only as far as the answer needs."""
        fold = self._fold
        if fold is not None:
            if not fold.done:
                fold.advance(when, self._offset)
                if not fold.done:
                    return True  # the fold stopped with its bound past ``when``
            self._settle(fold)
        return self._end > when

    def shifted(self, by: float) -> "DowntimeEpisode":
        """This episode ``by`` seconds earlier, its start clipped at 0.

        A lazy episode stays lazy: the shifted one shares its fold. The
        caller checks ``ends_after(by)`` first, as the result must not
        end at or before 0.
        """
        start = max(self.start - by, 0.0)
        fold = self._fold
        if fold is None or fold.done or self._offset:
            return DowntimeEpisode(start, self.end - by, self.interruption_count)
        return DowntimeEpisode._folding(start, fold, by)

    def _settle(self, fold: "_BusyPeriod") -> None:
        """Copy a finished fold's values and drop the fold state."""
        self._end = fold.busy_until - self._offset
        self._count = fold.count
        self._fold = None

    def _key(self) -> Tuple[float, float, int]:
        return (self.start, self.end, self.interruption_count)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        assert isinstance(other, DowntimeEpisode)
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> Tuple[type, Tuple[float, float, int]]:
        return (DowntimeEpisode, self._key())

    def __repr__(self) -> str:
        start, end, count = self._key()
        return (
            f"DowntimeEpisode(start={start!r}, end={end!r}, "
            f"interruption_count={count!r})"
        )


class _BusyPeriod:
    """The suspended fold of one busy period.

    ``t`` is the pending arrival, ``busy_until`` the recovery point of the
    interruptions folded so far (``count`` of them). ``done`` once an
    arrival lands after ``busy_until`` or the fold bound trips.
    """

    __slots__ = ("t", "busy_until", "count", "done", "_kernel")

    def __init__(self, kernel: "_FoldKernel", t: float, busy_until: float) -> None:
        self.t = t
        self.busy_until = busy_until
        self.count = 1
        self.done = not (t < busy_until and 1 < kernel.max_per)
        self._kernel: Optional[_FoldKernel] = None if self.done else kernel

    def advance(self, limit: float, offset: float) -> None:
        """Fold until done or ``busy_until - offset > limit``.

        A finished fold lets go of the kernel, so a resolved episode no
        longer holds the host's streams.
        """
        assert self._kernel is not None
        self._kernel.fold(self, limit, offset)
        if self.done:
            self._kernel = None


class _FoldKernel:
    """One host's busy-period fold: draws from its two private substreams.

    Subclasses inline the draw formulas of the distribution pairs every
    shipped population uses; the draws are the exact ``Distribution.sample``
    formulas, so every kernel gives the floats of the generic one.
    """

    __slots__ = ("max_per",)

    def __init__(self, max_per: int) -> None:
        self.max_per = max_per

    def arrival(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def service(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def fold(self, period: _BusyPeriod, limit: float, offset: float) -> None:
        raise NotImplementedError  # pragma: no cover - abstract

    def stream(self, horizon: float) -> Iterator[DowntimeEpisode]:
        """Lazy episodes whose start falls in [0, horizon).

        Pulling the next episode resolves the previous one first, except
        when its bound already passes ``horizon``: the next arrival comes
        after the episode's end, so the stream has ended either way.
        """
        t = self.arrival()
        while t < horizon:
            period = _BusyPeriod(self, t + self.arrival(), t + self.service())
            yield DowntimeEpisode._folding(t, period)
            if not period.done:
                period.advance(horizon, 0.0)
                if not period.done:
                    return
            t = period.t
            if t < period.busy_until:
                # Episode truncated by the safety bound (unstable host that
                # effectively never returns): resume arrivals after the end.
                # Exact for exponential inter-arrivals (memorylessness).
                t = period.busy_until + self.arrival()


class _GenericKernel(_FoldKernel):
    """Reference fold: one ``Distribution.sample`` per draw."""

    __slots__ = ("_arrival", "_service", "_clock", "_svc_rng")

    def __init__(
        self,
        arrival: Distribution,
        service: Distribution,
        clock: RandomSource,
        svc_rng: RandomSource,
        max_per: int,
    ) -> None:
        super().__init__(max_per)
        self._arrival = arrival
        self._service = service
        self._clock = clock
        self._svc_rng = svc_rng

    def arrival(self) -> float:
        return self._arrival.sample(self._clock)

    def service(self) -> float:
        return self._service.sample(self._svc_rng)

    def fold(self, period: _BusyPeriod, limit: float, offset: float) -> None:
        arrival = self._arrival
        service = self._service
        clock = self._clock
        svc_rng = self._svc_rng
        max_per = self.max_per
        t = period.t
        busy_until = period.busy_until
        count = period.count
        # Fold in every interruption that arrives before recovery ends.
        while t < busy_until and count < max_per and busy_until - offset <= limit:
            busy_until += service.sample(svc_rng)
            count += 1
            t += arrival.sample(clock)
        period.t = t
        period.busy_until = busy_until
        period.count = count
        period.done = not (t < busy_until and count < max_per)


class _ExpoLognormalKernel(_FoldKernel):
    """Fold with ``expovariate``/``lognormvariate`` inlined.

    The arrival draw is ``-log(1 - u) / lambd`` (``Random.expovariate``)
    and the service draw is ``exp(mu + z * sigma)`` with ``z`` from the
    Kinderman-Monahan rejection sampler behind ``Random.normalvariate``
    — the exact formulas, so draws are bit-identical to the generic path
    and the stream advances by the same number of uniforms.
    """

    __slots__ = ("_lambd", "_mu", "_sigma", "_arnd", "_srnd")

    def __init__(
        self,
        arrival: Exponential,
        service: Lognormal,
        clock: RandomSource,
        svc_rng: RandomSource,
        max_per: int,
    ) -> None:
        super().__init__(max_per)
        self._lambd = arrival.rate
        self._mu = service.mu
        self._sigma = service.sigma
        self._arnd = clock.raw_random
        self._srnd = svc_rng.raw_random

    def arrival(self) -> float:
        return -math.log(1.0 - self._arnd()) / self._lambd

    def service(self) -> float:
        srnd = self._srnd
        while True:
            u1 = srnd()
            u2 = 1.0 - srnd()
            z = _NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -math.log(u2):
                return math.exp(self._mu + z * self._sigma)

    def fold(self, period: _BusyPeriod, limit: float, offset: float) -> None:
        lambd = self._lambd
        mu = self._mu
        sigma = self._sigma
        max_per = self.max_per
        arnd = self._arnd
        srnd = self._srnd
        log = math.log
        exp = math.exp
        magic = _NV_MAGICCONST
        t = period.t
        busy_until = period.busy_until
        count = period.count
        while t < busy_until and count < max_per and busy_until - offset <= limit:
            while True:
                u1 = srnd()
                u2 = 1.0 - srnd()
                z = magic * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    break
            busy_until += exp(mu + z * sigma)
            count += 1
            t += -log(1.0 - arnd()) / lambd
        period.t = t
        period.busy_until = busy_until
        period.count = count
        period.done = not (t < busy_until and count < max_per)


class _ExpoExpoKernel(_FoldKernel):
    """Fold with ``expovariate`` inlined for both draws."""

    __slots__ = ("_lambd", "_slambd", "_arnd", "_srnd")

    def __init__(
        self,
        arrival: Exponential,
        service: Exponential,
        clock: RandomSource,
        svc_rng: RandomSource,
        max_per: int,
    ) -> None:
        super().__init__(max_per)
        self._lambd = arrival.rate
        self._slambd = service.rate
        self._arnd = clock.raw_random
        self._srnd = svc_rng.raw_random

    def arrival(self) -> float:
        return -math.log(1.0 - self._arnd()) / self._lambd

    def service(self) -> float:
        return -math.log(1.0 - self._srnd()) / self._slambd

    def fold(self, period: _BusyPeriod, limit: float, offset: float) -> None:
        lambd = self._lambd
        slambd = self._slambd
        max_per = self.max_per
        arnd = self._arnd
        srnd = self._srnd
        log = math.log
        t = period.t
        busy_until = period.busy_until
        count = period.count
        while t < busy_until and count < max_per and busy_until - offset <= limit:
            busy_until += -log(1.0 - srnd()) / slambd
            count += 1
            t += -log(1.0 - arnd()) / lambd
        period.t = t
        period.busy_until = busy_until
        period.count = count
        period.done = not (t < busy_until and count < max_per)


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
        Because episodes fold lazily, the bound only shapes episodes that
        are resolved fully: those whose end the clock reaches, those under
        a delayed-recovery stretch, and those before a stream's next
        episode. A run that ends while such a host is still down folds
        only until the episode's recovery point passes the run's clock.
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

    def episodes(self, horizon: float) -> Iterator[DowntimeEpisode]:
        """Yield downtime episodes whose *start* falls in [0, horizon).

        Episodes are emitted in increasing start order and never overlap.
        The last episode may end after ``horizon``; callers that need a
        bounded trace clip it (see ``AvailabilityTrace.from_episodes``).

        Episodes are lazy (see :class:`DowntimeEpisode`): each is yielded
        after its first interruption, and its busy period is folded further
        only when a consumer asks. Pulling the next episode resolves the
        previous one, because the next arrival comes after its end. A
        consumer that never gets that far, such as a run that stops while
        an unstable host is still down, never pays for the rest of the fold.

        The two distribution pairs every shipped population uses —
        exponential arrivals with lognormal (SETI traces) or exponential
        (Table 2 emulation) recovery — dispatch to fold kernels that inline
        the CPython ``random`` draw formulas directly into the busy-period
        fold, with no per-draw method calls. Episodes are bit-identical to
        the generic scalar path (pinned by
        tests/availability/test_vectorized.py).

        Memory: a suspended stream keeps the host's two substreams alive,
        and each wraps a Mersenne Twister state of about 2.5 KB. Measured
        with ``tracemalloc`` after a 4,096-host SETI build, the cluster
        holds 9.4 KB per host, 20.6 MiB of it in :mod:`repro.util.rng`;
        the 226k-host kernel cell peaks at about 2.6 GB RSS.
        """
        check_positive("horizon", horizon)
        clock = self._rng.substream("arrivals")
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
        self, clock: RandomSource, svc_rng: RandomSource, horizon: float
    ) -> Iterator[DowntimeEpisode]:
        """Reference busy-period fold: one ``Distribution.sample`` per draw."""
        kernel = _GenericKernel(
            self._arrival, self._service, clock, svc_rng, self._max_per_episode
        )
        return kernel.stream(horizon)

    def _episodes_expo_lognormal(
        self, clock: RandomSource, svc_rng: RandomSource, horizon: float
    ) -> Iterator[DowntimeEpisode]:
        """Busy-period fold with ``expovariate``/``lognormvariate`` inlined."""
        assert isinstance(self._arrival, Exponential)
        assert isinstance(self._service, Lognormal)
        kernel = _ExpoLognormalKernel(
            self._arrival, self._service, clock, svc_rng, self._max_per_episode
        )
        return kernel.stream(horizon)

    def _episodes_expo_expo(
        self, clock: RandomSource, svc_rng: RandomSource, horizon: float
    ) -> Iterator[DowntimeEpisode]:
        """Busy-period fold with ``expovariate`` inlined for both draws."""
        assert isinstance(self._arrival, Exponential)
        assert isinstance(self._service, Exponential)
        kernel = _ExpoExpoKernel(
            self._arrival, self._service, clock, svc_rng, self._max_per_episode
        )
        return kernel.stream(horizon)

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
