"""Tests for the M/G/1 interruption process."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.availability.distributions import (
    Deterministic,
    Exponential,
    Lognormal,
    Weibull,
)
from repro.availability.process import (
    DowntimeEpisode,
    InterruptionProcess,
    merge_episode_stream,
)
from repro.simulator.failures import shift_episodes
from repro.util.rng import RandomSource
from repro.util.stats import RunningStats


def _process(mtbi=10.0, mu=2.0, seed=5, **kwargs):
    return InterruptionProcess(
        arrival=Exponential(mean=mtbi),
        service=Exponential(mean=mu),
        rng=RandomSource(seed),
        **kwargs,
    )


class TestEpisodeInvariants:
    def test_episodes_sorted_and_disjoint(self):
        episodes = _process().episodes_list(horizon=5000.0)
        assert episodes, "expected at least one episode"
        for prev, cur in zip(episodes, episodes[1:], strict=False):
            assert prev.end <= cur.start
        assert all(e.start < 5000.0 for e in episodes)

    def test_episode_validation(self):
        with pytest.raises(ValueError):
            DowntimeEpisode(start=5.0, end=4.0, interruption_count=1)
        with pytest.raises(ValueError):
            DowntimeEpisode(start=1.0, end=2.0, interruption_count=0)

    def test_deterministic_given_seed(self):
        a = _process(seed=11).episodes_list(2000.0)
        b = _process(seed=11).episodes_list(2000.0)
        assert [(e.start, e.end) for e in a] == [(e.start, e.end) for e in b]

    def test_different_seeds_differ(self):
        a = _process(seed=11).episodes_list(2000.0)
        b = _process(seed=12).episodes_list(2000.0)
        assert [(e.start, e.end) for e in a] != [(e.start, e.end) for e in b]

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_invariants_hold_for_any_seed(self, seed):
        episodes = _process(seed=seed).episodes_list(1000.0)
        for episode in episodes:
            assert episode.duration >= 0
            assert episode.interruption_count >= 1
        for prev, cur in zip(episodes, episodes[1:], strict=False):
            assert prev.end <= cur.start


class TestQueueingTheory:
    def test_utilization(self):
        p = _process(mtbi=10.0, mu=4.0)
        assert p.utilization == pytest.approx(0.4)
        assert p.is_stable()

    def test_expected_episode_matches_formula3(self):
        # E[Y] = mu / (1 - lambda*mu): the paper's formula (3).
        p = _process(mtbi=10.0, mu=4.0)
        assert p.expected_episode_duration() == pytest.approx(4.0 / 0.6)

    def test_unstable_has_no_expected_episode(self):
        p = _process(mtbi=2.0, mu=4.0)
        assert not p.is_stable()
        with pytest.raises(ValueError, match="unstable"):
            p.expected_episode_duration()

    def test_busy_period_mean_empirical(self):
        # Sampled mean episode length should approach mu/(1-rho).
        acc = RunningStats()
        for seed in range(40):
            for episode in _process(mtbi=10.0, mu=3.0, seed=seed).episodes(20000.0):
                acc.add(episode.duration)
        assert acc.mean == pytest.approx(3.0 / 0.7, rel=0.1)

    def test_arrival_rate_of_episodes(self):
        # Busy periods start at rate lambda*(1-rho) in steady state.
        p = _process(mtbi=10.0, mu=3.0, seed=2)
        horizon = 200000.0
        count = len(p.episodes_list(horizon))
        expected = horizon * (1.0 / 10.0) * (1.0 - 0.3)
        assert count == pytest.approx(expected, rel=0.1)


class TestUnstableSafety:
    def test_unstable_process_terminates(self):
        # lambda*mu = 5 >> 1: without the episode cap this would hang.
        p = _process(mtbi=1.0, mu=5.0, seed=3, max_interruptions_per_episode=100)
        episodes = p.episodes_list(horizon=10.0)
        assert episodes
        assert all(e.interruption_count <= 100 for e in episodes)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            _process(max_interruptions_per_episode=0)

    def test_capped_episode_is_long(self):
        # The truncated busy period still represents a long departure.
        p = _process(mtbi=1.0, mu=5.0, seed=3, max_interruptions_per_episode=50)
        first = p.episodes_list(horizon=10.0)[0]
        assert first.duration > 50.0  # >> typical recovery


class TestDeterministicService:
    def test_fixed_recovery(self):
        p = InterruptionProcess(
            arrival=Exponential(mean=100.0),
            service=Deterministic(value=2.0),
            rng=RandomSource(1),
        )
        episodes = p.episodes_list(horizon=10000.0)
        # With rho = 0.02, almost every episode is a single interruption.
        singles = [e for e in episodes if e.interruption_count == 1]
        assert len(singles) >= 0.9 * len(episodes)
        for e in singles:
            assert e.duration == pytest.approx(2.0)


class TestMergeStream:
    def test_merges_overlaps(self):
        eps = [
            DowntimeEpisode(0.0, 5.0, 1),
            DowntimeEpisode(4.0, 8.0, 1),
            DowntimeEpisode(10.0, 12.0, 2),
        ]
        merged = list(merge_episode_stream(iter(eps)))
        assert len(merged) == 2
        assert merged[0].start == 0.0
        assert merged[0].end == 8.0
        assert merged[0].interruption_count == 2
        assert merged[1].interruption_count == 2

    def test_merges_touching(self):
        eps = [DowntimeEpisode(0.0, 5.0, 1), DowntimeEpisode(5.0, 6.0, 1)]
        merged = list(merge_episode_stream(iter(eps)))
        assert len(merged) == 1

    def test_empty(self):
        assert list(merge_episode_stream(iter([]))) == []


#: (arrival, service) pairs covering each fold kernel, stable and unstable.
_LAZY_CASES = [
    pytest.param(Exponential(mean=10.0), Lognormal(mean=40.0, cov=1.2), id="expo-lognormal-unstable"),
    pytest.param(Exponential(mean=2000.0), Lognormal(mean=300.0, cov=2.0), id="expo-lognormal-stable"),
    pytest.param(Exponential(mean=5.0), Exponential(mean=25.0), id="expo-expo-unstable"),
    pytest.param(Exponential(mean=900.0), Exponential(mean=120.0), id="expo-expo-stable"),
    pytest.param(Weibull(scale=5.0, shape=0.8), Exponential(mean=25.0), id="generic-unstable"),
]


def _eager_fold(arrival, service, rng, cap):
    """Reference eager busy-period fold: every episode folded to its end."""
    clock = rng.substream("arrivals")
    svc_rng = rng.substream("service")
    t = arrival.sample(clock)
    while True:
        start = t
        busy_until = t + service.sample(svc_rng)
        count = 1
        t += arrival.sample(clock)
        while t < busy_until and count < cap:
            busy_until += service.sample(svc_rng)
            count += 1
            t += arrival.sample(clock)
        if t < busy_until:
            t = busy_until + arrival.sample(clock)
        yield (start, busy_until, count)


def _twins(arrival, service, cap=2_000):
    def make():
        return InterruptionProcess(
            arrival,
            service,
            RandomSource(17).substream("h"),
            max_interruptions_per_episode=cap,
        )

    return make(), make()


class TestLazyEpisodes:
    @pytest.mark.parametrize("arrival,service", _LAZY_CASES)
    def test_resolved_lazy_equals_eager_field_for_field(self, arrival, service):
        lazy_p, _ = _twins(arrival, service)
        lazy_it = lazy_p.episodes(float("inf"))
        eager_it = _eager_fold(arrival, service, RandomSource(17).substream("h"), 2_000)
        for _ in range(30):
            eager = DowntimeEpisode(*next(eager_it))
            lazy = next(lazy_it)
            # Ask a few partial questions before resolving the episode.
            probe = lazy.start
            while lazy.ends_after(probe) and not lazy.resolved:
                assert lazy.end_bound > probe
                probe = lazy.end_bound + 1.0
            assert (lazy.start, lazy.end, lazy.interruption_count) == (
                eager.start,
                eager.end,
                eager.interruption_count,
            )
            assert lazy == eager and hash(lazy) == hash(eager)

    @pytest.mark.parametrize("arrival,service", _LAZY_CASES)
    def test_shifted_lazy_equals_shifted_eager(self, arrival, service):
        lazy_p, eager_p = _twins(arrival, service)
        burn_in = 5_000.0
        lazy = list(zip(range(20), shift_episodes(lazy_p.episodes(float("inf")), burn_in)))
        eager_stream = (e.resolve() for e in eager_p.episodes(float("inf")))
        eager = list(zip(range(20), shift_episodes(eager_stream, burn_in)))
        assert lazy == eager

    def test_interruption_count_does_not_fold(self):
        p = _process(mtbi=1.0, mu=5.0, seed=3)  # lambda*mu = 5
        stream = p.episodes(float("inf"))
        first = next(stream)
        assert first.interruption_count >= 1
        assert not first.resolved
        folded = first.interruption_count
        assert first.ends_after(first.start + 100.0)
        assert not first.resolved
        assert folded < first.interruption_count < p.max_interruptions_per_episode
        assert first.end_bound > first.start + 100.0
        first.resolve()
        assert first.resolved
        assert first.interruption_count == p.max_interruptions_per_episode

    def test_finite_horizon_stops_without_resolving(self):
        # The next arrival comes after the episode's end, so once the
        # bound passes the horizon the stream is over either way.
        p = _process(mtbi=1.0, mu=5.0, seed=3)
        twin = _process(mtbi=1.0, mu=5.0, seed=3)
        lazy = list(p.episodes(200.0))
        assert not lazy[-1].resolved
        assert lazy == [e.resolve() for e in twin.episodes(200.0)]

    def test_pickles_resolved(self):
        p = _process(mtbi=1.0, mu=5.0, seed=3)
        episode = next(p.episodes(float("inf")))
        copy = pickle.loads(pickle.dumps(episode))
        assert copy == episode and copy.resolved
