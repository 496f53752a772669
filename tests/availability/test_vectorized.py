"""Bit-identity of the inlined episode generators to the generic one.

The scale kernel speeds up availability sampling with per-distribution-pair
inlined episode generators (``InterruptionProcess._episodes_expo_lognormal``
/ ``_episodes_expo_expo``). They promise the *same floats* as the generic
reference — goldens depend on it — so every test here asserts exact ``==``,
never ``approx``, and also checks the RNG streams stay in lockstep.
"""

import pytest

from repro.availability.distributions import (
    Deterministic,
    Exponential,
    Lognormal,
    Weibull,
)
from repro.availability.process import InterruptionProcess
from repro.util.rng import RandomSource


def _episode_pairs():
    """(arrival, service) cases covering every specialised dispatch."""
    return [
        # SETI populations: exponential arrivals, lognormal recovery.
        ("expo-lognormal-stable", Exponential(mean=2000.0), Lognormal(mean=300.0, cov=2.0)),
        ("expo-lognormal-unstable", Exponential(mean=10.0), Lognormal(mean=40.0, cov=1.2)),
        # Table 2 emulation: exponential/exponential.
        ("expo-expo-stable", Exponential(mean=900.0), Exponential(mean=120.0)),
        ("expo-expo-unstable", Exponential(mean=5.0), Exponential(mean=25.0)),
        # Generic fallbacks (no specialisation; sanity that dispatch
        # doesn't change them either).
        ("expo-deterministic", Exponential(mean=500.0), Deterministic(value=90.0)),
        ("weibull-lognormal", Weibull(scale=800.0, shape=0.8), Lognormal(mean=100.0, cov=1.0)),
    ]


@pytest.mark.parametrize(
    "arrival,service",
    [pytest.param(a, s, id=name) for name, a, s in _episode_pairs()],
)
class TestEpisodeSpecialisationBitIdentity:
    HORIZON = 500_000.0

    def test_specialised_matches_generic(self, arrival, service):
        fast = InterruptionProcess(arrival, service, RandomSource(11).substream("h"))
        ref = InterruptionProcess(arrival, service, RandomSource(11).substream("h"))
        got = list(fast.episodes(self.HORIZON))
        clock = ref._rng.substream("arrivals")
        svc = ref._rng.substream("service")
        want = list(ref._episodes_generic(clock, svc, self.HORIZON))
        assert got == want  # dataclass equality on exact floats

    def test_truncation_cap_identical(self, arrival, service):
        # A tiny per-episode cap forces the truncation branch on every
        # episode; the specialised paths must take it identically.
        fast = InterruptionProcess(
            arrival, service, RandomSource(5).substream("h"), max_interruptions_per_episode=2
        )
        ref = InterruptionProcess(
            arrival, service, RandomSource(5).substream("h"), max_interruptions_per_episode=2
        )
        got = list(fast.episodes(50_000.0))
        clock = ref._rng.substream("arrivals")
        svc = ref._rng.substream("service")
        want = list(ref._episodes_generic(clock, svc, 50_000.0))
        assert got == want

    def test_stream_continuation_identical(self, arrival, service):
        # Long streams: after thousands of episodes the uniform streams of
        # the fast and reference paths are still in lockstep.
        fast = InterruptionProcess(arrival, service, RandomSource(23).substream("h"))
        ref = InterruptionProcess(arrival, service, RandomSource(23).substream("h"))
        fast_iter = fast.episodes(10**9)
        clock = ref._rng.substream("arrivals")
        svc = ref._rng.substream("service")
        ref_iter = ref._episodes_generic(clock, svc, 10**9)
        for _ in range(2000):
            assert next(fast_iter) == next(ref_iter)
