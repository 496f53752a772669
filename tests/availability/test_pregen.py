"""Tests for bulk episode pregeneration (repro.availability.pregen).

The load-bearing property is *bit-identity*: the bulk scalar path — bulk
seed derivation, injected streams, optional multi-process fan-out — must
deliver exactly the episodes the lazy per-host path delivers, because the
golden determinism suite pins the default build byte-for-byte.
"""

import pytest

from repro.availability.generator import build_group_hosts
from repro.availability.pregen import (
    episode_prefix,
    materialise_prefix,
    pregenerate_prefixes,
    resolve_backend,
    resolve_jobs,
    shift_episodes,
)
from repro.util.rng import RandomSource, derive_seed, derive_seeds


def hosts_for(n, seed_ratio=0.8):
    return build_group_hosts(n, seed_ratio, service_distribution="lognormal")


def lazy_prefix(host, rng, horizon, burn_in=0.0):
    """The injector's own path: lazy process, shift, materialise."""
    process = host.process(rng.substream("failures", host.host_id))
    if process is None:
        return None
    stream = process.episodes(float("inf"))
    if burn_in > 0.0:
        stream = shift_episodes(stream, burn_in)
    return materialise_prefix(stream, horizon)


class TestSeedDerivation:
    def test_derive_seeds_matches_per_leaf_derive_seed(self):
        leaves = [("h0", "arrivals"), ("h1", "arrivals"), ("h2", "service")]
        bulk = derive_seeds(123, ("failures",), leaves)
        assert bulk == [derive_seed(123, "failures", *leaf) for leaf in leaves]

    def test_from_derived_matches_substream_chain(self):
        root = RandomSource(9)
        direct = root.substream("failures", "h7").substream("arrivals")
        derived = derive_seed(9, "failures", "h7", "arrivals")
        rebuilt = RandomSource.from_derived(derived, 9, ("failures", "h7", "arrivals"))
        assert [direct.random() for _ in range(16)] == [
            rebuilt.random() for _ in range(16)
        ]


class TestScalarBitIdentity:
    def test_bulk_equals_lazy_per_host(self):
        hosts = hosts_for(40)
        horizon, burn_in = 50_000.0, 300.0
        result = pregenerate_prefixes(
            hosts, RandomSource(3), horizon, burn_in=burn_in
        )
        assert result.backend == "scalar"
        for host, prefix in zip(hosts, result.prefixes, strict=True):
            expected = lazy_prefix(host, RandomSource(3), horizon, burn_in)
            assert prefix == expected, host.host_id

    def test_episode_prefix_matches_injector_path(self):
        hosts = hosts_for(10)
        for host in hosts:
            got = episode_prefix(host, RandomSource(5), 20_000.0, burn_in=100.0)
            expected = lazy_prefix(host, RandomSource(5), 20_000.0, 100.0)
            assert got == expected

    def test_dedicated_hosts_get_none(self):
        hosts = hosts_for(10, seed_ratio=0.5)
        result = pregenerate_prefixes(hosts, RandomSource(1), 1000.0)
        for host, prefix in zip(hosts, result.prefixes, strict=True):
            if host.is_dedicated:
                assert prefix is None
            else:
                assert prefix  # prefix always holds the boundary episode

    def test_prefix_contract_boundary_episode(self):
        hosts = [h for h in hosts_for(6) if not h.is_dedicated]
        horizon = 5_000.0
        result = pregenerate_prefixes(hosts, RandomSource(2), horizon)
        for prefix in result.prefixes:
            assert prefix[-1].start >= horizon
            for episode in prefix[:-1]:
                assert episode.start < horizon


class TestParallelFanOut:
    def test_jobs_do_not_change_bytes(self):
        # Enough hosts to exceed the minimum chunk size and engage the pool.
        hosts = hosts_for(600)
        horizon = 10_000.0
        serial = pregenerate_prefixes(hosts, RandomSource(4), horizon, jobs=1)
        parallel = pregenerate_prefixes(hosts, RandomSource(4), horizon, jobs=3)
        assert parallel.jobs == 3
        assert serial.prefixes == parallel.prefixes

    def test_small_populations_stay_in_process(self):
        hosts = hosts_for(8)
        result = pregenerate_prefixes(hosts, RandomSource(4), 1000.0, jobs=4)
        expected = pregenerate_prefixes(hosts, RandomSource(4), 1000.0, jobs=1)
        assert result.prefixes == expected.prefixes


class TestKnobResolution:
    def test_backend_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_AVAIL_BACKEND", "numpy")
        assert resolve_backend("scalar") == "numpy"
        monkeypatch.setenv("REPRO_AVAIL_BACKEND", "")
        assert resolve_backend("scalar") == "scalar"

    def test_unknown_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_AVAIL_BACKEND", "cuda")
        with pytest.raises(ValueError, match="REPRO_AVAIL_BACKEND"):
            resolve_backend("scalar")
        monkeypatch.delenv("REPRO_AVAIL_BACKEND")
        with pytest.raises(ValueError):
            pregenerate_prefixes(hosts_for(2), RandomSource(0), 10.0, backend="cuda")

    def test_jobs_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREGEN_JOBS", "7")
        assert resolve_jobs(1) == 7
        for bad in ("not-a-number", "0", "-2"):
            monkeypatch.setenv("REPRO_PREGEN_JOBS", bad)
            with pytest.raises(ValueError, match="REPRO_PREGEN_JOBS"):
                resolve_jobs(3)
        monkeypatch.setenv("REPRO_PREGEN_JOBS", "")
        assert resolve_jobs(3) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            pregenerate_prefixes(hosts_for(2), RandomSource(0), -1.0)
        # Non-positive job counts are clamped to in-process execution.
        result = pregenerate_prefixes(hosts_for(2), RandomSource(0), 10.0, jobs=0)
        assert result.jobs == 1
