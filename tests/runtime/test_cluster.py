"""Tests for cluster assembly and configuration."""

import pytest

from repro.availability.generator import HostAvailability, build_group_hosts
from repro.runtime.cluster import ClusterConfig, build_cluster
from repro.util.units import MB, mbit_per_s


class TestClusterConfig:
    def test_defaults_match_table3(self):
        config = ClusterConfig()
        assert config.bandwidth_mbps == 8.0
        assert config.block_size_bytes == 64 * MB

    def test_link_rates(self):
        config = ClusterConfig(bandwidth_mbps=4.0)
        assert config.uplink_bps == pytest.approx(mbit_per_s(4.0))
        assert config.downlink_bps == pytest.approx(mbit_per_s(4.0))
        asym = ClusterConfig(bandwidth_mbps=1.0, downlink_mbps=15.0)
        assert asym.downlink_bps == pytest.approx(mbit_per_s(15.0))

    def test_nominal_fetch(self):
        config = ClusterConfig(bandwidth_mbps=8.0)
        assert config.nominal_fetch_seconds() == pytest.approx(67.1, abs=0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(bandwidth_mbps=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(detection="psychic")
        with pytest.raises(ValueError):
            ClusterConfig(slots_per_node=0)


class TestBuildCluster:
    def test_full_assembly(self):
        hosts = build_group_hosts(8, 0.5)
        cluster = build_cluster(hosts, ClusterConfig(seed=1))
        assert cluster.node_count == 8
        assert cluster.total_slots == 8
        assert cluster.namenode.datanode_ids == sorted(
            cluster.ids.id_of(h.host_id) for h in hosts
        )
        assert cluster.node_names == sorted(h.host_id for h in hosts)
        assert cluster.heartbeats is not None  # default detection

    def test_oracle_mode_has_no_heartbeats(self):
        hosts = build_group_hosts(4, 0.5)
        cluster = build_cluster(hosts, ClusterConfig(seed=1, detection="oracle"))
        assert cluster.heartbeats is None

    def test_oracle_estimates_pinned(self):
        hosts = build_group_hosts(8, 1.0)
        cluster = build_cluster(hosts, ClusterConfig(seed=1, oracle_estimates=True))
        est = cluster.namenode.predictor.estimate(cluster.ids.id_of(hosts[0].host_id))
        assert est.mtbi == pytest.approx(hosts[0].mtbi)

    def test_estimated_mode_starts_at_prior(self):
        hosts = build_group_hosts(4, 1.0)
        cluster = build_cluster(
            hosts, ClusterConfig(seed=1, oracle_estimates=False, prior_mtbi=777.0)
        )
        est = cluster.namenode.predictor.estimate(cluster.ids.id_of(hosts[0].host_id))
        assert est.mtbi == pytest.approx(777.0, rel=0.01)

    def test_oracle_detection_marks_dead_instantly(self):
        hosts = build_group_hosts(2, 1.0)  # both interrupted (MTBI 10-20s)
        cluster = build_cluster(hosts, ClusterConfig(seed=3, detection="oracle"))
        cluster.sim.run(until=100.0)
        # At some point during the window, state changes were mirrored:
        # after running, believed liveness equals physical state.
        for host in hosts:
            nid = cluster.ids.id_of(host.host_id)
            assert cluster.namenode.is_live(nid) == (
                not cluster.injector.is_down(nid)
            )

    def test_duplicate_host_ids_rejected(self):
        hosts = [HostAvailability(host_id="x"), HostAvailability(host_id="x")]
        with pytest.raises(ValueError, match="unique"):
            build_cluster(hosts, ClusterConfig())

    def test_empty_hosts_rejected(self):
        with pytest.raises(ValueError):
            build_cluster([], ClusterConfig())

    def test_trace_mismatch_rejected(self):
        from repro.availability.traces import AvailabilityTrace

        hosts = [HostAvailability(host_id="a")]
        traces = [AvailabilityTrace("b", 100.0, ())]
        with pytest.raises(ValueError, match="parallel"):
            build_cluster(hosts, ClusterConfig(), traces=traces)

    def test_failure_streams_keyed_by_node_id(self):
        # The same host id must see the same interruption times regardless
        # of the rest of the population (policy-comparison invariant).
        def first_down_time(n):
            hosts = build_group_hosts(n, 1.0)
            cluster = build_cluster(hosts, ClusterConfig(seed=9, detection="oracle"))
            cluster.sim.run(until=50.0)
            return cluster.injector.episode_count(cluster.ids.id_of("node-00000"))

        assert first_down_time(2) == first_down_time(6)


class TestBuildKernel:
    """Build profile and bulk wiring."""

    def test_build_profile_populated(self):
        hosts = build_group_hosts(20, 0.5)
        cluster = build_cluster(hosts, ClusterConfig(seed=1))
        profile = cluster.build_profile
        assert profile is not None
        assert profile.backend == "scalar"
        assert profile.jobs == 1
        assert profile.attach_seconds > 0.0
        assert profile.object_construction_seconds > 0.0
        assert profile.bus_wiring_seconds >= 0.0
        assert profile.total_seconds >= profile.attach_seconds
        assert profile.as_dict()["attach_seconds"] == round(profile.attach_seconds, 4)
        cluster.stop()

    def test_lazy_names_render_at_reporting_boundary(self):
        hosts = build_group_hosts(4, 0.5)
        cluster = build_cluster(hosts, ClusterConfig(seed=1))
        names = cluster.services.names
        for host in hosts:
            assert f"datanode:{host.host_id}" in names
            assert f"tasktracker:{host.host_id}" in names
        cluster.stop()

    def test_config_validation(self):
        # One way to draw availability episodes: the removed pregeneration
        # knobs are no longer fields, only constants the benchmark reads.
        for knob, value in (
            ("pregen_horizon", 1000.0),
            ("avail_backend", "numpy"),
            ("pregen_jobs", 2),
        ):
            with pytest.raises(TypeError, match=knob):
                ClusterConfig(**{knob: value})
        config = ClusterConfig()
        assert (config.avail_backend, config.pregen_jobs, config.pregen_horizon) == (
            "scalar",
            1,
            None,
        )
