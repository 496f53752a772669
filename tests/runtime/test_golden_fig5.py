"""Golden pin of a small Figure 5 cell on the SETI population.

The Table 2 goldens (``test_golden_determinism.py``) only cover stable
hosts (rho <= 0.8) without burn-in. This cell runs the SETI population
with the stationary burn-in, where about half the hosts are unstable
(lambda * mu >= 1) and their busy periods run far past the run window,
so it pins the busy-period fold bound end to end. The values were
captured from the eager fold that resolved every episode at attach;
exact ``==`` on floats is deliberate.
"""

import pytest

from repro.experiments.config import SimulationConfig
from repro.runtime import runner
from repro.runtime.runner import run_map_phase

CONFIG = SimulationConfig(node_count=24, tasks_per_node=10.0)

#: (policy, replication, cluster seed) -> (elapsed, locality, interruptions, events fired)
GOLDEN = {
    ("existing", 3, 0): (556.4354559999999, 0.8541666666666666, 14, 564),
    ("adapt", 1, 0): (556.4354559999999, 0.8333333333333334, 14, 569),
    ("existing", 3, 1): (1043.0886400000002, 0.6791666666666667, 16, 832),
    ("adapt", 1, 1): (1031.0886400000002, 0.6666666666666666, 16, 831),
}


def test_population_has_unstable_hosts():
    hosts = CONFIG.hosts(seed=0)
    unstable = [
        h
        for h in hosts
        if h.arrival is not None
        and h.service is not None
        and h.service.mean / h.arrival.mean >= 1.0
    ]
    assert unstable, "the cell must exercise the runaway busy-period path"
    assert CONFIG.stationary_burn_in > 0.0


@pytest.mark.parametrize("policy,replication,seed", sorted(GOLDEN))
def test_fig5_cell_matches_golden(monkeypatch, policy, replication, seed):
    # The pin counts the program's own events; an auditor adds its own.
    monkeypatch.delenv("REPRO_AUDIT", raising=False)
    built = []
    build_cluster = runner.build_cluster

    def capture(*args, **kwargs):
        cluster = build_cluster(*args, **kwargs)
        built.append(cluster)
        return cluster

    monkeypatch.setattr(runner, "build_cluster", capture)
    result = run_map_phase(
        hosts=CONFIG.hosts(seed=0),
        config=CONFIG.cluster_config(seed=seed),
        policy=policy,
        replication=replication,
        blocks_per_node=CONFIG.tasks_per_node,
    )
    (cluster,) = built
    got = (
        result.elapsed,
        result.data_locality,
        result.interruptions,
        cluster.sim.events_fired,
    )
    assert got == GOLDEN[(policy, replication, seed)]


@pytest.mark.parametrize("policy,replication", [("existing", 3), ("adapt", 1)])
def test_fig5_cell_strict_audit(monkeypatch, policy, replication):
    # The strict InvariantAuditor raises on the first violation; its own
    # events change the count fired, so only the job's results are pinned.
    monkeypatch.delenv("REPRO_AUDIT", raising=False)
    result = run_map_phase(
        hosts=CONFIG.hosts(seed=0),
        config=CONFIG.cluster_config(seed=0),
        policy=policy,
        replication=replication,
        blocks_per_node=CONFIG.tasks_per_node,
        audit="strict",
    )
    got = (result.elapsed, result.data_locality, result.interruptions)
    assert got == GOLDEN[(policy, replication, 0)][:3]
