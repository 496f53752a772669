"""The benchmark's workloads: three paper experiment cells.

Each workload is one (configuration, strategy) cell of the paper's
evaluation, run on the default exact path (no sampling backend, queue,
fan-out or audit override). Each workload runs on one fixed host
population, as the paper's own evaluation does:

* the Figure 5 cells share one SETI population, drawn with
  ``POPULATION_SEED`` (the paper replays one trace archive);
* the Figure 3 cell uses the Table 2 groups, which involve no draw.

The seed given to the benchmark picks the cluster seeds
(``ClusterConfig.seed``) of the cell's repetitions: they drive every
stream of the run (failure realisations, placement draws, task lengths),
as the ``seed`` argument of ``run_emulation_point`` does. Drawing the
population from the seed as well would make the work itself vary by 3x
between seeds (the number of ADAPT table rebuilds ranges from 26 to 91
over the first eight populations at 192 nodes), which would drown any
change in the code.

``tiny`` shapes keep every role of a workload at a size the benchmark's
own tests can afford.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

from repro.experiments.config import EmulationConfig, SimulationConfig, Strategy
from repro.util.rng import derive_seed

#: Seed of the one SETI population both Figure 5 workloads run on.
POPULATION_SEED = 0


def cluster_seed(seed: int, rep: int) -> int:
    """Cluster seed of repetition ``rep`` of benchmark seed ``seed``.

    The same on every workload, so both Figure 5 strategies face the same
    failure realisations.
    """
    return derive_seed(seed, "rep", rep)


Config = Union[SimulationConfig, EmulationConfig]


@dataclass(frozen=True)
class Workload:
    """One paper cell: a figure's configuration plus a strategy."""

    name: str
    figure: str
    strategy: Strategy
    node_count: int
    tiny_node_count: int
    #: Run-loop event budget; a cell that exhausts it counts as failed.
    max_events: int
    #: Repetitions of the cell per benchmark seed, as the paper averages
    #: each point over repeated runs; repetition ``r`` of seed ``s`` runs
    #: with cluster seed ``cluster_seed(s, r)``. More where the work
    #: itself varies more between realisations.
    repetitions: int

    def config(self, tiny: bool = False) -> Config:
        nodes = self.tiny_node_count if tiny else self.node_count
        if self.figure == "fig5":
            # Table 4 defaults; tiny shapes also shrink the per-node tasks.
            return SimulationConfig(
                node_count=nodes, tasks_per_node=10.0 if tiny else 100.0
            )
        return EmulationConfig(
            node_count=nodes, blocks_per_node=4.0 if tiny else 20.0
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig5-adapt",
            figure="fig5",
            strategy=Strategy("adapt", 1),
            node_count=192,
            tiny_node_count=24,
            max_events=2_000_000,
            repetitions=4,
        ),
        Workload(
            name="fig5-existing3",
            figure="fig5",
            strategy=Strategy("existing", 3),
            node_count=192,
            tiny_node_count=24,
            max_events=2_000_000,
            repetitions=4,
        ),
        Workload(
            name="fig3-adapt",
            figure="fig3",
            strategy=Strategy("adapt", 1),
            node_count=128,
            tiny_node_count=16,
            max_events=4_000_000,
            repetitions=8,
        ),
    )
}
