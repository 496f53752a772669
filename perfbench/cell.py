"""Run one benchmark cell and print its record as one JSON line.

Invoked by ``run.py`` in a fresh interpreter per cell, so the reported
peak RSS belongs to that cell alone::

    python -m perfbench.cell --workload fig5-adapt --seed 0 --mode plain

Every mode runs the cell through the program's own entry point
(``run_map_phase`` for Figure 5, ``run_emulation_point`` for Figure 3),
with :class:`~perfbench.tracing.Phases` timing its phase calls and a
:class:`~perfbench.speed.SpeedSampler` measuring the host's speed meanwhile:

* ``plain`` — the timed cell: only the phase calls are wrapped;
* ``traced`` — the same cell under the :class:`~perfbench.tracing.Probe`
  wrappers and bus tap;
* ``profiled`` — the traced cell under ``cProfile`` as well (kept apart
  from ``traced`` because the profiler inflates call-heavy layers several
  times more than tight loops, which would skew the spans);
* ``audit`` — the plain cell with ``audit="strict"`` (the first invariant
  violation raises).
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import json
import pstats
import resource
import sys
import time
import traceback
from typing import Any, Dict, Optional

from perfbench.speed import SpeedSampler
from perfbench.tracing import Phases, Probe, module_self_times
from perfbench.workloads import POPULATION_SEED, WORKLOADS, Workload, cluster_seed
from repro.experiments.config import SimulationConfig
from repro.experiments.emulation import run_emulation_point
from repro.runtime.runner import MapPhaseResult, run_map_phase

#: ClusterConfig knobs that select a non-default engine path; their
#: effective values are recorded with every result.
PATH_KNOBS = ("avail_backend", "event_queue", "pregen_jobs", "pregen_horizon")


def run_entry(
    workload: Workload, seed: int, tiny: bool, audit: Optional[str]
) -> MapPhaseResult:
    """One pass of the cell through the program's public entry point."""
    config = workload.config(tiny)
    strategy = workload.strategy
    if isinstance(config, SimulationConfig):
        # run_simulation_point would draw the population from the run seed.
        return run_map_phase(
            hosts=config.hosts(seed=POPULATION_SEED),
            config=config.cluster_config(seed=seed),
            policy=strategy.policy,
            replication=strategy.replication,
            blocks_per_node=config.tasks_per_node,
            audit=audit,
        )
    return run_emulation_point(config, strategy, seed=seed, audit=audit)


def run_cell(
    workload: Workload,
    seed: int,
    rep: int = 0,
    tiny: bool = False,
    probe: Optional[Probe] = None,
    audit: Optional[str] = None,
) -> Dict[str, Any]:
    """Run repetition ``rep`` of a cell, from the population draw to
    ``Cluster.stop``."""
    phases = Phases(workload.max_events, probe.attach if probe is not None else None)
    with SpeedSampler() as speed, phases.installed():
        start = time.perf_counter()
        result = run_entry(workload, cluster_seed(seed, rep), tiny, audit)
    cluster = phases.cluster
    assert cluster is not None
    record: Dict[str, Any] = {
        "fingerprint": {
            "events": phases.events,
            "makespan": result.elapsed,
            "locality": result.data_locality,
            "interruptions": result.interruptions,
            "attempts": len(phases.attempts),
        },
        "cell_s": phases.stop_end - start,
        "setup_s": phases.build_end - start,
        "events_per_s": phases.events / phases.spans["runtime.run_s"],
        # Reference seconds per wall second over each of the three intervals.
        "speed_scale": {
            "cell": speed.scale(start, phases.stop_end),
            "setup": speed.scale(start, phases.build_end),
            "run": speed.scale(*phases.run_wall),
        },
        "spans": dict(phases.spans),
        "path": {knob: getattr(cluster.config, knob) for knob in PATH_KNOBS},
    }
    profile = cluster.build_profile
    if profile is not None:
        record["path"]["effective_backend"] = profile.backend
        record["path"]["effective_pregen_jobs"] = profile.jobs
    record["path"]["effective_event_queue"] = type(cluster.sim.queue).__name__
    if probe is not None:
        probe.finish(cluster.config.stationary_burn_in, phases.run_end)
        counters = dict(probe.counters)
        counters["simulator.events"] = phases.events
        counters["mapreduce.attempts"] = len(phases.attempts)
        counters["mapreduce.speculative_attempts"] = sum(
            1 for a in phases.attempts if a.speculative
        )
        counters["mapreduce.useful_ratio"] = result.num_tasks / len(phases.attempts)
        for name, count in probe.published.items():
            counters[f"simulator.published.{name}"] = count
        record["counters"] = counters
        record["spans"].update(probe.spans)
    return record


def run_traced(
    workload: Workload, seed: int, rep: int = 0, tiny: bool = False
) -> Dict[str, Any]:
    """One cell under the probe wrappers and bus tap."""
    probe = Probe()
    with probe.installed():
        return run_cell(workload, seed, rep, tiny, probe)


def run_profiled(
    workload: Workload, seed: int, rep: int = 0, tiny: bool = False
) -> Dict[str, Any]:
    """A traced cell under ``cProfile``, with self time per module."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        record = run_traced(workload, seed, rep, tiny)
    finally:
        profiler.disable()
    record["self_s"] = module_self_times(pstats.Stats(profiler))
    return record


MODES = {
    "plain": run_cell,
    "traced": run_traced,
    "profiled": run_profiled,
    "audit": functools.partial(run_cell, audit="strict"),
}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0, help="repetition of the cell")
    parser.add_argument("--mode", choices=sorted(MODES), default="plain")
    parser.add_argument("--tiny", action="store_true", help="test-sized shape")
    args = parser.parse_args(argv)
    try:
        record = MODES[args.mode](
            WORKLOADS[args.workload], args.seed, rep=args.rep, tiny=args.tiny
        )
    except Exception:  # the parent counts the cell as failed
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
