"""Cell instrumentation, installed from outside the program.

Nothing here changes a line of ``src/``:

* :class:`Phases` wraps the five phase calls the program's entry point
  makes (``*.hosts()``, ``build_cluster``, ``DfsClient.copy_from_local``,
  ``Cluster.run_until_job_done``, ``Cluster.stop``) plus
  ``JobTracker.submit``, so every cell, traced or not, is timed around
  the program's own ``run_map_phase``;
* :class:`Probe` (traced cells only) adds class-level wrappers that count
  work and time the ``core`` (placement) and ``availability`` (episode
  sampling) layers, and an :meth:`~repro.simulator.events.EventBus.add_tap`
  tap that counts every published event by type and samples the queue
  depth;
* :func:`module_self_times` folds a ``cProfile`` run into self time per
  ``src/repro`` module.

Everything here is pure observation: a traced cell fires the same events
and reaches the same fingerprint as an untraced one (pinned by the
benchmark's tests). Counters are deterministic; spans are wall clock and
are kept apart from them.
"""

from __future__ import annotations

import functools
import os
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro
import repro.runtime.runner as runner
from repro.availability.process import InterruptionProcess
from repro.core.hashtable import WeightedHashTable
from repro.core.placement import PlacementPlan, PlacementPolicy
from repro.experiments.config import EmulationConfig, SimulationConfig
from repro.hdfs.client import DfsClient
from repro.hdfs.datanode import DataNode
from repro.mapreduce.jobtracker import JobTracker
from repro.runtime.cluster import Cluster
from repro.simulator.events import Event
from repro.simulator.network import Network

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

Wrap = Callable[[Callable[..., Any]], Callable[..., Any]]


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class _Patches:
    """Class- or module-level wrappers, undone when the block ends."""

    def __init__(self) -> None:
        self._restore: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def installed(self) -> Iterator[Any]:
        """Install the wrappers for the duration of the block."""
        try:
            self._install()
            yield self
        finally:
            for owner, name, original in reversed(self._restore):
                setattr(owner, name, original)
            self._restore.clear()

    def _install(self) -> None:
        raise NotImplementedError

    def _patch(self, owner: Any, name: str, make: Wrap) -> None:
        """Wrap ``owner.name`` if ``owner`` defines it (subclasses inherit it)."""
        original = owner.__dict__.get(name)
        if original is None:
            return
        self._restore.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make(original)))


class Phases(_Patches):
    """Times the phase calls of one cell run through the program's entry point.

    ``max_events`` caps the run loop's event budget (a cell that exhausts
    it raises, and counts as failed). ``on_build`` is called with the
    cluster as soon as ``build_cluster`` returns.
    """

    def __init__(
        self, max_events: int, on_build: Optional[Callable[[Cluster], None]] = None
    ) -> None:
        super().__init__()
        self.max_events = max_events
        self.on_build = on_build
        self.spans: Dict[str, float] = defaultdict(float)
        self.build_end = 0.0
        self.stop_end = 0.0
        self.cluster: Optional[Cluster] = None
        self.job: Any = None
        self.events = 0
        self.run_end = 0.0
        #: perf_counter readings around the run loop.
        self.run_wall = (0.0, 0.0)
        self.attempts: List[Any] = []

    def _install(self) -> None:
        phases = self
        clock = time.perf_counter

        def timed(span: str) -> Wrap:
            def make(original: Callable[..., Any]) -> Callable[..., Any]:
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    start = clock()
                    try:
                        return original(*args, **kwargs)
                    finally:
                        phases.spans[span] += clock() - start

                return wrapper

            return make

        def build(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                cluster = original(*args, **kwargs)
                phases.build_end = clock()
                phases.spans["runtime.build_s"] += phases.build_end - start
                phases.cluster = cluster
                if phases.on_build is not None:
                    phases.on_build(cluster)
                return cluster

            return wrapper

        def submit(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(tracker: JobTracker, job: Any, *args: Any, **kwargs: Any) -> Any:
                phases.job = job
                return original(tracker, job, *args, **kwargs)

            return wrapper

        def run(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(cluster: Cluster, max_events: int = phases.max_events) -> Any:
                fired = cluster.sim.events_fired
                start = clock()
                original(cluster, max_events=min(max_events, phases.max_events))
                phases.run_wall = (start, clock())
                phases.spans["runtime.run_s"] += phases.run_wall[1] - start
                phases.events += cluster.sim.events_fired - fired
                phases.run_end = cluster.sim.now
                # Before Cluster.stop, which kills live speculative attempts.
                phases.attempts = [a for task in phases.job.tasks for a in task.attempts]

            return wrapper

        def stop(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(cluster: Cluster) -> None:
                start = clock()
                try:
                    original(cluster)
                finally:
                    phases.stop_end = clock()
                    phases.spans["runtime.stop_s"] += phases.stop_end - start

            return wrapper

        for cls in (SimulationConfig, EmulationConfig):
            self._patch(cls, "hosts", timed("availability.population_s"))
        self._patch(runner, "build_cluster", build)
        self._patch(DfsClient, "copy_from_local", timed("hdfs.ingest_s"))
        self._patch(JobTracker, "submit", submit)
        self._patch(Cluster, "run_until_job_done", run)
        self._patch(Cluster, "stop", stop)


class _TimedEpisodes:
    """Iterator proxy that times each advance of an episode generator."""

    __slots__ = ("_it", "_probe")

    def __init__(self, it: Iterator[Any], probe: "Probe") -> None:
        self._it = it
        self._probe = probe

    def __iter__(self) -> "_TimedEpisodes":
        return self

    def __next__(self) -> Any:
        probe = self._probe
        start = time.perf_counter()
        try:
            episode = next(self._it)
        finally:
            probe.spans["availability.sample_s"] += time.perf_counter() - start
        probe.episode_starts.append(episode.start)
        probe.counters["availability.folded_interruptions"] += episode.interruption_count
        return episode


class Probe(_Patches):
    """Counters and spans of one traced cell."""

    def __init__(self) -> None:
        super().__init__()
        self.counters: Dict[str, float] = defaultdict(int)
        self.spans: Dict[str, float] = defaultdict(float)
        self.published: Dict[str, int] = defaultdict(int)
        self.episode_starts: List[float] = []
        self.peak_pending = 0
        self._depth: Dict[str, int] = defaultdict(int)

    # -- class-level wrappers --------------------------------------------------

    def _install(self) -> None:
        probe = self

        def episodes(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return _TimedEpisodes(iter(original(*args, **kwargs)), probe)

            return wrapper

        self._patch(InterruptionProcess, "episodes", episodes)
        for cls in _subclasses(PlacementPolicy):
            self._patch_timed(cls, "build_plan", "core.plan_s")
        for cls in _subclasses(PlacementPlan):
            self._patch_timed(cls, "choose_replicas", "core.plan_s", lambda _: 1)
            self._patch_timed(cls, "choose_replicas_many", "core.plan_s", len)
        self._patch_counted(WeightedHashTable, "__init__", "core.table_builds")
        self._patch_counted(DataNode, "store", "hdfs.replicas_written")
        self._patch_counted(Network, "start_transfer", "simulator.network.transfers")
        self._patch_counted(Network, "cancel", "simulator.network.cancels")

    def _patch_counted(self, cls: type, name: str, counter: str) -> None:
        counters = self.counters

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                counters[counter] += 1
                return original(*args, **kwargs)

            return wrapper

        self._patch(cls, name, make)

    def _patch_timed(
        self,
        cls: type,
        name: str,
        span: str,
        blocks_placed: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Time the outermost call only: overrides and batch entry points
        nest (``choose_replicas_many`` -> ``choose_replicas`` -> ``super``).

        ``blocks_placed`` maps an outermost call's result to the number of
        blocks it placed.
        """
        probe = self

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if probe._depth[span]:
                    return original(*args, **kwargs)
                probe._depth[span] += 1
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    probe.spans[span] += time.perf_counter() - start
                    probe._depth[span] -= 1
                if blocks_placed is not None:
                    probe.counters["core.blocks_placed"] += blocks_placed(result)
                return result

            return wrapper

        self._patch(cls, name, make)

    # -- the bus tap -----------------------------------------------------------

    def attach(self, cluster: Any) -> None:
        """Tap the cluster's bus (call right after ``build_cluster``)."""
        published = self.published
        sim = cluster.sim

        def tap(event: Event, _phases: Tuple[Any, ...]) -> None:
            published[type(event).__name__] += 1
            pending = sim.pending_events
            if pending > self.peak_pending:
                self.peak_pending = pending

        cluster.bus.add_tap(tap)

    def finish(self, burn_in: float, run_end: float) -> None:
        """Derive the ratio counters once the run has ended at ``run_end``."""
        generated = len(self.episode_starts)
        horizon = burn_in + run_end
        used = sum(1 for start in self.episode_starts if start < horizon)
        self.counters["availability.episodes"] = generated
        self.counters["availability.episodes_used_ratio"] = (
            used / generated if generated else 0.0
        )
        self.counters["simulator.peak_pending"] = self.peak_pending


# -- profiler attribution -------------------------------------------------------

Func = Tuple[str, int, str]


def _owner(filename: str) -> Optional[str]:
    """Module bucket owning code in ``filename``; None passes time upward."""
    path = os.path.abspath(filename) if filename and filename[0] != "~" else ""
    if path.startswith(_REPRO_DIR):
        rel = path[len(_REPRO_DIR) :]
        if rel.endswith(".py"):
            rel = rel[:-3]
        if rel.endswith("__init__"):
            rel = rel[: -len("__init__")].rstrip(os.sep) or "repro"
        return rel.replace(os.sep, ".")
    if path.startswith(_BENCH_DIR):
        return "bench"
    return None


def module_self_times(stats: pstats.Stats) -> Dict[str, float]:
    """Self seconds per ``src/repro`` module (``package.module``).

    Code outside the package (builtins, the standard library) bills its
    self time to the modules that called it, split by each call edge's
    cumulative time. The benchmark's own code is ``bench``; time no
    package module called is ``other``.
    """
    table: Dict[Func, Any] = stats.stats  # type: ignore[attr-defined]
    memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, visiting: Tuple[Func, ...]) -> Dict[str, float]:
        if func in memo:
            return memo[func]
        owner = _owner(func[0])
        if owner is not None:
            result = {owner: 1.0}
        else:
            callers = table[func][4] if func in table else {}
            weights = {
                caller: (edge[3] or edge[2] or edge[0])
                for caller, edge in callers.items()
                if caller not in visiting
            }
            total = sum(weights.values())
            if not total:
                result = {"other": 1.0}
            else:
                result = defaultdict(float)
                for caller, weight in weights.items():
                    for module, share in shares(caller, (*visiting, func)).items():
                        result[module] += share * weight / total
        memo[func] = result
        return result

    self_s: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        for module, share in shares(func, ()).items():
            self_s[module] += tt * share
    return dict(self_s)
