"""Engine and placement micro-benchmarks (simulator capacity planning).

Not a paper figure: these measure the substrate itself — event-loop
throughput, flow-level network reallocation, and per-policy placement
decision rates — so regressions in the hot paths are visible.
"""

import time
from collections import defaultdict

import pytest

from repro.availability.estimators import AvailabilityEstimate
from repro.core.placement import AdaptPlacement, NodeView, RandomPlacement
from repro.simulator.engine import Simulator
from repro.simulator.network import Network
from repro.util.rng import RandomSource


def test_engine_event_throughput(benchmark):
    """Schedule-and-fire cost of a trivial event chain."""

    def run():
        sim = Simulator()
        count = 50_000
        state = {"left": count}

        def tick():
            state["left"] -= 1
            if state["left"] > 0:
                sim.schedule(1.0, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return sim.events_fired

    fired = benchmark(run)
    assert fired == 50_000


def test_network_fair_share_reallocation(benchmark):
    """Max-min reallocation with dozens of concurrent flows."""

    def run():
        sim = Simulator()
        net = Network(sim, uplink_bps=1e6, fair_sharing=True)
        done = []
        for i in range(60):
            net.start_transfer(f"s{i % 6}", f"d{i}", 1e6, done.append)
        sim.run()
        return len(done)

    completed = benchmark(run)
    assert completed == 60


def _reference_allocate_rates(net):
    """The pre-optimization progressive-filling allocator, kept verbatim.

    Re-scans every link's membership against the unfixed set on each
    round — O(flows²·links) — where the live version maintains per-link
    live-member counters. Used only to measure the speedup and to check
    the optimized allocator still produces identical rates.
    """
    if not net._active:
        return {}
    capacity = {}
    members = defaultdict(list)
    for transfer in net._active:
        up = ("up", transfer.source)
        down = ("down", transfer.destination)
        capacity.setdefault(up, net.uplink(transfer.source))
        capacity.setdefault(down, net.downlink(transfer.destination))
        members[up].append(transfer)
        members[down].append(transfer)
    unfixed = set(net._active)
    rates = {}
    while unfixed:
        bottleneck = None
        bottleneck_share = None
        for link, users in members.items():
            live = sum(1 for u in users if u in unfixed)
            if not live:
                continue
            share = max(capacity[link], 0.0) / live
            if bottleneck_share is None or share < bottleneck_share:
                bottleneck_share = share
                bottleneck = link
        if bottleneck is None:
            break
        for transfer in [t for t in members[bottleneck] if t in unfixed]:
            rates[transfer] = bottleneck_share
            unfixed.discard(transfer)
            up = ("up", transfer.source)
            down = ("down", transfer.destination)
            for link in (up, down):
                if link != bottleneck:
                    capacity[link] -= bottleneck_share
        capacity[bottleneck] = 0.0
    return rates


def _allocator_workload():
    """64 concurrent flows whose shares all differ, so progressive filling
    fixes one flow per round — the allocator's worst case."""
    sim = Simulator()
    net = Network(sim, uplink_bps=1e9, fair_sharing=True)
    for i in range(64):
        net.set_link(f"d{i}", downlink_bps=1e5 * (i + 1))
    for i in range(64):
        # One shared source: its uplink membership is scanned every round
        # by the reference allocator.
        net.start_transfer("src", f"d{i}", 1e15, lambda t: None)
    return net


def test_allocate_rates_matches_reference():
    """The counter-based allocator must produce bit-identical rates."""
    net = _allocator_workload()
    expected = _reference_allocate_rates(net)
    net._allocate_rates()
    for transfer in net._active:
        assert transfer.rate == max(expected.get(transfer, 0.0), 0.0)


def test_allocate_rates_speedup_64_flows(benchmark):
    """Hot-path check: counter-based allocation >=2x the naive rescan."""
    net = _allocator_workload()
    rounds = 30

    def optimized():
        for _ in range(rounds):
            net._allocate_rates()

    def reference():
        for _ in range(rounds):
            _reference_allocate_rates(net)

    # Manual best-of-N timing for the reference (pytest-benchmark can only
    # time one subject per test); the optimized path goes through the
    # benchmark fixture so it lands in the saved timings too.
    ref_best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        reference()
        ref_best = min(ref_best, time.perf_counter() - start)
    benchmark(optimized)
    opt_best = benchmark.stats.stats.min
    speedup = ref_best / opt_best
    benchmark.extra_info["reference_seconds"] = ref_best
    benchmark.extra_info["speedup_vs_reference"] = speedup
    print(f"\n_allocate_rates @64 flows: reference={ref_best:.4f}s "
          f"optimized={opt_best:.4f}s speedup={speedup:.1f}x")
    assert speedup >= 2.0


def test_placement_decision_rate(benchmark):
    """ADAPT placement decisions for a 256-node, 5120-block ingest."""
    views = [
        NodeView(
            f"n{i}",
            AvailabilityEstimate(
                arrival_rate=0.0 if i % 2 == 0 else 0.05,
                recovery_mean=0.0 if i % 2 == 0 else 4.0,
                observations=1,
            ),
        )
        for i in range(256)
    ]

    def run():
        plan = AdaptPlacement().build_plan(views, 5120, 1, 12.0)
        rng = RandomSource(1)
        for _ in range(5120):
            plan.choose_replicas(rng)
        return sum(plan.allocations().values())

    total = benchmark(run)
    assert total == 5120


def test_adapt_placement_paper_scale(benchmark):
    """ADAPT capped placement at the paper's scale: 1024 nodes x 100 blocks.

    A quarter of the nodes are dedicated, a quarter unstable (lambda*mu
    >= 1, no placement mass), so the Section IV.C threshold cap fills
    nodes and rebuilds the hash table (m = 102,400 slots) 356 times: this
    times table rebuilds as much as draws. Run on demand; not part of CI.
    """
    nodes, blocks = 1024, 102_400
    views = [
        NodeView(
            f"n{i}",
            AvailabilityEstimate(
                arrival_rate=0.03 * (i % 4),
                recovery_mean=8.0 * (i % 4),
                observations=1,
            ),
        )
        for i in range(nodes)
    ]

    def run():
        plan = AdaptPlacement().build_plan(views, blocks, 1, 12.0)
        plan.choose_replicas_many(RandomSource(1), blocks)
        return sum(plan.allocations().values())

    total = benchmark.pedantic(run, rounds=3, iterations=1)
    assert total == blocks


def test_random_placement_decision_rate(benchmark):
    """Baseline: stock random placement at the same scale."""
    views = [
        NodeView(f"n{i}", AvailabilityEstimate(0.0, 0.0, 1)) for i in range(256)
    ]

    def run():
        plan = RandomPlacement().build_plan(views, 5120, 1, 12.0)
        rng = RandomSource(1)
        for _ in range(5120):
            plan.choose_replicas(rng)
        return sum(plan.allocations().values())

    total = benchmark(run)
    assert total == 5120
