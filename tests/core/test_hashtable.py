"""Tests for Algorithm 1's weighted hash table."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashtable import WeightedHashTable
from repro.util.rng import RandomSource


def table(rates, slots=100, weighting="rate"):
    ids = [f"n{i}" for i in range(len(rates))]
    return WeightedHashTable(ids, rates, slots, chain_weighting=weighting)


class TestConstruction:
    def test_basic(self):
        t = table([1.0, 1.0], slots=10)
        assert t.num_slots == 10
        assert t.rate("n0") == pytest.approx(0.5)
        assert t.expected_blocks("n0") == pytest.approx(5.0)

    def test_rates_normalised(self):
        t = table([2.0, 6.0])
        assert t.rate("n0") == pytest.approx(0.25)
        assert t.rate("n1") == pytest.approx(0.75)

    def test_every_slot_covered(self):
        t = table([1.0, 2.0, 3.0, 0.5], slots=37)
        for slot in range(37):
            assert len(t.chain(slot)) >= 1

    def test_zero_rate_node_gets_no_slots(self):
        t = table([1.0, 0.0, 1.0], slots=20)
        probs = t.selection_probabilities()
        assert probs["n1"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            table([])
        with pytest.raises(ValueError):
            WeightedHashTable(["a"], [1.0, 2.0], 10)
        with pytest.raises(ValueError):
            table([1.0], slots=0)
        with pytest.raises(ValueError):
            table([-1.0, 2.0])
        with pytest.raises(ValueError):
            table([0.0, 0.0])
        with pytest.raises(ValueError):
            table([1.0], weighting="magic")

    def test_from_expected_times(self):
        # Rates must be proportional to 1/E[T].
        t = WeightedHashTable.from_expected_times(["a", "b"], [10.0, 40.0], 100)
        assert t.rate("a") == pytest.approx(0.8)
        assert t.rate("b") == pytest.approx(0.2)
        with pytest.raises(ValueError):
            WeightedHashTable.from_expected_times(["a"], [0.0], 10)

    def test_chain_structure(self):
        # With 2 equal nodes over 10 slots, only the boundary slot at 5 can
        # hold both.
        t = table([1.0, 1.0], slots=10)
        assert t.max_chain_length() <= 2
        assert t.chain(0) == ["n0"]
        assert t.chain(9) == ["n1"]


class TestSelectionProbabilities:
    def test_overlap_weighting_exact(self):
        t = table([3.0, 1.0, 2.0], slots=50, weighting="overlap")
        probs = t.selection_probabilities()
        assert probs["n0"] == pytest.approx(0.5, abs=1e-9)
        assert probs["n1"] == pytest.approx(1.0 / 6.0, abs=1e-9)
        assert probs["n2"] == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_rate_weighting_close(self):
        # The paper-literal chain weighting is approximately proportional.
        t = table([3.0, 1.0, 2.0], slots=60, weighting="rate")
        probs = t.selection_probabilities()
        assert probs["n0"] == pytest.approx(0.5, abs=0.02)

    def test_probabilities_sum_to_one(self):
        t = table([5.0, 1.0, 0.1, 2.2], slots=97)
        assert sum(t.selection_probabilities().values()) == pytest.approx(1.0)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=100)
    def test_overlap_probabilities_proportional(self, rates, slots):
        t = table(rates, slots=slots, weighting="overlap")
        probs = t.selection_probabilities()
        total = sum(rates)
        for i, rate in enumerate(rates):
            assert probs[f"n{i}"] == pytest.approx(rate / total, abs=1e-6)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=100)
    def test_rate_probabilities_sum_to_one(self, rates, slots):
        t = table(rates, slots=slots, weighting="rate")
        assert sum(t.selection_probabilities().values()) == pytest.approx(1.0)


class TestPlacement:
    def test_place_returns_known_nodes(self):
        t = table([1.0, 2.0, 3.0])
        rng = RandomSource(5)
        for _ in range(50):
            assert t.place(rng) in {"n0", "n1", "n2"}

    def test_empirical_distribution_matches(self):
        t = table([1.0, 3.0], slots=200)
        rng = RandomSource(11)
        picks = t.place_many(rng, 8000)
        share = picks.count("n1") / len(picks)
        assert share == pytest.approx(0.75, abs=0.03)

    def test_deterministic_with_seed(self):
        t = table([1.0, 2.0, 5.0])
        a = t.place_many(RandomSource(3), 100)
        b = t.place_many(RandomSource(3), 100)
        assert a == b

    def test_uniform_rates_match_existing_hdfs(self):
        # "logically equivalent to the existing data placement algorithm if
        # all the nodes share the same availability pattern" (Sec III.C).
        t = table([1.0] * 8, slots=80)
        probs = t.selection_probabilities()
        for _node_id, p in probs.items():
            assert p == pytest.approx(1.0 / 8.0, abs=1e-9)

    def test_single_node(self):
        t = table([7.0], slots=5)
        rng = RandomSource(1)
        assert t.place(rng) == "n0"

    def test_more_nodes_than_slots(self):
        # Degenerate: every slot has a long collision chain.
        t = table([1.0] * 20, slots=3)
        rng = RandomSource(2)
        picks = set(t.place_many(rng, 500))
        assert len(picks) > 10  # most nodes reachable through the chains


def eager_slots(rates, num_slots):
    """Reference layout: Algorithm 1's table materialised slot by slot.

    Per slot, the (node index, overlap) pair of every interval meeting it,
    from the same running sum and float expressions as ``buildHashTable``.
    """
    total = float(sum(rates))
    slots = [[] for _ in range(num_slots)]
    a = 0.0
    for index, rate in enumerate(float(r) / total for r in rates):
        if rate == 0.0:
            continue
        b = a + rate * num_slots
        for j in range(math.floor(a), min(math.ceil(b), num_slots)):
            overlap = min(b, j + 1.0) - max(a, float(j))
            if overlap > 1e-12:
                slots[j].append((index, overlap))
        a = b
    return slots


def eager_place_many(rates, num_slots, weighting, rng, count):
    """Reference ``dataPlacement`` draws over :func:`eager_slots`."""
    total = float(sum(rates))
    normalised = [float(r) / total for r in rates]
    slots = eager_slots(rates, num_slots)
    picks = []
    for _ in range(count):
        chain = slots[rng.randrange(num_slots)]
        if len(chain) == 1:
            picks.append(f"n{chain[0][0]}")
            continue
        if weighting == "overlap":
            weights = [overlap for _i, overlap in chain]
        else:
            weights = [normalised[i] for i, _overlap in chain]
        omega = sum(weights)
        r1 = rng.random()
        low = 0.0
        pick = chain[-1][0]
        for (index, _overlap), weight in zip(chain, weights):
            high = low + weight / omega
            if low <= r1 < high:
                pick = index
                break
            low = high
        picks.append(f"n{pick}")
    return picks


def random_shapes(count, seed=0):
    """Random (rates, slots) shapes: 10% zero rates, n > m, and m = 1."""
    rng = random.Random(seed)
    shapes = [([1.0] * 20, 3), ([2.0, 0.0, 5.0], 1), ([0.0, 1e-9, 1.0, 0.0], 7)]
    while len(shapes) < count:
        n = rng.randint(1, 60)
        slots = rng.choice([1, rng.randint(1, n), rng.randint(1, 40 * n)])
        rates = [
            0.0 if rng.random() < 0.1 else rng.lognormvariate(0.0, 1.5) for _ in range(n)
        ]
        if not any(rates):
            rates[rng.randrange(n)] = 1.0
        shapes.append((rates, slots))
    return shapes


class TestIntervalLayout:
    """The interval-bounds table equals the eager slot-by-slot layout."""

    @pytest.mark.parametrize("rates,slots", random_shapes(120))
    def test_chains_bit_identical(self, rates, slots):
        t = table(rates, slots=slots)
        reference = eager_slots(rates, slots)
        for j, expected in enumerate(reference):
            assert t._entries(j) == expected
            assert t.chain(j) == [f"n{i}" for i, _overlap in expected]
        assert t.max_chain_length() == max(len(chain) for chain in reference)

    @pytest.mark.parametrize("weighting", ["rate", "overlap"])
    @pytest.mark.parametrize("rates,slots", random_shapes(40, seed=1))
    def test_place_many_matches_reference(self, rates, slots, weighting):
        t = table(rates, slots=slots, weighting=weighting)
        expected = eager_place_many(rates, slots, weighting, RandomSource(9), 300)
        assert t.place_many(RandomSource(9), 300) == expected

    def test_negative_slot_indexes_from_the_end(self):
        t = table([1.0, 1.0], slots=10)
        assert t.chain(-1) == t.chain(9)
        with pytest.raises(IndexError):
            t.chain(10)

    def test_state_does_not_grow_with_slot_count(self):
        # A slot-by-slot layout would allocate one list per slot (tens of
        # MB at m = 10^6); the interval layout holds O(n) floats.
        tracemalloc.start()
        try:
            t = table([1.0, 2.0, 3.0, 4.0], slots=10**6)
            t.place_many(RandomSource(0), 100)
            t.selection_probabilities()
            t.max_chain_length()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
