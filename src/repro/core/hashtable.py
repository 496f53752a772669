"""The weighted hash table of Algorithm 1.

``buildHashTable`` lays the nodes out over ``m`` hash-table slots (one per
data block): node *i* receives ``w_i = m * rate_i`` consecutive slots, where
``rate_i = (1/E[T_i]) / sum_j (1/E[T_j])``. Because the ``w_i`` are real
numbers, a slot on a boundary is shared by the adjacent nodes — the paper's
"collision chain". ``dataPlacement`` draws a uniform slot; a single-owner
slot returns its owner directly, while a collision chain is resolved by a
second uniform draw weighted by the chain members' rates.

The table is never materialised slot by slot. The node intervals
``[a_i, b_i)`` partition ``[0, m)`` in order, so the table stores only their
bounds (``a_i`` and ``b_i`` accumulated exactly as the paper's loop would:
``b = a + rate * m; a = b``) and finds slot ``j``'s chain by bisecting the
ends at ``j`` and walking forward while an interval starts before ``j + 1``.
Each member's overlap is the same float expression, in the same order, with
the same ``> 1e-12`` membership test a slot-by-slot build would use, so the
chains (and hence every placement draw) are bit-identical to it. A build
is O(n) and a draw O(log n + chain length), independent of ``m``; the
Section IV.C threshold cap rebuilds the table each time a node fills up,
which is what makes that matter.

This module implements both the paper-faithful chain resolution (weights =
global rates, as the pseudo-code literally states) and an exact variant
(weights = each node's slot-interval overlap) selectable with
``chain_weighting="overlap"``. For realistic configurations (many blocks
per node) the two are nearly indistinguishable; the exact variant makes the
per-node selection probability exactly proportional to ``rate_i``, which the
property tests exploit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Dict, List, Sequence, Tuple

from repro.core.ids import NodeId
from repro.util.rng import RandomSource

_CHAIN_WEIGHTINGS = ("rate", "overlap")


class WeightedHashTable:
    """Block-to-node mapping table (Algorithm 1).

    Parameters
    ----------
    node_ids:
        The candidate nodes, in a stable order.
    rates:
        Per-node placement rates; normalised internally so only ratios
        matter. Must be non-negative with at least one positive entry.
    num_slots:
        ``m``, the number of data blocks; the table has one key per block
        ("the size of the hash table is equivalent to the number of
        blocks", Section IV.B.1).
    chain_weighting:
        ``"rate"`` for the paper-literal collision resolution, ``"overlap"``
        for exact interval-proportional resolution.
    """

    def __init__(
        self,
        node_ids: Sequence[NodeId],
        rates: Sequence[float],
        num_slots: int,
        chain_weighting: str = "rate",
    ) -> None:
        if len(node_ids) != len(rates):
            raise ValueError("node_ids and rates must have the same length")
        if not node_ids:
            raise ValueError("at least one node is required")
        if num_slots <= 0:
            raise ValueError(f"num_slots must be positive, got {num_slots}")
        if chain_weighting not in _CHAIN_WEIGHTINGS:
            raise ValueError(
                f"chain_weighting must be one of {_CHAIN_WEIGHTINGS}, got {chain_weighting!r}"
            )
        if any(r < 0 for r in rates):
            raise ValueError("rates must be non-negative")
        total = float(sum(rates))
        if total <= 0.0 or not math.isfinite(total):
            raise ValueError(f"rates must sum to a positive finite value, got {total}")

        self._node_ids = list(node_ids)
        self._rates = [float(r) / total for r in rates]
        self._num_slots = int(num_slots)
        self._chain_weighting = chain_weighting
        #: Node id -> first index; ``rate`` is O(1) instead of ``list.index``.
        self._position: Dict[NodeId, int] = {}
        for index, node_id in enumerate(self._node_ids):
            self._position.setdefault(node_id, index)
        # The layout: one ``[start, end)`` interval per positive-rate node,
        # laid end to end from 0 by the same running sum the paper's
        # ``buildHashTable`` loop performs.
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._owners: List[int] = []
        a = 0.0
        for index, rate in enumerate(self._rates):
            if rate == 0.0:
                continue
            b = a + rate * self._num_slots
            self._starts.append(a)
            self._ends.append(b)
            self._owners.append(index)
            a = b
        # The intervals are contiguous from 0, so only the last slot can be
        # left uncovered (by float drift of the final end below m).
        last = self._num_slots - 1
        if not self._entries(last):
            raise AssertionError(f"hash table slot {last} has an empty chain")

    def _entries(self, slot: int) -> List[Tuple[int, float]]:
        """The (node index, overlap length) chain of one slot.

        Every interval with ``end > slot`` and ``start < slot + 1`` meets the
        slot ``[slot, slot+1)``; the ends and starts are non-decreasing, so
        those intervals are the run that begins at the bisection point.
        Members whose overlap is float dust (<= 1e-12) are dropped.
        """
        starts, ends, owners = self._starts, self._ends, self._owners
        low = float(slot)
        high = slot + 1.0
        chain: List[Tuple[int, float]] = []
        k = bisect_right(ends, slot)
        while k < len(starts) and starts[k] < high:
            overlap = min(ends[k], high) - max(starts[k], low)
            if overlap > 1e-12:
                chain.append((owners[k], overlap))
            k += 1
        return chain

    def _boundary_slots(self) -> List[int]:
        """Ascending slots that may hold more than one node.

        A slot is shared only if an interval starts inside it. This list
        holds every slot an interval starts in, so every slot outside it
        lies wholly inside a single interval. The last slot is included
        because float drift may leave it short.
        """
        m = self._num_slots
        slots = {int(a) for a in self._starts if a < m}
        slots.add(m - 1)
        return sorted(slots)

    def _chain_weights(self, chain: List[Tuple[int, float]]) -> List[float]:
        if self._chain_weighting == "overlap":
            return [overlap for _i, overlap in chain]
        return [self._rates[i] for i, _overlap in chain]

    # -- queries ---------------------------------------------------------------

    @property
    def num_slots(self) -> int:
        """``m``: one key per data block."""
        return self._num_slots

    @property
    def node_ids(self) -> List[NodeId]:
        return list(self._node_ids)

    def rate(self, node_id: NodeId) -> float:
        """The normalised placement rate of a node."""
        index = self._position.get(node_id)
        if index is None:
            raise ValueError(f"{node_id!r} is not in the table")
        return self._rates[index]

    def expected_blocks(self, node_id: NodeId) -> float:
        """``w_i = m * rate_i``: expected blocks allocated to the node."""
        return self.rate(node_id) * self._num_slots

    def chain(self, slot: int) -> List[NodeId]:
        """The node chain stored at a hash-table key (collision list)."""
        if slot < 0:
            slot += self._num_slots
        if not 0 <= slot < self._num_slots:
            raise IndexError(f"hash table slot {slot} out of range")
        return [self._node_ids[i] for i, _overlap in self._entries(slot)]

    def max_chain_length(self) -> int:
        """Longest collision chain; bounded by n in degenerate tables."""
        return max(len(self._entries(j)) for j in self._boundary_slots())

    # -- dataPlacement ----------------------------------------------------------

    def place(self, rng: RandomSource) -> NodeId:
        """One ``dataPlacement`` draw: returns the selected node id."""
        r = rng.randrange(self._num_slots)
        k = bisect_right(self._ends, r)
        if self._starts[k] <= r and self._ends[k] >= r + 1:
            # The slot lies wholly inside one interval: a single-owner chain.
            return self._node_ids[self._owners[k]]
        chain = self._entries(r)
        if len(chain) == 1:
            return self._node_ids[chain[0][0]]
        weights = self._chain_weights(chain)
        omega = sum(weights)
        r1 = rng.random()
        low = 0.0
        for (index, _overlap), weight in zip(chain, weights, strict=True):
            high = low + weight / omega
            if low <= r1 < high:
                return self._node_ids[index]
            low = high
        # r1 landed on the floating-point residue past the last boundary.
        return self._node_ids[chain[-1][0]]

    def place_many(self, rng: RandomSource, count: int) -> List[NodeId]:
        """Draw ``count`` placements."""
        return [self.place(rng) for _ in range(count)]

    def selection_probabilities(self) -> Dict[NodeId, float]:
        """Exact per-node selection probability of :meth:`place`.

        The sum, over slots, of P(slot) * P(node | chain). Slots inside one
        interval give their owner ``count/m`` in one step; only the boundary
        slots resolve a chain. With ``chain_weighting="overlap"`` this equals
        ``rate_i`` exactly (up to float error); with the paper's ``"rate"``
        weighting it is close but not identical when chains mix very
        unequal rates.
        """
        probs = {node_id: 0.0 for node_id in self._node_ids}
        slot_p = 1.0 / self._num_slots
        boundary = self._boundary_slots()
        for j in boundary:
            chain = self._entries(j)
            weights = self._chain_weights(chain)
            omega = sum(weights)
            for (index, _overlap), weight in zip(chain, weights, strict=True):
                probs[self._node_ids[index]] += slot_p * weight / omega
        for a, b, index in zip(self._starts, self._ends, self._owners, strict=True):
            # Slots [lo, hi) lie wholly inside [a, b); boundary ones are done.
            lo = math.ceil(a)
            hi = min(math.floor(b), self._num_slots)
            if hi > lo:
                count = hi - lo - (bisect_left(boundary, hi) - bisect_left(boundary, lo))
                probs[self._node_ids[index]] += count * slot_p
        return probs

    @classmethod
    def from_expected_times(
        cls,
        node_ids: Sequence[NodeId],
        expected_times: Sequence[float],
        num_blocks: int,
        chain_weighting: str = "rate",
    ) -> "WeightedHashTable":
        """``buildHashTable``: rates are 1/E[T_i], normalised by Phi."""
        if any(t <= 0 for t in expected_times):
            raise ValueError("expected task times must be positive")
        rates = [1.0 / t for t in expected_times]
        return cls(node_ids, rates, num_blocks, chain_weighting=chain_weighting)

    def __repr__(self) -> str:
        return (
            f"WeightedHashTable(nodes={len(self._node_ids)}, slots={self._num_slots}, "
            f"weighting={self._chain_weighting!r})"
        )
