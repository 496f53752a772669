"""Deterministic random-stream management.

Simulations in this project must be exactly reproducible from a single root
seed, and must remain reproducible when components are added or reordered.
To achieve that, every component derives its own independent ``RandomSource``
from the root seed plus a stable string key (e.g. ``"failures/node-17"``),
instead of sharing one global generator whose consumption order would couple
unrelated components.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar, Union

T = TypeVar("T")

_MASK_64 = (1 << 64) - 1


def _hash_path(root_seed: int, path: Sequence[object]) -> "hashlib._Hash":
    """The SHA-256 state covering ``root_seed`` plus every path key."""
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode("utf-8"))
    for key in path:
        h.update(b"\x1f")
        h.update(str(key).encode("utf-8"))
    return h


def derive_seed(root_seed: int, *keys: object) -> int:
    """Derive a stable 64-bit seed from a root seed and a key path.

    The derivation hashes the textual representation of the key path with
    SHA-256, so it is stable across Python versions and process runs (unlike
    ``hash()``, which is salted).
    """
    h = _hash_path(root_seed, keys)
    return int.from_bytes(h.digest()[:8], "big") & _MASK_64


#: A ``derive_seeds`` leaf: one trailing key, or a tuple of trailing keys.
SeedLeaf = Union[object, Tuple[object, ...]]


def derive_seeds(
    root_seed: int, prefix: Sequence[object], leaves: Iterable[SeedLeaf]
) -> List[int]:
    """Bulk :func:`derive_seed` over a shared key prefix, one hash pass.

    Element ``i`` equals ``derive_seed(root_seed, *prefix, *leaf_i)`` (a
    non-tuple leaf counts as a single trailing key) — the prefix is hashed
    once and each leaf finishes a *copy* of that state, so deriving one
    seed per node is one short hash update per node instead of a full
    re-hash of the path. Incremental SHA-256 equals one-shot SHA-256 over
    the concatenated bytes, so the values are bit-identical to the scalar
    derivation; ``tests/util`` pins the equality.
    """
    base = _hash_path(root_seed, prefix)
    out: List[int] = []
    for leaf in leaves:
        h = base.copy()
        parts = leaf if isinstance(leaf, tuple) else (leaf,)
        for key in parts:
            h.update(b"\x1f")
            h.update(str(key).encode("utf-8"))
        out.append(int.from_bytes(h.digest()[:8], "big") & _MASK_64)
    return out


class RandomSource:
    """A seeded random stream with named sub-stream derivation.

    Wraps :class:`random.Random` and adds :meth:`substream`, which returns a
    new independent ``RandomSource`` keyed by a string path. Two substreams
    with different keys never share state, so adding a consumer of one stream
    cannot perturb another.
    """

    def __init__(
        self,
        seed: int,
        _path: Sequence[object] = (),
        *,
        _hash: Optional["hashlib._Hash"] = None,
        _derived: Optional[int] = None,
    ) -> None:
        self._seed = int(seed)
        self._path: tuple = tuple(_path)
        if _derived is None:
            if _hash is None:
                _hash = _hash_path(self._seed, self._path)
            _derived = int.from_bytes(_hash.digest()[:8], "big") & _MASK_64
        #: SHA-256 state covering (seed, path); kept so substream derivation
        #: copies it and hashes only the new trailing keys instead of
        #: re-hashing the whole path. None until first needed (e.g. after
        #: unpickling or a ``from_derived`` construction).
        self._h = _hash
        self._derived = _derived
        self._random = random.Random(_derived)

    @property
    def seed(self) -> int:
        """The root seed this source was derived from."""
        return self._seed

    @property
    def path(self) -> tuple:
        """The key path identifying this substream."""
        return self._path

    def _hash_state(self) -> "hashlib._Hash":
        if self._h is None:
            self._h = _hash_path(self._seed, self._path)
        return self._h

    def substream(self, *keys: object) -> "RandomSource":
        """Return an independent stream keyed by ``keys`` under this path.

        Derivation is incremental: the parent's hash state is copied and
        only the new keys are hashed, which is what keeps per-node stream
        construction cheap at 226k hosts. The digest — and therefore every
        sampled value — is bit-identical to a from-scratch derivation.
        """
        h = self._hash_state().copy()
        for key in keys:
            h.update(b"\x1f")
            h.update(str(key).encode("utf-8"))
        return RandomSource(self._seed, self._path + tuple(keys), _hash=h)

    @classmethod
    def from_derived(
        cls, derived_seed: int, root_seed: int, path: Sequence[object] = ()
    ) -> "RandomSource":
        """Construct from a :func:`derive_seeds` value without re-hashing.

        ``derived_seed`` must equal ``derive_seed(root_seed, *path)``; the
        resulting source is then bit-identical to
        ``RandomSource(root_seed, path)`` (same generator state, and
        ``substream`` still works — the hash state is rebuilt lazily).
        """
        return cls(root_seed, path, _derived=int(derived_seed))

    # SHA-256 objects are not picklable; drop the cached hash state and let
    # it rebuild lazily, while preserving the generator state exactly.
    def __getstate__(self) -> Dict[str, object]:
        return {
            "seed": self._seed,
            "path": self._path,
            "derived": self._derived,
            "random_state": self._random.getstate(),
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._seed = state["seed"]  # type: ignore[assignment]
        self._path = tuple(state["path"])  # type: ignore[arg-type]
        self._derived = state["derived"]  # type: ignore[assignment]
        self._h = None
        self._random = random.Random()  # simlint: ignore[D001]
        self._random.setstate(state["random_state"])  # type: ignore[arg-type]

    # -- sampling primitives -------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    @property
    def raw_random(self) -> Callable[[], float]:
        """The bound uniform sampler, for hot rejection loops.

        Calling it consumes this stream exactly like :meth:`random`; it
        exists so vectorized samplers with data-dependent draw counts
        (e.g. normal rejection sampling) can skip per-draw wrapper
        overhead without over-drawing the stream.
        """
        return self._random.random

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def randrange(self, stop: int) -> int:
        """Uniform integer in [0, stop)."""
        return self._random.randrange(stop)

    def expovariate(self, rate: float) -> float:
        """Exponential sample with the given rate (1/mean)."""
        return self._random.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal sample."""
        return self._random.gauss(mu, sigma)

    def lognormvariate(self, mu: float, sigma: float) -> float:
        """Lognormal sample with underlying normal parameters (mu, sigma)."""
        return self._random.lognormvariate(mu, sigma)

    def weibullvariate(self, scale: float, shape: float) -> float:
        """Weibull sample."""
        return self._random.weibullvariate(scale, shape)

    def paretovariate(self, alpha: float) -> float:
        """Pareto sample (support [1, inf))."""
        return self._random.paretovariate(alpha)

    def choice(self, seq: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(seq)

    def sample(self, population: Sequence[T], k: int) -> List[T]:
        """Sample ``k`` distinct elements."""
        return self._random.sample(population, k)

    def shuffle(self, items: List[T]) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Choose one item with probability proportional to its weight."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        total = float(sum(weights))
        if total <= 0.0:
            raise ValueError("weights must sum to a positive value")
        point = self.random() * total
        cumulative = 0.0
        for item, weight in zip(items, weights, strict=True):
            cumulative += weight
            if point < cumulative:
                return item
        return items[-1]

    def __repr__(self) -> str:
        return f"RandomSource(seed={self._seed}, path={self._path!r})"


def spawn_sources(root: RandomSource, keys: Iterable[object]) -> List[RandomSource]:
    """Derive one substream per key, in key order."""
    return [root.substream(key) for key in keys]


def resolve_seed(seed: Optional[int], fallback: int = 0) -> int:
    """Normalise an optional user-supplied seed to a concrete integer."""
    if seed is None:
        return fallback
    return int(seed)
