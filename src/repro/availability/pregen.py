"""Bulk availability pregeneration: the cluster-build episode kernel.

``build_cluster`` with ``pregen_horizon`` set used to materialise every
per-host episode prefix one lazy generator at a time inside
``FailureInjector.attach_host`` — at 226k hosts that busy-period fold is
~97% of cluster build time. This module lifts the materialisation out of
the injector so it can be batched three ways:

* **Serial, bit-identical** (:func:`episode_prefix`): the same draws in
  the same order as the lazy path — the default.
* **Multi-process, bit-identical** (:func:`pregenerate_prefixes` with
  ``jobs > 1``): every host's stream is independently keyed by
  ``(seed, host name)``, so host chunks are embarrassingly parallel.
  Chunks fan out over a ``ProcessPoolExecutor`` (the
  ``experiments/parallel.py`` idiom) and results are reassembled **by
  chunk position**, never completion order, so parallel output is
  byte-identical to serial.
* **Numpy-vectorized, opt-in approximate** (``backend="numpy"``, or
  ``REPRO_AVAIL_BACKEND=numpy``): the busy-period fold becomes a
  Lindley-style vector recursion (:mod:`repro.availability.numpy_backend`).
  Draws come from numpy's PCG64, not CPython's Mersenne Twister, so
  realisations are *statistically* equivalent (same laws; KS-tested) but
  not byte-identical — the backend carries its own golden pins.

Seed derivation for the scalar path is bulk: the per-host ``"arrivals"`` /
``"service"`` substream seeds are derived with one incremental hash pass
(:func:`repro.util.rng.derive_seeds`) and fed back through
``RandomSource.from_derived``, which is bit-identical to the per-host
``substream`` chain the lazy path uses.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.availability.generator import HostAvailability
from repro.availability.process import DowntimeEpisode
from repro.util.rng import RandomSource, derive_seeds

#: Recognised pregeneration sampling backends.
AVAIL_BACKENDS = ("scalar", "numpy")

#: Environment override for the backend (mirrors ``REPRO_AUDIT``).
BACKEND_ENV = "REPRO_AVAIL_BACKEND"

#: Environment override for the pregeneration worker count.
JOBS_ENV = "REPRO_PREGEN_JOBS"

#: Floor on hosts per multi-process chunk, so pool/pickle overhead stays
#: amortised even when the population is small relative to the job count.
_MIN_CHUNK = 256


def resolve_backend(configured: str = "scalar") -> str:
    """Backend after the ``REPRO_AVAIL_BACKEND`` environment override."""
    backend = os.environ.get(BACKEND_ENV, "").strip().lower() or configured
    if backend not in AVAIL_BACKENDS:
        raise ValueError(
            f"{BACKEND_ENV} must be one of {AVAIL_BACKENDS}, got {backend!r}"
        )
    return backend


def resolve_jobs(configured: int = 1) -> int:
    """Worker count after the ``REPRO_PREGEN_JOBS`` environment override.

    A set override must be an integer >= 1, like ``ClusterConfig.pregen_jobs``.
    """
    raw = os.environ.get(JOBS_ENV, "").strip()
    if not raw:
        return max(int(configured), 1)
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"{JOBS_ENV} must be an integer >= 1, got {raw!r}")
    return jobs


def shift_episodes(
    episodes: Iterable[DowntimeEpisode], burn_in: float
) -> Iterator[DowntimeEpisode]:
    """Shift episodes ``burn_in`` seconds earlier, clipping at t=0.

    The stationary burn-in transform — identical to what the lazy
    injector path applies (``FailureInjector`` delegates here).
    """
    for episode in episodes:
        end = episode.end - burn_in
        if end <= 0.0:
            continue
        start = max(episode.start - burn_in, 0.0)
        yield DowntimeEpisode(
            start=start, end=end, interruption_count=episode.interruption_count
        )


def materialise_prefix(
    stream: Iterator[DowntimeEpisode], horizon: float
) -> List[DowntimeEpisode]:
    """Materialise the prefix of episodes starting before ``horizon``.

    The first episode at or past the horizon is kept too (it was pulled to
    detect the boundary, and keeping it preserves the engine's
    ``schedule_at`` sequence allocation exactly). The source stream is
    *closed* in all cases — boundary found, stream exhausted, or an empty
    prefix — so a suspended generator frame (per-host RNG substreams, loop
    locals) is freed immediately rather than retained until GC.
    """
    prefix: List[DowntimeEpisode] = []
    try:
        for episode in stream:
            prefix.append(episode)
            if episode.start >= horizon:
                break
    finally:
        close = getattr(stream, "close", None)
        if close is not None:
            close()
    return prefix


def episode_prefix(
    host: HostAvailability,
    rng: RandomSource,
    horizon: float,
    burn_in: float = 0.0,
) -> Optional[List[DowntimeEpisode]]:
    """One host's episode prefix, bit-identical to the lazy injector path.

    ``rng`` is the injector's stream root (the one ``attach_host`` derives
    ``substream("failures", host.host_id)`` from). Returns None for
    dedicated hosts — they have no interruption stream at all.
    """
    process = host.process(rng.substream("failures", host.host_id))
    if process is None:
        return None
    stream: Iterator[DowntimeEpisode] = process.episodes(float("inf"))
    if burn_in > 0.0:
        stream = shift_episodes(stream, burn_in)
    return materialise_prefix(stream, horizon)


@dataclass
class PregenResult:
    """Prefixes (parallel to the host list) plus phase timings."""

    #: Per host: the materialised prefix, or None for dedicated hosts.
    prefixes: List[Optional[List[DowntimeEpisode]]] = field(default_factory=list)
    #: Seconds spent bulk-deriving per-host stream seeds.
    seed_seconds: float = 0.0
    #: Seconds spent sampling/folding episodes (everything else).
    sample_seconds: float = 0.0
    #: The backend that actually ran ("scalar" or "numpy").
    backend: str = "scalar"
    #: Worker processes used (1 = in-process).
    jobs: int = 1


def _scalar_chunk(
    hosts: Sequence[HostAvailability],
    root_seed: int,
    rng_path: Tuple[object, ...],
    horizon: float,
    burn_in: float,
) -> Tuple[List[Optional[List[DowntimeEpisode]]], float]:
    """Scalar prefixes for a host chunk; returns (prefixes, seed_seconds).

    Per-host ``"arrivals"`` / ``"service"`` substream seeds are derived in
    one incremental hash pass and turned into streams via
    ``RandomSource.from_derived`` — bit-identical to the per-host
    ``substream`` chain of :func:`episode_prefix` / the lazy injector.
    """
    t0 = perf_counter()  # simlint: ignore[D002]
    names = [host.host_id for host in hosts]
    clock_seeds = derive_seeds(
        root_seed, (*rng_path, "failures"), ((name, "arrivals") for name in names)
    )
    svc_seeds = derive_seeds(
        root_seed, (*rng_path, "failures"), ((name, "service") for name in names)
    )
    seed_seconds = perf_counter() - t0  # simlint: ignore[D002]

    prefixes: List[Optional[List[DowntimeEpisode]]] = []
    inf = float("inf")
    for host, clock_seed, svc_seed in zip(hosts, clock_seeds, svc_seeds, strict=True):
        if host.arrival is None or host.service is None:
            prefixes.append(None)
            continue
        base_path = (*rng_path, "failures", host.host_id)
        process = host.process(RandomSource(root_seed, base_path))
        assert process is not None
        clock = RandomSource.from_derived(
            clock_seed, root_seed, (*base_path, "arrivals")
        )
        svc_rng = RandomSource.from_derived(
            svc_seed, root_seed, (*base_path, "service")
        )
        stream: Iterator[DowntimeEpisode] = process.episodes(
            inf, clock=clock, svc_rng=svc_rng
        )
        if burn_in > 0.0:
            stream = shift_episodes(stream, burn_in)
        prefixes.append(materialise_prefix(stream, horizon))
    return prefixes, seed_seconds


def _numpy_chunk(
    hosts: Sequence[HostAvailability],
    root_seed: int,
    rng_path: Tuple[object, ...],
    horizon: float,
    burn_in: float,
) -> Tuple[List[Optional[List[DowntimeEpisode]]], float]:
    """Numpy-backend prefixes for a host chunk (scalar fallback per host
    when a distribution pair is outside the vectorized family)."""
    from repro.availability import numpy_backend

    t0 = perf_counter()  # simlint: ignore[D002]
    names = [host.host_id for host in hosts]
    np_seeds = derive_seeds(
        root_seed, (*rng_path, "failures"), ((name, "numpy") for name in names)
    )
    seed_seconds = perf_counter() - t0  # simlint: ignore[D002]

    prefixes: List[Optional[List[DowntimeEpisode]]] = []
    for host, np_seed in zip(hosts, np_seeds, strict=True):
        if host.arrival is None or host.service is None:
            prefixes.append(None)
            continue
        prefix = numpy_backend.episode_prefix_numpy(
            host.arrival, host.service, np_seed, horizon, burn_in=burn_in
        )
        if prefix is None:
            # Distribution pair not vectorized: exact scalar path instead.
            prefix = episode_prefix(
                host, RandomSource(root_seed, rng_path), horizon, burn_in
            )
        prefixes.append(prefix)
    return prefixes, seed_seconds


def _pregen_chunk(
    args: Tuple[
        str,
        List[HostAvailability],
        int,
        Tuple[object, ...],
        float,
        float,
    ],
) -> Tuple[List[Optional[List[DowntimeEpisode]]], float]:
    """Picklable worker entry point: one (backend, host-chunk) unit."""
    backend, hosts, root_seed, rng_path, horizon, burn_in = args
    if backend == "numpy":
        return _numpy_chunk(hosts, root_seed, rng_path, horizon, burn_in)
    return _scalar_chunk(hosts, root_seed, rng_path, horizon, burn_in)


def pregenerate_prefixes(
    hosts: Sequence[HostAvailability],
    rng: RandomSource,
    horizon: float,
    burn_in: float = 0.0,
    jobs: int = 1,
    backend: str = "scalar",
) -> PregenResult:
    """Materialise every host's episode prefix for ``horizon``.

    The result list parallels ``hosts`` (None for dedicated hosts) and —
    with the default scalar backend — is bit-identical to calling
    :func:`episode_prefix` per host, for any ``jobs``: chunking is by
    position and every stream is independently keyed, so no ordering or
    state can leak between chunks. The numpy backend is deterministic
    (keyed by the same seed tree, "numpy" leaf) but draws from PCG64,
    so it is statistically — not byte — equivalent.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be non-negative, got {burn_in}")
    if backend not in AVAIL_BACKENDS:
        raise ValueError(f"backend must be one of {AVAIL_BACKENDS}, got {backend!r}")
    jobs = max(int(jobs), 1)
    result = PregenResult(backend=backend, jobs=jobs)
    if not hosts:
        return result

    t0 = perf_counter()  # simlint: ignore[D002]
    root_seed = rng.seed
    rng_path = rng.path
    if jobs == 1 or len(hosts) <= _MIN_CHUNK:
        prefixes, seed_seconds = _pregen_chunk(
            (backend, list(hosts), root_seed, rng_path, horizon, burn_in)
        )
        result.prefixes = prefixes
        result.seed_seconds = seed_seconds
        result.jobs = 1
    else:
        from concurrent.futures import ProcessPoolExecutor

        chunk_size = max((len(hosts) + jobs - 1) // jobs, _MIN_CHUNK)
        chunks = [
            list(hosts[i : i + chunk_size]) for i in range(0, len(hosts), chunk_size)
        ]
        workers = min(jobs, len(chunks))
        specs = [
            (backend, chunk, root_seed, rng_path, horizon, burn_in)
            for chunk in chunks
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Reassembled by chunk position (map preserves input order),
            # never completion order — parallel == serial, byte for byte.
            outputs = list(pool.map(_pregen_chunk, specs))
        seed_seconds = 0.0
        for prefixes, chunk_seed_seconds in outputs:
            result.prefixes.extend(prefixes)
            seed_seconds += chunk_seed_seconds
        result.seed_seconds = seed_seconds
    result.sample_seconds = max(perf_counter() - t0 - result.seed_seconds, 0.0)  # simlint: ignore[D002]
    return result


__all__ = [
    "AVAIL_BACKENDS",
    "BACKEND_ENV",
    "JOBS_ENV",
    "PregenResult",
    "episode_prefix",
    "materialise_prefix",
    "pregenerate_prefixes",
    "resolve_backend",
    "resolve_jobs",
    "shift_episodes",
]
