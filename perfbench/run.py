"""Benchmark entry point: one paper cell, repeated in fresh processes.

Run from the repository root::

    python3 perfbench/run.py --workload fig5-adapt --seed 0 --seconds 20 --trace 0

The run repeats the cell, one fresh subprocess at a time, in whole
cycles (at least two) until ``--seconds`` have passed. With ``--trace 0``
a cycle runs every repetition of the cell once, and the run reports each
end-to-end metric as the median over cycles of the cycle's figure, with
times in reference seconds (see perfbench/speed.py). With ``--trace 1`` the run
first makes one untimed pass of repetition 0 under the strict invariant
auditor; then each cycle runs repetition 0 untraced, traced and
profiled, and the run reports the per-layer metrics.
Every cell's fingerprint is checked (see README.md). A JSON record of the
run, with the machine and the effective engine path, goes to
``perfbench/out/``; the last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PINNED = BENCH_DIR / "fingerprints.json"

#: Environment overrides that move the program off its default exact
#: path or route cells through the sweep executor / run cache.
GUARDED_ENV = (
    "REPRO_AVAIL_BACKEND",
    "REPRO_EVENT_QUEUE",
    "REPRO_PREGEN_JOBS",
    "REPRO_AUDIT",
    "REPRO_JOBS",
    "REPRO_CACHE_DIR",
)

#: Stop starting cells once this much wall time has passed (the whole
#: run must end within 180 s).
HARD_LIMIT_S = 165.0

#: End-to-end metrics, medians over a run's cells. Times are in reference
#: seconds (wall seconds rescaled to a fixed interpreter speed, see
#: perfbench/speed.py), so that the host's drifting CPU speed does not
#: show as a change of the program.
END_TO_END = {
    "cell_ref_s": "s",
    "setup_s": "s",
    "events_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
}

SPANS = (
    "availability.population_s",
    "availability.sample_s",
    "runtime.build_s",
    "hdfs.ingest_s",
    "core.plan_s",
    "runtime.run_s",
    "runtime.stop_s",
)
COUNTERS = {
    "core.table_builds": "count",
    "core.blocks_placed": "count",
    "hdfs.replicas_written": "count",
    "availability.episodes": "count",
    "availability.folded_interruptions": "count",
    "availability.episodes_used_ratio": "ratio",
    "simulator.events": "count",
    "simulator.peak_pending": "count",
    "simulator.network.transfers": "count",
    "simulator.network.cancels": "count",
    "mapreduce.attempts": "count",
    "mapreduce.speculative_attempts": "count",
    "mapreduce.useful_ratio": "ratio",
}
#: Bus event types these workloads publish; any other type (chaos, link,
#: durability events) is counted under ``simulator.published.other``.
EVENT_TYPES = (
    "NodeDeclaredDead",
    "NodeDown",
    "NodeReturned",
    "NodeUp",
    "TaskStateChange",
    "other",
)
#: ``src/repro`` modules a cell executes; self time of any other module
#: (or of no module) is ``self_s.other``, the benchmark's own code
#: (including the probe wrappers) is ``self_s.bench``.
MODULES = (
    "availability.distributions",
    "availability.estimators",
    "availability.generator",
    "availability.pregen",
    "availability.process",
    "availability.seti",
    "core.hashtable",
    "core.ids",
    "core.model",
    "core.placement",
    "core.predictor",
    "experiments.config",
    "hdfs.blocks",
    "hdfs.client",
    "hdfs.datanode",
    "hdfs.heartbeat",
    "hdfs.namenode",
    "mapreduce.job",
    "mapreduce.jobtracker",
    "mapreduce.scheduler",
    "mapreduce.speculation",
    "mapreduce.tasktracker",
    "runtime.cluster",
    "runtime.services",
    "simulator.engine",
    "simulator.events",
    "simulator.failures",
    "simulator.metrics",
    "simulator.network",
    "simulator.topology",
    "util.rng",
    "util.validation",
    "workloads.base",
    "workloads.terasort",
    "bench",
    "other",
)
TRACE = {
    "trace.cell_ref_s": "s",
    "trace.overhead_ref_s": "s",
    "trace.profiled_cell_s": "s",
    "trace.speed_scale": "ratio",
    "trace.traced_cells": "count",
    "trace.profiled_cells": "count",
}
#: Fingerprint fields the strict-audit pass must reproduce: the auditor
#: schedules its own periodic checks, so its event count differs.
AUDITED_FIELDS = ["attempts", "interruptions", "locality", "makespan"]
#: Whole cycles every run makes, so that each repetition of an unpinned
#: seed has repeats to agree with, and the traced medians are not single shots.
MIN_CYCLES = 2


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a ``--trace 1`` run prints, with its unit."""
    units = {name: "s" for name in SPANS}
    units.update(COUNTERS)
    units.update({f"simulator.published.{name}": "count" for name in EVENT_TYPES})
    units.update({f"self_s.{name}": "s" for name in MODULES})
    units.update(TRACE)
    return units


# -- run context ------------------------------------------------------------------


def source_digest() -> str:
    """sha256 over the package sources: the code measured, with or without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def machine_info() -> Dict[str, Any]:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
    }


# -- cells ------------------------------------------------------------------------


def spawn_cell(
    workload: str, seed: int, rep: int, mode: str, tiny: bool, timeout: float
) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """Run one cell in a fresh interpreter; (record, None) or (None, error)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    # One hash layout for every cell: results never depend on it, and a
    # per-process random layout only adds run-to-run noise.
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable,
        "-m",
        "perfbench.cell",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--rep",
        str(rep),
        "--mode",
        mode,
    ]
    if tiny:
        command.append("--tiny")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, f"{mode} cell exceeded {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    if proc.returncode != 0 or not isinstance(record, dict) or "error" in record:
        detail = record.get("error") if isinstance(record, dict) else None
        return None, detail or proc.stderr[-2000:] or f"exit code {proc.returncode}"
    return record, None


def fingerprint_key(fingerprint: Dict[str, Any], fields: Optional[List[str]] = None) -> str:
    chosen = fingerprint if fields is None else {k: fingerprint[k] for k in fields}
    return json.dumps(chosen, sort_keys=True)


def load_pinned(shape: str, workload: str, seed: int) -> Optional[List[Dict[str, Any]]]:
    """Pinned fingerprints of a seed's repetitions, or None if unpinned."""
    if not PINNED.exists():
        return None
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    return pinned.get(shape, {}).get(workload, {}).get(str(seed))


# -- the run ----------------------------------------------------------------------


def measure(args: argparse.Namespace) -> Tuple[Dict[str, Any], List[str]]:
    """Audit pass (traced runs) plus the timed loop; returns the run record
    and errors."""
    from perfbench.workloads import WORKLOADS

    started = time.perf_counter()
    errors: List[str] = []
    shape = "tiny" if args.tiny else "full"

    def remaining() -> float:
        return max(HARD_LIMIT_S - (time.perf_counter() - started), 1.0)

    attempted = 0
    failed = 0
    audit = None
    if args.trace:
        attempted += 1
        audit, error = spawn_cell(args.workload, args.seed, 0, "audit", args.tiny, remaining())
        if error:
            failed += 1
            errors.append(f"strict-audit pass failed: {error}")

    # Whole cycles over the repetitions, so every repetition weighs the
    # same in the medians; a traced run stays on repetition 0. The budget
    # starts after the audit pass.
    reps = [0] if args.trace else list(range(WORKLOADS[args.workload].repetitions))
    modes = ["plain", "traced", "profiled"] if args.trace else ["plain"]
    cells: List[Dict[str, Any]] = []
    cycles = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        cycle_start = time.perf_counter()
        for rep in reps:
            for mode in modes:
                attempted += 1
                record, error = spawn_cell(
                    args.workload, args.seed, rep, mode, args.tiny, remaining()
                )
                if error:
                    failed += 1
                    errors.append(f"{mode} cell (repetition {rep}) failed: {error}")
                else:
                    record.update(mode=mode, rep=rep, cycle=cycles)
                    cells.append(record)
        cycles += 1
        # Stop at the cycle boundary nearest the deadline.
        now = time.perf_counter()
        half_cycle = (now - cycle_start) / 2
        if now - started >= HARD_LIMIT_S or failed > len(cells):
            break
        if cycles >= MIN_CYCLES and now + half_cycle >= deadline:
            break

    # Fingerprint gate: pinned values for pinned seeds; otherwise every
    # repeat of a repetition must agree, which takes at least two cells.
    pinned = load_pinned(shape, args.workload, args.seed)
    expected: Dict[int, Optional[str]] = {}
    good = []
    for rep in reps:
        keys = [fingerprint_key(c["fingerprint"]) for c in cells if c["rep"] == rep]
        if pinned is not None:
            expected[rep] = fingerprint_key(pinned[rep])
        elif len(keys) >= 2:
            expected[rep] = max(set(keys), key=keys.count)
        else:
            expected[rep] = None
            errors.append(
                f"repetition {rep}: {len(keys)} cell(s) of an unpinned seed, "
                "fingerprint gate not checked"
            )
    for cell in cells:
        key = fingerprint_key(cell["fingerprint"])
        if key == expected[cell["rep"]]:
            good.append(cell)
        elif expected[cell["rep"]] is not None:
            failed += 1
            errors.append(
                f"{cell['mode']} cell (repetition {cell['rep']}) fingerprint {key} "
                f"!= {expected[cell['rep']]}"
            )
    if audit is not None and expected[0] is not None:
        if fingerprint_key(audit["fingerprint"], AUDITED_FIELDS) != fingerprint_key(
            json.loads(expected[0]), AUDITED_FIELDS
        ):
            failed += 1
            errors.append(f"strict-audit fingerprint {audit['fingerprint']} differs")

    run = {
        "workload": args.workload,
        "seed": args.seed,
        "shape": shape,
        "seconds": args.seconds,
        "trace": args.trace,
        "gate": "pinned" if pinned is not None else "repeats agree",
        "audit_pass": args.trace == 1,
        "cycles": cycles,
        "attempted": attempted,
        "failed": failed,
        "cell_error_rate": failed / attempted,
        "fingerprints": {rep: json.loads(key) if key else None for rep, key in expected.items()},
        "cells": good,
        "wall_s": time.perf_counter() - started,
    }
    return run, errors


def reference(cell: Dict[str, Any]) -> Dict[str, float]:
    """A cell's end-to-end figures, times rescaled to reference seconds."""
    scale = cell["speed_scale"]
    return {
        "cell_ref_s": cell["cell_s"] * scale["cell"],
        "setup_s": cell["setup_s"] * scale["setup"],
        "events_per_ref_s": cell["events_per_s"] / scale["run"],
        "peak_rss_mb": cell["peak_rss_mb"],
    }


def cycle_figures(cells: List[Dict[str, Any]]) -> Dict[str, float]:
    """One cycle's end-to-end figures: a cycle runs every repetition once,
    so it weighs each of them the same."""
    figures = [reference(c) for c in cells]
    events = [c["fingerprint"]["events"] for c in cells]
    return {
        "cell_ref_s": mean(f["cell_ref_s"] for f in figures),
        "setup_s": mean(f["setup_s"] for f in figures),
        # The cycle's events over its run loops' reference seconds.
        "events_per_ref_s": sum(events)
        / sum(n / f["events_per_ref_s"] for n, f in zip(events, figures)),
        "peak_rss_mb": max(f["peak_rss_mb"] for f in figures),
    }


def end_to_end(cells: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Medians over the run's cycles of each cycle's figures."""
    cycles: Dict[int, List[Dict[str, Any]]] = {}
    for cell in cells:
        cycles.setdefault(cell["cycle"], []).append(cell)
    figures = [cycle_figures(group) for group in cycles.values()]
    return {
        name: {"value": median([f[name] for f in figures]), "unit": unit}
        for name, unit in END_TO_END.items()
    }


def per_layer(
    plain: List[Dict[str, Any]],
    traced: List[Dict[str, Any]],
    profiled: List[Dict[str, Any]],
    errors: List[str],
) -> Dict[str, Dict[str, Any]]:
    units = per_layer_units()
    values: Dict[str, float] = {
        name: 0 if unit == "count" else 0.0 for name, unit in units.items()
    }
    counter_keys = {json.dumps(c["counters"], sort_keys=True) for c in traced + profiled}
    if len(counter_keys) > 1:
        errors.append("traced cells disagree on their deterministic counters")
    if traced:
        for name, count in traced[0]["counters"].items():
            if name.startswith("simulator.published."):
                name = name if name in units else "simulator.published.other"
                values[name] += count
            elif name in units:
                values[name] = count
    for name in SPANS:
        values[name] = median([c["spans"].get(name, 0.0) for c in traced])
    folded = []
    for cell in profiled:
        by_name: Dict[str, float] = {}
        for module, seconds in cell["self_s"].items():
            name = f"self_s.{module}" if f"self_s.{module}" in units else "self_s.other"
            by_name[name] = by_name.get(name, 0.0) + seconds
        folded.append(by_name)
    for name in units:
        if name.startswith("self_s."):
            values[name] = median([f.get(name, 0.0) for f in folded])
    traced_cell = median([reference(c)["cell_ref_s"] for c in traced])
    values["trace.cell_ref_s"] = traced_cell
    values["trace.overhead_ref_s"] = traced_cell - median(
        [reference(c)["cell_ref_s"] for c in plain]
    )
    values["trace.profiled_cell_s"] = median([c["cell_s"] for c in profiled])
    values["trace.speed_scale"] = median([c["speed_scale"]["cell"] for c in plain])
    values["trace.traced_cells"] = len(traced)
    values["trace.profiled_cells"] = len(profiled)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="test-sized shapes (not for measurement)"
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps
    # the running cell before this process exits.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    overridden = [name for name in GUARDED_ENV if os.environ.get(name)]
    if overridden:
        print(
            "error: the benchmark measures the default path; unset "
            + ", ".join(overridden),
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    run, errors = measure(args)
    cells = run.pop("cells")
    plain = [c for c in cells if c["mode"] == "plain"]
    traced = [c for c in cells if c["mode"] == "traced"]
    profiled = [c for c in cells if c["mode"] == "profiled"]
    if not plain or (args.trace and not (traced and profiled)):
        for error in errors:
            print(error, file=sys.stderr)
        print("error: no cell completed", file=sys.stderr)
        return 1
    metrics = per_layer(plain, traced, profiled, errors) if args.trace else end_to_end(plain)

    run["machine"] = machine_info()
    run["path"] = plain[0]["path"]
    run["errors"] = errors
    run["plain"] = [
        {**reference(c), "wall": {k: c[k] for k in ("cell_s", "setup_s", "events_per_s")},
         "speed_scale": c["speed_scale"], "spans": c["spans"]}
        for c in plain
    ]
    if traced:
        # The profile: deterministic counters apart from wall-clock spans.
        run["profile"] = {
            "counters": {
                k: m["value"]
                for k, m in metrics.items()
                if m["unit"] != "s" and k not in TRACE
            },
            "spans": {k: m["value"] for k, m in metrics.items() if m["unit"] == "s"},
            "traced_cells": len(traced),
            "profiled_cells": len(profiled),
        }
    run["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(run, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for error in errors:
        print(error, file=sys.stderr)
    print(
        f"workload={args.workload} seed={args.seed} "
        f"cells={len(plain)}+{len(traced)}+{len(profiled)} "
        f"failed={run['failed']}/{run['attempted']} record={out.relative_to(ROOT)}"
    )
    print("machine " + json.dumps(run["machine"], sort_keys=True))
    print("path " + json.dumps(run["path"], sort_keys=True))
    result = {
        "correct": not errors,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
