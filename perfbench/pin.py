"""Pin cell fingerprints for a range of seeds into ``fingerprints.json``.

Run from the repository root after a change that is *meant* to alter a
trajectory (a performance change must leave every pin intact)::

    python3 perfbench/pin.py --shape full --seeds 0-31
    python3 perfbench/pin.py --shape tiny --seeds 0-3 --workload fig3-adapt

Existing pins for other seeds, shapes and workloads are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR.parent)]

from perfbench.cell import run_cell  # noqa: E402
from perfbench.run import PINNED  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=("full", "tiny"), default="full")
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    pinned = json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.exists() else {}
    shape = pinned.setdefault(args.shape, {})
    for name in args.workload or sorted(WORKLOADS):
        by_seed = shape.setdefault(name, {})
        for seed in parse_seeds(args.seeds):
            by_seed[str(seed)] = [
                run_cell(WORKLOADS[name], seed, rep, tiny=args.shape == "tiny")["fingerprint"]
                for rep in range(WORKLOADS[name].repetitions)
            ]
            print(name, seed, by_seed[str(seed)], flush=True)
        shape[name] = dict(sorted(by_seed.items(), key=lambda item: int(item[0])))
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
