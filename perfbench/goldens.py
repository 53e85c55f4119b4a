"""Golden outputs per (size, workload, seed, job), and the rule that compares them.

A job's outputs have up to four groups, each checked its own way:

* ``digests``: SHA-256 of trial CSVs and verify JSON; equal bytes or fail.
* ``ints``: horizons, verdicts, mixing times, exit codes; exactly equal.
* ``floats``: exact-side values (pi_tilde(Delta), R, Z(Delta,Delta), ...);
  equal within relative tolerance ``FLOAT_RTOL``.
* ``devs``: values that are rounding noise near zero: the fvtl-suite
  deviations from exact identities (near 1e-12) and the event check's TV
  distance after S steps. They are compared with absolute tolerance
  ``DEV_ATOL``, a hundredth of the suite's own 1e-8 bound.

Regenerate the stored goldens (one untimed pass per seed) with

    OMP_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/goldens.py --size full --seeds 0-31

from the repository root. Do so only when the benchmark's inputs change,
never to make a changed program pass.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

GOLDENS_PATH = Path(__file__).with_name("goldens.json")
FLOAT_RTOL = 1e-9
DEV_ATOL = 1e-10


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def lookup(table: dict, size: str, workload: str, seed: int) -> dict | None:
    return table.get(size, {}).get(workload, {}).get(str(seed))


def compare(expected: dict, got: dict) -> list[str]:
    """Mismatches between two job outputs, one line each; empty when equal."""
    problems = []
    for group in ("digests", "ints", "floats", "devs"):
        want, have = expected.get(group, {}), got.get(group, {})
        for key in sorted(set(want) | set(have)):
            if key not in want or key not in have:
                problems.append(f"{group}.{key}: present on one side only")
                continue
            a, b = have[key], want[key]
            if group in ("digests", "ints"):
                ok = a == b
            elif group == "floats":
                ok = math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=0.0)
            else:
                ok = abs(a - b) <= DEV_ATOL
            if not ok:
                problems.append(f"{group}.{key}: got {a!r}, expected {b!r}")
    return problems


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> None:
    import os

    import measure
    import params

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=sorted(params.SIZES), default="full")
    parser.add_argument("--seeds", default="0-31", help="e.g. '0-31' or '1,5,9'")
    parser.add_argument("--out", type=Path, default=GOLDENS_PATH)
    args = parser.parse_args()
    out = args.out.resolve()
    root = Path.cwd()
    table = load(out)
    for workload in params.WORKLOADS:
        for seed in _parse_seeds(args.seeds):
            outputs = measure.single_pass(workload, args.size, seed, root)
            table.setdefault(args.size, {}).setdefault(workload, {})[str(seed)] = outputs
            os.chdir(root)
            out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"{args.size} {workload} seed {seed}: {len(outputs)} jobs", flush=True)


if __name__ == "__main__":
    main()
