"""Workload sizes and seed derivation shared by the set-up and measuring steps.

Stdlib only: ``run.py`` imports this module before any process has loaded
``dfa_meet``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

BENCHMARK_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

WORKLOADS = ("meet-fresh", "coalesce-sync-fresh", "exact-pair")
MC_WORKLOADS = ("meet-fresh", "coalesce-sync-fresh")

# Per-workload sizes. "full" is what the benchmark measures; "tiny" is the
# smoke size used by smoke.py, small enough to finish in seconds.
SIZES = {
    "full": {
        "meet-fresh": {
            "recipes": ["fig1-independent", "fig1-coupled"],
            "n": 1000, "r_values": [2, 20], "trials": 240,
        },
        "coalesce-sync-fresh": {
            "recipes": ["fig2-coalescing", "fig2-sync"],
            "n": 1000, "r_values": [2], "trials": 150, "kingman_size": 10_000,
        },
        "exact-pair": {
            "fvtl_n": 1000, "fvtl_r": [2, 20],
            "mixing_n": 1000, "mixing_r": 2, "t_cap": 100,
            "events_n": 150, "events_r": 2, "eps": 0.15,
            "suite_chains": 50,
        },
    },
    "tiny": {
        "meet-fresh": {
            "recipes": ["fig1-independent", "fig1-coupled"],
            "n": 60, "r_values": [2, 20], "trials": 40,
        },
        "coalesce-sync-fresh": {
            "recipes": ["fig2-coalescing", "fig2-sync"],
            "n": 60, "r_values": [2], "trials": 40, "kingman_size": 2000,
        },
        "exact-pair": {
            "fvtl_n": 60, "fvtl_r": [2, 20],
            "mixing_n": 60, "mixing_r": 2, "t_cap": 40,
            "events_n": 30, "events_r": 2, "eps": 0.15,
            "suite_chains": 4,
        },
    },
}

RECIPE_MODES = {
    "fig1-independent": "independent",
    "fig1-coupled": "coupled",
    "fig2-coalescing": "coalescing",
    "fig2-sync": "sync",
}


def derive_seed(seed: int, *tags) -> int:
    """A 63-bit input seed for ``(workload seed, tags)``.

    Derived here rather than with ``dfa_meet.seed_split`` so that the
    benchmark's inputs do not depend on the code under measurement.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(b"perfbench/v1")
    for part in (seed, *tags):
        h.update(b"/" + str(part).encode("utf-8"))
    return int.from_bytes(h.digest(), "little") >> 1


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in file order.

    ``BENCHMARK.json`` is the one list of metric names and units; the
    measuring step reports exactly these.
    """
    spec = json.loads(BENCHMARK_PATH.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}
