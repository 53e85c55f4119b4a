"""Set-up step: import dfa_meet and write one workload's inputs from its seed.

    python3 perfbench/inputs.py --workload exact-pair --size full --seed 1 --out DIR

Writes ``spec.json`` (every parameter the measuring step needs) and, for
``exact-pair``, the DFA JSON files, then prints one JSON line with a digest
of everything written. ``run.py`` times whole runs of this script, so the
set-up time includes interpreter start and the ``dfa_meet`` import.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import params


def _mc_spec(cfg: dict, seed: int, workload: str) -> dict:
    recipes = []
    for name in cfg["recipes"]:
        overrides = {
            "seed": params.derive_seed(seed, workload, name),
            "n": cfg["n"],
            "trials": cfg["trials"],
            "r_values": cfg["r_values"],
        }
        if "kingman_size" in cfg:
            overrides["kingman_size"] = cfg["kingman_size"]
        recipes.append({"name": name, "overrides": overrides})
    return {"recipes": recipes, "resamples": 0}


def _exact_inputs(cfg: dict, seed: int, out: Path) -> dict:
    from dfa_meet import ergodic_walk_chain, serialize_dfa

    dfas = {f"fvtl-r{r}": (cfg["fvtl_n"], r) for r in cfg["fvtl_r"]}
    dfas["mixing"] = (cfg["mixing_n"], cfg["mixing_r"])
    dfas["events"] = (cfg["events_n"], cfg["events_r"])
    resamples = {}
    for name, (n, r) in dfas.items():
        d, _, k = ergodic_walk_chain(n, r, params.derive_seed(seed, "exact-pair", name))
        (out / f"{name}.json").write_text(serialize_dfa(d) + "\n", encoding="utf-8")
        resamples[name] = k
    return {
        "dfas": {name: {"file": f"{name}.json", "n": n, "r": r} for name, (n, r) in dfas.items()},
        "t_cap": cfg["t_cap"],
        "eps": cfg["eps"],
        # The suite keeps its recipe's default seed: its random chains' sizes
        # and convergence rates would otherwise move the pass time by up to
        # a third from one seed to the next.
        "suite": {"chains": cfg["suite_chains"]},
        "resamples": sum(resamples.values()),
        "resamples_by_dfa": resamples,
    }


def write_inputs(workload: str, size: str, seed: int, out: Path) -> dict:
    """Write the inputs into ``out``; return the spec."""
    import dfa_meet  # noqa: F401  (the import is part of what set-up times)

    cfg = params.SIZES[size][workload]
    out.mkdir(parents=True, exist_ok=True)
    if workload in params.MC_WORKLOADS:
        spec = _mc_spec(cfg, seed, workload)
    else:
        spec = _exact_inputs(cfg, seed, out)
    spec.update({"workload": workload, "size": size, "seed": seed})
    (out / "spec.json").write_text(json.dumps(spec, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    return spec


def inputs_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.glob("*.json")):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=params.WORKLOADS, required=True)
    parser.add_argument("--size", choices=sorted(params.SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = write_inputs(args.workload, args.size, args.seed, args.out)
    print(json.dumps({"digest": inputs_digest(args.out), "resamples": spec["resamples"]}))


if __name__ == "__main__":
    main()
