"""Command-line interface: gen, exact, fvtl, simulate, verify, recipe."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import aux_chain, recipes, stats
from .chains import (
    ConvergenceError,
    MultipleRecurrentClassesError,
    mixing_profile,
    stationary_distribution,
    walk_matrix,
)
from .dfa import generate_dfa, parse_dfa, serialize_dfa
from .simulate import (
    MODES,
    RunManifest,
    read_records_csv,
    resolve_workers,
    run_experiment,
    sample_kingman_reference,
    write_records_csv,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dfa-meet")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a uniform random DFA")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--r", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", type=Path, required=True)

    p_exact = sub.add_parser("exact", help="stationary law and mixing profile of a DFA walk")
    p_exact.add_argument("--dfa", type=Path, required=True)
    p_exact.add_argument("--t-cap", type=int, default=100)
    p_exact.add_argument("--out", type=Path, default=None)

    p_fvtl = sub.add_parser("fvtl", help="auxiliary-chain first-visit report and events")
    p_fvtl.add_argument("--dfa", type=Path, required=True)
    p_fvtl.add_argument("--T", default="auto", help="return-mass horizon: 'auto' or an integer")
    p_fvtl.add_argument("--eps", type=float, default=0.15)
    p_fvtl.add_argument("--events-T", default=None, type=int,
                        help="horizon for the return-mass event (default ceil(log^5 n))")
    p_fvtl.add_argument("--events-S", default=None, type=int,
                        help="horizon for the mixing event (default ceil(log^3 n))")
    p_fvtl.add_argument("--skip-events", action="store_true")
    p_fvtl.add_argument("--quasi", action="store_true",
                        help="also compute the quasi-stationary pair (iterative)")
    p_fvtl.add_argument("--out", type=Path, default=None)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p_sim.add_argument("--mode", required=True, choices=MODES)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--r", type=int, required=True)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--cap", type=int, default=None)
    p_sim.add_argument("--fixed-dfa", type=Path, default=None)
    p_sim.add_argument("--starts", default=None, help="fixed start pair 'x,y'")
    p_sim.add_argument("--threads", type=int, default=None)
    p_sim.add_argument("--out", type=Path, required=True)

    p_verify = sub.add_parser("verify", help="compare results against a reference law")
    p_verify.add_argument("--results", type=Path, required=True)
    p_verify.add_argument("--against", required=True,
                          help="geom:auto | geom:<rate> | exp:<mean> | kingman")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="seed for the Kingman reference sample")
    p_verify.add_argument("--report", type=Path, required=True)

    p_recipe = sub.add_parser("recipe", help="run a named end-to-end recipe")
    p_recipe.add_argument("name", choices=list(recipes.RECIPE_NAMES))
    p_recipe.add_argument("--out-dir", type=Path, default=None)
    p_recipe.add_argument("--seed", type=int, default=None)
    p_recipe.add_argument("--n", type=int, default=None)
    p_recipe.add_argument("--trials", type=int, default=None)
    p_recipe.add_argument("--r-values", default=None, help="comma-separated, e.g. '2,20'")
    p_recipe.add_argument("--eps", type=float, default=None)
    p_recipe.add_argument("--threads", type=int, default=None)

    return parser


def _flag_value(text: str, parse, flag: str, expected: str):
    """``parse(text)``, or a ``ValueError`` naming the flag and what it expects."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{flag} must be {expected}, got {text!r}") from None


def _integers(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _cmd_gen(args) -> int:
    d = generate_dfa(args.n, args.r, args.seed)
    args.out.write_text(serialize_dfa(d) + "\n", encoding="utf-8")
    return 0


def _cmd_exact(args) -> int:
    d = parse_dfa(args.dfa.read_text(encoding="utf-8"))
    chain = walk_matrix(d)
    pi = stationary_distribution(chain)
    profile = mixing_profile(chain, t_cap=args.t_cap)
    recipes.write_json({
        "n": d.n,
        "r": d.r,
        "pi": pi.tolist(),
        "pi_min": float(pi[pi > 0].min()),
        "pi_max": float(pi.max()),
        "t_mix": profile.t_mix,
        "mixed_by_cap": profile.mixed,
        "d_tv_series": profile.d_tv.tolist(),
    }, args.out)
    return 0


def _cmd_fvtl(args) -> int:
    t_horizon = None if args.T == "auto" else _flag_value(args.T, int, "--T", "'auto' or an integer")
    d = parse_dfa(args.dfa.read_text(encoding="utf-8"))
    aux = aux_chain.build_aux_chain(walk_matrix(d))
    # events first, so that check_events rejects a bad --eps before the report runs
    events = None if args.skip_events else aux_chain.check_events(
        aux, eps=args.eps, t_horizon=args.events_T, s_horizon=args.events_S
    )
    report = aux_chain.aux_fvtl_report(
        aux, t_horizon=t_horizon, compute_quasi_stationary=args.quasi
    )
    payload = {"n": d.n, "r": d.r, "n_predicted_lambda": d.n * report.predicted_lambda,
               **report.as_dict()}
    if events is not None:
        payload["events"] = events.as_dict()
    recipes.write_json(payload, args.out)
    return 0


def _cmd_simulate(args) -> int:
    starts = "uniform" if args.starts is None else _flag_value(
        args.starts, _integers, "--starts", "two integers 'x,y'")
    manifest = RunManifest(
        master_seed=args.seed,
        mode=args.mode,
        n=args.n,
        r=args.r,
        trials=args.trials,
        cap=args.cap,
        dfa_policy="fixed" if args.fixed_dfa else "fresh",
        dfa_path=str(args.fixed_dfa) if args.fixed_dfa else None,
        starts=starts,
    )
    records = run_experiment(manifest, workers=args.threads)
    write_records_csv(records, args.out)
    censored = sum(rec.censored for rec in records)
    print(f"wrote {len(records)} records to {args.out} ({censored} censored)", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    records = read_records_csv(args.results)
    taus = np.array([rec.tau for rec in records if not rec.censored], dtype=float)
    if not taus.size:
        raise ValueError(f"no uncensored records to verify in {args.results}")
    n = records[0].n
    censored = sum(rec.censored for rec in records)
    ref = args.against
    if ref.startswith("geom:"):
        arg = ref.split(":", 1)[1]
        dist = stats.EmpiricalDist.from_samples(taus)
        lam = 1.0 / (1.0 + float(taus.mean())) if arg == "auto" else _flag_value(
            arg, float, "--against geom:<rate>", "a number")
        fit = stats.geometric_tail_fit(dist, lam)
    elif ref.startswith("exp:"):
        mean = _flag_value(ref.split(":", 1)[1], float, "--against exp:<mean>", "a number")
        dist = stats.EmpiricalDist.from_samples(taus / n)
        fit = stats.exponential_fit(dist, mean)
    elif ref == "kingman":
        dist = stats.EmpiricalDist.from_samples(taus / n)
        sample = sample_kingman_reference(n, args.seed, size=recipes.KINGMAN_REFERENCE_SIZE)
        fit = stats.sample_fit(dist, sample, "kingman", {"n": n, "seed": args.seed})
    else:
        raise ValueError(f"unknown reference {ref!r}")
    recipes.write_json({"results": str(args.results), "against": args.against,
                        "count": dist.count, "censored_count": censored, **fit.as_dict()},
                       args.report)
    return 0


def _cmd_recipe(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.n is not None:
        overrides["n"] = args.n
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.r_values is not None:
        overrides["r_values"] = _flag_value(
            args.r_values, _integers, "--r-values", "comma-separated integers")
    if args.eps is not None:
        overrides["eps"] = args.eps
    out_dir = args.out_dir if args.out_dir is not None else Path("recipe-out") / args.name
    rec = recipes.Recipe(name=args.name, overrides=overrides, out_dir=out_dir)
    workers = None if args.threads is None else resolve_workers(args.threads)
    result = recipes.run_recipe(rec, workers=workers)
    for failure in result.summary.get("failures", []):
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"recipe {result.name}: exit {result.exit_code}; artifacts in {out_dir}",
          file=sys.stderr)
    return result.exit_code


_COMMANDS = {
    "gen": _cmd_gen,
    "exact": _cmd_exact,
    "fvtl": _cmd_fvtl,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "recipe": _cmd_recipe,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except MultipleRecurrentClassesError as exc:
        print(f"error: {exc}; resample the DFA", file=sys.stderr)
        return 1
    except (ValueError, OSError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
