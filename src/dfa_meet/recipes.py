"""End-to-end experiment recipes: run, verify, and emit plot-ready data.

Each recipe resolves to one or more run manifests plus a verify step, and
writes four kinds of artifacts into its output directory: the manifest
JSON, the trial-record CSVs, a verify report JSON, and histogram CSVs of
``tau / n`` (bin width 0.1 on [0, 8] with an overflow bin). The exit code
is nonzero exactly when one of the recipe's asserted bounds fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import aux_chain, fvtl, stats
from .chains import ergodic_walk_chain, hitting_time_expectation, stationary_distribution
from .seeds import seed_split
from .simulate import (
    RunManifest,
    run_experiment,
    sample_kingman_reference,
    write_records_csv,
)

_FIGURE_KEYS = frozenset({"seed", "n", "trials", "r_values"})
# The figure recipes and the sampler mode each runs on the worker pool.
_FIGURE_MODES = {
    "fig1-independent": "independent",
    "fig1-coupled": "coupled",
    "fig2-coalescing": "coalescing",
    "fig2-sync": "sync",
}
# The override keys each recipe reads; any other key is an error.
OVERRIDE_KEYS = {
    "fig1-independent": _FIGURE_KEYS,
    "fig1-coupled": _FIGURE_KEYS,
    "fig2-coalescing": _FIGURE_KEYS | {"kingman_size"},
    "fig2-sync": _FIGURE_KEYS | {"kingman_size"},
    "thm-fvtl-suite": frozenset({"seed", "chains"}),
    "events-a1-a5": frozenset({"seed", "n", "r_values", "eps"}),
}
RECIPE_NAMES = tuple(OVERRIDE_KEYS)

_DEFAULT_SEEDS = {
    "fig1-independent": 101,
    "fig1-coupled": 102,
    "fig2-coalescing": 103,
    "fig2-sync": 104,
    "thm-fvtl-suite": 105,
    "events-a1-a5": 106,
}

MEAN_RATIO_BOUNDS = (0.9, 1.1)
KS_EXP_BOUND = 0.03
W1_EXP_BOUND = 0.1
COAL_MEAN_BOUNDS = (1.8, 2.2)
W1_KINGMAN_BOUND = 0.1
IDENTITY_TOL = 1e-8
KINGMAN_REFERENCE_SIZE = 100_000
HIST_BIN_WIDTH = 0.1
HIST_UPPER = 8.0
EVENTS_SEEDS = 3


@dataclass
class Recipe:
    """A named experiment, its ``OVERRIDE_KEYS`` overrides and an output directory."""

    name: str
    overrides: dict = field(default_factory=dict)
    out_dir: Path = Path(".")

    def __post_init__(self):
        if self.name not in RECIPE_NAMES:
            raise ValueError(f"unknown recipe {self.name!r}, expected one of {RECIPE_NAMES}")
        keys = OVERRIDE_KEYS[self.name]
        unknown = set(self.overrides) - keys
        if unknown:
            raise ValueError(f"recipe {self.name!r} does not read {', '.join(sorted(unknown))}; "
                             f"it reads {', '.join(sorted(keys))}")
        self.out_dir = Path(self.out_dir)

    def param(self, key, default):
        return self.overrides.get(key, default)


@dataclass
class RecipeResult:
    name: str
    exit_code: int
    summary: dict


def run_recipe(rec: Recipe, workers: int | None = None) -> RecipeResult:
    """Run a recipe; only the figure recipes use a worker pool and take ``workers``."""
    figure = rec.name in _FIGURE_MODES
    if workers is not None and not figure:
        raise ValueError(f"recipe {rec.name!r} runs serially and takes no worker count")
    rec.out_dir.mkdir(parents=True, exist_ok=True)
    if figure:
        return _run_figure_recipe(rec, workers)
    if rec.name == "thm-fvtl-suite":
        return _run_fvtl_suite(rec)
    return _run_events(rec)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def tau_histogram(ratios: np.ndarray):
    """Rows ``(left, right, count, density)`` of ``HIST_BIN_WIDTH`` bins, plus an overflow bin."""
    bin_width, upper = HIST_BIN_WIDTH, HIST_UPPER
    edges = np.round(np.arange(0.0, upper + bin_width / 2, bin_width), 10)
    counts, _ = np.histogram(ratios, bins=edges)
    total = max(len(ratios), 1)
    rows = [
        (float(edges[i]), float(edges[i + 1]), int(counts[i]),
         counts[i] / (total * bin_width))
        for i in range(len(counts))
    ]
    overflow = int((ratios >= upper).sum())
    rows.append((float(upper), math.inf, overflow, float("nan")))
    return rows


def _write_histogram(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("bin_left,bin_right,count,density\r\n")
        for left, right, count, density in rows:
            right_s = "inf" if math.isinf(right) else f"{right:.6g}"
            dens_s = "" if math.isnan(density) else f"{density:.10g}"
            fh.write(f"{left:.6g},{right_s},{count},{dens_s}\r\n")


def _run_figure_recipe(rec: Recipe, workers) -> RecipeResult:
    mode = _FIGURE_MODES[rec.name]
    n = int(rec.param("n", 1000))
    trials = int(rec.param("trials", 10_000 if mode in ("independent", "coupled") else 1000))
    master = int(rec.param("seed", _DEFAULT_SEEDS[rec.name]))
    r_values = tuple(rec.param("r_values", (2, 20)))

    per_r: dict[str, dict] = {}
    failures: list[str] = []
    kingman_ref = None
    if mode in ("coalescing", "sync"):
        kingman_ref = sample_kingman_reference(
            n, seed_split(master, 0, "kingman"), size=int(rec.param("kingman_size", KINGMAN_REFERENCE_SIZE))
        )

    for r in r_values:
        manifest = RunManifest(
            master_seed=seed_split(master, r, "variant"),
            mode=mode,
            n=n,
            r=r,
            trials=trials,
            dfa_policy="fresh",
        )
        records = run_experiment(manifest, workers=workers)
        stem = f"{rec.name}-r{r}"
        write_records_csv(records, rec.out_dir / f"{stem}.csv")
        _write_json(rec.out_dir / f"{stem}-manifest.json",
                    {"recipe": rec.name, **manifest.as_dict()})

        taus = np.array([t.tau for t in records if not t.censored], dtype=float)
        censored = sum(t.censored for t in records)
        dist = stats.EmpiricalDist.from_samples(taus / n)
        _write_histogram(rec.out_dir / f"{stem}-hist.csv", tau_histogram(dist.values))

        entry = {
            "r": r,
            "trials": trials,
            "censored": censored,
            "censoring_rate": censored / trials if trials else 0.0,
            "mean_tau": float(taus.mean()) if taus.size else float("nan"),
            "mean_ratio": float(taus.mean() / n) if taus.size else float("nan"),
        }
        if mode in ("independent", "coupled"):
            fit = stats.exponential_fit(dist, mean=1.0)
            entry["ks_exp1"] = fit.ks_distance
            entry["w1_exp1"] = fit.w1_distance
            if mode == "independent":
                lo, hi = MEAN_RATIO_BOUNDS
                _check(failures, f"r={r} mean ratio", lo <= entry["mean_ratio"] <= hi,
                       f"{entry['mean_ratio']:.4f} not in [{lo}, {hi}]")
                _check(failures, f"r={r} KS to Exp(1)", fit.ks_distance <= KS_EXP_BOUND,
                       f"{fit.ks_distance:.4f} > {KS_EXP_BOUND}")
            else:
                _check(failures, f"r={r} W1 to Exp(1)", fit.w1_distance <= W1_EXP_BOUND,
                       f"{fit.w1_distance:.4f} > {W1_EXP_BOUND}")
        else:
            ref = stats.sample_fit(dist, kingman_ref, "kingman", {"n": n})
            entry["w1_kingman"] = ref.w1_distance
            entry["ks_kingman"] = ref.ks_distance
            if mode == "coalescing":
                lo, hi = COAL_MEAN_BOUNDS
                _check(failures, f"r={r} coalescence mean ratio",
                       lo <= entry["mean_ratio"] <= hi,
                       f"{entry['mean_ratio']:.4f} not in [{lo}, {hi}]")
                _check(failures, f"r={r} W1 to Kingman", ref.w1_distance <= W1_KINGMAN_BOUND,
                       f"{ref.w1_distance:.4f} > {W1_KINGMAN_BOUND}")
            # sync reports the same distances but asserts nothing; the mean
            # limit is an open conjecture.
        per_r[str(r)] = entry

    summary = {"recipe": rec.name, "mode": mode, "n": n, "seed": master,
               "per_r": per_r, "failures": failures}
    _write_json(rec.out_dir / f"{rec.name}-verify.json", summary)
    return RecipeResult(rec.name, 1 if failures else 0, summary)


def _check(failures: list[str], label: str, ok: bool, detail: str) -> None:
    if not ok:
        failures.append(f"{label}: {detail}")


def _run_fvtl_suite(rec: Recipe) -> RecipeResult:
    """Exact first-visit identities on small random ergodic chains.

    Checks, to 1e-8: the fundamental-matrix identity
    ``E_mu[tau] = Z(d,d)/mu(d)``, the exactly geometric quasi-stationary
    tail, and ``lambda_star * E_{mu_star}[tau] = 1``.
    """
    master = int(rec.param("seed", _DEFAULT_SEEDS["thm-fvtl-suite"]))
    chain_count = int(rec.param("chains", 50))
    rows = []
    failures: list[str] = []

    for i in range(chain_count):
        rng = np.random.default_rng(seed_split(master, i, "fvtl-chain"))
        chain = fvtl.random_ergodic_chain(rng)
        target = int(rng.integers(0, chain.size))
        rows.append(_fvtl_identity_row(chain, target, f"random-{i}"))

    for p, q in ((0.5, 0.5), (0.3, 0.7), (0.9, 0.1), (0.05, 0.4), (0.6, 0.02)):
        chain = fvtl.two_state_chain(p, q)
        row = _fvtl_identity_row(chain, 1, f"two-state-p{p}-q{q}")
        row["closed_form_lambda_error"] = abs(row["lambda_star"] - p)
        row["closed_form_mu_error"] = abs(row["mu_target"] - p / (p + q))
        rows.append(row)

    for row in rows:
        for key in ("identity_dev", "tail_dev", "qs_mean_dev"):
            if row[key] > IDENTITY_TOL:
                failures.append(f"{row['chain']}: {key} = {row[key]:.3e} > {IDENTITY_TOL}")
        for key in ("closed_form_lambda_error", "closed_form_mu_error"):
            if row.get(key, 0.0) > 1e-12:
                failures.append(f"{row['chain']}: {key} = {row[key]:.3e}")

    summary = {
        "recipe": rec.name,
        "seed": master,
        "chains": len(rows),
        "max_identity_dev": max(r["identity_dev"] for r in rows),
        "max_tail_dev": max(r["tail_dev"] for r in rows),
        "max_qs_mean_dev": max(r["qs_mean_dev"] for r in rows),
        "failures": failures,
        "rows": rows,
    }
    _write_json(rec.out_dir / f"{rec.name}-report.json", summary)
    return RecipeResult(rec.name, 1 if failures else 0, summary)


def _fvtl_identity_row(chain, target: int, label: str) -> dict:
    report = fvtl.fvtl_quantities(chain, target)
    pair = report.quasi
    # the linear solve, an independent route to E_mu[tau] = Z / mu
    expected = hitting_time_expectation(chain, stationary_distribution(chain), [target])
    tail_dev = fvtl.quasi_stationary_tail_check(chain, target, pair=pair)
    qs_hitting = hitting_time_expectation(chain, pair.mu_star, [target])
    return {
        "chain": label,
        "states": chain.size,
        "target": target,
        "mu_target": report.mu_target,
        "lambda_star": pair.lambda_star,
        "identity_dev": abs(expected - report.z_dd / report.mu_target),
        "tail_dev": tail_dev,
        "qs_mean_dev": abs(pair.lambda_star * qs_hitting - 1.0),
        "predicted_lambda": report.predicted_lambda,
        "return_horizon": report.t_horizon,
        "z_stop_step": report.z_stop_step,
        "z_stop": report.z_stop,
    }


def _run_events(rec: Recipe) -> RecipeResult:
    """Report the five finite-n events for ``EVENTS_SEEDS`` seeded instances per ``r``.

    The events are high-probability statements; the recipe reports their
    verdicts and never fails on them.
    """
    master = int(rec.param("seed", _DEFAULT_SEEDS["events-a1-a5"]))
    n = int(rec.param("n", 300))
    r_values = tuple(rec.param("r_values", (2,)))
    eps = float(rec.param("eps", 0.15))

    rows = []
    for r in r_values:
        for i in range(EVENTS_SEEDS):
            dfa_seed = seed_split(master, i, f"events-r{r}")
            d, chain, resamples = ergodic_walk_chain(n, r, dfa_seed)
            aux = aux_chain.build_aux_chain(chain)
            report = aux_chain.check_events(aux, eps=eps)
            row = report.as_dict()
            row.update({"seed_index": i, "dfa_seed": dfa_seed, "resamples": resamples})
            rows.append(row)

    summary = {"recipe": rec.name, "seed": master, "n": n, "eps": eps, "rows": rows}
    _write_json(rec.out_dir / f"{rec.name}-report.json", summary)
    return RecipeResult(rec.name, 0, summary)
