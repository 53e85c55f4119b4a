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
import numbers
import sys
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import aux_chain, fvtl, stats
from .chains import ergodic_walk_chain, hitting_time_expectation, stationary_distribution
from .seeds import _is_integer, seed_split
from .simulate import (
    RunManifest,
    run_experiment,
    sample_kingman_reference,
    write_records_csv,
)


class _Spec(NamedTuple):
    """A recipe's registry row.

    ``defaults`` holds every key the recipe reads, ``seed`` (the master seed)
    included; an override of any other key is an error. A figure recipe has
    the sampler ``mode`` it runs on the worker pool, the reference law
    ``against`` (``"exp1"`` or ``"kingman"``) its ``tau / n`` is fitted to,
    and the ``bounds`` it asserts: rows ``(label, entry key, low, high)``,
    checked as ``low <= value <= high``, or as ``value <= high`` when ``low``
    is None. A recipe without a mode runs serially.
    """

    defaults: dict
    mode: str | None = None
    against: str | None = None
    bounds: tuple = ()


KINGMAN_REFERENCE_SIZE = 100_000
_FIGURE = {"n": 1000, "r_values": (2, 20)}
_COALESCENT = {**_FIGURE, "trials": 1000, "kingman_size": KINGMAN_REFERENCE_SIZE}
_RECIPES = {
    "fig1-independent": _Spec({**_FIGURE, "seed": 101, "trials": 10_000}, "independent", "exp1",
                              (("mean ratio", "mean_ratio", 0.9, 1.1),
                               ("KS to Exp(1)", "ks_exp1", None, 0.03))),
    "fig1-coupled": _Spec({**_FIGURE, "seed": 102, "trials": 10_000}, "coupled", "exp1",
                          (("W1 to Exp(1)", "w1_exp1", None, 0.1),)),
    "fig2-coalescing": _Spec({**_COALESCENT, "seed": 103}, "coalescing", "kingman",
                             (("coalescence mean ratio", "mean_ratio", 1.8, 2.2),
                              ("W1 to Kingman", "w1_kingman", None, 0.1))),
    # sync reports its distances to the coalescent but asserts nothing: the
    # mean limit is an open conjecture
    "fig2-sync": _Spec({**_COALESCENT, "seed": 104}, "sync", "kingman"),
    "thm-fvtl-suite": _Spec({"seed": 105, "chains": 50}),
    "events-a1-a5": _Spec({"seed": 106, "n": 300, "r_values": (2,), "eps": 0.15}),
}
RECIPE_NAMES = tuple(_RECIPES)

IDENTITY_TOL = 1e-8
HIST_BIN_WIDTH = 0.1
HIST_UPPER = 8.0
EVENTS_SEEDS = 3


@dataclass
class Recipe:
    """A named experiment, the overrides it reads and an output directory.

    ``params`` is the recipe's defaults with the overrides applied.
    """

    name: str
    overrides: dict = field(default_factory=dict)
    out_dir: Path = Path(".")
    params: dict = field(init=False)

    def __post_init__(self):
        if self.name not in RECIPE_NAMES:
            raise ValueError(f"unknown recipe {self.name!r}, expected one of {RECIPE_NAMES}")
        defaults = _RECIPES[self.name].defaults
        unknown = set(self.overrides) - set(defaults)
        if unknown:
            raise ValueError(f"recipe {self.name!r} does not read {', '.join(sorted(unknown))}; "
                             f"it reads {', '.join(sorted(defaults))}")
        self.params = dict(defaults)
        for key, value in self.overrides.items():
            default = defaults[key]
            kind = _override_kind(value, default)
            if kind:
                raise ValueError(f"recipe {self.name!r}: {key} must be {kind}, got {value!r}")
            # numpy scalars become the default's Python type, which JSON and seed_split take
            if isinstance(default, tuple):
                value = tuple(map(int, value))
            self.params[key] = type(default)(value)
        self.out_dir = Path(self.out_dir)


def _override_kind(value, default) -> str | None:
    """What an override of ``default`` must be, or None when ``value`` is one."""
    if isinstance(default, tuple):
        ok = isinstance(value, (tuple, list)) and all(map(_is_integer, value))
        return None if ok else "a tuple or list of integers"
    if isinstance(default, float):
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
        return None if ok else "a real number"
    return None if _is_integer(value) else "an integer"


@dataclass
class RecipeResult:
    name: str
    exit_code: int
    summary: dict


def run_recipe(rec: Recipe, workers: int | None = None) -> RecipeResult:
    """Run a recipe; only the figure recipes use a worker pool and take ``workers``."""
    spec = _RECIPES[rec.name]
    if workers is not None and spec.mode is None:
        raise ValueError(f"recipe {rec.name!r} runs serially and takes no worker count")
    rec.out_dir.mkdir(parents=True, exist_ok=True)
    if spec.mode is not None:
        return _run_figure_recipe(rec, spec, workers)
    if rec.name == "thm-fvtl-suite":
        return _run_fvtl_suite(rec)
    return _run_events(rec)


def write_json(payload: dict, out: Path | None) -> None:
    """Write ``payload`` as JSON with sorted keys, indent 2 and a trailing newline.

    The text goes to the path ``out``, or to stdout when ``out`` is None.
    """
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


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


def _run_figure_recipe(rec: Recipe, spec: _Spec, workers) -> RecipeResult:
    """Run and fit every ``r`` before writing any file, so that a failed run leaves none."""
    p = rec.params
    master, n, trials = p["seed"], p["n"], p["trials"]
    manifests = [
        RunManifest(master_seed=seed_split(master, r, "variant"), mode=spec.mode, n=n, r=r,
                    trials=trials, dfa_policy="fresh")
        for r in p["r_values"]
    ]
    runs = [(manifest, run_experiment(manifest, workers=workers)) for manifest in manifests]
    # after the runs, so that a size too large to run fails before the reference's n - 1 terms
    if spec.against == "exp1":
        fit = partial(stats.exponential_fit, mean=1.0)
    else:
        reference = sample_kingman_reference(n, seed_split(master, 0, "kingman"),
                                             size=p["kingman_size"])
        fit = partial(stats.sample_fit, reference=reference, name="kingman", params={"n": n})

    per_r: dict[str, dict] = {}
    failures: list[str] = []
    fitted = []
    for manifest, records in runs:
        r = manifest.r
        taus = np.array([t.tau for t in records if not t.censored], dtype=float)
        censored = sum(t.censored for t in records)
        if not taus.size:
            raise ValueError(f"recipe {rec.name!r}: no uncensored trial is left to fit at r={r} "
                             f"({trials} trials, {censored} censored)")
        ratios = taus / n
        report = fit(ratios)
        entry = {
            "r": r,
            "trials": trials,
            "censored": censored,
            "censoring_rate": censored / trials,
            "mean_tau": float(taus.mean()),
            "mean_ratio": float(taus.mean() / n),
            f"ks_{spec.against}": report.ks_distance,
            f"w1_{spec.against}": report.w1_distance,
        }
        for label, key, lo, hi in spec.bounds:
            value = entry[key]
            if lo is None and not value <= hi:
                failures.append(f"r={r} {label}: {value:.4f} > {hi}")
            elif lo is not None and not lo <= value <= hi:
                failures.append(f"r={r} {label}: {value:.4f} not in [{lo}, {hi}]")
        per_r[str(r)] = entry
        fitted.append((manifest, records, ratios))

    for manifest, records, ratios in fitted:
        stem = f"{rec.name}-r{manifest.r}"
        write_records_csv(records, rec.out_dir / f"{stem}.csv")
        write_json({"recipe": rec.name, **asdict(manifest)}, rec.out_dir / f"{stem}-manifest.json")
        _write_histogram(rec.out_dir / f"{stem}-hist.csv", tau_histogram(ratios))
    summary = {"recipe": rec.name, "mode": spec.mode, "n": n, "seed": master,
               "per_r": per_r, "failures": failures}
    write_json(summary, rec.out_dir / f"{rec.name}-verify.json")
    return RecipeResult(rec.name, 1 if failures else 0, summary)


def _run_fvtl_suite(rec: Recipe) -> RecipeResult:
    """Exact first-visit identities on small random ergodic chains.

    Checks, to 1e-8: the fundamental-matrix identity
    ``E_mu[tau] = Z(d,d)/mu(d)``, the exactly geometric quasi-stationary
    tail, and ``lambda_star * E_{mu_star}[tau] = 1``.
    """
    master = rec.params["seed"]
    rows = []
    failures: list[str] = []

    for i in range(rec.params["chains"]):
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
    write_json(summary, rec.out_dir / f"{rec.name}-report.json")
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
    master, n, eps = rec.params["seed"], rec.params["n"], rec.params["eps"]
    rows = []
    for r in rec.params["r_values"]:
        for i in range(EVENTS_SEEDS):
            dfa_seed = seed_split(master, i, f"events-r{r}")
            d, chain, resamples = ergodic_walk_chain(n, r, dfa_seed)
            aux = aux_chain.build_aux_chain(chain)
            report = aux_chain.check_events(aux, eps=eps)
            row = report.as_dict()
            row.update({"seed_index": i, "dfa_seed": dfa_seed, "resamples": resamples})
            rows.append(row)

    summary = {"recipe": rec.name, "seed": master, "n": n, "eps": eps, "rows": rows}
    write_json(summary, rec.out_dir / f"{rec.name}-report.json")
    return RecipeResult(rec.name, 0, summary)
