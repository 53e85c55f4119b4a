"""Measuring step: run one workload in a closed loop and write its figures.

Started by ``run.py`` once per run, after the set-up step wrote the inputs:

    python3 perfbench/measure.py --workload meet-fresh --size full --seed 1 \
        --inputs DIR --work DIR --seconds 30 --trace 0 --workers 2 \
        --goldens perfbench/goldens.json --result FILE

A workload is a fixed list of jobs (a pass). The loop runs the jobs in
order, each starting when the previous one ends, and stops at the first
job boundary after ``--seconds`` once every job has run. Every job's
outputs are checked against the stored golden for this seed, or, when
none is stored, against the first pass of the run.

With ``--trace 0`` the figures are the end-to-end metrics. With
``--trace 1`` the loop alternates untraced and traced passes, then replays
every Monte Carlo trial of the last pass serially with spans on; the
figures are the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

import dfa_meet as dm
from dfa_meet import cli, recipes, simulate

import goldens
import inputs
import params
from run import BLAS_THREAD_VARS
from tracer import LAYERS, Tracer

PAIR_MODES = ("independent", "coupled")
SAMPLERS = {
    "independent": "sample_meeting_independent",
    "coupled": "sample_meeting_coupled",
    "coalescing": "sample_coalescence",
    "sync": "sample_sync",
}
MODE_RECIPES = {mode: name for name, mode in params.RECIPE_MODES.items()}
# Trials per manifest replayed after an untraced run, as a cheap check that
# pooled rows equal the documented serial stream.
SAMPLED_REPLAY_TRIALS = 3

def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def summary(values: list[float], scale: float = 1.0) -> dict:
    """Median and p90 of ``values`` times ``scale``, with the sample count."""
    if not values:
        return {"value": 0.0, "p90": 0.0, "n": 0}
    scaled = sorted(v * scale for v in values)
    p90 = statistics.quantiles(scaled, n=10, method="inclusive")[-1] if len(scaled) > 1 else scaled[0]
    return {"value": statistics.median(scaled), "p90": p90, "n": len(scaled)}


class Run:
    """One measuring run: inputs, reference outputs, pooled timings, failures."""

    def __init__(self, spec: dict, inputs_dir: Path, workers: int, golden: dict | None):
        self.spec = spec
        self.inputs = inputs_dir
        self.workers = workers
        self.reference = dict(golden or {})
        self.golden_stored = golden is not None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.pooled: list[dict] = []
        self.manifests: dict[tuple[str, int], simulate.RunManifest] = {}
        self.last_outputs: dict[str, dict] = {}
        self.replayed: dict[str, list[tuple[int, bool]]] = {}
        self.replay_digests: dict[str, dict] = {}
        self.pair_steps: dict[str, int] = {}
        self.tracer = Tracer()
        self.traced = False
        recipes.run_experiment = self._timed_run_experiment
        if "resamples_by_dfa" in spec:
            self.check("inputs", {"ints": spec["resamples_by_dfa"]})

    def _timed_run_experiment(self, manifest, workers=None):
        # Looked up at call time, so a traced pass times the traced wrapper.
        t0 = time.perf_counter()
        records = simulate.run_experiment(manifest, workers=workers)
        self.pooled.append({"mode": manifest.mode, "r": manifest.r, "trials": manifest.trials,
                            "seconds": time.perf_counter() - t0, "traced": self.traced})
        self.manifests[(manifest.mode, manifest.r)] = manifest
        return records

    def fail(self, kind: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{kind}: {why}")
        print(f"perfbench: FAILED {kind}: {why}", file=sys.stderr)

    def check(self, kind: str, outputs: dict) -> None:
        """Count one operation; compare its outputs with the reference."""
        self.attempted += 1
        self.last_outputs[kind] = outputs
        if self.golden_stored and kind not in self.reference:
            self.fail(kind, "no golden stored for this job")
            return
        problems = goldens.compare(self.reference.setdefault(kind, outputs), outputs)
        if problems:
            self.fail(kind, "; ".join(problems))

    def job(self, kind: str, fn) -> float:
        """Run one job; return its wall time. A raising job counts as failed."""
        t0 = time.perf_counter()
        try:
            raw = fn(self)
        except Exception:  # the loop must go on and report the failure
            elapsed = time.perf_counter() - t0
            self.attempted += 1
            self.fail(kind, traceback.format_exc(limit=4).strip().replace("\n", " | "))
            return elapsed
        elapsed = time.perf_counter() - t0
        files = raw.pop("files", {})
        outputs = dict(raw)
        if files:
            outputs["digests"] = {name: sha256_file(path) for name, path in files.items()}
        self.check(kind, outputs)
        return elapsed


# -- jobs ------------------------------------------------------------------

def _recipe_job(entry: dict, run: Run) -> dict:
    name = entry["name"]
    overrides = dict(entry["overrides"], r_values=tuple(entry["overrides"]["r_values"]))
    result = recipes.run_recipe(recipes.Recipe(name, overrides, Path(name)), workers=run.workers)
    files = {f"{name}-r{r}.csv": Path(name) / f"{name}-r{r}.csv" for r in overrides["r_values"]}
    files[f"{name}-verify.json"] = Path(name) / f"{name}-verify.json"
    return {"files": files, "ints": {"exit_code": result.exit_code}}


def _verify_job(entry: dict, run: Run) -> dict:
    name = entry["name"]
    files = {}
    for r in entry["overrides"]["r_values"]:
        report = Path(name) / f"{name}-r{r}-verify-exp1.json"
        rc = cli.main(["verify", "--results", str(Path(name) / f"{name}-r{r}.csv"),
                       "--against", "exp:1", "--report", str(report)])
        if rc:
            raise RuntimeError(f"dfa-meet verify exited {rc}")
        files[report.name] = report
    return {"files": files}


@contextmanager
def counted_left_steps():
    """Count ``AuxChain.left_step`` calls (pair-chain steps) while active."""
    count = [0]
    original = dm.AuxChain.left_step

    def counted(self, *args, **kwargs):
        count[0] += 1
        return original(self, *args, **kwargs)

    dm.AuxChain.left_step = counted
    try:
        yield count
    finally:
        dm.AuxChain.left_step = original


def _fvtl_job(dfa_name: str, run: Run) -> dict:
    out = Path(f"{dfa_name}-report.json")
    with counted_left_steps() as steps:
        rc = cli.main(["fvtl", "--dfa", str(run.inputs / run.spec["dfas"][dfa_name]["file"]),
                       "--skip-events", "--out", str(out)])
    run.pair_steps[dfa_name] = steps[0]
    if rc:
        raise RuntimeError(f"dfa-meet fvtl exited {rc}")
    payload = json.loads(out.read_text(encoding="utf-8"))
    return {"ints": {"t_horizon": payload["t_horizon"]},
            "floats": {k: payload[k] for k in ("mu_target", "return_mass", "z_dd",
                                               "predicted_lambda")}}


def _mixing_job(run: Run) -> dict:
    out = Path("exact-report.json")
    rc = cli.main(["exact", "--dfa", str(run.inputs / run.spec["dfas"]["mixing"]["file"]),
                   "--t-cap", str(run.spec["t_cap"]), "--out", str(out)])
    if rc:
        raise RuntimeError(f"dfa-meet exact exited {rc}")
    payload = json.loads(out.read_text(encoding="utf-8"))
    t_mix = payload["t_mix"]
    floats = {"pi_min": payload["pi_min"], "pi_max": payload["pi_max"]}
    if t_mix is not None:
        floats["d_tv_at_t_mix"] = payload["d_tv_series"][t_mix]
    return {"ints": {"t_mix": -1 if t_mix is None else t_mix}, "floats": floats}


def _events_job(run: Run) -> dict:
    text = (run.inputs / run.spec["dfas"]["events"]["file"]).read_text(encoding="utf-8")
    chain = dm.walk_matrix(dm.parse_dfa(text))
    dm.stationary_distribution(chain)
    report = dm.check_events(dm.build_aux_chain(chain), eps=run.spec["eps"])
    ints = {k: int(getattr(report, k)) for k in ("t_horizon", "s_horizon", "a1", "a2", "a3", "a4", "a5")}
    floats = {k: getattr(report, k) for k in ("min_pi_tilde", "max_pi_tilde", "n_pi_tilde_delta",
                                              "return_mass")}
    # the TV distance after S steps has decayed to rounding noise
    return {"ints": ints, "floats": floats, "devs": {"max_tv_at_s": report.max_tv_at_s}}


def _suite_job(run: Run) -> dict:
    suite = run.spec["suite"]
    result = recipes.run_recipe(recipes.Recipe(
        "thm-fvtl-suite", {"chains": suite["chains"]}, Path("thm-fvtl-suite")))
    s = result.summary
    return {"ints": {"exit_code": result.exit_code, "chains": s["chains"],
                     "failures": len(s["failures"])},
            "devs": {k: s[k] for k in ("max_identity_dev", "max_tail_dev", "max_qs_mean_dev")}}


def job_list(workload: str, spec: dict) -> list[tuple[str, object]]:
    if workload == "exact-pair":
        fvtl = [(f"fvtl:{name}", partial(_fvtl_job, name)) for name in spec["dfas"]
                if name.startswith("fvtl-")]
        return fvtl + [("exact:mixing", _mixing_job), ("events", _events_job),
                       ("recipe:thm-fvtl-suite", _suite_job)]
    jobs = []
    for entry in spec["recipes"]:
        jobs.append((f"recipe:{entry['name']}", partial(_recipe_job, entry)))
        if workload == "meet-fresh":
            jobs.append((f"verify:{entry['name']}", partial(_verify_job, entry)))
    return jobs


# -- replay ----------------------------------------------------------------

def replay(run: Run, manifest: simulate.RunManifest, count: int) -> float:
    """Replay trials ``0..count-1`` of a pooled manifest through the public calls.

    Follows the stream order ``simulate`` documents as frozen: ``seed_split``,
    ``generate_dfa`` from the trial generator, the start draw, the sampler.
    Compares the replayed CSV bytes with the pooled run's and returns the
    serial time of the replayed trials (the validation probe excluded).
    """
    if manifest.dfa_policy != "fresh" or manifest.starts not in ("uniform", None):
        raise ValueError("replay covers fresh-DFA manifests with uniform starts only")
    tr = run.tracer
    mode, n = manifest.mode, manifest.n
    sampler = getattr(dm, SAMPLERS[mode])
    records, serial = [], 0.0
    for i in range(count):
        with tr.span("replay.trial", tag=mode) as trial:
            derived = dm.seed_split(manifest.master_seed, i, mode)
            rng = np.random.default_rng(derived)
            d = dm.generate_dfa(n, manifest.r, rng)
            with tr.span("dfa.Dfa", "dfa", tag=f"n{n}-r{manifest.r}", probe=True) as probe:
                dm.Dfa(n=d.n, r=d.r, out=d.out)
            if mode in PAIR_MODES:
                with tr.span("simulate.start_draw", "simulate"):
                    x = int(rng.integers(0, n))
                    y = int(rng.integers(0, n - 1))
                    y += y >= x
                rec = sampler(d, x, y, manifest.effective_cap, rng, trial=i)
            else:
                rec = sampler(d, manifest.effective_cap, rng, trial=i)
            rec.derived_seed = derived
        records.append(rec)
        serial += trial.dur - probe.dur
        run.replayed.setdefault(mode, []).append((rec.tau, rec.censored))

    recipe = MODE_RECIPES[mode]
    pooled_csv = Path(recipe) / f"{recipe}-r{manifest.r}.csv"
    replay_csv = Path(f"replay-{mode}-r{manifest.r}.csv")
    dm.write_records_csv(records, replay_csv)
    replayed, pooled = replay_csv.read_bytes(), pooled_csv.read_bytes()
    kind = f"replay:{mode}-r{manifest.r}"
    run.attempted += 1
    if count == manifest.trials:
        digests = {"replay": hashlib.sha256(replayed).hexdigest(),
                   "pooled": hashlib.sha256(pooled).hexdigest()}
        run.replay_digests[kind] = digests
        ok = digests["replay"] == digests["pooled"]
    else:
        ok = pooled.startswith(replayed)
    if not ok:
        run.fail(kind, f"replayed rows of {count} trials differ from the pooled CSV")
    return serial


def replay_all(run: Run, count: int | None) -> dict[tuple[str, int], float]:
    """Replay every manifest of the last pass; ``count=None`` replays all trials."""
    serial = {}
    for (mode, r), manifest in sorted(run.manifests.items()):
        trials = manifest.trials if count is None else min(count, manifest.trials)
        try:
            serial[(mode, r)] = replay(run, manifest, trials)
        except Exception:  # reported as a failed operation, like a failing job
            run.attempted += 1
            run.fail(f"replay:{mode}-r{r}", traceback.format_exc(limit=4).strip().replace("\n", " | "))
    return serial


# -- loops -----------------------------------------------------------------

def loop_untraced(run: Run, jobs, seconds: float) -> dict[str, list[float]]:
    durations: dict[str, list[float]] = {kind: [] for kind, _ in jobs}
    start = time.perf_counter()
    i = 0
    while i < len(jobs) or time.perf_counter() - start < seconds:
        kind, fn = jobs[i % len(jobs)]
        durations[kind].append(run.job(kind, fn))
        i += 1
    return durations


def loop_traced(run: Run, jobs, seconds: float) -> dict[str, list[float]]:
    """Alternate untraced and traced passes; at least one of each."""
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    start = time.perf_counter()
    k = 0
    while k < 2 or time.perf_counter() - start < seconds:
        run.traced = k % 2 == 1
        t0 = time.perf_counter()
        if run.traced:
            run.tracer.run_id = f"pass{k}"
            with run.tracer.installed():
                for kind, fn in jobs:
                    with run.tracer.span(f"job:{kind}"):
                        run.job(kind, fn)
        else:
            for kind, fn in jobs:
                run.job(kind, fn)
        walls["traced" if run.traced else "untraced"].append(time.perf_counter() - t0)
        k += 1
    run.traced = False
    return walls


# -- metrics ---------------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child (a pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _pooled_medians(run: Run) -> dict[tuple[str, int], tuple[int, float]]:
    """Trials and median untraced pooled time per (mode, r)."""
    by_kind: dict[tuple[str, int], list[float]] = {}
    trials = {}
    for p in run.pooled:
        if not p["traced"]:
            by_kind.setdefault((p["mode"], p["r"]), []).append(p["seconds"])
            trials[(p["mode"], p["r"])] = p["trials"]
    return {k: (trials[k], statistics.median(v)) for k, v in by_kind.items()}


def end_to_end(run: Run, workload: str, durations: dict[str, list[float]]) -> dict:
    wall = sum(statistics.median(v) for v in durations.values())
    passes = min(len(v) for v in durations.values())
    if workload in params.MC_WORKLOADS:
        pooled = _pooled_medians(run).values()
        trials, seconds = sum(t for t, _ in pooled), sum(s for _, s in pooled)
        rate_n = len(run.pooled)
    else:
        # no trials on the exact side: pair-chain steps per second of the
        # `dfa-meet fvtl` jobs' time
        trials = sum(run.pair_steps.values())
        seconds = sum(statistics.median(durations[f"fvtl:{name}"]) for name in run.pair_steps)
        rate_n = sum(len(durations[f"fvtl:{name}"]) for name in run.pair_steps)
    # 0 only when every timed call raised; the failures are counted
    rate = trials / seconds if seconds else 0.0
    return {
        "wall_s": {"value": wall, "n": passes},
        "trials_per_s": {"value": rate, "n": rate_n},
        "peak_rss_mb": {"value": peak_rss_mb(), "n": 1},
    }


def _left_step_computed(n: int, r: int) -> tuple[float, float]:
    """Flops and bytes of the two CSR-times-dense products in one pair-chain step.

    Each product multiplies the n x n dense operand by a kernel with n*r
    entries (2 flops per entry per column) and reads the operand, the CSR
    arrays (8-byte data, 4-byte indices and row pointers) and writes the
    result once. Cache misses and the transposed copies are not counted.
    """
    flops = 2 * (2 * n * r * n)
    bytes_ = 2 * (8 * n * n + 8 * n * n + 12 * n * r + 4 * (n + 1))
    return float(flops), float(bytes_)


def per_layer(run: Run, workload: str, walls: dict[str, list[float]],
              serial: dict[tuple[str, int], float]) -> dict:
    tr, spec = run.tracer, run.spec
    m: dict[str, dict] = {}

    def durs(name, run_prefix="pass", **kw):
        return [s.dur for s in tr.select(name, run_prefix=run_prefix, **kw)]

    def count(name, value, n=1):
        m[name] = {"value": float(value), "n": n}

    count("error_rate", run.failed / run.attempted, run.attempted)
    m["dfa.generate_ms"] = summary(durs("dfa.generate_dfa", "replay"), 1e3)
    m["dfa.validate_ms"] = summary(durs("dfa.Dfa", "replay"), 1e3)
    m["dfa.parse_ms"] = summary(durs("dfa.parse_dfa"), 1e3)
    m["seeds.seed_split_us"] = summary(durs("seeds.seed_split", ""), 1e6)
    for mode, fn in SAMPLERS.items():
        d = durs(f"simulate.{fn}", "replay")
        m[f"simulate.trial_ms.{mode}"] = summary(d, 1e3)
        steps = sum(tau for tau, _ in run.replayed.get(mode, []))
        count(f"simulate.steps_per_s.{mode}", steps / sum(d) if d else 0.0, len(d))
    trials = [t for recs in run.replayed.values() for t in recs]
    count("simulate.steps", sum(tau for tau, _ in trials), n=len(trials))
    count("simulate.censored_frac", sum(c for _, c in trials) / len(trials) if trials else 0.0,
          len(trials))
    pooled = _pooled_medians(run)
    replayed = [k for k in serial if k in pooled]
    pooled_s = sum(pooled[k][1] for k in replayed)
    count("simulate.pool_efficiency",
          sum(serial[k] for k in replayed) / (run.workers * pooled_s) if pooled_s else 0.0,
          len(replayed))
    m["simulate.csv_write_ms"] = summary(durs("simulate.write_records_csv"), 1e3)
    m["simulate.csv_read_ms"] = summary(durs("simulate.read_records_csv"), 1e3)
    m["simulate.kingman_ref_s"] = summary(durs("simulate.sample_kingman_reference"))
    m["stats.fit_ms"] = summary(durs("stats.exponential_fit") + durs("stats.sample_fit")
                                + durs("stats.geometric_tail_fit"), 1e3)

    exact = workload == "exact-pair"
    fvtl = sorted((d["r"], d["n"]) for k, d in spec.get("dfas", {}).items() if k.startswith("fvtl-"))
    big = f"n{fvtl[0][1]}" if exact else "none"
    m["chains.walk_matrix_ms"] = summary(
        [s.dur for s in tr.select("chains.walk_matrix", run_prefix="pass")
         if s.tag.startswith(big + "-")], 1e3)
    m["chains.stationary_ms"] = summary(
        durs("chains.stationary_distribution", tag=big, parent_names=("cli.main",)), 1e3)
    count("chains.resamples", spec.get("resamples", 0))
    m["chains.mixing_profile_s"] = summary(durs("chains.mixing_profile"))
    m["aux_chain.build_ms"] = summary(durs("aux_chain.build_aux_chain", tag=big), 1e3)
    r_small, r_large = (fvtl[0][0], fvtl[-1][0]) if exact else (None, None)
    for label, r in (("r2", r_small), ("r20", r_large)):
        m[f"aux_chain.left_step_ms.{label}"] = summary(
            durs("aux_chain.AuxChain.left_step", tag=f"{big}-r{r}"), 1e3)
        m[f"aux_chain.fvtl_report_s.{label}"] = summary(
            durs("aux_chain.aux_fvtl_report", tag=f"{big}-r{r}"))
        horizon = run.last_outputs.get(f"fvtl:fvtl-r{r}", {}).get("ints", {}).get("t_horizon", 0)
        count(f"aux_chain.t_horizon.{label}", horizon)
    m["aux_chain.check_events_s"] = summary(durs("aux_chain.check_events"))
    m["aux_chain.return_mass_s"] = summary(
        durs("aux_chain.return_mass", parent_names=("aux_chain.check_events",)))
    flops, bytes_ = _left_step_computed(fvtl[0][1], r_small) if exact else (0.0, 0.0)
    count("aux_chain.left_step_flops_computed", flops)
    count("aux_chain.left_step_bytes_computed", bytes_)
    count("aux_chain.ops_per_byte_computed", flops / bytes_ if bytes_ else 0.0)
    m["fvtl.suite_s"] = summary(durs("recipes.run_recipe", tag="thm-fvtl-suite"))
    m["fvtl.quantities_ms"] = summary(durs("fvtl.fvtl_quantities"), 1e3)
    untraced, traced = statistics.median(walls["untraced"]), statistics.median(walls["traced"])
    count("tracing.overhead_frac", (traced - untraced) / untraced, len(walls["traced"]))
    for layer, share in layer_shares(tr).items():
        count(f"self_share.{layer}", share)
    return m


def layer_shares(tr: Tracer) -> dict[str, float]:
    """Each layer's share of the self time of one pass.

    Traced passes are averaged. A pooled ``run_experiment`` span only shows
    pool wall time, so its subtree is left out and the serial replay of the
    same trials stands in for it; shares are therefore shares of work
    (processor time), not of wall time.
    """
    own = tr.self_times()
    skip: set[int] = set()
    passes = {s.run_id for s in tr.spans if s.run_id.startswith("pass")}
    for s in tr.spans:
        if s.name == "simulate.run_experiment" and s.run_id.startswith("pass"):
            skip |= tr.subtree(s.sid)
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in tr.spans:
        if s.layer in totals and not s.probe and s.sid not in skip:
            weight = 1.0 / len(passes) if s.run_id.startswith("pass") else 1.0
            totals[s.layer] += own[s.sid] * weight
    grand = sum(totals.values())
    return {layer: (t / grand if grand else 0.0) for layer, t in totals.items()}


# -- entry points ----------------------------------------------------------

def child_provenance(workers: int) -> dict:
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "dfa_meet": dm.__version__,
        "workers": workers,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def single_pass(workload: str, size: str, seed: int, root: Path) -> dict:
    """Set up and run one untimed pass; return each job's outputs (for goldens)."""
    base = root / ".perfbench-out" / "goldens" / workload
    spec = inputs.write_inputs(workload, size, seed, base / "inputs")
    work = base / "work"
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    run = Run(spec, base / "inputs", len(os.sched_getaffinity(0)), None)
    for kind, fn in job_list(workload, spec):
        run.job(kind, fn)
    if run.failed:
        raise RuntimeError("; ".join(run.failures))
    return run.reference


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=params.WORKLOADS, required=True)
    parser.add_argument("--size", choices=sorted(params.SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--goldens", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    inputs_dir, result_path = args.inputs.resolve(), args.result.resolve()
    spec = json.loads((inputs_dir / "spec.json").read_text(encoding="utf-8"))
    golden = goldens.lookup(goldens.load(args.goldens.resolve()), args.size, args.workload, args.seed)
    args.work.mkdir(parents=True, exist_ok=True)
    os.chdir(args.work)  # job outputs use short relative paths, so digests do not see the run dir
    run = Run(spec, inputs_dir, args.workers, golden)
    jobs = job_list(args.workload, spec)
    result = {"golden": "stored" if golden else "absent (checked against the run's first pass)",
              "child": child_provenance(args.workers)}
    if args.trace:
        walls = loop_traced(run, jobs, args.seconds)
        run.tracer.run_id = "replay"
        with run.tracer.installed():
            serial = replay_all(run, None)
        metrics = per_layer(run, args.workload, walls, serial)
        result.update(pass_walls=walls, replay_digests=run.replay_digests,
                      replay_serial_s={f"{m}-r{r}": t for (m, r), t in serial.items()})
        spans_path = result_path.with_name("spans.json")
        spans_path.write_text(json.dumps(run.tracer.as_records()) + "\n", encoding="utf-8")
        result["spans_file"] = str(spans_path)
    else:
        durations = loop_untraced(run, jobs, args.seconds)
        replay_all(run, SAMPLED_REPLAY_TRIALS)
        metrics = end_to_end(run, args.workload, durations)
        result.update(job_seconds={k: summary(v) for k, v in durations.items()},
                      pair_steps=run.pair_steps)
    result.update(attempted=run.attempted, failed=run.failed, failures=run.failures,
                  metrics=metrics, pooled_runs=len(run.pooled))
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
