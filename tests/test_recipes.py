import json
import math

import numpy as np
import pytest

from dfa_meet.chains import hitting_time_expectation, stationary_distribution
from dfa_meet.fvtl import fvtl_quantities, random_ergodic_chain
from dfa_meet.recipes import Recipe, run_recipe, tau_histogram
from dfa_meet.seeds import seed_split


def test_unknown_recipe_name_rejected():
    with pytest.raises(ValueError, match="unknown recipe"):
        Recipe("fig3-everything")


def test_tau_histogram_bins_and_overflow():
    ratios = np.array([0.05, 0.05, 0.15, 7.95, 9.0])
    rows = tau_histogram(ratios)
    assert len(rows) == 81  # 80 bins plus overflow
    assert rows[0][:3] == (0.0, 0.1, 2)
    assert rows[1][:3] == (0.1, 0.2, 1)
    assert rows[-2][:3] == (7.9, 8.0, 1)
    assert rows[-1][2] == 1 and math.isinf(rows[-1][1])
    assert sum(r[2] for r in rows) == len(ratios)


def test_figure_recipe_small_scale_artifacts(tmp_path):
    rec = Recipe(
        "fig1-independent",
        overrides={"n": 40, "trials": 80, "r_values": (2,), "seed": 7},
        out_dir=tmp_path,
    )
    result = run_recipe(rec, workers=1)
    # bounds are calibrated for n=1000; at toy scale only the artifacts and
    # report structure are asserted
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {
        "fig1-independent-r2.csv",
        "fig1-independent-r2-manifest.json",
        "fig1-independent-r2-hist.csv",
        "fig1-independent-verify.json",
    }
    payload = json.loads((tmp_path / "fig1-independent-verify.json").read_text())
    entry = payload["per_r"]["2"]
    assert entry["trials"] == 80
    assert "ks_exp1" in entry and "mean_ratio" in entry
    # the exit status reflects exactly the asserted bounds
    assert result.exit_code == (1 if result.summary["failures"] else 0)


def test_coalescing_recipe_small_scale(tmp_path):
    rec = Recipe(
        "fig2-coalescing",
        overrides={"n": 30, "trials": 40, "r_values": (2,), "seed": 3,
                   "kingman_size": 2000},
        out_dir=tmp_path,
    )
    result = run_recipe(rec, workers=1)
    entry = result.summary["per_r"]["2"]
    assert "w1_kingman" in entry
    assert entry["censored"] == 0


def test_sync_recipe_never_asserts_values(tmp_path):
    rec = Recipe(
        "fig2-sync",
        overrides={"n": 30, "trials": 30, "r_values": (2,), "seed": 4,
                   "kingman_size": 2000},
        out_dir=tmp_path,
    )
    result = run_recipe(rec, workers=1)
    assert result.exit_code == 0
    assert result.summary["failures"] == []
    assert "censoring_rate" in result.summary["per_r"]["2"]


def test_fvtl_suite_recipe(tmp_path):
    rec = Recipe("thm-fvtl-suite", overrides={"chains": 6, "seed": 1}, out_dir=tmp_path)
    result = run_recipe(rec)
    assert result.exit_code == 0
    assert result.summary["max_identity_dev"] <= 1e-8
    assert result.summary["max_tail_dev"] <= 1e-8
    assert result.summary["max_qs_mean_dev"] <= 1e-8
    report = json.loads((tmp_path / "thm-fvtl-suite-report.json").read_text())
    assert report["chains"] == 6 + 5  # random chains plus the two-state family
    for row in report["rows"]:
        assert row["z_stop"] in ("certified", "consecutive")
        assert row["z_stop_step"] >= row["return_horizon"]
    # identity_dev compares Z / mu with the linear solve, two independent routes
    for i, row in enumerate(report["rows"][:6]):
        rng = np.random.default_rng(seed_split(1, i, "fvtl-chain"))
        chain = random_ergodic_chain(rng)
        target = int(rng.integers(0, chain.size))
        assert (row["states"], row["target"]) == (chain.size, target)
        fv = fvtl_quantities(chain, target)
        direct = hitting_time_expectation(chain, stationary_distribution(chain), [target])
        assert row["identity_dev"] == abs(direct - fv.z_dd / fv.mu_target)
    assert report["max_identity_dev"] > 0


def test_recipes_reject_overrides_they_do_not_read():
    with pytest.raises(ValueError, match="'thm-fvtl-suite' does not read trials; it reads chains"):
        Recipe("thm-fvtl-suite", overrides={"chains": 3, "trials": 5})
    with pytest.raises(ValueError, match="'fig1-coupled' does not read kingman_size;"):
        Recipe("fig1-coupled", overrides={"kingman_size": 10})
    with pytest.raises(ValueError, match="'events-a1-a5' does not read seeds;"):
        Recipe("events-a1-a5", overrides={"seeds": 2})


def test_events_recipe(tmp_path):
    rec = Recipe("events-a1-a5", overrides={"n": 25}, out_dir=tmp_path)
    result = run_recipe(rec)
    assert result.exit_code == 0
    rows = result.summary["rows"]
    assert len(rows) == 3
    for row in rows:
        assert {"a1", "a2", "a3", "a4", "a5", "n_pi_tilde_delta"} <= set(row)
        assert row["tv_mode"] == "exact" and row["a4_stopped_starts"] == 0
        assert 0 < row["return_stop_step"] <= row["t_horizon"]


def test_recipe_reruns_are_byte_identical(tmp_path):
    for sub in ("one", "two"):
        rec = Recipe(
            "fig1-coupled",
            overrides={"n": 30, "trials": 25, "r_values": (2,), "seed": 9},
            out_dir=tmp_path / sub,
        )
        run_recipe(rec, workers=1)
    a = (tmp_path / "one" / "fig1-coupled-r2.csv").read_bytes()
    b = (tmp_path / "two" / "fig1-coupled-r2.csv").read_bytes()
    assert a == b
