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


@pytest.mark.parametrize("name, key, value, message", [
    ("fig1-coupled", "n", 40.0, "n must be an integer, got 40.0"),
    ("fig1-coupled", "trials", 5.0, "trials must be an integer, got 5.0"),
    ("fig1-coupled", "seed", 3.0, "seed must be an integer, got 3.0"),
    ("fig1-coupled", "r_values", (2.0,), "r_values must be a tuple or list of integers, got (2.0,)"),
    ("events-a1-a5", "eps", "0.1", "eps must be a real number, got '0.1'"),
    ("fig1-coupled", "n", True, "n must be an integer, got True"),
])
def test_recipes_reject_an_override_of_the_wrong_type(tmp_path, name, key, value, message):
    with pytest.raises(ValueError) as exc:
        run_recipe(Recipe(name, overrides={key: value}, out_dir=tmp_path / "out"))
    assert str(exc.value) == f"recipe {name!r}: {message}"
    assert not (tmp_path / "out").exists()


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


# Each figure recipe's failure strings at a toy size, where every bound but sync's fails: they
# pin which bounds each recipe asserts, their order and their message formats.
FIGURE_FAILURES = {
    "fig1-independent": ["r=2 mean ratio: 1.3938 not in [0.9, 1.1]",
                         "r=2 KS to Exp(1): 0.2534 > 0.03",
                         "r=3 mean ratio: 1.1562 not in [0.9, 1.1]",
                         "r=3 KS to Exp(1): 0.3658 > 0.03"],
    "fig1-coupled": ["r=2 W1 to Exp(1): 0.2045 > 0.1", "r=3 W1 to Exp(1): 1.4114 > 0.1"],
    "fig2-coalescing": ["r=2 coalescence mean ratio: 1.6750 not in [1.8, 2.2]",
                        "r=2 W1 to Kingman: 0.2884 > 0.1",
                        "r=3 coalescence mean ratio: 1.6187 not in [1.8, 2.2]",
                        "r=3 W1 to Kingman: 0.3816 > 0.1"],
    "fig2-sync": [],
}


@pytest.mark.parametrize("name", sorted(FIGURE_FAILURES))
def test_figure_recipe_failures_are_pinned(tmp_path, name):
    overrides = {"n": 20, "trials": 8, "r_values": (2, 3), "seed": 7}
    if name.startswith("fig2"):
        overrides["kingman_size"] = 200
    result = run_recipe(Recipe(name, overrides=overrides, out_dir=tmp_path), workers=1)
    assert result.summary["failures"] == FIGURE_FAILURES[name]
    assert result.exit_code == (1 if FIGURE_FAILURES[name] else 0)


# The key set of each JSON artifact a recipe writes; a refactor must neither drop nor rename one.
MANIFEST_KEYS = {"recipe", "master_seed", "mode", "n", "r", "trials", "cap", "dfa_policy",
                 "dfa_path", "starts"}
FIGURE_ENTRY_KEYS = {"r", "trials", "censored", "censoring_rate", "mean_tau", "mean_ratio"}
FIGURE_FIT_KEYS = {"fig1-independent": {"ks_exp1", "w1_exp1"},
                   "fig1-coupled": {"ks_exp1", "w1_exp1"},
                   "fig2-coalescing": {"w1_kingman", "ks_kingman"},
                   "fig2-sync": {"w1_kingman", "ks_kingman"}}
FVTL_ROW_KEYS = {"chain", "states", "target", "mu_target", "lambda_star", "identity_dev",
                 "tail_dev", "qs_mean_dev", "predicted_lambda", "return_horizon",
                 "z_stop_step", "z_stop"}
EVENT_ROW_KEYS = {"n", "r", "eps", "t_horizon", "s_horizon", "min_pi_tilde", "max_pi_tilde",
                  "n_pi_tilde_delta", "max_tv_at_s", "tv_mode", "a4_stopped_starts",
                  "return_mass", "return_stop_step", "a1", "a2", "a3", "a4", "a5",
                  "seed_index", "dfa_seed", "resamples"}


def read_json(path):
    text = path.read_text()
    assert text.endswith("}\n") and not text.endswith("\n\n")
    return json.loads(text)


@pytest.mark.parametrize("name", sorted(FIGURE_FIT_KEYS))
def test_figure_recipe_json_key_sets(tmp_path, name):
    overrides = {"n": 20, "trials": 8, "r_values": (2,), "seed": 5}
    if name.startswith("fig2"):
        overrides["kingman_size"] = 200
    run_recipe(Recipe(name, overrides=overrides, out_dir=tmp_path), workers=1)
    manifest = read_json(tmp_path / f"{name}-r2-manifest.json")
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["recipe"] == name and manifest["n"] == 20 and manifest["r"] == 2
    assert manifest["starts"] == ("uniform" if name.startswith("fig1") else None)
    report = read_json(tmp_path / f"{name}-verify.json")
    assert set(report) == {"recipe", "mode", "n", "seed", "per_r", "failures"}
    assert report["recipe"] == name and set(report["per_r"]) == {"2"}
    assert set(report["per_r"]["2"]) == FIGURE_ENTRY_KEYS | FIGURE_FIT_KEYS[name]


def test_fvtl_suite_report_key_set(tmp_path):
    run_recipe(Recipe("thm-fvtl-suite", overrides={"chains": 2, "seed": 3}, out_dir=tmp_path))
    report = read_json(tmp_path / "thm-fvtl-suite-report.json")
    assert set(report) == {"recipe", "seed", "chains", "max_identity_dev", "max_tail_dev",
                           "max_qs_mean_dev", "failures", "rows"}
    assert report["recipe"] == "thm-fvtl-suite"
    closed_form = {"closed_form_lambda_error", "closed_form_mu_error"}
    assert [set(row) for row in report["rows"]] == (
        [FVTL_ROW_KEYS] * 2 + [FVTL_ROW_KEYS | closed_form] * 5)


def test_events_report_key_set(tmp_path):
    run_recipe(Recipe("events-a1-a5", overrides={"n": 20, "seed": 2}, out_dir=tmp_path))
    report = read_json(tmp_path / "events-a1-a5-report.json")
    assert set(report) == {"recipe", "seed", "n", "eps", "rows"}
    assert report["recipe"] == "events-a1-a5"
    assert [set(row) for row in report["rows"]] == [EVENT_ROW_KEYS] * 3
