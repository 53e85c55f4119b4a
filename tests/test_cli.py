import json
import os
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dfa_meet import chains, simulate
from dfa_meet.aux_chain import build_aux_chain
from dfa_meet.chains import walk_matrix
from dfa_meet.cli import main
from dfa_meet.dfa import generate_dfa, parse_dfa, serialize_dfa
from dfa_meet.simulate import read_records_csv


@pytest.fixture
def dfa_file(tmp_path):
    path = tmp_path / "dfa.json"
    assert main(["gen", "--n", "30", "--r", "2", "--seed", "11", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """``generated(n, r, seed)``: the path of that ``dfa-meet gen`` automaton, made once."""
    root = tmp_path_factory.mktemp("generated")

    def path(n, r, seed):
        out = root / f"dfa-{n}-{r}-{seed}.json"
        if not out.exists():
            assert main(["gen", "--n", str(n), "--r", str(r), "--seed", str(seed),
                         "--out", str(out)]) == 0
        return out

    return path


def test_gen_writes_parseable_dfa(dfa_file):
    d = parse_dfa(dfa_file.read_text())
    assert d.n == 30 and d.r == 2


def test_gen_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "--n", "12", "--r", "3", "--seed", "4", "--out", str(p1)])
    main(["gen", "--n", "12", "--r", "3", "--seed", "4", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_exact_emits_expected_fields(dfa_file, tmp_path):
    out = tmp_path / "exact.json"
    code = main(["exact", "--dfa", str(dfa_file), "--t-cap", "60", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) >= {"pi", "pi_min", "pi_max", "t_mix", "d_tv_series"}
    pi = np.array(payload["pi"])
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)
    assert payload["pi_min"] <= payload["pi_max"]


def test_fvtl_emits_report_and_events(dfa_file, tmp_path):
    out = tmp_path / "fvtl.json"
    code = main([
        "fvtl", "--dfa", str(dfa_file), "--eps", "0.5",
        "--events-T", "40", "--events-S", "12", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["return_mass"] >= 1.0
    assert 0 < payload["predicted_lambda"] < 1
    events = payload["events"]
    assert {"a1", "a2", "a3", "a4", "a5"} <= set(events)
    assert events["t_horizon"] == 40 and events["s_horizon"] == 12
    assert events["tv_mode"] == "exact" and events["a4_stopped_starts"] == 0
    assert 0 < events["return_stop_step"] <= 40
    assert payload["z_stop"] == "certified"
    assert payload["z_stop_step"] % 8 == 0 and payload["z_stop_step"] >= payload["t_horizon"]


# The key set of each JSON artifact the CLI writes; a refactor must neither drop nor rename one.
FVTL_KEYS = {"n", "r", "mu_target", "t_horizon", "return_mass", "z_dd", "predicted_lambda",
             "n_predicted_lambda", "expected_hitting_from_mu", "z_stop_step", "z_stop",
             "lambda_star"}
EVENT_KEYS = {"n", "r", "eps", "t_horizon", "s_horizon", "min_pi_tilde", "max_pi_tilde",
              "n_pi_tilde_delta", "max_tv_at_s", "tv_mode", "a4_stopped_starts", "return_mass",
              "return_stop_step", "a1", "a2", "a3", "a4", "a5"}
VERIFY_KEYS = {"results", "against", "count", "censored_count", "reference", "params",
               "ks_distance", "w1_distance", "sample_mean", "sample_variance", "sem",
               "sup_tail_ratio"}


SMALL_EVENTS = ["--eps", "0.5", "--events-T", "40", "--events-S", "12"]


@pytest.mark.parametrize("size, flags", [
    *(((30, 2, 11), SMALL_EVENTS + flags)
      for flags in ([], ["--quasi"], ["--skip-events"], ["--quasi", "--skip-events"])),
    ((200, 2, 0), ["--quasi"]),  # the pair chain's meeting rate, with the events
    ((400, 20, 0), ["--skip-events"]),
], ids=["events-no-quasi", "events-quasi", "skip-events-no-quasi", "skip-events-quasi",
        "200-2-quasi", "400-20-skip-events"])
def test_fvtl_report_key_set(generated, tmp_path, capsys, size, flags):
    quasi, skip_events = "--quasi" in flags, "--skip-events" in flags
    argv = ["fvtl", "--dfa", str(generated(*size)), *flags]
    out = tmp_path / "fvtl.json"
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == out.read_text()
    payload = json.loads(out.read_text())
    assert set(payload) == FVTL_KEYS | (set() if skip_events else {"events"})
    if not skip_events:
        assert set(payload["events"]) == EVENT_KEYS
    assert (payload["lambda_star"] is None) == (not quasi)
    assert not quasi or 0 < payload["lambda_star"] < 1
    assert payload["z_stop"] == "certified"


@pytest.mark.parametrize("results, against", [
    *(("coalescing_csv", against) for against in ["geom:auto", "geom:0.05", "exp:1", "kingman"]),
    *(("independent_csv", against) for against in ["geom:auto", "geom:0.02", "exp:1"]),
])
def test_verify_report_key_set(tmp_path, request, results, against):
    results = request.getfixturevalue(results)
    report_path = tmp_path / "verify.json"
    assert main(["verify", "--results", str(results), "--against", against,
                 "--report", str(report_path)]) == 0
    text = report_path.read_text()
    assert text.endswith("}\n") and not text.endswith("\n\n")
    payload = json.loads(text)
    assert set(payload) == VERIFY_KEYS
    assert payload["results"] == str(results) and payload["against"] == against
    assert 0 <= payload["ks_distance"] <= 1


def test_simulate_and_verify_round_trip(tmp_path, dfa_file):
    csv_path = tmp_path / "runs.csv"
    code = main([
        "simulate", "--mode", "independent", "--n", "30", "--r", "2",
        "--trials", "200", "--seed", "5", "--fixed-dfa", str(dfa_file),
        "--starts", "0,1", "--threads", "1", "--out", str(csv_path),
    ])
    assert code == 0
    records = read_records_csv(csv_path)
    assert len(records) == 200
    assert all(rec.x == 0 and rec.y == 1 for rec in records)

    report_path = tmp_path / "verify.json"
    code = main([
        "verify", "--results", str(csv_path), "--against", "geom:auto",
        "--report", str(report_path),
    ])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["reference"] == "geometric"
    assert 0 < payload["params"]["lambda"] < 1


def test_verify_exp_reference(tmp_path, dfa_file):
    csv_path = tmp_path / "runs.csv"
    main([
        "simulate", "--mode", "coupled", "--n", "30", "--r", "2",
        "--trials", "100", "--seed", "6", "--fixed-dfa", str(dfa_file),
        "--threads", "1", "--out", str(csv_path),
    ])
    report_path = tmp_path / "verify.json"
    assert main(["verify", "--results", str(csv_path), "--against", "exp:1",
                 "--report", str(report_path)]) == 0
    payload = json.loads(report_path.read_text())
    assert payload["reference"] == "exponential"


@pytest.fixture
def coalescing_csv(tmp_path):
    path = tmp_path / "coalescing.csv"
    assert main(["simulate", "--mode", "coalescing", "--n", "20", "--r", "2",
                 "--trials", "30", "--seed", "1", "--threads", "1", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def independent_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("independent") / "independent-60.csv"
    assert main(["simulate", "--mode", "independent", "--n", "60", "--r", "2", "--trials", "40",
                 "--seed", "2", "--threads", "1", "--out", str(path)]) == 0
    return path


def test_verify_kingman_reference(tmp_path, coalescing_csv):
    report_path = tmp_path / "verify.json"
    assert main(["verify", "--results", str(coalescing_csv), "--against", "kingman",
                 "--report", str(report_path)]) == 0
    payload = json.loads(report_path.read_text())
    assert payload["against"] == "kingman" and payload["reference"] == "kingman"
    assert payload["count"] + payload["censored_count"] == 30


@pytest.mark.parametrize("mean", ["-1", "0", "nan", "inf"])
def test_verify_rejects_an_exponential_mean_outside_zero_to_infinity(
        tmp_path, coalescing_csv, capsys, mean):
    report_path = tmp_path / "verify.json"
    assert main(["verify", "--results", str(coalescing_csv), "--against", f"exp:{mean}",
                 "--report", str(report_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mean must be finite and positive") and "Traceback" not in err
    assert not report_path.exists()


@pytest.mark.parametrize("rate", ["nan", "0", "1.5", "inf"])
def test_verify_rejects_a_geometric_rate_outside_zero_to_one(tmp_path, coalescing_csv, capsys, rate):
    report_path = tmp_path / "verify.json"
    assert main(["verify", "--results", str(coalescing_csv), "--against", f"geom:{rate}",
                 "--report", str(report_path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: rate must be in (0, 1], got {float(rate)}"]
    assert not report_path.exists()


@pytest.mark.parametrize("against", ["geom:auto", "kingman"])
def test_verify_rejects_a_csv_whose_every_record_is_censored(tmp_path, capsys, against):
    csv_path = tmp_path / "censored.csv"
    assert main(["simulate", "--mode", "coalescing", "--n", "50", "--r", "2", "--trials", "5",
                 "--seed", "0", "--cap", "1", "--threads", "1", "--out", str(csv_path)]) == 0
    assert all(rec.censored for rec in read_records_csv(csv_path))
    capsys.readouterr()
    report_path = tmp_path / "verify.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", "--results", str(csv_path), "--against", against,
                     "--report", str(report_path)])
    assert code == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: no uncensored records to verify") and "Traceback" not in err
    assert not report_path.exists()


CSV_HEADER_LINE = "trial,derived_seed,mode,n,r,x,y,tau,censored\r\n"
CSV_GOOD_ROW = "0,12,independent,20,2,3,7,15,0\r\n"


@pytest.mark.parametrize("text, message", [
    (CSV_HEADER_LINE + CSV_GOOD_ROW + "1,13\r\n", "line 3: 2 fields, expected 9"),
    ("", "line 1: empty file, expected the CSV header"),
    (CSV_HEADER_LINE + CSV_GOOD_ROW.replace(",0\r\n", ",2\r\n"),
     "line 2: censored must be 0 or 1, got '2'"),
    (CSV_HEADER_LINE + CSV_GOOD_ROW + CSV_GOOD_ROW.replace(",15,", ",abc,"),
     "line 3: tau must be an integer, got 'abc'"),
    (CSV_HEADER_LINE + CSV_GOOD_ROW.replace(",15,", ",1_5,"),
     "line 2: tau must be an integer, got '1_5'"),
    (CSV_HEADER_LINE + CSV_GOOD_ROW.replace("independent", "bogus"),
     "line 2: unknown mode 'bogus', expected one of "
     "('independent', 'coupled', 'coalescing', 'sync')"),
    (CSV_HEADER_LINE + CSV_GOOD_ROW + CSV_GOOD_ROW.replace(",20,", ",21,"),
     "line 3: (mode, n, r) = ('independent', 21, 2) differs from the first row's "
     "('independent', 20, 2)"),
    (CSV_HEADER_LINE + CSV_GOOD_ROW.replace(",15,", ",-3,"),
     "line 2: tau must be at least 0, got -3"),
    (CSV_HEADER_LINE + CSV_GOOD_ROW.replace(",20,", ",0,"),
     "line 2: invalid sizes n=0, r=2: need 2 <= r <= n <= 2**63 - 1"),
    (CSV_HEADER_LINE + CSV_GOOD_ROW + CSV_GOOD_ROW.replace(",20,2,", ",20,21,"),
     "line 3: invalid sizes n=20, r=21: need 2 <= r <= n <= 2**63 - 1"),
    (CSV_HEADER_LINE + CSV_GOOD_ROW.replace(",15,", f",{10**400},"),
     "line 2: tau must be at most 2**63 - 1"),
    (CSV_HEADER_LINE + CSV_GOOD_ROW.replace(",15,", f",{2**63},"),
     "line 2: tau must be at most 2**63 - 1"),
    (CSV_HEADER_LINE + CSV_GOOD_ROW.replace(",15,", ",1" + "0" * 4999 + ","),
     f"line 2: tau has more than {sys.get_int_max_str_digits()} digits"),
    (CSV_HEADER_LINE + CSV_GOOD_ROW.replace(",15,", ",1" + "0" * 140_000 + ","),
     "line 2: field larger than field limit (131072)"),
], ids=["short-row", "empty-file", "censored-2", "tau-abc", "tau-underscore", "mode-bogus",
        "mixed-n", "tau-negative", "n-zero", "r-above-n", "tau-401-digits", "tau-2**63",
        "tau-5000-digits", "field-over-csv-limit"])
def test_verify_rejects_a_malformed_csv_naming_the_line(tmp_path, capsys, text, message):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_bytes(text.encode())
    report_path = tmp_path / "verify.json"
    assert main(["verify", "--results", str(csv_path), "--against", "geom:auto",
                 "--report", str(report_path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {csv_path}, {message}"]
    assert not report_path.exists()


CSV_ROWS = [CSV_HEADER_LINE.strip().split(",")] + [
    f"{i},{12 + i},independent,20,2,{i},{i + 5},{15 + 7 * i},{int(i == 2)}".split(",")
    for i in range(4)]


def render_csv(rows):
    return "".join(",".join(row) + "\r\n" for row in rows)


@st.composite
def mutated_trial_csvs(draw):
    """A valid trial CSV, truncated, or with one field dropped, duplicated or replaced."""
    rows = [list(row) for row in CSV_ROWS]
    kind = draw(st.sampled_from(["truncate", "drop", "duplicate", "replace"]))
    if kind == "truncate":
        text = render_csv(rows)
        return text[:draw(st.integers(0, len(text) - 1))]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    j = draw(st.integers(0, len(row) - 1))
    if kind == "drop":
        del row[j]
    elif kind == "duplicate":
        row.insert(j, row[j])
    else:
        row[j] = draw(st.one_of(
            st.integers(2**63 - 2, 10**450).map(str),
            st.integers(-(10**30), -1).map(str),
            st.text(max_size=12),
        ))
    return render_csv(rows)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_trial_csvs())
@example(text=CSV_HEADER_LINE + CSV_GOOD_ROW.replace(",20,", ",0,"))
@example(text=CSV_HEADER_LINE + CSV_GOOD_ROW.replace(",15,", f",{10**400},"))
def test_verify_reports_or_fails_cleanly_on_a_mutated_csv(tmp_path, capsys, text):
    """Exit 0 with a report, or exit 1 with one error line; never a traceback or a warning."""
    csv_path, report_path = tmp_path / "mutated.csv", tmp_path / "verify.json"
    csv_path.write_bytes(text.encode("utf-8", "surrogatepass"))
    report_path.unlink(missing_ok=True)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["verify", "--results", str(csv_path), "--against", "exp:1",
                     "--report", str(report_path)])
    err = capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Traceback" not in err
    if code == 0:
        assert 0 <= json.loads(report_path.read_text())["ks_distance"] <= 1
    else:
        assert code == 1 and len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not report_path.exists()


def test_fvtl_rejects_a_deeply_nested_dfa_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 10**5)
    assert main(["fvtl", "--dfa", str(path), "--skip-events"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: invalid JSON: nested too deeply"]


DFA_TEXT = serialize_dfa(generate_dfa(6, 3, 5))
BAD_JSON_VALUES = st.one_of(
    st.integers(2**63, 10**30),
    st.integers(-(10**30), -1),
    st.floats(),
    st.booleans(),
    st.text(max_size=8),
    st.none(),
    st.lists(st.lists(st.integers(0, 5), max_size=3), min_size=1, max_size=3),
)


@st.composite
def mutated_dfa_texts(draw):
    """A valid n = 6 DFA file, truncated, with a key dropped, or with one value replaced."""
    kind = draw(st.sampled_from(["truncate", "drop", "n", "r", "row", "target"]))
    if kind == "truncate":
        return DFA_TEXT[:draw(st.integers(0, len(DFA_TEXT) - 1))]
    obj = json.loads(DFA_TEXT)
    if kind == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind in ("n", "r"):
        obj[kind] = draw(BAD_JSON_VALUES)
    elif kind == "row":
        obj["out"][draw(st.integers(0, 5))] = draw(BAD_JSON_VALUES)
    else:
        obj["out"][draw(st.integers(0, 5))][draw(st.integers(0, 2))] = draw(BAD_JSON_VALUES)
    return json.dumps(obj)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_dfa_texts())
@example(text="[" + DFA_TEXT + "]")  # a top-level list
@example(text=DFA_TEXT.replace("[[", "[[0, ", 1))  # a row of four targets
def test_exact_reports_or_fails_cleanly_on_a_mutated_dfa(tmp_path, capsys, text):
    """Exit 0 with a report, or exit 1 with one error line; never a traceback."""
    dfa_path, out = tmp_path / "mutated.json", tmp_path / "exact.json"
    dfa_path.write_bytes(text.encode("utf-8", "surrogatepass"))
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = main(["exact", "--dfa", str(dfa_path), "--t-cap", "5", "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert {"n", "t_mix"} <= set(json.loads(out.read_text()))
    else:
        assert code == 1 and len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()


def test_fvtl_names_the_horizon_flag_when_it_is_not_an_integer(dfa_file, tmp_path, capsys):
    out = tmp_path / "fvtl.json"
    assert main(["fvtl", "--dfa", str(dfa_file), "--T", "abc", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: --T must be 'auto' or an integer, got 'abc'"]
    assert not out.exists()


@pytest.mark.parametrize("against, message", [
    ("geom:abc", "error: --against geom:<rate> must be a number, got 'abc'"),
    ("exp:abc", "error: --against exp:<mean> must be a number, got 'abc'"),
])
def test_verify_names_the_reference_flag_when_its_number_is_malformed(
        tmp_path, coalescing_csv, capsys, against, message):
    report_path = tmp_path / "verify.json"
    assert main(["verify", "--results", str(coalescing_csv), "--against", against,
                 "--report", str(report_path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [message] and "Traceback" not in err
    assert not report_path.exists()


def test_simulate_names_the_starts_flag_when_it_is_not_integers(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--mode", "coupled", "--n", "10", "--r", "2", "--trials", "4",
                 "--seed", "0", "--starts", "a,b", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: --starts must be two integers 'x,y', got 'a,b'"]
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--mode", "independent", "--n", "1", "--r", "5", "--seed", "-4"],
     "invalid sizes n=1, r=5: need n >= 2 and 2 <= r <= n"),
    (["--mode", "sync", "--n", "10", "--r", "2", "--seed", "-4"],
     "master seed must be in [0, 2**128), got -4"),
    (["--mode", "coupled", "--n", "10", "--r", "2", "--seed", "0", "--starts", "0,99"],
     "start vertex 99 outside [0, 10)"),
], ids=["sizes", "seed", "starts"])
def test_simulate_checks_its_run_before_any_trial(tmp_path, capsys, argv, message):
    out = tmp_path / "s.csv"
    assert main(["simulate", *argv, "--trials", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_simulate_rejects_a_fixed_dfa_of_another_size(tmp_path, dfa_file, capsys):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--mode", "independent", "--n", "20", "--r", "2", "--trials", "4",
                 "--seed", "0", "--fixed-dfa", str(dfa_file), "--threads", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: fixed DFA does not match the manifest dimensions"]
    assert not out.exists()


def test_recipe_names_the_r_values_flag_when_it_is_not_integers(tmp_path, capsys):
    code = main(["recipe", "events-a1-a5", "--r-values", "2,x", "--out-dir", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: --r-values must be comma-separated integers, got '2,x'"]
    assert not (tmp_path / "out").exists()


def test_gen_names_the_seed_when_it_is_negative(tmp_path, capsys):
    out = tmp_path / "dfa.json"
    assert main(["gen", "--n", "5", "--r", "2", "--seed", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: seed must be a non-negative integer, got -1"]
    assert not out.exists()


def test_verify_names_a_negative_kingman_seed(tmp_path, coalescing_csv, capsys):
    report = tmp_path / "verify.json"
    assert main(["verify", "--results", str(coalescing_csv), "--against", "kingman",
                 "--seed", "-1", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: seed must be a non-negative integer, got -1"]
    assert not report.exists()


# Sizes of at least 10**18: an allocation that small can succeed under overcommit.
@pytest.mark.parametrize("argv", [
    ["gen", "--n", str(10**18), "--r", "2", "--seed", "0"],
    ["exact", "--t-cap", str(10**18)],
    ["simulate", "--mode", "independent", "--n", str(10**18), "--r", "2", "--trials", "1",
     "--seed", "0", "--threads", "1"],
])
def test_huge_sizes_exit_one_without_a_traceback(dfa_file, tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv[0] == "exact":
        argv = argv + ["--dfa", str(dfa_file)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: Unable to allocate")
    assert not out.exists()


@pytest.mark.parametrize("name, r_values, n", [
    ("fig1-independent", "2,3", "2"),  # r = 3 > n fails before r = 2 runs
    ("fig1-coupled", f"2,{2**128}", "20"),  # r = 2**128 is no seed_split index
])
def test_a_failing_figure_recipe_writes_no_file(tmp_path, capsys, name, r_values, n):
    assert main(["recipe", name, "--n", n, "--r-values", r_values, "--trials", "5",
                 "--threads", "1", "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not list((tmp_path / "out").iterdir())


def test_fvtl_suite_recipe_passes_at_its_defaults(tmp_path, capsys):
    assert main(["recipe", "thm-fvtl-suite", "--out-dir", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert err.splitlines() == [f"recipe thm-fvtl-suite: exit 0; artifacts in {tmp_path}"]
    assert [path.name for path in tmp_path.glob("*.json")] == ["thm-fvtl-suite-report.json"]
    report = json.loads((tmp_path / "thm-fvtl-suite-report.json").read_text())
    assert report["recipe"] == "thm-fvtl-suite"


def test_worker_count_leaves_the_fig2_sync_recipe_output_unchanged(tmp_path):
    for threads in ("1", "2"):
        assert main(["recipe", "fig2-sync", "--n", "60", "--trials", "40", "--threads", threads,
                     "--out-dir", str(tmp_path / threads)]) == 0
    one, two = ({p.name: p.read_bytes() for p in (tmp_path / t).iterdir()} for t in ("1", "2"))
    assert one == two
    reports = sorted(name for name in one if name.endswith(".json"))
    assert reports == ["fig2-sync-r2-manifest.json", "fig2-sync-r20-manifest.json",
                       "fig2-sync-verify.json"]
    assert all(json.loads(one[name])["recipe"] == "fig2-sync" for name in reports)


def test_thread_count_leaves_the_exact_side_reports_unchanged(generated, tmp_path, monkeypatch):
    """Both sizes are above the gate from which pair-chain steps and mixing
    profiles run on threads; two threads run on any machine."""
    monkeypatch.setattr(chains, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(chains, "_pool", None)
    runs = {"fvtl": ["fvtl", "--dfa", str(generated(400, 20, 0)), "--quasi", "--skip-events"],
            "exact": ["exact", "--dfa", str(generated(1000, 2, 0))]}
    for threads in ("1", "2"):
        monkeypatch.setenv("DFA_MEET_THREADS", threads)
        for name, argv in runs.items():
            assert main([*argv, "--out", str(tmp_path / f"{name}-{threads}.json")]) == 0
    assert chains._pool[0] == 2
    for name in runs:
        assert (tmp_path / f"{name}-1.json").read_bytes() == (tmp_path / f"{name}-2.json").read_bytes()


def test_fvtl_suite_recipe_prints_each_failure(tmp_path, capsys, monkeypatch):
    from dfa_meet import recipes

    monkeypatch.setattr(recipes, "IDENTITY_TOL", -1)
    assert main(["recipe", "thm-fvtl-suite", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    failures = json.loads((tmp_path / "thm-fvtl-suite-report.json").read_text())["failures"]
    # the three identity checks of each of the 50 random and 5 two-state chains
    assert len(failures) == 3 * 55
    assert re.fullmatch(r"random-0: identity_dev = \d\.\d{3}e[+-]\d\d > -1", failures[0])
    assert err == [f"FAIL {failure}" for failure in failures] + [
        f"recipe thm-fvtl-suite: exit 1; artifacts in {tmp_path}"]


def test_recipe_names_the_recipe_and_r_when_no_trial_is_left_to_fit(tmp_path, capsys):
    assert main(["recipe", "fig1-independent", "--trials", "0", "--n", "20",
                 "--threads", "1", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: recipe 'fig1-independent': no uncensored trial is left "
                                "to fit at r=2 (0 trials, 0 censored)"]


def test_fvtl_names_the_memory_its_pair_chain_would_hold(dfa_file, tmp_path, monkeypatch, capsys):
    build_aux_chain(walk_matrix(generate_dfa(1000, 2, 0)))  # fits at the real memory size
    monkeypatch.setattr(os, "sysconf", lambda name: 4096 if name == "SC_PAGE_SIZE" else 1)
    out = tmp_path / "fvtl.json"
    assert main(["fvtl", "--dfa", str(dfa_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: the pair chain at n = 30 would hold 2.68e-05 GiB of 4 n x n states, "
        "more than the 3.81e-06 GiB of memory"]
    assert not out.exists()


def test_exact_rejects_a_negative_cap(dfa_file, tmp_path, capsys):
    out = tmp_path / "exact.json"
    assert main(["exact", "--dfa", str(dfa_file), "--t-cap", "-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: horizon must be at least 0, got -1") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["nan", "-1", "0", "inf"])
def test_fvtl_rejects_an_eps_that_is_not_finite_and_positive(dfa_file, tmp_path, capsys, eps):
    """So does ``recipe events-a1-a5``, which hands ``eps`` to the same check."""
    out, out_dir = tmp_path / "fvtl.json", tmp_path / "events"
    for argv in (["fvtl", "--dfa", str(dfa_file), "--eps", eps, "--out", str(out)],
                 ["recipe", "events-a1-a5", "--n", "30", "--eps", eps, "--out-dir", str(out_dir)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eps must be finite and positive") and err.count("\n") == 1
        assert "Traceback" not in err
    assert not out.exists() and not any(out_dir.iterdir())


def test_fvtl_rejects_a_bad_eps_before_the_report(dfa_file, monkeypatch, capsys):
    from dfa_meet import aux_chain

    def no_report(*args, **kwargs):
        raise AssertionError("aux_fvtl_report ran before check_events")

    monkeypatch.setattr(aux_chain, "aux_fvtl_report", no_report)
    assert main(["fvtl", "--dfa", str(dfa_file), "--eps", "nan"]) == 1
    assert capsys.readouterr().err.startswith("error: eps must be finite and positive")


def test_unknown_recipe_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["recipe", "no-such-recipe"])
    assert exc.value.code == 2


def test_unknown_reference_errors(tmp_path, dfa_file):
    csv_path = tmp_path / "runs.csv"
    main([
        "simulate", "--mode", "sync", "--n", "30", "--r", "2", "--trials", "5",
        "--seed", "1", "--fixed-dfa", str(dfa_file), "--threads", "1",
        "--out", str(csv_path),
    ])
    code = main(["verify", "--results", str(csv_path), "--against", "cauchy",
                 "--report", str(tmp_path / "r.json")])
    assert code == 1


def test_exact_reducible_dfa_exits_one(tmp_path, capsys):
    # two disjoint strongly connected triangles: two recurrent classes
    from dfa_meet.dfa import Dfa, serialize_dfa

    out = np.array([[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]])
    path = tmp_path / "reducible.json"
    path.write_text(serialize_dfa(Dfa(n=6, r=2, out=out)))
    assert main(["exact", "--dfa", str(path)]) == 1
    assert "resample" in capsys.readouterr().err


def test_simulate_threads_env(tmp_path, dfa_file, monkeypatch):
    monkeypatch.setenv("DFA_MEET_THREADS", "1")
    csv_path = tmp_path / "runs.csv"
    code = main([
        "simulate", "--mode", "independent", "--n", "30", "--r", "2",
        "--trials", "16", "--seed", "9", "--fixed-dfa", str(dfa_file),
        "--out", str(csv_path),
    ])
    assert code == 0
    assert len(read_records_csv(csv_path)) == 16


def test_simulate_rejects_worker_counts_below_one(tmp_path, dfa_file, monkeypatch, capsys):
    out = tmp_path / "runs.csv"
    argv = ["simulate", "--mode", "independent", "--n", "30", "--r", "2", "--trials", "4",
            "--seed", "9", "--fixed-dfa", str(dfa_file), "--out", str(out)]
    for threads in ("0", "-5"):
        assert main(argv + ["--threads", threads]) == 1
        assert f"workers={threads}:" in capsys.readouterr().err
    for value in ("0", "abc", "1.5", "nan"):
        monkeypatch.setenv("DFA_MEET_THREADS", value)
        assert main(argv) == 1
        assert f"DFA_MEET_THREADS={value}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["exact", "fvtl"])
@pytest.mark.parametrize("value", ["0", "abc", "-2"])
def test_exact_side_rejects_a_malformed_worker_count(dfa_file, tmp_path, monkeypatch, capsys,
                                                     command, value):
    monkeypatch.setenv("DFA_MEET_THREADS", value)
    out = tmp_path / "report.json"
    assert main([command, "--dfa", str(dfa_file), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: DFA_MEET_THREADS={value}: the worker count must be "
                                + ("an integer" if value == "abc" else "at least 1")]
    assert not out.exists()


@pytest.fixture
def duplicate_target_file(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"n": 3, "r": 2, "out": [[1, 2], [0, 0], [0, 1]]}))
    return path


def test_dfa_errors_exit_one(tmp_path, duplicate_target_file, capsys):
    assert main(["gen", "--n", "1", "--r", "2", "--seed", "0",
                 "--out", str(tmp_path / "g.json")]) == 1
    assert "invalid sizes" in capsys.readouterr().err
    dup = str(duplicate_target_file)
    for argv in (
        ["exact", "--dfa", dup],
        ["fvtl", "--dfa", dup],
        ["simulate", "--mode", "independent", "--n", "3", "--r", "2", "--trials", "4",
         "--seed", "0", "--fixed-dfa", dup, "--threads", "1",
         "--out", str(tmp_path / "s.csv")],
    ):
        assert main(argv) == 1
        assert "error: row 1: one-to-one violated" in capsys.readouterr().err


def test_simulate_rejects_starts_in_all_vertex_modes(tmp_path, capsys):
    for mode in ("coalescing", "sync"):
        code = main([
            "simulate", "--mode", mode, "--n", "10", "--r", "2", "--trials", "4",
            "--seed", "0", "--starts", "0,1", "--threads", "1",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 1
        assert "starts" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_simulate_rejects_negative_trials(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--mode", "sync", "--n", "10", "--r", "2", "--trials", "-3",
                 "--seed", "0", "--out", str(out)]) == 1
    assert not out.exists()


def test_recipe_with_oversized_r_exits_one(tmp_path, capsys):
    code = main(["recipe", "fig1-independent", "--r-values", str(2**128), "--trials", "1",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert "index" in capsys.readouterr().err


def test_recipe_rejects_flags_it_does_not_read(tmp_path, capsys):
    code = main(["recipe", "thm-fvtl-suite", "--trials", "5", "--eps", "0.3",
                 "--r-values", "7", "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: recipe 'thm-fvtl-suite' does not read" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", ["events-a1-a5", "thm-fvtl-suite"])
def test_serial_recipes_reject_threads(tmp_path, capsys, name):
    code = main(["recipe", name, "--threads", "4", "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert f"error: recipe '{name}' runs serially" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_stationary_residual_failure_exits_one(dfa_file, monkeypatch, capsys):
    from dfa_meet import chains

    monkeypatch.setattr(chains, "STATIONARY_RESIDUAL_TOL", -1.0)
    assert main(["exact", "--dfa", str(dfa_file)]) == 1
    assert "error: stationary residual" in capsys.readouterr().err


def test_convergence_failure_exits_one(dfa_file, monkeypatch, capsys):
    from dfa_meet import cli
    from dfa_meet.chains import ConvergenceError

    def stalls(chain):
        raise ConvergenceError(7, 0.25)

    monkeypatch.setattr(cli, "stationary_distribution", stalls)
    assert main(["exact", "--dfa", str(dfa_file)]) == 1
    assert "no convergence after 7 iterations" in capsys.readouterr().err


HUGE = str(10**18)


def fuzz_cases():
    """Each numeric flag of gen, simulate, fvtl and recipe fig2-* at -1, 0 and 10**18.

    A huge worker count starts no process: these runs have 3 or 4 trials,
    and ``run_experiment`` runs serially whenever ``trials < 4 * workers``.
    Sync runs to its cap on an automaton that does not synchronize, as the
    n = 5 one of seed 0 does, so it is not given a huge cap.
    """
    def with_flag(base, flag, value):
        if flag in base:
            argv = list(base)
            argv[argv.index(flag) + 1] = value
            return argv
        return base + [f"{flag}={value}"]

    values = ("-1", "0", HUGE)
    gen = ["gen", "--n", "5", "--r", "2", "--seed", "0"]
    cases = [with_flag(gen, flag, v) for flag in ("--n", "--r", "--seed") for v in values]
    for mode in ("independent", "coupled", "coalescing", "sync"):
        base = ["simulate", "--n", "5", "--r", "2", "--trials", "3", "--seed", "0", "--mode", mode]
        for flag in ("--n", "--r", "--trials", "--seed", "--cap", "--threads"):
            cases += [with_flag(base, flag, v) for v in values
                      if not (v == HUGE and flag == "--cap" and mode == "sync")]
        if mode in ("independent", "coupled"):
            cases += [with_flag(base, "--starts", v) for v in ("-1,0", "0,0", f"{HUGE},0")]
    cases += [with_flag(["fvtl"], flag, v)
              for flag in ("--T", "--eps", "--events-T", "--events-S") for v in values]
    for name in ("fig2-coalescing", "fig2-sync"):
        base = ["recipe", name, "--n", "5", "--trials", "4", "--r-values", "2", "--seed", "0"]
        for flag in ("--seed", "--n", "--trials", "--r-values", "--eps", "--threads"):
            cases += [with_flag(base, flag, v) for v in values]
    return cases


@pytest.mark.parametrize("argv", fuzz_cases(), ids=" ".join)
def test_numeric_flags_fail_cleanly_or_write_a_well_formed_artifact(
        tmp_path, capsys, monkeypatch, argv):
    """Exit 1 with one ``error:`` line and no artifact, or exit 0 with a well-formed one.

    A figure recipe whose asserted bounds fail at n = 5 exits 1 too, with
    its artifacts and the failures in its verify report. No case may use a
    worker pool, which at a huge worker count would fork that many processes;
    the guard stands where a pool is handed out, so a pool an earlier test
    made cannot pass it by.
    """
    def no_pool(*args, **kwargs):
        raise AssertionError(f"a fuzz case used a worker pool: {args} {kwargs}")

    monkeypatch.setattr(simulate, "_worker_pool", no_pool)
    out = tmp_path / "out"
    if argv[0] == "fvtl":
        dfa = tmp_path / "dfa.json"
        assert main(["gen", "--n", "5", "--r", "2", "--seed", "0", "--out", str(dfa)]) == 0
        argv = argv + ["--dfa", str(dfa)]
    argv = argv + (["--out-dir", str(out)] if argv[0] == "recipe" else ["--out", str(out)])
    code = main(argv)
    lines = capsys.readouterr().err.splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    verify = out / f"{argv[1]}-verify.json"
    if code == 1 and errors:
        assert len(lines) == 1
        assert not out.exists() or not list(out.iterdir())
        return
    assert code == 0 or argv[0] == "recipe" and json.loads(verify.read_text())["failures"]
    if argv[0] == "gen":
        assert parse_dfa(out.read_text()).n == 5
    elif argv[0] == "simulate":
        assert len(read_records_csv(out)) == int(argv[argv.index("--trials") + 1])
    elif argv[0] == "fvtl":
        assert FVTL_KEYS | {"events"} <= set(json.loads(out.read_text()))
    else:
        assert json.loads(verify.read_text())["recipe"] == argv[1]
        assert len(read_records_csv(out / f"{argv[1]}-r2.csv")) == 4
