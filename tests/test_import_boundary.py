"""The Monte Carlo side runs on numpy alone; scipy loads on the first exact-side call.

Each case starts a fresh interpreter on ``src`` and runs ``cli.main``
there, so modules that an earlier test imported do not count, and what
the runs print up to interpreter exit is read.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Prints, after each step, whether any scipy module is loaded.
RUNNER = """
import json, sys
steps = json.loads(sys.argv[1])
loaded = []
for argv in steps:
    if argv is None:
        import dfa_meet, dfa_meet.cli
    else:
        # a recipe exits 1 when a bound fails at these tiny sizes; errors print "error:"
        assert dfa_meet.cli.main(argv) in (0, 1), argv
    loaded.append(any(m == "scipy" or m.startswith("scipy.") for m in sys.modules))
print(json.dumps(loaded))
"""


def scipy_loaded_after(steps, cwd):
    """One flag per step, is scipy loaded once it has run (None is the imports), and stderr."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("DFA_MEET_THREADS", None)
    done = subprocess.run([sys.executable, "-c", RUNNER, json.dumps([None, *steps])], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0 and "error:" not in done.stderr, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    return dict(zip(["import", *map(" ".join, steps)], loaded)), done.stderr


def test_monte_carlo_commands_load_no_scipy(tmp_path):
    sim = ["simulate", "--n", "20", "--r", "2", "--trials", "8", "--seed", "0"]
    steps = [["gen", "--n", "20", "--r", "2", "--seed", "0", "--out", "dfa.json"]]
    for mode in ("independent", "coupled", "coalescing", "sync"):
        for threads in ("1", "2"):
            steps.append([*sim, "--mode", mode, "--threads", threads,
                          "--out", f"{mode}-{threads}.csv"])
    for against, csv in (("geom:auto", "independent-1.csv"), ("exp:1", "independent-1.csv"),
                         ("kingman", "coalescing-1.csv")):
        steps.append(["verify", "--results", csv, "--against", against,
                      "--report", f"verify-{against.replace(':', '-')}.json"])
    for name in ("fig1-independent", "fig2-sync"):
        steps.append(["recipe", name, "--n", "20", "--trials", "20", "--r-values", "2",
                      "--threads", "1", "--out-dir", name])
    # at the default worker count, as the installed command runs
    steps.append(["simulate", "--mode", "sync", "--n", "60", "--r", "2", "--trials", "8",
                  "--seed", "0", "--out", "s.csv"])
    loaded, _ = scipy_loaded_after(steps, tmp_path)
    assert not any(loaded.values()), [step for step, flag in loaded.items() if flag][0]
    assert (tmp_path / "fig2-sync" / "fig2-sync-verify.json").exists()
    assert (tmp_path / "verify-kingman.json").exists()


def test_exact_side_commands_load_scipy(tmp_path):
    gen = ["gen", "--n", "20", "--r", "2", "--seed", "0", "--out", "dfa.json"]
    for command in (["exact", "--dfa", "dfa.json", "--t-cap", "10"],
                    ["fvtl", "--dfa", "dfa.json", "--skip-events"]):
        loaded, _ = scipy_loaded_after([gen, command], tmp_path)
        assert list(loaded.values()) == [False, False, True]


def test_worker_count_leaves_the_trial_csvs_unchanged_and_runs_end_quietly(tmp_path):
    """A run whose workers end badly says so on stderr, beside its one "wrote" line."""
    runs = {}
    # at n = 2000 the first steps of each trial are numpy passes over large sets
    for n in ("60", "2000"):
        for mode in ("coalescing", "sync"):
            runs[f"{mode}-{n}"] = ["--mode", mode, "--n", n, "--r", "2", "--trials", "40"]
    # at n = 12 with cap 8, 19 coalescing and 11 sync trials are censored with three points left
    for mode in ("coalescing", "sync"):
        runs[f"{mode}-capped"] = ["--mode", mode, "--n", "12", "--r", "2", "--trials", "40",
                                  "--cap", "8"]
    # six n = 1000, r = 20 tables to a batch: 200 trials are pool tasks of 25 = 4 * 6 + 1
    for mode in ("independent", "coupled"):
        runs[mode] = ["--mode", mode, "--n", "1000", "--r", "20", "--trials", "200"]
    steps = [["simulate", *argv, "--seed", "3", "--threads", threads, "--out", f"{name}-{threads}.csv"]
             for name, argv in runs.items() for threads in ("1", "2")]
    _, stderr = scipy_loaded_after(steps, tmp_path)
    lines = stderr.splitlines()
    assert [line for line in lines if not re.match(r"wrote \d+ records to ", line)] == []
    for name in runs:
        assert (tmp_path / f"{name}-1.csv").read_bytes() == (tmp_path / f"{name}-2.csv").read_bytes()
