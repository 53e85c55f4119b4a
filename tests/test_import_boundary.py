"""The Monte Carlo side runs on numpy alone; scipy loads on the first exact-side call.

Each case starts a fresh interpreter on ``src`` and runs ``cli.main``
there, so modules that an earlier test imported do not count.
"""

import json
import os
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
    """One flag per step: is scipy loaded once it has run (None is the imports)?"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("DFA_MEET_THREADS", None)
    done = subprocess.run([sys.executable, "-c", RUNNER, json.dumps([None, *steps])], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0 and "error:" not in done.stderr, done.stderr
    return dict(zip(["import", *map(" ".join, steps)], json.loads(done.stdout.splitlines()[-1])))


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
    loaded = scipy_loaded_after(steps, tmp_path)
    assert not any(loaded.values()), [step for step, flag in loaded.items() if flag][0]
    assert (tmp_path / "fig2-sync" / "fig2-sync-verify.json").exists()
    assert (tmp_path / "verify-kingman.json").exists()


def test_exact_side_commands_load_scipy(tmp_path):
    gen = ["gen", "--n", "20", "--r", "2", "--seed", "0", "--out", "dfa.json"]
    for command in (["exact", "--dfa", "dfa.json", "--t-cap", "10"],
                    ["fvtl", "--dfa", "dfa.json", "--skip-events"]):
        loaded = scipy_loaded_after([gen, command], tmp_path)
        assert list(loaded.values()) == [False, False, True]
