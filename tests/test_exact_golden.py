"""Golden values that pin the exact side: the event checks and the pair-chain first-visit report.

A refactor of the pair-chain scans that moves a stop step, a verdict or a
float past its tolerance fails here. Integers, stop steps, ``tv_mode``
and verdicts must match exactly; floats match to ``FLOAT_RTOL``, and
``max_tv_at_s``, a certified bound near ``TV_STOP_LEVEL``, to
``MAX_TV_ATOL``. To see what the current code computes, run
``PYTHONPATH=src python -m tests.test_exact_golden`` and compare its JSON
with ``tests/data/exact_golden.json``.
"""

import json
import sys
from pathlib import Path

import pytest

from dfa_meet.aux_chain import aux_fvtl_report, build_aux_chain, check_events
from dfa_meet.chains import ergodic_walk_chain, stationary_distribution

GOLDEN = Path(__file__).parent / "data" / "exact_golden.json"

# (n, r, seed): three sampled-mode instances and one exact-mode instance
CASES = [(150, 2, 0), (150, 2, 1), (150, 20, 0), (40, 2, 0)]
EPS = 0.15
FLOAT_RTOL = 1e-9
MAX_TV_ATOL = 1e-10
REPORT_FIELDS = ("mu_target", "t_horizon", "return_mass", "z_dd", "predicted_lambda",
                 "expected_hitting_from_mu", "z_stop_step", "z_stop")


def exact_values(n: int, r: int, seed: int) -> dict:
    """``check_events`` and ``aux_fvtl_report`` with the quasi-stationary pair on one instance."""
    _, chain, resamples = ergodic_walk_chain(n, r, seed)
    stationary_distribution(chain)
    aux = build_aux_chain(chain)
    report = aux_fvtl_report(aux, compute_quasi_stationary=True)
    fvtl = {key: getattr(report, key) for key in REPORT_FIELDS}
    fvtl.update(lambda_star=report.quasi.lambda_star, perron_iterations=report.quasi.iterations)
    return {"n": n, "r": r, "seed": seed, "resamples": resamples,
            "events": check_events(aux, eps=EPS).as_dict(), "fvtl": fvtl}


def assert_matches(actual: dict, golden: dict, where: str = "") -> None:
    assert set(actual) == set(golden), where
    for key, want in golden.items():
        got, at = actual[key], f"{where}.{key}"
        if isinstance(want, dict):
            assert_matches(got, want, at)
        elif isinstance(want, float):
            atol = MAX_TV_ATOL if key == "max_tv_at_s" else 0.0
            assert got == pytest.approx(want, rel=FLOAT_RTOL, abs=atol), at
        else:
            assert type(got) is type(want) and got == want, at


@pytest.mark.parametrize("n, r, seed", CASES)
def test_exact_side_matches_golden(n, r, seed):
    golden = {(g["n"], g["r"], g["seed"]): g for g in json.loads(GOLDEN.read_text())}
    assert_matches(exact_values(n, r, seed), golden[(n, r, seed)])


if __name__ == "__main__":
    json.dump([exact_values(*case) for case in CASES], sys.stdout, indent=2)
    print()
