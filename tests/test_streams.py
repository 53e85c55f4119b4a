"""Golden digests that pin the DFA generator stream and the per-mode trial streams.

A fast path that changes one output byte fails here. The goldens were
written by the one-vertex-at-a-time swap loop and the per-step
``np.unique`` samplers that the fast paths replaced. To see what the
current code computes, run ``PYTHONPATH=src python -m tests.test_streams``
and compare its JSON with the files under ``tests/data``.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from dfa_meet.dfa import generate_dfa, serialize_dfa
from dfa_meet.simulate import MODES, RunManifest, run_experiment, write_records_csv

DATA = Path(__file__).parent / "data"
DFA_GOLDEN = DATA / "generate_dfa_golden.json"
TRIAL_GOLDEN = DATA / "trial_stream_golden.json"

# (n, r, seed): the corners r = 2 and r = n, small n, and the benchmark sizes
DFA_GRID = [
    (2, 2, 0), (2, 2, 1), (3, 2, 0), (3, 3, 4), (5, 5, 0), (5, 5, 3), (7, 4, 9),
    (17, 3, 17), (60, 7, 11), (200, 200, 0), (200, 200, 5), (300, 100, 2),
    (1000, 2, 0), (1000, 2, 17), (1000, 20, 0), (1000, 20, 5), (1000, 100, 1),
]
TRIAL_N = 60
TRIAL_R_VALUES = (2, 3)
TRIAL_COUNT = 40
TRIAL_MASTER_SEED = 20221
FIXED_DFA_SEED = 7


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dfa_digest(n: int, r: int, seed: int) -> dict:
    """Digest of the out-table and the generator's next draw after it."""
    rng = np.random.default_rng(seed)
    d = generate_dfa(n, r, rng)
    return {"n": n, "r": r, "seed": seed, "out_sha256": _sha256(d.out.tobytes()),
            "next_draw": int(rng.integers(0, 2**62))}


def trial_digests(work: Path) -> list[dict]:
    """Trial-CSV digest of every mode, r and DFA policy at ``TRIAL_N``."""
    rows = []
    for r in TRIAL_R_VALUES:
        dfa_path = work / f"fixed-r{r}.json"
        dfa_path.write_text(serialize_dfa(generate_dfa(TRIAL_N, r, FIXED_DFA_SEED)))
        for mode in MODES:
            for policy in ("fresh", "fixed"):
                manifest = RunManifest(
                    master_seed=TRIAL_MASTER_SEED, mode=mode, n=TRIAL_N, r=r,
                    trials=TRIAL_COUNT, dfa_policy=policy,
                    dfa_path=str(dfa_path) if policy == "fixed" else None,
                )
                csv_path = work / f"{mode}-{policy}-r{r}.csv"
                write_records_csv(run_experiment(manifest, workers=1), csv_path)
                rows.append({"mode": mode, "r": r, "dfa_policy": policy,
                             "csv_sha256": _sha256(csv_path.read_bytes())})
    return rows


@pytest.mark.parametrize("n, r, seed", DFA_GRID)
def test_generate_dfa_matches_golden(n, r, seed):
    golden = {(g["n"], g["r"], g["seed"]): g for g in json.loads(DFA_GOLDEN.read_text())}
    assert dfa_digest(n, r, seed) == golden[(n, r, seed)]


def test_trial_streams_match_golden(tmp_path):
    assert trial_digests(tmp_path) == json.loads(TRIAL_GOLDEN.read_text())


@pytest.mark.parametrize("r", [2, 3, 20])
def test_integer_blocks_concatenate(r):
    """Successive ``integers(0, r, size=k)`` calls read one block's values.

    The coalescing sampler draws one block and consumes it k values per
    step; that equals a draw per step only while this property holds.
    """
    sizes = [1, 2, 3, 5, 8, 7, 4, 13, 1, 1, 64, 999, 6, 4096, 11, 2]
    split = np.random.default_rng(r)
    parts = np.concatenate([split.integers(0, r, size=k) for k in sizes])
    block = np.random.default_rng(r).integers(0, r, size=sum(sizes))
    np.testing.assert_array_equal(parts, block)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        json.dump({"generate_dfa": [dfa_digest(*case) for case in DFA_GRID],
                   "trial_streams": trial_digests(Path(work))}, sys.stdout, indent=2)
    print()
