"""Golden digests of the coalescing and sync trial streams at n = 1000.

``tests/test_streams.py`` pins every mode at n = 60, where the cluster and
image sets are small after a few steps. Here the sets hold hundreds of
points for their first steps, so a fast path for large sets is pinned on
the many steps it takes. To see what the current code computes, run
``PYTHONPATH=src python -m tests.test_large_set_streams`` and compare its
JSON with ``tests/data/large_set_stream_golden.json``.
"""

import hashlib
import json
import sys
from pathlib import Path

from dfa_meet.simulate import RunManifest, run_experiment, write_records_csv

GOLDEN = Path(__file__).parent / "data" / "large_set_stream_golden.json"
N = 1000
R_VALUES = (2, 20)
TRIALS = 12
MASTER_SEED = 1982


def large_set_digests(work: Path) -> list[dict]:
    """Trial-CSV digest of coalescing and sync, fresh automata, at each r."""
    rows = []
    for mode in ("coalescing", "sync"):
        for r in R_VALUES:
            manifest = RunManifest(master_seed=MASTER_SEED, mode=mode, n=N, r=r, trials=TRIALS)
            csv_path = work / f"{mode}-r{r}.csv"
            write_records_csv(run_experiment(manifest, workers=1), csv_path)
            rows.append({"mode": mode, "n": N, "r": r, "trials": TRIALS,
                         "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest()})
    return rows


def test_large_set_streams_match_golden(tmp_path):
    assert large_set_digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        json.dump(large_set_digests(Path(work)), sys.stdout, indent=2)
    print()
