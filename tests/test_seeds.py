import json
from pathlib import Path

import pytest

from dfa_meet.seeds import seed_split

GOLDEN = Path(__file__).parent / "data" / "seed_split_golden.json"


def test_deterministic():
    assert seed_split(3, 17, "independent") == seed_split(3, 17, "independent")


def test_golden_vectors():
    for vec in json.loads(GOLDEN.read_text()):
        assert seed_split(vec["master"], vec["index"], vec["tag"]) == vec["derived"]


def test_inputs_all_matter():
    base = seed_split(5, 9, "sync")
    assert seed_split(6, 9, "sync") != base
    assert seed_split(5, 10, "sync") != base
    assert seed_split(5, 9, "sync2") != base


def test_range_and_validation():
    assert 0 <= seed_split(0, 0, "") < 2**128
    with pytest.raises(ValueError):
        seed_split(-1, 0, "x")
    with pytest.raises(ValueError):
        seed_split(2**128, 0, "x")
    with pytest.raises(ValueError):
        seed_split(0, -1, "x")


def test_index_beyond_seed_width_is_value_error():
    assert seed_split(0, 2**128 - 1, "x") >= 0
    with pytest.raises(ValueError, match="index"):
        seed_split(0, 2**128, "x")


@pytest.mark.slow
def test_tag_variation_collision_scan():
    """Distinct tags over a million indices never collide."""
    seen = set()
    for i in range(500_000):
        seen.add(seed_split(0, i, "independent"))
        seen.add(seed_split(0, i, "coupled"))
    assert len(seen) == 1_000_000
