import json
from pathlib import Path

import numpy as np
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


def test_numpy_integers_derive_the_python_int_seed():
    assert seed_split(np.int64(3), np.uint32(17), "x") == seed_split(3, 17, "x")
    assert seed_split(np.uint64(2**64 - 1), 0, "x") == seed_split(2**64 - 1, 0, "x")


@pytest.mark.parametrize("master, message", [
    (1.5, "master seed must be an integer, got 1.5"),
    (3.0, "master seed must be an integer, got 3.0"),
    (True, "master seed must be an integer, got True"),
    ("3", "master seed must be an integer, got '3'"),
])
def test_master_seed_that_is_not_an_integer_is_value_error(master, message):
    with pytest.raises(ValueError) as exc:
        seed_split(master, 0, "x")
    assert str(exc.value) == message


@pytest.mark.parametrize("index, message", [
    (2.0, "index must be an integer, got 2.0"),
    (False, "index must be an integer, got False"),
    (None, "index must be an integer, got None"),
])
def test_index_that_is_not_an_integer_is_value_error(index, message):
    with pytest.raises(ValueError) as exc:
        seed_split(0, index, "x")
    assert str(exc.value) == message


@pytest.mark.slow
def test_tag_variation_collision_scan():
    """Distinct tags over a million indices never collide."""
    seen = set()
    for i in range(500_000):
        seen.add(seed_split(0, i, "independent"))
        seen.add(seed_split(0, i, "coupled"))
    assert len(seen) == 1_000_000
