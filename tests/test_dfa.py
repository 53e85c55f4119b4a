import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfa_meet.dfa import (
    Dfa,
    DfaError,
    DfaFormatError,
    apply_word,
    diagnostics,
    generate_dfa,
    parse_dfa,
    serialize_dfa,
)


def test_generate_basic_shape():
    d = generate_dfa(1000, 2, seed=0)
    assert d.out.shape == (1000, 2)
    # 2000 edges, two distinct out-neighbors per vertex
    assert all(d.out[x, 0] != d.out[x, 1] for x in range(1000))


def test_generate_r_equals_n_forces_full_image():
    d = generate_dfa(3, 3, seed=5)
    for x in range(3):
        assert sorted(d.out[x].tolist()) == [0, 1, 2]


def test_generate_deterministic():
    a = generate_dfa(5, 2, seed=42)
    b = generate_dfa(5, 2, seed=42)
    assert a == b
    assert generate_dfa(5, 2, seed=43) != a


def test_generate_rejects_bad_sizes():
    with pytest.raises(DfaError):
        generate_dfa(1, 2, seed=0)
    with pytest.raises(DfaError):
        generate_dfa(5, 1, seed=0)
    with pytest.raises(DfaError):
        generate_dfa(5, 6, seed=0)


def test_out_table_immutable():
    d = generate_dfa(5, 2, seed=0)
    with pytest.raises(ValueError):
        d.out[0, 0] = 3


def test_constructor_enforces_one_to_one():
    with pytest.raises(DfaError, match="one-to-one"):
        Dfa(n=3, r=2, out=np.array([[0, 0], [1, 2], [2, 0]]))


def test_apply_word_empty_and_single():
    d = generate_dfa(7, 3, seed=1)
    for v in range(7):
        assert apply_word(d, v, []) == v
        for c in range(3):
            assert apply_word(d, v, [c]) == d.out[v, c]


def test_apply_word_self_loop_color():
    # color 0 loops every vertex onto itself
    out = np.array([[0, 1], [1, 2], [2, 0]])
    d = Dfa(n=3, r=2, out=out)
    for v in range(3):
        assert apply_word(d, v, [0, 0, 0]) == v


def test_apply_word_validates():
    d = generate_dfa(4, 2, seed=0)
    with pytest.raises(DfaError):
        apply_word(d, 4, [0])
    with pytest.raises(DfaError):
        apply_word(d, 0, [2])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_apply_word_composition(seed, data):
    d = generate_dfa(9, 3, seed=seed)
    v = data.draw(st.integers(0, 8))
    w1 = data.draw(st.lists(st.integers(0, 2), max_size=12))
    w2 = data.draw(st.lists(st.integers(0, 2), max_size=12))
    assert apply_word(d, v, w1 + w2) == apply_word(d, apply_word(d, v, w1), w2)


def test_diagnostics_constant_colors():
    # every vertex maps color 0 to vertex 0 and color 1 to vertex 1, so the
    # pair (0, 1) has all n vertices as common in-neighbors
    n = 6
    out = np.tile([0, 1], (n, 1))
    d = Dfa(n=n, r=2, out=out)
    diag = diagnostics(d)
    assert diag.common_in_neighbor_pairs == 1
    assert diag.max_common_in_neighbors == n
    assert diag.in_degree_histogram == {0: n - 2, n: 2}


def test_diagnostics_histogram_mass():
    d = generate_dfa(50, 3, seed=9)
    diag = diagnostics(d)
    assert sum(deg * cnt for deg, cnt in diag.in_degree_histogram.items()) == 50 * 3
    assert sum(diag.in_degree_histogram.values()) == 50


def test_diagnostics_random_dfa_few_common_in_neighbors():
    # typical large sparse instances have at most two common in-neighbors
    hits = 0
    for seed in range(5):
        d = generate_dfa(1000, 2, seed=seed)
        if diagnostics(d).max_common_in_neighbors <= 2:
            hits += 1
    assert hits >= 4


def test_serialize_round_trip():
    d = generate_dfa(13, 4, seed=3)
    assert parse_dfa(serialize_dfa(d)) == d


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 12), st.data())
def test_serialize_round_trip_property(n, data):
    r = data.draw(st.integers(2, n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    d = generate_dfa(n, r, seed=seed)
    assert parse_dfa(serialize_dfa(d)) == d


def test_parse_rejects_duplicate_targets():
    text = json.dumps({"n": 3, "r": 2, "out": [[0, 0], [1, 2], [2, 0]]})
    with pytest.raises(DfaFormatError, match="row 0.*one-to-one violated"):
        parse_dfa(text)


def test_parse_rejects_row_count_mismatch():
    text = json.dumps({"n": 5, "r": 2, "out": [[0, 1], [1, 2], [2, 3], [3, 4]]})
    with pytest.raises(DfaFormatError, match="5 rows"):
        parse_dfa(text)


def test_parse_rejects_out_of_range_target():
    text = json.dumps({"n": 3, "r": 2, "out": [[0, 1], [1, 3], [2, 0]]})
    with pytest.raises(DfaFormatError, match="row 1, field 1"):
        parse_dfa(text)


def test_parse_rejects_json_booleans():
    # JSON true/false decode to bool, an int subclass: true must not read as 1
    for obj in (
        {"n": 3, "r": 2, "out": [[0, True], [1, 2], [2, 0]]},
        {"n": 3, "r": True, "out": [[0, 1], [1, 2], [2, 0]]},
        {"n": True, "r": 2, "out": [[0, 1]]},
    ):
        with pytest.raises(DfaFormatError):
            parse_dfa(json.dumps(obj))


def test_parse_rejects_garbage():
    with pytest.raises(DfaFormatError, match="invalid JSON"):
        parse_dfa("{not json")
    with pytest.raises(DfaFormatError, match="missing field"):
        parse_dfa(json.dumps({"n": 3, "r": 2}))


@pytest.mark.slow
def test_generator_uniformity_n3_r2():
    """Each of the (3*2)^3 = 216 possible DFAs within 5 sigma of 1/216."""
    seeds = 10**6
    counts = np.zeros(216, dtype=np.int64)
    # encode a DFA as an integer: per vertex the ordered distinct pair index
    pair_code = {}
    k = 0
    for a in range(3):
        for b in range(3):
            if a != b:
                pair_code[(a, b)] = k
                k += 1
    for seed in range(seeds):
        d = generate_dfa(3, 2, seed=seed)
        code = 0
        for x in range(3):
            code = code * 6 + pair_code[(int(d.out[x, 0]), int(d.out[x, 1]))]
        counts[code] += 1
    p = 1.0 / 216
    sigma = np.sqrt(seeds * p * (1 - p))
    assert np.abs(counts - seeds * p).max() <= 5 * sigma


def test_rows_independent_chi2():
    """Joint law of (row 0, row 1) matches the product of the marginals."""
    from scipy.stats import chi2

    trials = 40_000
    joint = np.zeros((6, 6), dtype=np.int64)
    pair_code = {}
    k = 0
    for a in range(3):
        for b in range(3):
            if a != b:
                pair_code[(a, b)] = k
                k += 1
    for seed in range(trials):
        d = generate_dfa(3, 2, seed=10**7 + seed)
        i = pair_code[(int(d.out[0, 0]), int(d.out[0, 1]))]
        j = pair_code[(int(d.out[1, 0]), int(d.out[1, 1]))]
        joint[i, j] += 1
    expected = trials / 36.0
    stat = float(((joint - expected) ** 2 / expected).sum())
    # 35 degrees of freedom; reject only at the 1e-4 level
    assert stat < chi2.ppf(1 - 1e-4, df=35)
