import itertools
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfa_meet.dfa import (
    Dfa,
    DfaError,
    DfaFormatError,
    _check_tables,
    _generate_dfas,
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


def swap_loop_dfa(n, r, seed):
    """Reference generator: the partial Fisher-Yates loop, one vertex at a time.

    Returns the out-table, the stream's next draw and the jump columns.
    """
    rng = np.random.default_rng(seed)
    jumps = [rng.integers(k, n, size=n).tolist() for k in range(r)]
    out = np.empty((n, r), dtype=np.int64)
    scratch = list(range(n))
    for v in range(n):
        for k in range(r):
            j = jumps[k][v]
            scratch[k], scratch[j] = scratch[j], scratch[k]
            out[v, k] = scratch[k]
        for k in range(r - 1, -1, -1):
            j = jumps[k][v]
            scratch[k], scratch[j] = scratch[j], scratch[k]
    return out, int(rng.integers(0, 2**62)), jumps


def test_generate_matches_swap_loop_reference():
    cases = [(2, 2), (3, 3), (4, 2), (9, 9), (50, 3), (64, 40), (120, 119), (1000, 2), (1000, 20)]
    draw = np.random.default_rng(2)
    cases += [(int(n), int(draw.integers(2, n + 1))) for n in draw.integers(2, 90, size=60)]
    # rows with a repeated jump run the swap pass, the others skip it
    repeated_rows = distinct_rows = instances_without_repeats = 0
    for seed, (n, r) in enumerate(cases):
        rng = np.random.default_rng(seed)
        out = generate_dfa(n, r, rng).out
        expected, next_draw, jumps = swap_loop_dfa(n, r, seed)
        np.testing.assert_array_equal(out, expected)
        assert int(rng.integers(0, 2**62)) == next_draw
        repeats = sum(len(set(row)) < r for row in zip(*jumps))
        repeated_rows += repeats
        distinct_rows += n - repeats
        instances_without_repeats += repeats == 0
    assert repeated_rows > 0 and distinct_rows > 0 and instances_without_repeats > 0


@pytest.mark.parametrize("n, r", [(2, 2), (3, 3), (50, 7), (1000, 20)])
def test_batch_generator_gives_each_seed_its_own_automaton(n, r):
    """A batch of seeds and of generators draws what one call per seed draws."""
    seeds = [0, 5, 2**100, np.random.default_rng(7), 11]
    batch = _generate_dfas(n, r, seeds)
    alone = [generate_dfa(n, r, np.random.default_rng(7) if i == 3 else seed)
             for i, seed in enumerate(seeds)]
    assert batch == alone
    assert all(not d.out.flags.writeable for d in batch)


def test_batch_check_names_the_row_within_its_table():
    tables = np.stack([generate_dfa(4, 2, seed=s).out for s in range(3)])
    tables[1, 2] = [3, 3]
    with pytest.raises(DfaError, match="table 1, row 2: one-to-one violated"):
        _check_tables(tables, 4)
    tables[1, 2] = [0, 1]
    tables[2, 3, 1] = 4
    with pytest.raises(DfaError, match=r"table 2, row 3, field 1: target 4 outside \[0, 4\)"):
        _check_tables(tables, 4)


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


def test_unpickled_out_table_stays_immutable():
    import pickle

    d = pickle.loads(pickle.dumps(generate_dfa(5, 2, seed=0)))
    assert d == generate_dfa(5, 2, seed=0)
    with pytest.raises(ValueError):
        d.out[0, 0] = 3


def test_constructor_enforces_one_to_one():
    with pytest.raises(DfaError, match="one-to-one"):
        Dfa(n=3, r=2, out=np.array([[0, 0], [1, 2], [2, 0]]))


def test_constructor_names_first_duplicate_row():
    with pytest.raises(DfaError, match="row 2: one-to-one violated"):
        Dfa(n=4, r=2, out=np.array([[0, 1], [1, 2], [3, 3], [0, 0]]))


def test_constructor_names_out_of_range_target():
    with pytest.raises(DfaError, match=r"row 1, field 0: target 3 outside \[0, 3\)"):
        Dfa(n=3, r=2, out=np.array([[1, 2], [3, 0], [0, -1]]))
    with pytest.raises(DfaError, match="row 2, field 1: target -1"):
        Dfa(n=3, r=2, out=np.array([[1, 2], [2, 0], [0, -1]]))


def test_dfa_errors_are_value_errors():
    assert issubclass(DfaError, ValueError)
    with pytest.raises(ValueError, match="invalid sizes"):
        Dfa(n=1, r=2, out=np.array([[0, 0]]))


@dataclass
class DfaDiagnostics:
    """Structural counts from the reversed adjacency of a DFA.

    ``common_in_neighbor_pairs`` counts unordered pairs of distinct vertices
    sharing at least one in-neighbor; ``max_common_in_neighbors`` is the
    largest number of shared in-neighbors over such pairs.
    ``in_degree_histogram`` maps in-degree to vertex count; its
    degree-weighted sum equals the edge count ``r * n``.
    """

    common_in_neighbor_pairs: int
    max_common_in_neighbors: int
    in_degree_histogram: dict[int, int]


def diagnostics(d):
    """Exact common-in-neighbor and in-degree counts.

    Any two distinct targets of the same vertex ``z`` share ``z`` as an
    in-neighbor, so shared-in-neighbor multiplicities are accumulated by
    scanning each out-neighborhood once.
    """
    pair_counts = Counter()
    for z in range(d.n):
        targets = sorted(d.out[z].tolist())
        for i in range(d.r):
            for j in range(i + 1, d.r):
                pair_counts[(targets[i], targets[j])] += 1
    in_degrees = np.bincount(d.out.ravel(), minlength=d.n)
    histogram = Counter(in_degrees.tolist())
    return DfaDiagnostics(
        common_in_neighbor_pairs=len(pair_counts),
        max_common_in_neighbors=max(pair_counts.values(), default=0),
        in_degree_histogram=dict(sorted(histogram.items())),
    )


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


def test_parse_rejects_int64_overflow_and_bad_sizes():
    with pytest.raises(DfaFormatError, match="64-bit"):
        parse_dfa('{"n": 2, "r": 2, "out": [[0, 1], [1, 18446744073709551616]]}')
    with pytest.raises(DfaFormatError, match="invalid sizes"):
        parse_dfa('{"n": 2, "r": 0, "out": [[], []]}')


def test_parse_rejects_garbage():
    with pytest.raises(DfaFormatError, match="invalid JSON"):
        parse_dfa("{not json")
    with pytest.raises(DfaFormatError, match="missing field"):
        parse_dfa(json.dumps({"n": 3, "r": 2}))
    with pytest.raises(DfaFormatError, match="top-level value must be an object"):
        parse_dfa("[]")
    with pytest.raises(DfaFormatError, match="row 1: expected 2 targets"):
        parse_dfa(json.dumps({"n": 3, "r": 2, "out": [[0, 1], [1, 2, 0], [2, 0]]}))


def test_generator_maps_every_draw_sequence_to_a_distinct_dfa_n3_r2(monkeypatch):
    """The 27 * 8 = 216 column draws at n = 3, r = 2 map one-to-one onto the 216 DFAs.

    So the generator is exactly uniform there: each DFA has probability 1/216.
    """
    columns = {k: list(itertools.product(range(k, 3), repeat=3)) for k in range(2)}

    class Draws:
        def __init__(self, sequence):
            self.sequence = iter(sequence)

        def integers(self, low, high, size):
            column = next(self.sequence)
            assert (high, size) == (3, 3) and all(low <= j < high for j in column)
            return np.array(column, dtype=np.int64)

    sequences = list(itertools.product(columns[0], columns[1]))
    dfas = set()
    for sequence in sequences:
        monkeypatch.setattr(np.random, "default_rng", lambda seed, s=sequence: Draws(s))
        d = generate_dfa(3, 2, seed=0)
        dfas.add(tuple(map(tuple, d.out.tolist())))
    every_dfa = set(itertools.product(itertools.permutations(range(3), 2), repeat=3))
    assert len(sequences) == 216 and dfas == every_dfa


@pytest.mark.slow
def test_generator_uniformity_n3_r2():
    """Each of the (3*2)^3 = 216 possible DFAs within 5 sigma of 1/216."""
    seeds, batch = 10**6, 10**4
    counts = np.zeros(216, dtype=np.int64)
    # encode a DFA as an integer: per vertex the ordered distinct pair index
    pair_code = np.full((3, 3), -1)
    k = 0
    for a in range(3):
        for b in range(3):
            if a != b:
                pair_code[a, b] = k
                k += 1
    for lo in range(0, seeds, batch):
        out = np.stack([d.out for d in _generate_dfas(3, 2, range(lo, lo + batch))])
        codes = pair_code[out[:, :, 0], out[:, :, 1]] @ np.array([36, 6, 1])
        counts += np.bincount(codes, minlength=216)
    p = 1.0 / 216
    sigma = np.sqrt(seeds * p * (1 - p))
    assert counts.sum() == seeds
    assert np.abs(counts - seeds * p).max() <= 5 * sigma


def test_rows_independent_chi2():
    """Joint law of (row 0, row 1) matches the product of the marginals."""
    from scipy.stats import chi2

    trials, batch = 40_000, 10**4
    joint = np.zeros((6, 6), dtype=np.int64)
    pair_code = np.full((3, 3), -1)
    k = 0
    for a in range(3):
        for b in range(3):
            if a != b:
                pair_code[a, b] = k
                k += 1
    for lo in range(10**7, 10**7 + trials, batch):
        out = np.stack([d.out for d in _generate_dfas(3, 2, range(lo, lo + batch))])
        codes = pair_code[out[:, :2, 0], out[:, :2, 1]]
        np.add.at(joint, (codes[:, 0], codes[:, 1]), 1)
    expected = trials / 36.0
    stat = float(((joint - expected) ** 2 / expected).sum())
    # 35 degrees of freedom; reject only at the 1e-4 level
    assert stat < chi2.ppf(1 - 1e-4, df=35)
