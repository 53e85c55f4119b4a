import collections
import math
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dfa_meet import simulate
from dfa_meet.chains import hitting_time_expectation, product_matrix, walk_matrix
from dfa_meet.dfa import Dfa, generate_dfa
from dfa_meet.seeds import seed_split
from dfa_meet.simulate import (
    RunManifest,
    default_cap,
    read_records_csv,
    resolve_workers,
    run_experiment,
    sample_coalescence,
    sample_kingman_reference,
    sample_meeting_coupled,
    sample_meeting_independent,
    sample_meeting_independent_batch,
    sample_sync,
    write_records_csv,
)
from tests.test_chains import full_image_dfa


def run_trial(manifest, index, fixed_dfa=None):
    """Oracle: trial ``index`` replayed one public call at a time, in the documented stream order.

    The derived seed, the automaton (fresh from the trial stream, or
    ``fixed_dfa``), the start pair, the sampler.
    """
    derived = seed_split(manifest.master_seed, index, manifest.mode)
    rng = np.random.default_rng(derived)
    fresh = manifest.dfa_policy == "fresh"
    d = generate_dfa(manifest.n, manifest.r, rng) if fresh else fixed_dfa
    cap = manifest.effective_cap
    if manifest.mode == "coalescing":
        rec = sample_coalescence(d, cap, rng, trial=index)
    elif manifest.mode == "sync":
        rec = sample_sync(d, cap, rng, trial=index)
    else:
        if manifest.starts == "uniform":
            x = int(rng.integers(0, manifest.n))
            y = int(rng.integers(0, manifest.n - 1))
            y += y >= x
        else:
            x, y = manifest.starts
        coupled = manifest.mode == "coupled"
        sampler = sample_meeting_coupled if coupled else sample_meeting_independent
        rec = sampler(d, x, y, cap, rng, trial=index)
    rec.derived_seed = derived
    return rec


def sync_image_sizes(d, letters):
    """Oracle: sizes of the whole-vertex-set image along a word, ``|S_0|, |S_1|, ...``."""
    image = np.arange(d.n)
    sizes = [int(image.size)]
    for c in letters:
        image = np.unique(d.out[image, int(c)])
        sizes.append(int(image.size))
    return sizes


def constant_color_dfa(n, r):
    """Color 0 sends every vertex to 0; the other colors shift."""
    out = np.empty((n, r), dtype=np.int64)
    out[:, 0] = 0
    for c in range(1, r):
        out[:, c] = (np.arange(n) + c) % n
    for x in range(n):
        row = out[x]
        if len(set(row.tolist())) != r:  # repair collisions with 0
            pool = [v for v in range(n) if v not in row[:1]]
            out[x, 1:] = pool[: r - 1]
    return Dfa(n=n, r=r, out=out)


def test_equal_starts_meet_immediately():
    d = generate_dfa(10, 2, seed=0)
    assert sample_meeting_independent(d, 4, 4, 100, seed=1).tau == 0
    assert sample_meeting_coupled(d, 4, 4, 100, seed=1).tau == 0


def test_independent_meeting_uniform_chain_geometric():
    """On the full-image DFA the per-step meeting probability is exactly 1/n."""
    n = 30
    d = full_image_dfa(n)
    taus = np.array([
        sample_meeting_independent(d, 0, 1, 10_000, seed=s).tau for s in range(4000)
    ])
    se = taus.std(ddof=1) / math.sqrt(taus.size)
    assert abs(taus.mean() - n) <= 3 * se


def test_coupled_constant_color_bounded_by_letter_hit():
    d = constant_color_dfa(12, 3)
    for s in range(100):
        rec = sample_meeting_coupled(d, 2, 7, 1000, seed=s)
        assert not rec.censored
    taus = np.array([sample_meeting_coupled(d, 2, 7, 1000, seed=s).tau for s in range(3000)])
    # the shared word collapses both walks at the first occurrence of color 0
    assert taus.mean() <= 3.0 + 3 * taus.std(ddof=1) / math.sqrt(taus.size)


def test_sync_constant_color_geometric():
    d = constant_color_dfa(12, 3)
    taus = np.array([sample_sync(d, 1000, seed=s).tau for s in range(3000)])
    se = taus.std(ddof=1) / math.sqrt(taus.size)
    assert abs(taus.mean() - 3.0) <= 4 * se  # Geom(1/r) mean r


def test_coalescence_two_walkers_matches_exact_product_solve():
    d = full_image_dfa(2)
    taus = np.array([
        sample_coalescence(d, 1000, seed=s).tau for s in range(4000)
    ])
    chain = walk_matrix(d)
    prod = product_matrix(chain)
    start = np.zeros(4)
    start[0 * 2 + 1] = 1.0
    exact = hitting_time_expectation(prod, start, [0, 3])
    assert exact == pytest.approx(2.0, abs=1e-12)
    se = taus.std(ddof=1) / math.sqrt(taus.size)
    assert abs(taus.mean() - exact) <= 3 * se


def test_coalescence_debug_pair_matches_independent_meeting():
    """Two-walker coalescence has the law of the independent meeting time."""
    from dfa_meet.stats import ks_two_sample

    d = generate_dfa(100, 2, seed=5)
    coal = np.array([
        simulate._coalesce(d, 10**5, np.random.default_rng(seed_split(1, i, "pair")), [3, 77])[0]
        for i in range(10_000)
    ])
    meet = np.array([
        sample_meeting_independent(d, 3, 77, 10**5, seed=seed_split(2, i, "meet")).tau
        for i in range(10_000)
    ])
    ks = ks_two_sample(coal, meet)
    assert ks <= 0.02


def test_sync_image_sizes_non_increasing():
    for seed in range(5):
        d = generate_dfa(40, 2, seed=seed)
        rng = np.random.default_rng(seed)
        word = rng.integers(0, 2, size=200).tolist()
        sizes = sync_image_sizes(d, word)
        assert sizes[0] == 40
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))


def coalescence_oracle(d, cap, seed, starts=None):
    """Reference: one numpy draw per step, one color per cluster in increasing position.

    Returns ``(tau, censored)`` and the cluster count after each step, the start's included.
    """
    rng = np.random.default_rng(seed)
    positions = np.unique(np.arange(d.n) if starts is None else np.asarray(starts))
    sizes = [positions.size]
    if positions.size == 1:
        return (0, False), sizes
    for t in range(1, cap + 1):
        positions = np.unique(d.out[positions, rng.integers(0, d.r, size=positions.size)])
        sizes.append(positions.size)
        if positions.size == 1:
            return (t, False), sizes
    return (cap, True), sizes


def tail(sizes, censored, chunk, points, reads=None):
    """How a run's phase of ``points`` points ended, from its oracle trace up to its stop.

    ``sizes[t]`` counts the points after step ``t``, and step ``t`` reads
    ``reads[t - 1]`` colors (one when ``reads`` is omitted). Returns ``None``
    if ``points`` points never remained, ``"arrival"`` if the cap came on
    the step they first remained, ``"censored"`` if it came later with as
    many points left, ``"crossed"`` if some of them met in a later color block
    than the one they started reading, else ``"met"``.
    """
    if points not in sizes:
        return None
    first = sizes.index(points)
    last = len(sizes) - 1 - sizes[::-1].index(points)
    if censored and last == len(sizes) - 1:
        return "arrival" if first == last else "censored"
    reads = [1] * len(sizes) if reads is None else reads
    start, stop = sum(reads[:first]), sum(reads[:last + 1])
    return "crossed" if start // chunk < (stop - 1) // chunk else "met"


def capped_at(sizes, cap, counts):
    """``cap``, and each step in ``[1, cap)`` on which one of ``counts`` points first remained."""
    steps = {sizes.index(points) for points in counts if points in sizes}
    return sorted({cap, *(step for step in steps if 1 <= step < cap)})


@pytest.mark.parametrize("chunk", [7, simulate.COLOR_CHUNK])
def test_coalescence_matches_per_step_draw_oracle(monkeypatch, chunk):
    """The sampler stops where the oracle does. Across the cases, the last
    two clusters meet after a color-block boundary, are censored, and are
    censored on the very step two remain; with 7-color blocks, so do the
    last three."""
    monkeypatch.setattr(simulate, "COLOR_CHUNK", chunk)
    cases = [
        (generate_dfa(n, r, seed), cap, seed + 9)
        for n, r, cap in ((2, 2, 4), (5, 3, 1), (17, 3, 3), (17, 2, 1000), (60, 5, 5000))
        for seed in range(6)
    ]
    cases += [(slow_meeting_dfa(97), 2 * chunk + 5, seed) for seed in range(2)]
    # above the set-loop size: numpy steps across color blocks, a cap among them, r = n;
    # color 0 of the constant-color automaton sends its clusters to 0 at once
    cases += [
        (generate_dfa(n, r, seed), cap, seed + 9)
        for n, r, cap in ((300, 2, 10**5), (1000, 3, 4), (200, 200, 10**4))
        for seed in range(2)
    ]
    cases += [(constant_color_dfa(100, 2), 1, seed) for seed in range(8)]
    tails = collections.Counter()
    for d, cap, seed in cases:
        n = d.n
        duplicates = [x % (n // 2 + 1) for x in range(n)]
        for starts in (None, [0, n - 1], [n // 2, 0], list(range(1, n, 3)), [n // 2], duplicates):
            _, sizes = coalescence_oracle(d, cap, seed, starts)
            for c in capped_at(sizes, cap, (2, 3)):
                expected, sizes = coalescence_oracle(d, c, seed, starts)
                if starts is None:
                    rec = sample_coalescence(d, c, seed=seed)
                    assert (rec.tau, rec.censored) == expected
                else:
                    assert simulate._coalesce(d, c, np.random.default_rng(seed), starts) == expected
                for points in (2, 3):
                    tails[points, tail(sizes, expected[1], chunk, points, reads=sizes)] += 1
    for points in (2, 3) if chunk == 7 else (2,):
        assert min(tails[points, "crossed"], tails[points, "censored"],
                   tails[points, "arrival"]) > 0


def meeting_oracle(d, x, y, cap, seed, coupled):
    """Reference: one numpy draw per step of one color (coupled) or two (first walk, second walk)."""
    rng = np.random.default_rng(seed)
    if x == y:
        return 0, False
    for t in range(1, cap + 1):
        c = rng.integers(0, d.r, size=1 if coupled else 2)
        x, y = d.out[x, c[0]], d.out[y, c[-1]]
        if x == y:
            return t, False
    return cap, True


def slow_meeting_dfa(n):
    """Color 0 turns a cycle; color 1 fixes every vertex but ``n - 1``, which it sends to 1.

    Walks meet only by a move off or onto the fixed points. From opposite
    sides of the cycle, independent walks take thousands of steps to meet
    at ``n = 97``, and coupled walks at ``n = 23``.
    """
    out = np.empty((n, 2), dtype=np.int64)
    out[:, 0] = (np.arange(n) + 1) % n
    out[:, 1] = np.arange(n)
    out[n - 1, 1] = 1
    return Dfa(n=n, r=2, out=out)


@pytest.mark.parametrize("chunk", [7, simulate.COLOR_CHUNK])
def test_pair_meeting_matches_per_step_draw_oracle(monkeypatch, chunk):
    """Both pair samplers stop where the per-step oracle does, for caps
    below, at and above the block size, and for walks that cross it."""
    monkeypatch.setattr(simulate, "COLOR_CHUNK", chunk)
    dfas = [generate_dfa(n, r, seed) for n, r, seed in ((2, 2, 0), (17, 3, 1), (60, 5, 2))]
    dfas += [slow_meeting_dfa(23), slow_meeting_dfa(97)]
    caps = (1, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 5)
    crossed = {True: 0, False: 0}
    for d in dfas:
        for x, y in ((0, d.n - 1), (d.n // 2, 0), (1, 1)):
            for cap in caps:
                for seed in range(3):
                    for coupled in (False, True):
                        sampler = sample_meeting_coupled if coupled else sample_meeting_independent
                        rec = sampler(d, x, y, cap, seed=seed + 21)
                        expected = meeting_oracle(d, x, y, cap, seed + 21, coupled)
                        assert (rec.tau, rec.censored) == expected
                        crossed[coupled] += chunk < rec.tau and not rec.censored
    assert min(crossed.values()) > 0  # some walks meet after the first block


@pytest.mark.parametrize("chunk", [7, simulate.COLOR_CHUNK])
def test_sync_tau_is_first_singleton_image_of_block_word(monkeypatch, chunk):
    """The sync sampler stops where the oracle's image of the block-drawn word
    is one vertex. Across the cases, the last two image points meet after a
    color-block boundary, are censored, and are censored on the very step
    two remain; with 7-color blocks, so do the last three."""
    monkeypatch.setattr(simulate, "COLOR_CHUNK", chunk)
    cases = [
        (generate_dfa(n, r, seed), cap, seed + 50)
        for n, r, cap in ((2, 2, 5), (17, 3, 1000), (40, 2, 3), (60, 2, 2000), (60, 5, 400))
        for seed in range(8)
    ]
    # at n = 5 the last three image points may outlast the cap
    cases += [(slow_meeting_dfa(n), 2 * chunk + 5, seed) for n in (5, 23) for seed in range(3)]
    # above the set-loop size: numpy steps across color blocks, a cap among them, r = n;
    # color 0 of the constant-color automaton sends the whole image to 0
    cases += [
        (generate_dfa(n, r, seed), cap, seed + 50)
        for n, r, cap in ((300, 2, 3000), (1000, 3, 3), (200, 200, 2000))
        for seed in range(2)
    ]
    cases += [(constant_color_dfa(100, 3), 2, seed) for seed in range(4)]
    tails = collections.Counter()
    for d, cap, seed in cases:
        rng = np.random.default_rng(seed)
        blocks = -(-cap // chunk)
        word = np.concatenate([rng.integers(0, d.r, size=chunk) for _ in range(blocks)])[:cap]
        word_sizes = sync_image_sizes(d, word)
        for c in capped_at(word_sizes, cap, (2, 3)):
            sizes = word_sizes[:c + 1]
            hits = [t for t, size in enumerate(sizes) if size == 1]
            expected = (hits[0], False) if hits else (c, True)
            rec = sample_sync(d, c, seed=seed)
            assert (rec.tau, rec.censored) == expected
            for points in (2, 3):
                tails[points, tail(sizes[:expected[0] + 1], expected[1], chunk, points)] += 1
    for points in (2, 3) if chunk == 7 else (2,):
        assert min(tails[points, "crossed"], tails[points, "censored"],
                   tails[points, "arrival"]) > 0


def set_loop_coalescence(d, cap, rng, starts, exits):
    """The coalescing sampler as one set loop to the end, with no pair tail.

    Counts in ``exits`` how a run's last three points ended: ``2`` or ``1``
    points after a step, or ``"cap"``.
    """
    r, out_flat = d.r, d.out.ravel().tolist()
    positions = sorted(set(starts))
    if len(positions) == 1:
        return 0, False
    colors = simulate._colors(rng, r)
    for t in range(1, cap + 1):
        before = len(positions)
        positions = sorted({out_flat[x * r + c] for x, c in zip(positions, colors)})
        if before == 3 and len(positions) < 3:
            exits[len(positions)] += 1
        if len(positions) == 1:
            return t, False
    exits["cap"] += len(positions) == 3
    return cap, True


def set_loop_sync(d, cap, rng, exits):
    """The sync sampler as one set loop to the end, with no coupled tail; ``exits`` as above."""
    r, out_flat = d.r, d.out.ravel().tolist()
    image = range(d.n)
    for t, c in zip(range(1, cap + 1), simulate._colors(rng, r)):
        before = len(image)
        image = {out_flat[x * r + c] for x in image}
        if before == 3 and len(image) < 3:
            exits[len(image)] += 1
        if len(image) == 1:
            return t, False
    exits["cap"] += len(image) == 3
    return cap, True


@pytest.mark.parametrize("chunk", [7, simulate.COLOR_CHUNK])
def test_pair_tails_match_the_set_loops_on_small_cases(monkeypatch, chunk):
    """Seeded differential test: 2,000 small automata, caps 1-30, on which the
    last three points of each sampler end with two left, with none, and at
    the cap; then automata above the set-loop size, whose numpy steps cross
    color blocks, with caps among those steps and without, duplicate starts,
    r = n, and n = 10**4."""
    monkeypatch.setattr(simulate, "COLOR_CHUNK", chunk)
    exits = {"coalescing": collections.Counter(), "sync": collections.Counter()}

    def check(d, cap, seed, starts):
        for walkers in (starts, range(d.n)):
            got = simulate._coalesce(d, cap, np.random.default_rng(seed), walkers)
            expected = set_loop_coalescence(d, cap, np.random.default_rng(seed), walkers,
                                            exits["coalescing"])
            assert got == expected
        got = simulate._sync(d, cap, np.random.default_rng(seed))
        assert got == set_loop_sync(d, cap, np.random.default_rng(seed), exits["sync"])

    master = np.random.default_rng(13)
    for _ in range(2000):
        n = int(master.integers(2, 13))
        r = int(master.integers(2, n + 1))
        cap = int(master.integers(1, 31))
        d = generate_dfa(n, r, master)
        seed = int(master.integers(2**32))
        check(d, cap, seed, master.integers(0, n, size=int(master.integers(1, n + 1))).tolist())
    for mode in exits:
        assert min(exits[mode][2], exits[mode][1], exits[mode]["cap"]) > 0, mode
    large = [(n, r, cap) for n, r in ((33, 2), (100, 7), (300, 2), (300, 300), (1000, 20))
             for cap in (1, 4, default_cap(n))]
    for n, r, cap in large + [(10**4, 2, default_cap(10**4))]:
        d = generate_dfa(n, r, master)
        seed = int(master.integers(2**32))
        check(d, cap, seed, master.integers(0, n, size=2 * n).tolist())


# vertices 0 and 1 of generate_dfa(60, 2, seed=9) share no successor, so
# at cap 1 every trial is censored
@pytest.mark.parametrize("x, y, cap", [(0, 1, 10**5), (0, 0, 10**5), (0, 1, 1)])
def test_batch_sampler_matches_per_trial_distribution(x, y, cap):
    """One shared stream and per-trial streams give the same law."""
    from dfa_meet.stats import ks_two_sample

    d = generate_dfa(60, 2, seed=9)
    taus_batch, censored = sample_meeting_independent_batch(d, x, y, 8000, cap, seed=3)
    assert taus_batch.dtype == np.int64 and censored.dtype == bool
    singles = [sample_meeting_independent(d, x, y, cap, seed=seed_split(4, i, "s"))
               for i in range(8000)]
    assert censored.tolist() == [rec.censored for rec in singles] == [cap == 1] * 8000
    if x == y:
        assert not taus_batch.any()
    ks = ks_two_sample(taus_batch, [rec.tau for rec in singles])
    assert ks <= 0.03


def test_batch_trials_read_one_stream_in_turn():
    """Each trial reads two colors a step from where the last one stopped.

    So a batch is the first trials of any longer batch from its seed. The
    stream is replayed as one draw, which equals its blocks
    (``tests/test_streams.py``).
    """
    d = generate_dfa(60, 2, seed=9)
    taus, censored = sample_meeting_independent_batch(d, 0, 1, 200, 40, seed=5)
    head_taus, head_censored = sample_meeting_independent_batch(d, 0, 1, 100, 40, seed=5)
    assert head_taus.tolist() == taus[:100].tolist()
    assert head_censored.tolist() == censored[:100].tolist()
    assert 0 < censored.sum() < censored.size
    stream = iter(np.random.default_rng(5).integers(0, d.r, size=2 * int(taus.sum())).tolist())
    for tau, cens in zip(taus.tolist(), censored.tolist()):
        x, y, met = 0, 1, []
        for _, c, cp in zip(range(tau), stream, stream):
            x, y = d.out[x, c], d.out[y, cp]
            met.append(x == y)
        assert met == [False] * (tau - 1) + [not cens]


def test_batch_sampler_rejects_a_negative_trial_count():
    d = generate_dfa(10, 2, seed=0)
    message = "trials must be nonnegative, got -1"
    with pytest.raises(ValueError, match=message):
        RunManifest(master_seed=0, mode="independent", n=10, r=2, trials=-1)
    with pytest.raises(ValueError, match=message):
        sample_meeting_independent_batch(d, 0, 1, -1, 100, seed=0)


@pytest.mark.parametrize("x", [-1, -10])
def test_batch_sampler_rejects_starts_outside_the_vertices(x):
    """As the per-trial sampler does; numpy would index from the end, x = -1 meaning 9."""
    d = generate_dfa(10, 2, seed=0)
    message = rf"start vertex {x} outside \[0, 10\)"
    for pair in ((x, 3), (3, x)):
        with pytest.raises(ValueError, match=message):
            sample_meeting_independent(d, *pair, 100, seed=0)
        with pytest.raises(ValueError, match=message):
            sample_meeting_independent_batch(d, *pair, 4, 100, seed=0)


def test_kingman_reference_moments():
    # n=2 is a single Exp(1) draw
    draws = sample_kingman_reference(2, seed=0, size=200_000)
    assert abs(draws.mean() - 1.0) <= 0.01
    # telescoping mean: 2 (1 - 1/n)
    draws = sample_kingman_reference(1000, seed=1, size=100_000)
    assert abs(draws.mean() - 2 * (1 - 1 / 1000)) <= 0.02
    draws = sample_kingman_reference(5, seed=2, size=3)
    assert draws.shape == (3,) and (draws > 0).all()


def test_censoring_at_cap():
    # disjoint 2-cycles never meet from distinct components
    out = np.array([[1, 2], [0, 3], [3, 0], [2, 1]])
    d = Dfa(n=4, r=2, out=out)
    rec = sample_meeting_independent(d, 0, 1, cap=50, seed=0)
    assert rec.tau <= 50
    if rec.censored:
        assert rec.tau == 50


def test_default_cap_formula():
    assert default_cap(1000) == 50 * 1000 * 7


def test_run_experiment_deterministic_and_worker_independent(tmp_path):
    manifest = RunManifest(master_seed=5, mode="independent", n=50, r=2, trials=60)
    a = run_experiment(manifest, workers=1)
    b = run_experiment(manifest, workers=2)
    assert a == b
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records_csv(a, p1)
    write_records_csv(b, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("mode", simulate.MODES)
@pytest.mark.parametrize("n, r, trials", [(1000, 20, 13), (1000, 20, 200), (2, 2, 9), (5, 5, 9),
                                          (10, 2, 0)])
def test_run_experiment_runs_each_trial_as_run_trial_does(mode, n, r, trials):
    """Fresh automata built in batches give the trials of one ``run_trial`` each.

    At n = 1000, r = 20 a batch holds six tables, so 13 serial trials end in
    a batch of one; 200 trials on two workers make pool tasks of 7 trials,
    which end in one too.
    """
    manifest = RunManifest(master_seed=12, mode=mode, n=n, r=r, trials=trials)
    expected = [run_trial(manifest, i) for i in range(trials)]
    assert run_experiment(manifest, workers=1) == expected
    assert run_experiment(manifest, workers=2) == expected


def test_default_workers_are_the_cpus_the_process_may_run_on(monkeypatch):
    monkeypatch.delenv(simulate.THREADS_ENV_VAR, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert resolve_workers() == 2
    assert resolve_workers(5) == 5
    monkeypatch.delattr(os, "sched_getaffinity")
    assert resolve_workers() == 8


def test_spawned_workers_write_the_serial_bytes(tmp_path, monkeypatch):
    """Workers in clean interpreters reproduce a serial run, fresh and fixed DFA."""
    from dfa_meet.dfa import serialize_dfa

    dfa_path = tmp_path / "dfa.json"
    dfa_path.write_text(serialize_dfa(generate_dfa(40, 2, seed=3)))
    manifests = [
        RunManifest(master_seed=8, mode=mode, n=40, r=2, trials=24, dfa_policy=policy,
                    dfa_path=str(dfa_path) if policy == "fixed" else None)
        for mode in ("coalescing", "sync") for policy in ("fresh", "fixed")
    ]
    serial = [run_experiment(m, workers=1) for m in manifests]
    spawn = multiprocessing.get_context("spawn")
    pools = []

    def spawn_pool(processes):
        pools.append(processes)
        return spawn.Pool(processes)

    monkeypatch.setattr(multiprocessing, "Pool", spawn_pool)
    for i, (manifest, expected) in enumerate(zip(manifests, serial)):
        one, two = tmp_path / f"{i}-serial.csv", tmp_path / f"{i}-spawn.csv"
        write_records_csv(expected, one)
        write_records_csv(run_experiment(manifest, workers=2), two)
        assert one.read_bytes() == two.read_bytes()
    assert pools == [2] * len(manifests)


def test_trial_replay_from_derived_seed():
    manifest = RunManifest(master_seed=9, mode="coupled", n=40, r=3, trials=20)
    records = run_experiment(manifest, workers=1)
    for rec in records[:5]:
        assert rec.derived_seed == seed_split(9, rec.trial, "coupled")
        replay = run_trial(manifest, rec.trial)
        assert replay == rec


def test_empty_run_produces_header_only_csv(tmp_path):
    manifest = RunManifest(master_seed=1, mode="sync", n=10, r=2, trials=0)
    records = run_experiment(manifest)
    path = tmp_path / "empty.csv"
    write_records_csv(records, path)
    assert path.read_text().strip() == "trial,derived_seed,mode,n,r,x,y,tau,censored"
    assert read_records_csv(path) == []


def test_csv_round_trip(tmp_path):
    manifest = RunManifest(master_seed=2, mode="coalescing", n=12, r=2, trials=8)
    records = run_experiment(manifest)
    path = tmp_path / "out.csv"
    write_records_csv(records, path)
    assert read_records_csv(path) == records
    assert "\r\n" in path.read_bytes().decode()


def test_fixed_dfa_policy(tmp_path):
    from dfa_meet.dfa import serialize_dfa

    d = generate_dfa(30, 2, seed=77)
    dfa_path = tmp_path / "dfa.json"
    dfa_path.write_text(serialize_dfa(d))
    manifest = RunManifest(
        master_seed=3, mode="independent", n=30, r=2, trials=10,
        dfa_policy="fixed", dfa_path=str(dfa_path), starts=(0, 1),
    )
    records = run_experiment(manifest, workers=1)
    assert all(rec.x == 0 and rec.y == 1 for rec in records)
    # replaying any trial gives the same outcome
    assert run_trial(manifest, 4, fixed_dfa=d) == records[4]


def test_manifest_validation():
    with pytest.raises(ValueError, match="unknown mode"):
        RunManifest(master_seed=0, mode="walk", n=5, r=2, trials=1)
    with pytest.raises(ValueError, match="starts"):
        RunManifest(master_seed=0, mode="sync", n=5, r=2, trials=1, starts=(0, 1))
    with pytest.raises(ValueError, match="dfa_path"):
        RunManifest(master_seed=0, mode="independent", n=5, r=2, trials=1, dfa_policy="fixed")
    for mode in ("sync", "independent"):
        with pytest.raises(ValueError, match="starts"):
            RunManifest(master_seed=0, mode=mode, n=5, r=2, trials=1, starts="all")


def test_manifest_rejects_a_path_with_a_fresh_policy():
    """A fresh-DFA run would ignore the path, so naming one is an error."""
    with pytest.raises(ValueError, match="dfa_policy='fresh' takes no dfa_path"):
        RunManifest(master_seed=0, mode="independent", n=5, r=2, trials=1, dfa_path="dfa.json")


def test_manifest_rejects_negative_trials_and_nonpositive_cap():
    with pytest.raises(ValueError, match="trials"):
        RunManifest(master_seed=0, mode="independent", n=5, r=2, trials=-1)
    with pytest.raises(ValueError, match="cap"):
        RunManifest(master_seed=0, mode="sync", n=5, r=2, trials=1, cap=0)


def test_run_experiment_rejects_trials_whose_records_outgrow_memory(monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(simulate, "_run_trials", no_trial)
    manifest = RunManifest(master_seed=0, mode="sync", n=5, r=2, trials=10**18)
    with pytest.raises(MemoryError, match="10+ trials would hold .* GiB of records"):
        run_experiment(manifest, workers=1)


@pytest.mark.parametrize("key, value, message", [
    ("starts", (0.5, 1), "starts must be a pair of integers, got (0.5, 1)"),
    ("cap", 2.5, "cap must be an integer, got 2.5"),
    ("n", 10.0, "n must be an integer, got 10.0"),
    ("trials", 2.0, "trials must be an integer, got 2.0"),
    ("master_seed", 1.5, "master_seed must be an integer, got 1.5"),
    ("r", True, "r must be an integer, got True"),
    ("master_seed", "1", "master_seed must be an integer, got '1'"),
])
def test_manifest_rejects_a_field_that_is_not_an_integer(monkeypatch, key, value, message):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(simulate, "_run_trials", no_trial)
    fields = {"master_seed": 0, "mode": "independent", "n": 10, "r": 2, "trials": 2, key: value}
    with pytest.raises(ValueError) as exc:
        run_experiment(RunManifest(**fields), workers=1)
    assert str(exc.value) == message


def test_manifest_takes_numpy_integers_as_python_ints():
    plain = RunManifest(master_seed=3, mode="independent", n=10, r=2, trials=3, cap=40,
                        starts=(0, 1))
    numpy = RunManifest(master_seed=np.uint64(3), mode="independent", n=np.int64(10),
                        r=np.int32(2), trials=np.int64(3), cap=np.int64(40),
                        starts=[np.int64(0), np.int64(1)])
    assert numpy == plain and type(numpy.master_seed) is int and type(numpy.starts[0]) is int
    assert run_experiment(numpy, workers=1) == run_experiment(plain, workers=1)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_fresh_dfa_trials_keep_their_freed_tables():
    """A process that never imports scipy, whose import frees large blocks, reuses trial memory.

    At n = 1000, r = 20 each DFA table is 160 KB, above glibc's default
    mmap threshold. Unless ``run_experiment`` raises the thresholds, each
    trial hands those pages back and faults about 100 of them in again.
    """
    code = ("import resource\n"
            "from dfa_meet.simulate import RunManifest, run_experiment\n"
            "m = RunManifest(master_seed=7, mode='independent', n=1000, r=20, trials=60)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run_experiment(m, workers=1)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120, check=True)
    assert int(done.stdout) < 25 * 60


def test_rewritten_fixed_dfa_is_read_again(tmp_path):
    from dfa_meet.dfa import serialize_dfa

    dfa_path = tmp_path / "dfa.json"
    manifest = RunManifest(
        master_seed=3, mode="independent", n=30, r=2, trials=12,
        dfa_policy="fixed", dfa_path=str(dfa_path),
    )
    runs = []
    for seed in (77, 78):
        d = generate_dfa(30, 2, seed=seed)
        dfa_path.write_text(serialize_dfa(d))
        records = run_experiment(manifest, workers=1)
        assert records == [run_trial(manifest, i, fixed_dfa=d) for i in range(12)]
        runs.append([rec.tau for rec in records])
    assert runs[0] != runs[1]


def test_uniform_starts_recorded_and_distinct():
    manifest = RunManifest(master_seed=4, mode="independent", n=25, r=2, trials=50)
    records = run_experiment(manifest, workers=1)
    assert all(rec.x != rec.y for rec in records)
    assert all(0 <= rec.x < 25 and 0 <= rec.y < 25 for rec in records)
