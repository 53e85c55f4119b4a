import math

import numpy as np
import pytest
import scipy.sparse as sp

from dfa_meet.chains import (
    MultipleRecurrentClassesError,
    UnreachableTargetError,
    ergodic_walk_chain,
    hitting_time_expectation,
    make_chain,
    measure_pi_extremes,
    mixing_profile,
    product_matrix,
    stationary_distribution,
    tv_distance,
    walk_matrix,
)
from dfa_meet.dfa import Dfa, generate_dfa


def full_image_dfa(n):
    """Every vertex sees all of V, so the walk kernel is uniform."""
    out = np.tile(np.arange(n), (n, 1))
    return Dfa(n=n, r=n, out=out)


def cycle_dfa(n):
    """Color 0 is an n-cycle, color 1 its square; doubly stochastic kernel."""
    step1 = (np.arange(n) + 1) % n
    step2 = (np.arange(n) + 2) % n
    return Dfa(n=n, r=2, out=np.column_stack([step1, step2]))


def test_walk_matrix_uniform_when_r_equals_n():
    c = walk_matrix(full_image_dfa(6))
    assert np.allclose(c.kernel.toarray(), 1.0 / 6)


def test_walk_matrix_entries_exactly_one_over_r():
    d = generate_dfa(40, 3, seed=11)
    c = walk_matrix(d)
    assert (c.kernel.data == 1.0 / 3).all()
    assert (np.diff(c.kernel.indptr) == 3).all()


def test_walk_matrix_matches_hand_expansion():
    d = generate_dfa(5, 2, seed=42)
    c = walk_matrix(d)
    expected = np.zeros((5, 5))
    for x in range(5):
        for col in range(2):
            expected[x, d.out[x, col]] += 0.5
    assert np.array_equal(c.kernel.toarray(), expected)


def test_product_matrix_rows_stochastic():
    d = generate_dfa(7, 2, seed=1)
    prod = product_matrix(walk_matrix(d))
    sums = np.asarray(prod.kernel.sum(axis=1)).ravel()
    assert np.abs(sums - 1).max() < 1e-12
    assert prod.size == 49


def test_product_matrix_uniform_case():
    prod = product_matrix(walk_matrix(full_image_dfa(4)))
    assert np.allclose(prod.kernel.toarray(), 1.0 / 16)


def test_product_matrix_memory_guard():
    d = generate_dfa(10, 2, seed=0)
    with pytest.raises(ValueError, match="cap"):
        product_matrix(walk_matrix(d), max_states=50)


def test_product_stationary_is_tensor_square():
    for seed in (0, 1, 2):
        d, chain, _ = ergodic_walk_chain(12, 2, seed)
        pi = stationary_distribution(chain)
        prod = product_matrix(chain)
        pi2 = np.kron(pi, pi)
        assert np.abs(pi2 @ prod.kernel - pi2).sum() <= 1e-10


def test_stationary_uniform_cases():
    pi = stationary_distribution(walk_matrix(full_image_dfa(8)))
    assert np.allclose(pi, 1.0 / 8, atol=1e-13)
    pi = stationary_distribution(walk_matrix(cycle_dfa(9)))
    assert np.allclose(pi, 1.0 / 9, atol=1e-13)


def test_stationary_matches_repeated_squaring_oracle():
    d = generate_dfa(8, 2, seed=7)
    c = walk_matrix(d)
    pi = stationary_distribution(c)
    # oracle: rows of P^(2^16) via repeated squaring
    power = c.kernel.toarray()
    for _ in range(16):
        power = power @ power
    assert np.abs(power - pi).max() < 1e-9
    # power iteration agrees with the direct solve
    c2 = make_chain(c.kernel)
    pi_pow = stationary_distribution(c2, method="power")
    assert np.abs(pi - pi_pow).sum() < 1e-11


def test_stationary_requires_unique_recurrent_class():
    # two disjoint 2-cycles on colors
    out = np.array([[1, 1], [0, 0], [3, 3], [2, 2]])
    with pytest.raises(Exception):
        Dfa(n=4, r=2, out=out)  # duplicate targets, invalid; build by kernel instead
    kernel = sp.csr_array(np.array([
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]))
    chain = make_chain(kernel)
    with pytest.raises(MultipleRecurrentClassesError) as err:
        stationary_distribution(chain)
    assert len(err.value.classes) == 2


def test_stationary_rejects_unknown_method_even_when_cached():
    chain = walk_matrix(cycle_dfa(5))
    stationary_distribution(chain)
    with pytest.raises(ValueError, match="unknown method"):
        stationary_distribution(chain, method="bogus")


def test_stationary_on_periodic_chain_power_method():
    kernel = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    chain = make_chain(kernel)
    pi = stationary_distribution(chain, method="power")
    assert np.allclose(pi, 0.5, atol=1e-12)


def test_ergodic_walk_chain_records_resamples():
    d, chain, resamples = ergodic_walk_chain(30, 2, seed=0)
    assert len(chain.recurrent_classes) == 1
    assert resamples >= 0


def test_tv_distance_basics():
    assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert tv_distance([0.5, 0.5], [1.0, 0.0]) == 0.5
    with pytest.raises(ValueError):
        tv_distance([1.0], [0.5, 0.5])


def test_mixing_profile_uniform_chain():
    c = walk_matrix(full_image_dfa(10))
    prof = mixing_profile(c, t_cap=3)
    assert prof.t_mix == 1
    assert prof.d_tv[0] == pytest.approx(1 - 1 / 10)
    assert prof.d_tv[1] < 1e-14


def test_mixing_profile_d0_and_monotone():
    d, chain, _ = ergodic_walk_chain(40, 2, seed=3)
    pi = stationary_distribution(chain)
    prof = mixing_profile(chain, t_cap=60)
    # d_tv(0) = max_x (1 - pi(x)); equals 1 - min(pi) over support only when
    # pi has full support
    assert prof.d_tv[0] == pytest.approx(float(1 - pi.min()))
    below_half = np.flatnonzero(prof.d_tv < 0.5)
    start = below_half[0] if below_half.size else 0
    assert (np.diff(prof.d_tv[start:]) <= 1e-12).all()


def test_mixing_profile_cap_exhaustion_flagged():
    kernel = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
    chain = make_chain(kernel)
    chain.stationary = np.array([0.5, 0.5])
    prof = mixing_profile(chain, t_cap=5)
    assert prof.t_mix is None and not prof.mixed


def test_mixing_cutoff_scale_at_n1000():
    """Worst-start mixing happens near log2(n) steps for r = 2."""
    for seed in (0, 1, 2):
        d, chain, _ = ergodic_walk_chain(1000, 2, seed)
        prof = mixing_profile(chain, t_cap=40)
        assert prof.mixed
        ratio = prof.t_mix / math.log2(1000)
        assert 0.5 <= ratio <= 2.0


def test_measure_pi_extremes_uniform():
    ext = measure_pi_extremes(walk_matrix(full_image_dfa(10)))
    assert ext.min_over_support == pytest.approx(0.1)
    assert ext.max_value == pytest.approx(0.1)


def test_measure_pi_extremes_thresholds_at_n1000():
    inside = 0
    for seed in range(5):
        d, chain, _ = ergodic_walk_chain(1000, 2, seed)
        ext = measure_pi_extremes(chain)
        if ext.min_over_support >= ext.min_threshold and ext.max_value <= ext.max_threshold:
            inside += 1
    assert inside >= 4


def test_hitting_time_trivial_and_two_state():
    kernel = sp.csr_array(np.array([[0.5, 0.5], [0.5, 0.5]]))
    chain = make_chain(kernel)
    start_inside = np.array([0.0, 1.0])
    assert hitting_time_expectation(chain, start_inside, [1]) == 0.0
    start = np.array([1.0, 0.0])
    assert hitting_time_expectation(chain, start, [1]) == pytest.approx(2.0, abs=1e-12)


def test_hitting_time_unreachable():
    kernel = sp.csr_array(np.array([
        [1.0, 0.0, 0.0],
        [0.5, 0.5, 0.0],
        [0.0, 0.0, 1.0],
    ]))
    chain = make_chain(kernel)
    start = np.array([0.0, 0.0, 1.0])
    with pytest.raises(UnreachableTargetError):
        hitting_time_expectation(chain, start, [0])


def hitting_time_tail_sum(c, start, target_set, tail_tol=1e-9, max_steps=10**6):
    """Oracle for ``hitting_time_expectation``: ``sum_t P(tau > t)``.

    Dynamic-programming survival iteration, truncated once a windowed
    geometric bound puts the remaining tail below ``tail_tol``. Intended
    for small chains.
    """
    n = c.size
    targets = np.zeros(n, dtype=bool)
    targets[np.asarray(list(target_set), dtype=int)] = True
    survival = np.asarray(start, dtype=float).copy()
    survival[targets] = 0.0
    kernel = c.kernel.toarray()
    kernel[:, targets] = 0.0
    total = 0.0
    alive = survival.sum()
    ratios: list[float] = []
    for _ in range(max_steps):
        if alive <= 0:
            return total
        total += alive
        survival = survival @ kernel
        new_alive = float(survival.sum())
        ratios.append(new_alive / alive if alive > 0 else 1.0)
        alive = new_alive
        # Survival probabilities are non-increasing; bound the tail by the
        # worst contraction ratio seen over the last 50 steps.
        if len(ratios) >= 50:
            rho = max(ratios[-50:])
            if rho < 1 and alive / (1 - rho) < tail_tol:
                return total + alive / (1 - rho)
    raise RuntimeError(f"tail sum did not converge within {max_steps} steps")


def test_hitting_time_matches_tail_sum_oracle():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = int(rng.integers(5, 101))
        rows = rng.gamma(1.0, size=(m, m)) + 0.01
        rows /= rows.sum(axis=1, keepdims=True)
        chain = make_chain(sp.csr_array(rows))
        target = int(rng.integers(0, m))
        start = rng.dirichlet(np.ones(m))
        direct = hitting_time_expectation(chain, start, [target])
        oracle = hitting_time_tail_sum(chain, start, [target], tail_tol=1e-10)
        assert direct == pytest.approx(oracle, abs=1e-8)


def test_hitting_time_product_chain_vs_monte_carlo():
    from dfa_meet.simulate import default_cap, sample_meeting_independent_batch

    d, chain, _ = ergodic_walk_chain(8, 2, seed=7)
    prod = product_matrix(chain)
    start = np.zeros(64)
    start[0 * 8 + 1] = 1.0
    diag = [9 * x for x in range(8)]
    expect = hitting_time_expectation(prod, start, diag)
    taus, censored = sample_meeting_independent_batch(d, 0, 1, 20_000, default_cap(8), seed=123)
    assert not censored.any()
    se = taus.std(ddof=1) / math.sqrt(taus.size)
    assert abs(taus.mean() - expect) <= 3 * se
