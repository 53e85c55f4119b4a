import numpy as np
import pytest
import scipy.sparse as sp

from dfa_meet import fvtl
from dfa_meet.chains import (
    ergodic_walk_chain,
    hitting_time_expectation,
    make_chain,
    stationary_distribution,
)
from dfa_meet.aux_chain import build_aux_chain
from dfa_meet.fvtl import (
    PerronConvergenceError,
    TargetWalk,
    fvtl_quantities,
    quasi_stationary_pair,
    quasi_stationary_tail_check,
    random_ergodic_chain,
    return_sums,
    two_state_chain,
)
from tests.explicit_chain import explicit_chain


def return_series(p):
    """``Q^t(target, target)`` for ``t = 0, 1, 2, ...``; term ``t`` costs ``t`` steps."""
    state = p.start()
    while True:
        yield p.target_mass(state)
        state = p.step(state)


def relaxation_horizon(p, terms):
    """Smallest ``t >= 1`` whose term is at most ``RELAX_FACTOR * mu(target)``, or ``horizon_cap``.

    Reads ``terms`` (``p``'s :func:`return_series`) up to and including term ``t``.
    """
    level, cap = fvtl.RELAX_FACTOR * p.mu_target, p.horizon_cap
    return next(t for t, q in enumerate(terms) if t >= 1 and (q <= level or t == cap))


def uniform_start_ratio(c, target, horizons):
    """``sup_t max_x P_x(tau > t) / P_mu(tau > t)`` over a horizon grid.

    Exact survival vectors from every start are compared against the
    stationary-start tail at each requested horizon.
    """
    mu = stationary_distribution(c)
    survival = np.ones(c.size)
    survival[target] = 0.0
    worst = 0.0
    t = 0
    for horizon in sorted(set(horizons)):
        while t < horizon:
            survival = c.kernel @ survival
            survival[target] = 0.0
            t += 1
        worst = max(worst, float(survival.max()) / float(mu @ survival))
    return worst


def test_target_walk_steps_match_row_vector_oracle():
    """``kernel_t @ v`` sums the same terms in the same order as ``v @ kernel``."""
    rng = np.random.default_rng(3)
    for _ in range(30):
        c = random_ergodic_chain(rng)
        target = int(rng.integers(0, c.size))
        walk = TargetWalk(c, target)
        v = rng.dirichlet(np.ones(c.size))
        assert np.array_equal(walk.step(v), v @ c.kernel)
        killed = v @ c.kernel
        killed[target] = 0.0
        assert np.array_equal(walk.killed_step(v), killed)


def test_two_state_closed_forms():
    """Target = state 1: [Q] = (1-p), lambda_star = p, mu(target) = p/(p+q),
    Z(1,1)/mu(1) = q / (p (p+q))."""
    for p, q in ((0.5, 0.5), (0.3, 0.7), (0.9, 0.1), (0.05, 0.4)):
        chain = two_state_chain(p, q)
        mu = stationary_distribution(chain)
        assert mu[1] == pytest.approx(p / (p + q), abs=1e-14)
        pair = quasi_stationary_pair(chain, 1)
        assert pair.lambda_star == pytest.approx(p, abs=1e-13)
        assert pair.mu_star[0] == pytest.approx(1.0)
        z11 = return_sums(TargetWalk(chain, 1)).z
        expected = hitting_time_expectation(chain, mu, [1])
        assert z11 / mu[1] == pytest.approx(expected, abs=1e-10)
        assert expected == pytest.approx(q / (p * (p + q)), abs=1e-10)


def test_two_state_tail_exact():
    # the check runs to ceil(10 / lambda_star): 34 steps here, 200 at p = 0.05
    for p in (0.3, 0.05):
        chain = two_state_chain(p, 0.6)
        pair = quasi_stationary_pair(chain, 1)
        assert quasi_stationary_tail_check(chain, 1, pair) < 1e-12


def test_fundamental_identity_random_chains():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        chain = random_ergodic_chain(rng)
        target = int(rng.integers(0, chain.size))
        mu = stationary_distribution(chain)
        z = return_sums(TargetWalk(chain, target)).z
        expected = hitting_time_expectation(chain, mu, [target])
        assert abs(expected - z / mu[target]) <= 1e-8


def test_quasi_stationary_geometric_mean(monkeypatch):
    monkeypatch.setattr(fvtl, "RANDOM_CHAIN_MAX_STATES", 30)
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        chain = random_ergodic_chain(rng)
        target = int(rng.integers(0, chain.size))
        pair = quasi_stationary_pair(chain, target)
        expected = hitting_time_expectation(chain, pair.mu_star, [target])
        assert abs(pair.lambda_star * expected - 1.0) <= 1e-8
        assert quasi_stationary_tail_check(chain, target, pair=pair) <= 1e-8


def test_fvtl_quantities_report_fields(monkeypatch):
    monkeypatch.setattr(fvtl, "RANDOM_CHAIN_MAX_STATES", 25)
    rng = np.random.default_rng(7)
    chain = random_ergodic_chain(rng)
    report = fvtl_quantities(chain, 0)
    assert report.return_mass >= 1.0
    assert 0 < report.predicted_lambda < 1
    assert report.quasi is not None
    assert report.expected_hitting_from_mu == pytest.approx(
        report.z_dd / report.mu_target, abs=1e-8
    )


def test_fvtl_rejects_target_off_support():
    kernel = sp.csr_array(np.array([
        [0.0, 1.0, 0.0],
        [0.0, 0.5, 0.5],
        [0.0, 0.5, 0.5],
    ]))
    chain = make_chain(kernel)
    with pytest.raises(ValueError, match="support"):
        fvtl_quantities(chain, 0)


def test_degenerate_one_step_absorption():
    # [Q] is the zero matrix: absorbed in one step, rate exactly 1
    kernel = sp.csr_array(np.array([[0.0, 1.0], [0.5, 0.5]]))
    chain = make_chain(kernel)
    pair = quasi_stationary_pair(chain, 1)
    assert pair.lambda_star == 1.0
    assert quasi_stationary_tail_check(chain, 1, pair=pair) == 0.0


def test_perron_error_carries_diagnostics(monkeypatch):
    monkeypatch.setattr(fvtl, "RANDOM_CHAIN_MAX_STATES", 20)
    rng = np.random.default_rng(3)
    chain = random_ergodic_chain(rng)
    monkeypatch.setattr(fvtl, "PERRON_MAX_ITER", 1)
    with pytest.raises(PerronConvergenceError) as err:
        quasi_stationary_pair(chain, 0)
    assert err.value.iterations == 1
    assert err.value.last_delta > 0


def test_perron_pair_on_sub_kernel_with_two_closed_classes():
    # deleting state 0 leaves two closed classes, {1} and {2}, with the same root 0.7
    kernel = sp.csr_array(np.array([
        [0.2, 0.4, 0.4],
        [0.3, 0.7, 0.0],
        [0.3, 0.0, 0.7],
    ]))
    chain = make_chain(kernel)
    pair = quasi_stationary_pair(chain, 0)
    assert pair.lambda_star == pytest.approx(0.3, abs=1e-12)


def test_uniform_start_ratio_two_state():
    # from the quasi-stationary start the tail is exactly geometric, and in
    # a two-state chain every off-target start is that start
    chain = two_state_chain(0.25, 0.5)
    ratio = uniform_start_ratio(chain, 1, horizons=range(0, 50, 5))
    mu = stationary_distribution(chain)
    # P_0(tau > t) = (1-p)^t; P_mu(tau > t) = mu(0) (1-p)^t
    assert ratio == pytest.approx(1.0 / mu[0], rel=1e-12)


def test_uniform_start_ratio_aux_chain_scale():
    """Finite-n analogue of the worst-start/stationary-start tail comparison
    on the collapsed pair chain."""
    hits = 0
    for seed in range(3):
        d, chain, _ = ergodic_walk_chain(120, 2, seed)
        stationary_distribution(chain)
        aux = build_aux_chain(chain)
        spec = explicit_chain(aux)
        grid = [10, 40, 120, 360, 720]
        ratio = uniform_start_ratio(spec, aux.delta_index, grid)
        if ratio <= 1.1:
            hits += 1
    assert hits >= 2
