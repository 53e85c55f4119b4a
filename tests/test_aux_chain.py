import math
from itertools import islice

import numpy as np
import pytest
import scipy.sparse as sp

from dfa_meet.aux_chain import (
    AuxChain,
    AuxChainError,
    aux_fvtl_report,
    auto_return_horizon,
    build_aux_chain,
    check_events,
    exit_measure,
    log_power_horizon,
    return_mass,
)
from dfa_meet.chains import ergodic_walk_chain, make_chain, stationary_distribution, walk_matrix
from dfa_meet.fvtl import (
    Z_CONSECUTIVE_SMALL,
    Z_TERM_TOL,
    PerronConvergenceError,
    TargetWalk,
    perron_pair,
    quasi_stationary_pair,
    return_series,
    return_sums,
)
from tests.test_chains import full_image_dfa


def small_aux(n=8, r=2, seed=7):
    d, chain, _ = ergodic_walk_chain(n, r, seed)
    stationary_distribution(chain)
    return build_aux_chain(chain)


def test_delta_self_transition_is_exactly_one_over_r():
    for n, r, seed in ((8, 2, 7), (10, 3, 1), (6, 5, 2)):
        aux = small_aux(n, r, seed)
        kernel = aux.kernel_matrix()
        assert kernel[aux.delta_index, aux.delta_index] == 1.0 / r


def test_kernel_rows_stochastic():
    aux = small_aux(9, 3, seed=4)
    sums = np.asarray(aux.kernel_matrix().sum(axis=1)).ravel()
    assert np.abs(sums - 1).max() <= 1e-12


def test_off_diagonal_rows_match_collapsed_product_kernel():
    """Off the diagonal the chain is exactly the product chain, with all
    diagonal mass routed to the collapsed state."""
    aux = small_aux(7, 2, seed=3)
    n = aux.n
    kernel = aux.kernel_matrix().toarray()
    product = sp.kron(aux.kernel, aux.kernel, format="csr").toarray()
    for x in range(n):
        for xp in range(n):
            if x == xp:
                continue
            row = kernel[aux.pair_index(x, xp)]
            prod_row = product[x * n + xp].reshape(n, n)
            for y in range(n):
                for yp in range(n):
                    if y == yp:
                        continue
                    assert row[aux.pair_index(y, yp)] == prod_row[y, yp]
            assert row[aux.delta_index] == pytest.approx(np.trace(prod_row), abs=1e-15)


def test_closed_form_stationary_residual():
    for n, r, seed in ((8, 2, 7), (12, 3, 0), (20, 2, 5)):
        aux = small_aux(n, r, seed)
        assert aux.stationarity_residual() <= 1e-10
        # and through the explicit kernel as well
        pi_tilde = aux.pi_tilde_vector()
        assert np.abs(pi_tilde @ aux.kernel_matrix() - pi_tilde).sum() <= 1e-10


def test_pi_tilde_delta_uniform_chain():
    aux = build_aux_chain(walk_matrix(full_image_dfa(9)))
    assert aux.pi_tilde_delta == pytest.approx(1.0 / 9, abs=1e-15)


def test_pi_tilde_delta_cauchy_schwarz_floor():
    for seed in range(4):
        aux = small_aux(15, 2, seed)
        assert aux.pi_tilde_delta >= 1.0 / 15 - 1e-12


def test_build_rejects_non_dfa_kernel():
    rows = np.array([[0.5, 0.25, 0.25], [0.3, 0.4, 0.3], [0.2, 0.2, 0.6]])
    chain = make_chain(sp.csr_array(rows))
    with pytest.raises(AuxChainError):
        build_aux_chain(chain)


def test_left_and_killed_step_match_explicit_kernel():
    aux = small_aux(6, 2, seed=1)
    kernel = aux.kernel_matrix()
    rng = np.random.default_rng(0)

    nu = rng.dirichlet(np.ones(aux.size))
    pair = np.zeros((aux.n, aux.n))
    for i in range(aux.size - 1):
        pair[aux.index_pair(i)] = nu[i]
    stepped_pair, stepped_delta = aux.left_step(pair, nu[-1])
    expected = nu @ kernel
    assert np.abs(aux.flatten_pair_form(stepped_pair, stepped_delta) - expected).max() < 1e-14

    # the killed step is the step with the diagonal state deleted
    killed = aux.killed_step(pair)
    nu[-1] = 0.0
    expected = nu @ kernel
    expected[-1] = 0.0
    assert np.abs(aux.flatten_pair_form(killed, 0.0) - expected).max() < 1e-14


def test_exit_measure_total_and_support():
    aux = small_aux(10, 2, seed=2)
    mu = exit_measure(aux)
    assert mu.total == pytest.approx(1.0, abs=1e-12)
    assert mu.mu_plus[aux.delta_index % aux.n, aux.delta_index % aux.n] == 0  # zero diagonal

    support_pi = set(np.flatnonzero(aux.pi > 0).tolist())
    targets = aux.kernel.indices.reshape(aux.n, aux.r)
    common_in = set()
    for z in support_pi:
        for a in targets[z]:
            for b in targets[z]:
                if a != b:
                    common_in.add((int(a), int(b)))
    assert set(mu.support_pairs()) == common_in


def test_exit_measure_max_reported_against_threshold():
    # log^17(n)/n is vacuous at accessible sizes; just check the value is sane
    aux = small_aux(60, 2, seed=0)
    mu = exit_measure(aux)
    assert 0 < mu.max_value <= math.log(60) ** 17 / 60


def test_return_mass_lower_bound_and_oracle():
    aux = small_aux(8, 2, seed=7)
    t_horizon = 40
    r_mass = return_mass(aux, t_horizon)
    geometric = sum((1 / aux.r) ** t for t in range(t_horizon + 1))
    assert r_mass >= geometric - 1e-12

    # dense matrix-power oracle on the explicit kernel
    kernel = aux.kernel_matrix().toarray()
    power = np.eye(aux.size)
    series = []
    for _ in range(t_horizon + 1):
        series.append(power[aux.delta_index, aux.delta_index])
        power = power @ kernel
    assert r_mass == pytest.approx(sum(series), abs=1e-10)


def test_return_mass_uniform_chain_oracle():
    aux = build_aux_chain(walk_matrix(full_image_dfa(8)))
    kernel = aux.kernel_matrix().toarray()
    power = np.eye(aux.size)
    total = 0.0
    for _ in range(101):
        total += power[aux.delta_index, aux.delta_index]
        power = power @ kernel
    assert return_mass(aux, 100) == pytest.approx(total, abs=1e-9)


def test_auto_return_horizon_relaxes():
    aux = small_aux(30, 2, seed=1)
    t = auto_return_horizon(aux)
    series = list(islice(return_series(aux), t + 1))
    assert series[-1] <= 1.5 * aux.pi_tilde_delta
    assert min(series[1:-1], default=math.inf) > 1.5 * aux.pi_tilde_delta
    assert t <= log_power_horizon(30, 5)
    # uniform chain relaxes immediately: P(D,D) = 1/n = pi_tilde(D)
    uniform_aux = build_aux_chain(walk_matrix(full_image_dfa(12)))
    assert auto_return_horizon(uniform_aux) == 1


def test_check_events_uniform_chain_closed_forms():
    n = 30
    aux = build_aux_chain(walk_matrix(full_image_dfa(n)))
    eps = abs(1.0 - n / (n - 1)) + 1e-9
    # the return series sits at its stationary level from t = 1 on, so the
    # return-mass event only holds at the adaptive horizon
    report = check_events(aux, eps=eps, t_horizon=auto_return_horizon(aux), s_horizon=3)
    assert report.n_pi_tilde_delta == pytest.approx(1.0, abs=1e-12)
    assert report.a3
    assert report.tv_mode == "exact"
    assert report.max_tv_at_s < 1e-10  # exact stationarity after one step
    assert report.return_mass == pytest.approx(1 + 1 / n, abs=1e-12)
    assert report.a5


def test_check_events_sampled_mode_kicks_in():
    aux = small_aux(70, 2, seed=0)
    report = check_events(aux, eps=0.5, t_horizon=30, s_horizon=25, a4_samples=10, seed=1)
    assert report.tv_mode == "sampled"
    assert 0 <= report.max_tv_at_s <= 1


def test_geometric_sojourn_at_delta():
    """Sojourn lengths at the collapsed state are Geom(1 - 1/r).

    By the one-to-one constraint the chain stays on the diagonal exactly
    when the two emitted colors coincide, which has probability 1/r
    independently each step.
    """
    from scipy.stats import chisquare

    aux = small_aux(15, 3, seed=9)
    r = aux.r
    targets = aux.kernel.indices.reshape(aux.n, r)
    rng = np.random.default_rng(12345)
    trials, steps = 100_000, 48
    z = rng.choice(aux.n, p=aux.diag_weights, size=(trials, steps))
    c1 = rng.integers(0, r, size=(trials, steps))
    c2 = rng.integers(0, r, size=(trials, steps))
    stay = targets[z, c1] == targets[z, c2]
    assert not stay.all(axis=1).any()  # no sojourn outlives the window
    sojourns = stay.argmin(axis=1) + 1  # first step whose two moves differ

    max_k = 12
    observed = np.bincount(np.minimum(sojourns, max_k), minlength=max_k + 1)[1:]
    p = np.array([(1 / r) ** (k - 1) * (1 - 1 / r) for k in range(1, max_k)])
    p = np.append(p, (1 / r) ** (max_k - 1))  # merged tail bin
    stat, pvalue = chisquare(observed, p * observed.sum())
    assert pvalue > 0.001


def test_aux_fvtl_report_small_chain_identities():
    aux = small_aux(12, 2, seed=3)
    report = aux_fvtl_report(aux, compute_quasi_stationary=True)
    # identity route equals direct solve on the explicit chain
    from dfa_meet.chains import hitting_time_expectation

    chain = aux.to_chain_spec()
    direct = hitting_time_expectation(chain, chain.stationary, [aux.delta_index])
    assert report.expected_hitting_from_mu == pytest.approx(direct, abs=1e-7)
    assert 0 < report.lambda_star < 1
    assert report.return_mass >= 1.0


def test_aux_quasi_stationary_matches_generic():
    aux = small_aux(9, 2, seed=5)
    aux_pair = perron_pair(aux)
    pair = quasi_stationary_pair(aux.to_chain_spec(), aux.delta_index)
    assert aux_pair.lambda_star == pytest.approx(pair.lambda_star, abs=1e-10)
    flat = aux.flatten_pair_form(aux_pair.mu_star, 0.0)
    assert np.abs(flat - pair.mu_star).max() < 1e-9


def test_aux_perron_error_carries_iteration_count():
    with pytest.raises(PerronConvergenceError) as err:
        perron_pair(small_aux(9, 2, seed=5), max_iter=1)
    assert err.value.iterations == 1
    assert err.value.last_delta > 0


def test_return_sums_pair_form_matches_explicit_chain():
    aux = small_aux()
    t_aux, r_aux, z_aux = return_sums(aux)
    t_gen, r_gen, z_gen = return_sums(TargetWalk(aux.to_chain_spec(), aux.delta_index))
    assert t_aux == t_gen
    assert r_aux == pytest.approx(r_gen, rel=1e-12)
    assert z_aux == pytest.approx(z_gen, rel=1e-12)


def test_aux_fvtl_report_walks_the_return_series_once(monkeypatch):
    aux = small_aux(30, 2, seed=1)
    calls = [0]
    left_step = AuxChain.left_step

    def counted(self, *args):
        calls[0] += 1
        return left_step(self, *args)

    monkeypatch.setattr(AuxChain, "left_step", counted)
    report = aux_fvtl_report(aux)
    steps = calls[0]
    monkeypatch.undo()

    # one step per term, none repeated: the pass ends at the first t >= T
    # whose last Z_CONSECUTIVE_SMALL centered terms are all below Z_TERM_TOL
    small = np.abs(np.array(list(islice(return_series(aux), steps + 1))) - aux.mu_target)
    small = small < Z_TERM_TOL
    k = Z_CONSECUTIVE_SMALL
    first = max(report.t_horizon, k - 1)
    ends = [t for t in range(first, steps + 1) if small[t - k + 1:t + 1].all()]
    assert ends[:1] == [steps]


def test_asymptotic_horizon_overshoots_at_desk_scale():
    """The ceil(log^5 n) horizon is an asymptotic schedule: at desk scale it
    adds roughly (T+1) * pi_tilde(DELTA) on top of the r/(r-1) head, pushing
    the return mass far above the limit value, while the adaptive horizon
    stays on it. This pins down why the return-mass window is checked at
    the relaxation horizon."""
    d, chain, _ = ergodic_walk_chain(200, 2, seed=0)
    stationary_distribution(chain)
    aux = build_aux_chain(chain)
    ratio = 2.0  # r/(r-1) at r=2

    t_adaptive = auto_return_horizon(aux)
    r_adaptive = return_mass(aux, t_adaptive)
    assert abs(r_adaptive - ratio) < 0.15 * ratio

    t_paper = log_power_horizon(200, 5)
    r_paper = return_mass(aux, t_paper)
    assert r_paper > 1.075 * ratio  # outside the window by construction
    drift = (t_paper - t_adaptive) * aux.pi_tilde_delta
    assert r_paper == pytest.approx(r_adaptive + drift, rel=0.05)


def test_predicted_lambda_consistency_at_scale():
    """predicted_lambda * E_mu[tau] stays within 5% of 1 for n >= 300."""
    for seed in (0, 1):
        d, chain, _ = ergodic_walk_chain(300, 2, seed)
        stationary_distribution(chain)
        aux = build_aux_chain(chain)
        report = aux_fvtl_report(aux)
        assert abs(report.predicted_lambda * report.expected_hitting_from_mu - 1) <= 0.05
