import json
import math
import os
import platform
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from dfa_meet import aux_chain, fvtl
from dfa_meet.aux_chain import (
    AuxChain,
    AuxChainError,
    aux_fvtl_report,
    auto_return_horizon,
    build_aux_chain,
    check_events,
    log_power_horizon,
    return_mass,
)
from dfa_meet.chains import (
    ergodic_walk_chain,
    make_chain,
    mixing_profile,
    stationary_distribution,
    walk_matrix,
)
from dfa_meet.fvtl import (
    Z_CONSECUTIVE_SMALL,
    Z_TERM_TOL,
    PerronConvergenceError,
    TargetWalk,
    perron_pair,
    return_sums,
)
from tests.explicit_chain import explicit_chain, flatten_pair_form, pi_tilde_vector
from tests.test_chains import full_image_dfa
from tests.test_fvtl import relaxation_horizon, return_series


def index_pair(aux, i):
    """Ordered pair ``(x, x')`` of off-diagonal state ``i``; inverse of ``aux.pair_index``."""
    x, k = divmod(i, aux.n - 1)
    return x, k if k < x else k + 1


def full_horizon_tv(aux, m, horizon):
    """TV to ``pi_tilde`` after ``horizon`` full steps from pair state ``m``."""
    for _ in range(horizon):
        m = aux.left_step(m)
    return 0.5 * float(np.abs(m - aux.stationary_state()).sum())


def a4_starts(aux, samples):
    """``DELTA``, then ``samples`` uniform pair starts drawn from seed ``A4_SEED``."""
    yield aux.start()
    rng = np.random.default_rng(aux_chain.A4_SEED)
    for _ in range(samples):
        x = int(rng.integers(0, aux.n))
        xp = int(rng.integers(0, aux.n - 1))
        m = np.zeros((aux.n, aux.n))
        m[x, xp + (xp >= x)] = 1.0
        yield m


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
        pi_tilde = pi_tilde_vector(aux)
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
        pair[index_pair(aux, i)] = nu[i]
    stepped = aux.left_step(pair + np.diag(nu[-1] * aux.reentry))
    expected = nu @ kernel
    assert np.abs(flatten_pair_form(aux, stepped) - expected).max() < 1e-14

    # the killed step is the step with the diagonal state deleted
    killed = aux.killed_step(pair)
    nu[-1] = 0.0
    expected = nu @ kernel
    expected[-1] = 0.0
    assert np.abs(flatten_pair_form(aux, killed) - expected).max() < 1e-14


def test_left_step_keeps_the_pair_orientation_in_either_memory_order():
    """The step transposes internally; C- and F-ordered inputs, and the
    step's own outputs, must all come back as the pair (x, x'), not (x', x)."""
    aux = small_aux(9, 3, seed=4)
    kernel = aux.kernel_matrix()
    start = np.zeros((aux.n, aux.n))
    start[1, 5] = 1.0
    for first in (start, np.asfortranarray(start)):
        m, nu = first, flatten_pair_form(aux, first)
        for _ in range(3):
            m = aux.left_step(m)
            nu = nu @ kernel
            assert np.abs(flatten_pair_form(aux, m) - nu).max() <= 1e-15
            assert np.abs(flatten_pair_form(aux, m.T) - nu).max() > 1e-3  # asymmetric
        assert m.flags.f_contiguous != first.flags.f_contiguous  # orders alternate


def exit_law(aux):
    """Law of the first pair entered on leaving DELTA.

    It is r/(r-1) times the mass that leaves DELTA in one step.
    """
    return aux.killed_step(aux.start()) * (aux.r / (aux.r - 1))


def test_exit_measure_total_and_support():
    aux = small_aux(10, 2, seed=2)
    mu = exit_law(aux)
    assert mu.sum() == pytest.approx(1.0, abs=1e-12)
    assert not np.diagonal(mu).any()  # zero diagonal

    support_pi = set(np.flatnonzero(aux.pi > 0).tolist())
    targets = aux.kernel.indices.reshape(aux.n, aux.r)
    common_in = set()
    for z in support_pi:
        for a in targets[z]:
            for b in targets[z]:
                if a != b:
                    common_in.add((int(a), int(b)))
    assert {(int(x), int(y)) for x, y in zip(*np.nonzero(mu > 0))} == common_in


def test_exit_measure_is_the_reentry_law_through_two_kernel_steps():
    """Leaving the diagonal from z ~ pi**2 / sum(pi**2), both walks take one
    step; conditioned on their moves differing, the exit law is r/(r-1)
    times the off-diagonal part of K^T diag(w) K."""
    aux = small_aux(10, 3, seed=2)
    w = aux.pi**2 / (aux.pi @ aux.pi)
    exit_mass = (aux.kernel.T @ sp.diags_array(w) @ aux.kernel).toarray()
    np.fill_diagonal(exit_mass, 0.0)
    assert np.abs(exit_law(aux) - aux.r / (aux.r - 1) * exit_mass).max() <= 1e-15


def test_exit_measure_max_reported_against_threshold():
    # log^17(n)/n is vacuous at accessible sizes; just check the value is sane
    aux = small_aux(60, 2, seed=0)
    assert 0 < exit_law(aux).max() <= math.log(60) ** 17 / 60


def test_return_mass_lower_bound_and_oracle():
    aux = small_aux(8, 2, seed=7)
    t_horizon = 40
    r_mass, _ = return_mass(aux, t_horizon)
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
    assert return_mass(aux, 100)[0] == pytest.approx(total, abs=1e-9)


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


def test_auto_return_horizon_is_the_relaxation_horizon_oracle(aux150):
    """The horizon of the return pass is the first relaxed term of the
    return series, on pair chains and on generic chains."""
    for aux in (small_aux(30, 2, seed=1), aux150):
        assert auto_return_horizon(aux) == relaxation_horizon(aux, return_series(aux))
    for walk in random_target_walks(200, seed=1):
        assert return_sums(walk, sum_z=False).t_horizon == relaxation_horizon(
            walk, return_series(walk))


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


def test_check_events_sampled_mode_kicks_in(monkeypatch):
    aux = small_aux(70, 2, seed=0)
    monkeypatch.setattr(aux_chain, "A4_SAMPLES", 10)
    monkeypatch.setattr(aux_chain, "A4_SEED", 1)
    report = check_events(aux, eps=0.5, t_horizon=30, s_horizon=25)
    assert report.tv_mode == "sampled"
    assert 0 <= report.max_tv_at_s <= 1


def test_sampled_tv_matches_explicit_chain(monkeypatch):
    """The sampled A4 estimate is the exact TV distance after S steps from
    the diagonal state and the same seeded pair starts."""
    aux = small_aux(12, 2, seed=3)
    s_horizon, samples, seed = 6, 15, 4
    monkeypatch.setattr(aux_chain, "A4_SAMPLES", samples)
    monkeypatch.setattr(aux_chain, "A4_SEED", seed)
    chain = explicit_chain(aux)
    rng = np.random.default_rng(seed)
    starts = [aux.delta_index]
    for _ in range(samples):
        x = int(rng.integers(0, aux.n))
        xp = int(rng.integers(0, aux.n - 1))
        starts.append(aux.pair_index(x, xp + (xp >= x)))
    nu = np.zeros((len(starts), aux.size))
    nu[np.arange(len(starts)), starts] = 1.0
    for _ in range(s_horizon):
        nu = nu @ chain.kernel
    tv = 0.5 * np.abs(nu - chain.stationary).sum(axis=1)
    assert tv[1:].max() > 1e-3  # not yet mixed, so the comparison has teeth

    monkeypatch.setattr(aux_chain, "A4_EXACT_LIMIT", 0)
    report = check_events(aux, eps=0.5, s_horizon=s_horizon)
    assert report.tv_mode == "sampled" and report.a4_stopped_starts == 0
    assert report.max_tv_at_s == pytest.approx(tv.max(), abs=1e-12)


def test_exact_tv_matches_the_explicit_chain_profile():
    """In exact mode the A4 maximum over DELTA and every pair start is the
    worst-start TV of the explicit chain after S steps."""
    aux = small_aux(12, 2, seed=3)
    s_horizon = 6
    d_tv = mixing_profile(explicit_chain(aux), s_horizon).d_tv[s_horizon]
    assert d_tv > 1e-3  # not yet mixed, so the comparison has teeth
    report = check_events(aux, eps=0.5, s_horizon=s_horizon)
    assert report.tv_mode == "exact" and report.a4_stopped_starts == 0
    assert report.max_tv_at_s == pytest.approx(d_tv, abs=1e-12)


def test_exact_mode_reports_its_certified_stops():
    """On the uniform chain every start is stationary after one step, so
    each of the n(n-1) + 1 scans stops at the first check."""
    aux = build_aux_chain(walk_matrix(full_image_dfa(12)))
    report = check_events(aux, eps=0.5, s_horizon=20)
    assert report.tv_mode == "exact-bound"
    assert report.a4_stopped_starts == aux.size
    assert report.max_tv_at_s <= fvtl.TV_STOP_LEVEL


def test_a4_starts_are_delta_then_every_pair_in_exact_mode():
    aux = small_aux(6, 2, seed=1)
    starts = list(aux_chain._a4_starts(aux))
    assert len(starts) == aux.size
    assert np.array_equal(starts[0], aux.start())
    pairs = [tuple(np.argwhere(m)[0]) for m in starts[1:]]
    assert all(m.sum() == 1.0 for m in starts[1:])
    assert pairs == [index_pair(aux, i) for i in range(aux.size - 1)]


@pytest.fixture(scope="module")
def aux150():
    return small_aux(150, 2, seed=0)


def test_certified_return_mass_matches_brute_force(aux150):
    """At n = 150 and T = ceil(log^5 n) the scan stops long before T, and
    the closed-form tail keeps R within the certified error of the full sum."""
    aux = aux150
    t_horizon = log_power_horizon(aux.n, 5)
    assert aux.stationarity_residual() <= fvtl.STOP_RESIDUAL_LEVEL
    assert aux.scan_stop_level == fvtl.TV_STOP_LEVEL
    r_mass, t0 = return_mass(aux, t_horizon)
    assert 0 < t0 < t_horizon and t0 % fvtl.TV_CHECK_EVERY == 0
    brute = sum(islice(return_series(aux), t_horizon + 1))
    assert abs(r_mass - brute) <= (t_horizon - t0) * fvtl.TV_STOP_LEVEL
    assert r_mass == pytest.approx(brute, rel=1e-9)


def test_return_mass_runs_to_short_horizons():
    aux = small_aux(30, 2, seed=1)
    for t_horizon in (0, 1, 7, 13):
        r_mass, t0 = return_mass(aux, t_horizon)
        assert t0 == t_horizon
        assert r_mass == pytest.approx(sum(islice(return_series(aux), t_horizon + 1)),
                                       abs=1e-14)
        sums = return_sums(aux, t_horizon, sum_z=False)
        assert (sums.stop, sums.z) == ("horizon", None)


def test_negative_horizons_are_rejected():
    aux = small_aux(70, 2, seed=0)
    with pytest.raises(ValueError, match="horizon must be at least 0, got -1"):
        return_mass(aux, -1)
    with pytest.raises(ValueError, match="horizon must be at least 0, got -3"):
        check_events(aux, eps=0.15, s_horizon=-3)


def test_stopped_sampled_tv_bounds_the_full_horizon_oracle(aux150, monkeypatch):
    """A start that stops early reports its TV at the stop, which never
    falls below its TV after all S steps by more than the stop level."""
    aux = aux150
    s_horizon, samples = log_power_horizon(aux.n, 3), 12
    monkeypatch.setattr(aux_chain, "A4_SAMPLES", samples)
    report = check_events(aux, eps=0.15, s_horizon=s_horizon)
    worst = report.max_tv_at_s
    assert report.a4_stopped_starts == samples + 1  # every start, DELTA included, stops before S

    oracle = max(full_horizon_tv(aux, m, s_horizon) for m in a4_starts(aux, samples))
    assert worst >= oracle - fvtl.TV_STOP_LEVEL
    assert worst <= fvtl.TV_STOP_LEVEL

    # the diagonal start on its own
    t0, tv = fvtl.certified_scan(aux, aux.start(), s_horizon)
    assert t0 < s_horizon
    assert tv >= full_horizon_tv(aux, aux.start(), s_horizon) - fvtl.TV_STOP_LEVEL
    assert tv <= fvtl.TV_STOP_LEVEL


A4_STOP_GOLDEN = Path(__file__).parent / "data" / "a4_stop_steps_golden.json"


def test_a4_starts_stop_at_their_golden_steps(aux150):
    """Each of the 201 A4 starts of the n = 150, r = 2, seed 0 instance,
    DELTA first, stops at its pinned step."""
    golden = json.loads(A4_STOP_GOLDEN.read_text())
    assert (golden["n"], golden["r"], golden["seed"]) == (150, 2, 0)
    s_horizon = log_power_horizon(aux150.n, 3)
    assert golden["s_horizon"] == s_horizon
    steps = [fvtl.certified_scan(aux150, m, s_horizon)[0] for m in aux_chain._a4_starts(aux150)]
    assert steps == golden["stop_steps"]


def test_check_events_records_the_certified_stops(aux150, monkeypatch):
    monkeypatch.setattr(aux_chain, "A4_SAMPLES", 5)
    report = check_events(aux150, eps=0.15)
    assert report.tv_mode == "sampled-bound"
    assert report.a4_stopped_starts == 6
    assert report.max_tv_at_s <= fvtl.TV_STOP_LEVEL
    assert report.return_stop_step < report.t_horizon
    assert report.return_stop_step % fvtl.TV_CHECK_EVERY == 0
    assert {"a4_stopped_starts", "return_stop_step"} <= set(report.as_dict())

    # a horizon shorter than the first check runs in full
    report = check_events(aux150, eps=0.15, t_horizon=5, s_horizon=5)
    assert report.tv_mode == "sampled" and report.a4_stopped_starts == 0
    assert report.return_stop_step == 5


def test_check_events_runs_the_diagonal_start_as_one_more_scan(aux150, monkeypatch):
    """The A4 values are certified scans to S from DELTA and the sampled
    starts, and the return-mass pass does not depend on S."""
    monkeypatch.setattr(aux_chain, "A4_SAMPLES", 4)
    s_horizon = log_power_horizon(aux150.n, 3)
    delta_t0, _ = fvtl.certified_scan(aux150, aux150.start(), s_horizon)
    assert delta_t0 < s_horizon
    r_mass, r_t0 = return_mass(aux150, log_power_horizon(aux150.n, 5))
    for s in (s_horizon, delta_t0, delta_t0 - 1):
        report = check_events(aux150, eps=0.15, s_horizon=s)
        scans = [fvtl.certified_scan(aux150, m, s) for m in a4_starts(aux150, 4)]
        assert report.max_tv_at_s == max(tv for _, tv in scans)
        assert report.a4_stopped_starts == sum(t0 < s for t0, _ in scans)
        assert (report.return_mass, report.return_stop_step) == (r_mass, r_t0)
        if s == s_horizon:
            assert report.a4_stopped_starts == 5


def test_scans_run_in_full_when_pi_tilde_misses_the_residual_level(monkeypatch):
    """The stop is trusted only when outer(pi, pi) is stationary to within
    STOP_RESIDUAL_LEVEL; otherwise every scan runs to its horizon."""
    monkeypatch.setattr(fvtl, "STOP_RESIDUAL_LEVEL", 0.0)
    monkeypatch.setattr(aux_chain, "A4_SAMPLES", 3)
    aux = small_aux(70, 2, seed=0)
    assert aux.stationarity_residual() > 0.0
    assert aux.scan_stop_level < 0
    t_horizon = log_power_horizon(aux.n, 5)
    r_mass, t0 = return_mass(aux, t_horizon)
    assert t0 == t_horizon
    assert r_mass == pytest.approx(sum(islice(return_series(aux), t_horizon + 1)), rel=1e-14)
    report = check_events(aux, eps=0.15, t_horizon=40)
    assert report.tv_mode == "sampled" and report.a4_stopped_starts == 0
    # the return pass stops at T, whatever S is
    assert 40 < report.s_horizon and report.return_stop_step == 40


def test_build_aux_chain_reuses_the_cached_transpose(monkeypatch):
    d, chain, _ = ergodic_walk_chain(20, 3, seed=2)
    calls = [0]
    tocsr = sp.csc_array.tocsr

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return tocsr(self, *args, **kwargs)

    monkeypatch.setattr(sp.csc_array, "tocsr", counted)
    stationary_distribution(chain, method="power")
    aux = build_aux_chain(chain)
    assert aux.kernel_t is chain.kernel_t
    assert calls[0] == 1
    assert np.array_equal(aux.kernel_t.toarray(), chain.kernel.toarray().T)


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
    z = rng.choice(aux.n, p=aux.pi**2 / (aux.pi @ aux.pi), size=(trials, steps))
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

    chain = explicit_chain(aux)
    direct = hitting_time_expectation(chain, chain.stationary, [aux.delta_index])
    assert report.expected_hitting_from_mu == pytest.approx(direct, abs=1e-7)
    assert 0 < report.quasi.lambda_star < 1
    assert report.return_mass >= 1.0


def test_aux_quasi_stationary_matches_generic():
    aux = small_aux(9, 2, seed=5)
    aux_pair = perron_pair(aux)
    pair = perron_pair(TargetWalk(explicit_chain(aux), aux.delta_index))
    assert aux_pair.lambda_star == pytest.approx(pair.lambda_star, abs=1e-10)
    flat = flatten_pair_form(aux, aux_pair.mu_star)
    assert np.abs(flat - pair.mu_star).max() < 1e-9


def test_aux_perron_error_carries_iteration_count(monkeypatch):
    aux = small_aux(9, 2, seed=5)
    monkeypatch.setattr(fvtl, "PERRON_MAX_ITER", 1)
    with pytest.raises(PerronConvergenceError) as err:
        perron_pair(aux)
    assert err.value.iterations == 1
    assert err.value.last_delta > 0


def test_aux_fvtl_report_keeps_the_perron_pair():
    report = aux_fvtl_report(small_aux(9, 2, seed=5), compute_quasi_stationary=True)
    assert report.quasi.iterations >= 1
    assert report.quasi.mu_star.shape == (9, 9)


def test_return_sums_pair_form_matches_explicit_chain():
    aux = small_aux()
    pair = return_sums(aux)
    gen = return_sums(TargetWalk(explicit_chain(aux), aux.delta_index))
    assert pair.t_horizon == gen.t_horizon
    assert pair.return_mass == pytest.approx(gen.return_mass, rel=1e-12)
    assert pair.z == pytest.approx(gen.z, rel=1e-12)


def fifty_term_pass(p):
    """``(T, R, Z)`` of the pass without a certified stop, from :func:`return_series`.

    It ends at the first ``t >= T`` whose last ``Z_CONSECUTIVE_SMALL``
    centered terms are all below ``Z_TERM_TOL``.
    """
    t_horizon = relaxation_horizon(p, return_series(p))
    terms, small = [], 0
    for t, q in enumerate(return_series(p)):
        terms.append(q)
        small = small + 1 if abs(q - p.mu_target) < Z_TERM_TOL else 0
        if t >= t_horizon and small >= Z_CONSECUTIVE_SMALL:
            break
    series = np.array(terms)
    return t_horizon, float(series[:t_horizon + 1].sum()), float((series - p.mu_target).sum())


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

    # one step per term, none repeated, plus the one step of the residual
    # gate: the pass ends at the first multiple of TV_CHECK_EVERY at or
    # after the horizon whose TV is at most the stop level, which here
    # comes before Z_CONSECUTIVE_SMALL centered terms fall below Z_TERM_TOL
    t_horizon, _, _ = fifty_term_pass(aux)
    m, t = aux.start(), 0
    while t < t_horizon or t % fvtl.TV_CHECK_EVERY or full_horizon_tv(aux, m, 0) > fvtl.TV_STOP_LEVEL:
        m, t = aux.left_step(m), t + 1
    assert aux.scan_stop_level == fvtl.TV_STOP_LEVEL
    assert (report.z_stop, report.z_stop_step) == ("certified", t)
    assert steps == t + 1

    small = np.abs(np.array(list(islice(return_series(aux), t + 1))) - aux.mu_target)
    small = small < Z_TERM_TOL
    k = Z_CONSECUTIVE_SMALL
    assert not any(small[e - k + 1:e + 1].all() for e in range(max(t_horizon, k - 1), t))


def random_target_walks(count, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = fvtl.random_ergodic_chain(rng)
        stationary_distribution(c)
        yield TargetWalk(c, int(rng.integers(0, c.size)))


def zero_target(p, state):
    """A copy of ``state`` with the target zeroed: the diagonal of a pair state."""
    state = state.copy()
    if isinstance(p, AuxChain):
        np.fill_diagonal(state, 0.0)
    else:
        state[p.target] = 0.0
    return state


def test_propagator_derived_members(monkeypatch):
    """The members the base class derives from each propagator's chain."""
    rng = np.random.default_rng(8)
    for p in [*random_target_walks(10, seed=4), small_aux(9, 2, seed=5), small_aux(12, 3, seed=2)]:
        killed = p.killed_start()
        assert killed.sum() == pytest.approx(1.0, abs=1e-14)
        assert p.target_mass(killed) == 0.0 and np.array_equal(killed, zero_target(p, killed))
        state = rng.dirichlet(np.ones(killed.size)).reshape(killed.shape)
        for s in (state, killed, p.start()):
            assert np.array_equal(p.killed_step(s), zero_target(p, p.left_step(s)))
        assert p.tv_to_stationary(p.stationary_state()) == 0.0

        calls = [0]
        left_step = p.left_step

        def counted(s):
            calls[0] += 1
            return left_step(s)

        monkeypatch.setattr(p, "left_step", counted)
        levels = []
        for gate in (math.inf, -1.0, math.inf):
            monkeypatch.setattr(fvtl, "STOP_RESIDUAL_LEVEL", gate)
            levels.append(p.scan_stop_level)
            assert fvtl.certified_scan(p, p.start(), 0)[0] == 0
        # one residual step however many reads, each read against the gate of the moment
        assert calls[0] == 1
        assert levels == [fvtl.TV_STOP_LEVEL, -1.0, fvtl.TV_STOP_LEVEL]
        monkeypatch.undo()


def test_closed_gate_return_sums_is_the_fifty_term_pass(monkeypatch):
    """With the residual gate shut, the pass is the one without a certified
    stop, bit for bit."""
    monkeypatch.setattr(fvtl, "STOP_RESIDUAL_LEVEL", 0.0)
    for p in [small_aux(30, 2, seed=1), small_aux(150, 2, seed=0), *random_target_walks(12)]:
        assert p.scan_stop_level < 0
        sums = return_sums(p)
        assert sums.stop == "consecutive"
        assert (sums.t_horizon, sums.return_mass, sums.z) == fifty_term_pass(p)


def test_certified_stop_keeps_t_and_r_and_bounds_z(aux150, monkeypatch):
    """An open gate shortens the pass; T and R stay put when t0 >= T, and
    Z moves by at most 3 TV_STOP_LEVEL (1 + r/(r-1) at r = 2 bounds the
    tail factor of the certificate on the pair chain)."""
    walks = list(random_target_walks(12))
    opened = [return_sums(p) for p in [aux150, *walks]]
    monkeypatch.setattr(fvtl, "STOP_RESIDUAL_LEVEL", 0.0)
    closed = [return_sums(p) for p in [small_aux(150, 2, seed=0), *walks]]
    assert opened[0].stop == "certified"
    assert all(s.stop == "certified" for s in opened)
    for o, c in zip(opened, closed):
        assert o.stop_step <= c.stop_step
        assert o.t_horizon == c.t_horizon
        if o.stop_step >= o.t_horizon:
            assert o.return_mass == c.return_mass
        assert abs(o.z - c.z) <= 3 * fvtl.TV_STOP_LEVEL


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
    r_adaptive, _ = return_mass(aux, t_adaptive)
    assert abs(r_adaptive - ratio) < 0.15 * ratio

    t_paper = log_power_horizon(200, 5)
    r_paper, _ = return_mass(aux, t_paper)
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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_pair_chain_steps_keep_their_freed_temporaries():
    """A fresh interpreter's pair-chain steps reuse their ``n x n`` temporaries.

    At n = 400 each temporary is 1.28 MB, above glibc's default mmap
    threshold. Unless ``build_aux_chain`` raises the thresholds, every step
    hands its temporaries back and faults about 440 pages in again.
    """
    code = ("import resource\n"
            "from dfa_meet import build_aux_chain, ergodic_walk_chain\n"
            "a = build_aux_chain(ergodic_walk_chain(400, 2, 0)[1])\n"
            "m = a.left_step(a.start())\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(30):\n"
            "    m = a.left_step(m)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120, check=True)
    assert int(done.stdout) < 50 * 30
