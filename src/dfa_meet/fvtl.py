"""First-visit-time numerics on finite ergodic chains.

For a chain ``Q`` with stationary law ``mu`` and a target state, the
hitting time from stationarity is approximately geometric with rate
``mu(target) / R``, where ``R`` counts expected returns to the target
within a short horizon. The exact finite-chain identities behind this are

* ``E_mu[tau] = Z(target, target) / mu(target)`` with the fundamental
  matrix ``Z = sum_t (Q^t - mu)``,
* a quasi-stationary pair ``(mu_star, lambda_star)`` with exactly
  geometric tails ``(1 - lambda_star)^t`` and mean ``1 / lambda_star``.

These identities are what the test suite verifies to near machine
precision; the geometric rate prediction itself is asymptotic.

Each algorithm (return series, relaxation horizon, ``R`` and ``Z`` sums,
Perron iteration) is written once over a :class:`Propagator`.
:class:`TargetWalk` is the propagator of a generic chain;
:class:`~dfa_meet.aux_chain.AuxChain` is the propagator of the collapsed
pair chain, whose every state is one ``(n, n)`` pair matrix.

The return pass stops once its total-variation (TV) distance to
stationarity is certified small; that distance never increases along a
run (Levin, Peres & Wilmer, *Markov Chains and Mixing Times*, ch. 4). See
:func:`return_sums` and :func:`certified_stop_level`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Protocol

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .chains import (
    ChainSpec,
    ConvergenceError,
    _recurrent_classes,
    hitting_time_expectation,
    make_chain,
    stationary_distribution,
)

Z_TERM_TOL = 1e-14
Z_CONSECUTIVE_SMALL = 50
Z_MAX_STEPS = 10**6
PERRON_TOL = 1e-13
PERRON_MAX_ITER = 10**6
ROOT_TIE_REL_TOL = 1e-9
RELAX_FACTOR = 1.5
RANDOM_CHAIN_MAX_STATES = 40
# Above the rounding floor of the pair-chain TV (about 4e-15 at n = 1000),
# and small enough that (T - t0) * TV_STOP_LEVEL stays far below 1e-9 * R.
TV_STOP_LEVEL = 1e-12
TV_CHECK_EVERY = 8
# Scans stop early only if the computed stationary law misses stationarity
# by at most this in L1 after one step. For the pair chain the rounding
# floor of that residual is 3e-15 at n = 150 and 5e-15 to 1e-14 at
# n = 1000 (r = 2, 20).
STOP_RESIDUAL_LEVEL = 1e-13


class PerronConvergenceError(ConvergenceError):
    """Power iteration for the quasi-stationary pair failed to converge."""


@dataclass
class QuasiStationaryPair:
    """Dominant left eigenpair of the target-deleted sub-kernel.

    ``lambda_star`` is one minus the Perron root; ``mu_star`` is the
    normalized left Perron vector as a killed state: a full-chain vector
    with zero at the target, or a pair matrix with zero diagonal for the
    pair chain.
    ``tied_closed_classes`` flags a non-unique pair: several closed
    communicating classes of the sub-kernel share the dominant root. Only
    :func:`quasi_stationary_pair` checks for such a tie; a pair from
    :func:`perron_pair` alone leaves the flag False.
    """

    lambda_star: float
    mu_star: np.ndarray = field(repr=False)
    iterations: int
    tied_closed_classes: bool = False


@dataclass
class FvtlReport:
    """Exact finite-chain quantities behind the geometric rate prediction.

    ``z_stop_step`` and ``z_stop`` say where and why the ``Z`` series
    stopped (see :class:`ReturnSums`).
    """

    target: int
    mu_target: float
    t_horizon: int
    return_mass: float
    z_dd: float
    predicted_lambda: float
    expected_hitting_from_mu: float
    z_stop_step: int
    z_stop: str
    quasi: QuasiStationaryPair | None = None


@dataclass
class ReturnSums:
    """One pass over the return series: horizon, ``R(T)``, ``Z`` and where the pass stopped.

    ``stop_step`` is the last step taken, ``t0``. ``stop`` is
    ``"certified"`` when the TV distance to stationarity was at most the
    propagator's ``scan_stop_level`` there, ``"consecutive"`` when
    ``Z_CONSECUTIVE_SMALL`` successive terms were below ``Z_TERM_TOL``, and
    ``"horizon"`` when a pass without ``Z`` (then None) reached its last step.
    ``tv`` is the TV distance at the requested step ``tv_at``, or at
    ``t0`` if the pass stopped before it; None when no step was requested.
    """

    t_horizon: int
    return_mass: float
    z: float | None
    stop_step: int
    stop: str
    tv: float | None


class Propagator(Protocol):
    """A chain seen from one target state, as the first-visit engine uses it.

    ``start`` is the point mass at the target, ``step`` one step of
    ``nu -> nu Q`` and ``target_mass`` the mass a state puts on the target.
    A state is one array of the propagator's own shape: a probability
    vector for :class:`TargetWalk`, an ``(n, n)`` pair matrix whose trace
    is the target mass for the pair chain.
    ``killed_start`` is uniform mass off the target and ``killed_step`` one
    step of the target-deleted sub-kernel ``[Q]_target``; killed states are
    arrays whose sum is the surviving mass. ``mu_target`` is the stationary
    mass of the target and ``horizon_cap`` the longest relaxation horizon.
    ``tv_to_stationary`` is the TV distance from a state to the computed
    stationary law, and ``scan_stop_level`` the TV level at which a scan
    may stop, from :func:`certified_stop_level`.
    """

    mu_target: float
    horizon_cap: int
    scan_stop_level: float

    def start(self): ...
    def step(self, state): ...
    def target_mass(self, state) -> float: ...
    def tv_to_stationary(self, state) -> float: ...
    def killed_start(self) -> np.ndarray: ...
    def killed_step(self, killed: np.ndarray) -> np.ndarray: ...


def log_power_horizon(n: int, power: int) -> int:
    """``ceil(log(n)**power)`` with the natural log (the asymptotic schedule)."""
    return math.ceil(math.log(n) ** power)


def certified_stop_level(residual: float) -> float:
    """``TV_STOP_LEVEL`` if the stationary law's one-step L1 ``residual`` is at most ``STOP_RESIDUAL_LEVEL``, else -1.

    A scan stops when its TV distance to the computed law ``pi`` is at
    most the level. Bounds drawn from that stop hold against the exact law
    up to ``2e``, where ``e`` is the distance from ``pi`` to it: at most
    half the residual times the summed contraction coefficients of the
    chain. Those are not computed, so the gate asks for a residual of a
    tenth of the stop level; a less exact ``pi`` gets -1, which never stops.
    """
    return TV_STOP_LEVEL if residual <= STOP_RESIDUAL_LEVEL else -1.0


@dataclass(eq=False)
class TargetWalk:
    """A :class:`ChainSpec` seen from ``target``; states are probability vectors.

    Killed states keep full-chain indexing with zero mass at the target.
    """

    chain: ChainSpec
    target: int

    @property
    def mu_target(self) -> float:
        return float(stationary_distribution(self.chain)[self.target])

    @property
    def horizon_cap(self) -> int:
        return log_power_horizon(max(self.chain.size, 2), 5)

    @property
    def scan_stop_level(self) -> float:
        mu = stationary_distribution(self.chain)
        return certified_stop_level(float(np.abs(self.chain.kernel_t @ mu - mu).sum()))

    def start(self) -> np.ndarray:
        v = np.zeros(self.chain.size)
        v[self.target] = 1.0
        return v

    def tv_to_stationary(self, v: np.ndarray) -> float:
        return 0.5 * float(np.abs(v - stationary_distribution(self.chain)).sum())

    def step(self, v: np.ndarray) -> np.ndarray:
        return self.chain.kernel_t @ v

    def target_mass(self, v: np.ndarray) -> float:
        return float(v[self.target])

    def killed_start(self) -> np.ndarray:
        v = np.full(self.chain.size, 1.0 / (self.chain.size - 1))
        v[self.target] = 0.0
        return v

    def killed_step(self, v: np.ndarray) -> np.ndarray:
        w = self.chain.kernel_t @ v
        w[self.target] = 0.0
        return w


def return_series(p: Propagator) -> Iterator[float]:
    """``Q^t(target, target)`` for ``t = 0, 1, 2, ...``; term ``t`` costs ``t`` steps."""
    state = p.start()
    while True:
        yield p.target_mass(state)
        state = p.step(state)


def _is_horizon(t: int, q: float, level: float, cap: int) -> bool:
    return t >= 1 and (q <= level or t == cap)


def relaxation_horizon(p: Propagator, terms: Iterator[float]) -> int:
    """Smallest ``t >= 1`` whose term is at most ``RELAX_FACTOR * mu(target)``, or ``horizon_cap``.

    Reads ``terms`` (``p``'s :func:`return_series`) up to and including term ``t``.
    """
    level, cap = RELAX_FACTOR * p.mu_target, p.horizon_cap
    return next(t for t, q in enumerate(terms) if _is_horizon(t, q, level, cap))


def return_sums(p: Propagator, t_horizon: int | None = None,
                tv_at: int | None = None, sum_z: bool = True) -> ReturnSums:
    """Horizon ``T``, return mass ``R(T)`` and ``Z(target, target)`` in one pass.

    ``Z = sum_t (Q^t(target, target) - mu(target))`` is the
    fundamental-matrix entry and ``T`` defaults to the
    :func:`relaxation_horizon`. Once ``T`` is known (from step 0 when it is
    given) the pass measures the TV distance to stationarity at every
    multiple of ``TV_CHECK_EVERY``, and stops at the first such step ``t0``
    where it is at most ``p.scan_stop_level``, or at the first
    ``t0 >= max(T, tv_at)`` that ends ``Z_CONSECUTIVE_SMALL`` successive
    terms below ``Z_TERM_TOL`` in magnitude, whichever comes first. ``Z``
    sums the terms up to ``t0``, and
    ``R(T) = sum_{t <= min(T, t0)} Q^t(target, target) + max(0, T - t0) * mu(target)``.

    The target mass is part of the state's TV distance, and that distance
    never increases. So after a certified stop at ``TV(t0)``, every later
    term is within ``TV(t0) + 2e`` of ``mu(target)``, where ``e`` is the
    distance from the computed to the exact stationary law (see
    :func:`certified_stop_level`), and ``R`` is off by at most
    ``(T - t0) * (TV(t0) + 2e)``. Writing the tail of ``Z`` through the
    fundamental matrix gives
    ``|Z - Z(t0)| <= (TV(t0) + 2e) * (1 + mu(target) * max_a E_a[tau_target])``.
    ``tv_at`` asks for the TV distance at that step as well (see
    :class:`ReturnSums`). A pass with ``sum_z`` False, for callers that need
    only ``R``, also stops at ``max(T, tv_at)``.
    """
    for h in (t_horizon, tv_at):
        if h is not None and h < 0:
            raise ValueError(f"horizon must be at least 0, got {h}")
    mu, level = p.mu_target, p.scan_stop_level
    relax, cap = RELAX_FACTOR * mu, p.horizon_cap
    state = p.start()
    terms: list[float] = []
    small, t, tv = 0, 0, None
    while True:
        q = p.target_mass(state)
        terms.append(q)
        if t_horizon is None and _is_horizon(t, q, relax, cap):
            t_horizon = t
        small = small + 1 if abs(q - mu) < Z_TERM_TOL else 0
        check = t_horizon is not None and level >= 0 and t % TV_CHECK_EVERY == 0
        if check or t == tv_at:
            tv_t = p.tv_to_stationary(state)
            if tv_at is not None and t <= tv_at:
                tv = tv_t
            if check and tv_t <= level:
                stop = "certified"
                break
        if t_horizon is not None and t >= max(t_horizon, tv_at or 0):
            if not sum_z:
                stop = "horizon"
                break
            if small >= Z_CONSECUTIVE_SMALL:
                stop = "consecutive"
                break
        if t >= Z_MAX_STEPS:
            raise ConvergenceError(t, abs(q - mu))
        state = p.step(state)
        t += 1
    series = np.array(terms)
    r_mass = series[: t_horizon + 1].sum()
    if t < t_horizon:
        r_mass += (t_horizon - t) * mu
    z = float((series - mu).sum()) if sum_z else None
    return ReturnSums(t_horizon, float(r_mass), z, t, stop, tv)


def perron_pair(p: Propagator) -> QuasiStationaryPair:
    """Power iteration for the dominant left eigenpair of ``[Q]_target``.

    The sub-kernel is not assumed irreducible; iteration starts from the
    strictly positive ``killed_start`` and converges to the dominant closed
    class. ``mu_star`` comes back in the propagator's killed-state form.
    Stops once successive iterates are ``PERRON_TOL`` apart in L1, and raises
    :class:`PerronConvergenceError` after ``PERRON_MAX_ITER`` steps.
    """
    v = p.killed_start()
    delta = math.inf
    for it in range(1, PERRON_MAX_ITER + 1):
        # Half-lazy update: shifts the spectrum so the Perron root is the
        # unique dominant eigenvalue in modulus even for periodic classes.
        w = 0.5 * (v + p.killed_step(v))
        w /= w.sum()
        delta = float(np.abs(w - v).sum())
        v = w
        if delta <= PERRON_TOL:
            break
    else:
        raise PerronConvergenceError(PERRON_MAX_ITER, delta)
    root = float(p.killed_step(v).sum())
    return QuasiStationaryPair(lambda_star=1.0 - root, mu_star=v, iterations=it)


def quasi_stationary_pair(c: ChainSpec, target: int) -> QuasiStationaryPair:
    """:func:`perron_pair` of the chain seen from ``target``.

    A tie in the Perron root across several closed classes of the
    sub-kernel is reported via ``tied_closed_classes``.
    """
    pair = perron_pair(TargetWalk(c, target))
    keep = np.arange(c.size) != target
    sub = c.kernel[np.ix_(keep, keep)].tocsr()
    pair.tied_closed_classes = _closed_class_root_tie(sub, 1.0 - pair.lambda_star)
    return pair


def _closed_class_root_tie(sub: sp.csr_array, root: float) -> bool:
    """True when several closed classes tie for the root, to ``ROOT_TIE_REL_TOL`` relative."""
    closed = _recurrent_classes(sub)
    if len(closed) <= 1:
        return False
    at_root = 0
    for cls in closed:
        block = sub[np.ix_(cls, cls)].toarray()
        cls_root = float(np.max(np.abs(np.linalg.eigvals(block))))
        if abs(cls_root - root) <= ROOT_TIE_REL_TOL * max(root, 1e-300):
            at_root += 1
    return at_root > 1


def fvtl_quantities(c: ChainSpec, target: int) -> FvtlReport:
    """Assemble the first-visit-time report for one target state.

    Uses the adaptive horizon of :func:`return_sums` and includes the
    quasi-stationary pair. Requires the target to carry stationary mass.
    """
    mu = stationary_distribution(c)
    if mu[target] <= 0:
        raise ValueError(f"target {target} is outside the support of the stationary law")
    sums = return_sums(TargetWalk(c, target))
    expected = hitting_time_expectation(c, mu, [target])
    return FvtlReport(
        target=target,
        mu_target=float(mu[target]),
        t_horizon=sums.t_horizon,
        return_mass=sums.return_mass,
        z_dd=sums.z,
        predicted_lambda=float(mu[target] / sums.return_mass),
        expected_hitting_from_mu=float(expected),
        z_stop_step=sums.stop_step,
        z_stop=sums.stop,
        quasi=quasi_stationary_pair(c, target),
    )


def quasi_stationary_tail_check(c: ChainSpec, target: int, pair: QuasiStationaryPair) -> float:
    """``max_t |P_{mu_star}(tau > t) / (1 - lambda_star)^t - 1|`` up to ``ceil(10 / lambda_star)``.

    ``pair`` is the chain's :func:`quasi_stationary_pair` at ``target``. The
    survival probabilities are iterated in normalized form, dividing by
    ``1 - lambda_star`` each step, so no underflow occurs even for long horizons.
    """
    if pair.lambda_star == 1.0:
        # degenerate absorption in one step: both tails are exactly zero
        return 0.0
    t_max = math.ceil(10.0 / pair.lambda_star)
    walk = TargetWalk(c, target)
    v = pair.mu_star
    scale = 1.0 - pair.lambda_star
    worst = abs(float(v.sum()) - 1.0)
    for _ in range(t_max):
        v = walk.killed_step(v) / scale
        worst = max(worst, abs(float(v.sum()) - 1.0))
    return worst


def uniform_start_ratio(c: ChainSpec, target: int, horizons) -> float:
    """``sup_t max_x P_x(tau > t) / P_mu(tau > t)`` over a horizon grid.

    Exact survival vectors from every start are compared against the
    stationary-start tail at each requested horizon.
    """
    horizons = sorted(set(int(t) for t in horizons))
    if not horizons or horizons[0] < 0:
        raise ValueError("horizons must be nonnegative integers")
    mu = stationary_distribution(c)
    survival = np.ones(c.size)
    survival[target] = 0.0
    worst = 0.0
    t = 0
    for horizon in horizons:
        while t < horizon:
            survival = c.kernel @ survival
            survival[target] = 0.0
            t += 1
        from_mu = float(mu @ survival)
        if from_mu <= 0:
            raise ValueError(f"stationary-start tail vanished at t={t}")
        worst = max(worst, float(survival.max()) / from_mu)
    return worst


def two_state_chain(p: float, q: float) -> ChainSpec:
    """Rows ``(1-p, p)`` and ``(q, 1-q)``; closed forms are documented in tests."""
    kernel = sp.csr_array(np.array([[1.0 - p, p], [q, 1.0 - q]]))
    return make_chain(kernel)


def random_ergodic_chain(rng: np.random.Generator) -> ChainSpec:
    """Random irreducible aperiodic chain with at most ``RANDOM_CHAIN_MAX_STATES`` states.

    Rows are Dirichlet-like draws, randomly sparsified; a small uniform
    self-loop keeps the chain aperiodic and draws are retried until the
    support digraph is strongly connected.
    """
    while True:
        m = int(rng.integers(3, RANDOM_CHAIN_MAX_STATES + 1))
        alpha = rng.uniform(0.3, 2.0)
        rows = rng.gamma(alpha, size=(m, m))
        if rng.random() < 0.5:
            mask = rng.random((m, m)) < rng.uniform(0.2, 0.5)
            rows[mask] = 0.0
        rows += 0.05 * np.eye(m)  # aperiodicity
        rows /= rows.sum(axis=1, keepdims=True)
        kernel = sp.csr_array(rows)
        n_comp, _ = connected_components(kernel, directed=True, connection="strong")
        if n_comp == 1:
            return make_chain(kernel)
