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

Each algorithm (the relaxation horizon with the ``R`` and ``Z`` sums, the
certified scan of one start, Perron iteration, the report) is written once
over a :class:`Propagator`, and every step it takes is one call of the
propagator's ``left_step``.
:class:`TargetWalk` is the propagator of a generic chain;
:class:`~dfa_meet.aux_chain.AuxChain` is the propagator of the collapsed
pair chain, whose every state is one ``(n, n)`` pair matrix.

The return pass stops once its total-variation (TV) distance to
stationarity is certified small; that distance never increases along a
run (Levin, Peres & Wilmer, *Markov Chains and Mixing Times*, ch. 4). See
:func:`return_sums`, :func:`certified_scan` and
:attr:`Propagator.scan_stop_level`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chains import (
    ChainSpec,
    ConvergenceError,
    make_chain,
    stationary_distribution,
)

Z_TERM_TOL = 1e-14
Z_CONSECUTIVE_SMALL = 50
Z_MAX_STEPS = 10**6
PERRON_TOL = 1e-13
PERRON_MAX_ITER = 10**6
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
    """

    lambda_star: float
    mu_star: np.ndarray = field(repr=False)
    iterations: int


@dataclass
class FvtlReport:
    """Exact finite-chain quantities behind the geometric rate prediction.

    ``z_stop_step`` and ``z_stop`` say where and why the ``Z`` series
    stopped (see :class:`ReturnSums`).
    """

    mu_target: float
    t_horizon: int
    return_mass: float
    z_dd: float
    predicted_lambda: float
    expected_hitting_from_mu: float
    z_stop_step: int
    z_stop: str
    quasi: QuasiStationaryPair | None = None

    def as_dict(self) -> dict:
        """The scalars, with ``lambda_star`` (None without the pair) in place of ``quasi``."""
        scalars = {k: v for k, v in self.__dict__.items() if k != "quasi"}
        return {**scalars, "lambda_star": self.quasi.lambda_star if self.quasi else None}


@dataclass
class ReturnSums:
    """One pass over the return series: horizon, ``R(T)``, ``Z`` and where the pass stopped.

    ``stop_step`` is the last step taken, ``t0``. ``stop`` is
    ``"certified"`` when the TV distance to stationarity was at most the
    propagator's ``scan_stop_level`` there, ``"consecutive"`` when
    ``Z_CONSECUTIVE_SMALL`` successive terms were below ``Z_TERM_TOL``, and
    ``"horizon"`` when a pass without ``Z`` (then None) reached ``T``.
    """

    t_horizon: int
    return_mass: float
    z: float | None
    stop_step: int
    stop: str


class Propagator(ABC):
    """A chain seen from one target state, as the first-visit engine uses it.

    A propagator supplies its chain: ``start`` (the point mass at the
    target), ``left_step`` (``nu -> nu Q``), ``target_mass``, ``kill`` (zero the
    target of a state in place), ``stationary_state`` (a fresh array of the
    computed law), ``mu_target`` and ``horizon_cap`` (the longest
    relaxation horizon). A state is one array of the propagator's own
    shape: a probability vector for :class:`TargetWalk`, an ``(n, n)`` pair
    matrix whose trace is the target mass for the pair chain. The rest is
    written once here: the uniform killed start and the step of the
    target-deleted sub-kernel ``[Q]_target`` (killed states sum to the
    surviving mass), the TV distance to the computed law, its one-step
    residual and the scan stop level that residual gates.
    """

    mu_target: float
    horizon_cap: int

    @abstractmethod
    def start(self) -> np.ndarray: ...
    @abstractmethod
    def left_step(self, state: np.ndarray) -> np.ndarray: ...
    @abstractmethod
    def target_mass(self, state: np.ndarray) -> float: ...
    @abstractmethod
    def kill(self, state: np.ndarray) -> None: ...
    @abstractmethod
    def stationary_state(self) -> np.ndarray: ...

    def killed_start(self) -> np.ndarray:
        v = np.ones_like(self.start())
        self.kill(v)
        return v / v.sum()

    def killed_step(self, state: np.ndarray) -> np.ndarray:
        w = self.left_step(state)
        self.kill(w)
        return w

    def tv_to_stationary(self, state: np.ndarray) -> float:
        """``0.5 * |state - stationary|_1``, built in one temporary and not kept."""
        d = self.stationary_state()
        np.subtract(state, d, out=d)
        return 0.5 * float(np.abs(d, out=d).sum())

    def stationarity_residual(self) -> float:
        """L1 residual of the computed stationary law under one step, in the step's buffer."""
        law = self.stationary_state()
        w = self.left_step(law)
        np.subtract(w, law, out=w)
        return float(np.abs(w, out=w).sum())

    _residual = cached_property(stationarity_residual)

    @property
    def scan_stop_level(self) -> float:
        """``TV_STOP_LEVEL`` if the one-step residual is at most ``STOP_RESIDUAL_LEVEL``, else -1.

        The residual is computed once per propagator; the gate is read at
        each call. A scan stops when its TV distance to the computed law
        ``pi`` is at most the level. Bounds drawn from that stop hold
        against the exact law up to ``2e``, where ``e`` is the distance
        from ``pi`` to it: at most half the residual times the summed
        contraction coefficients of the chain. Those are not computed, so
        the gate asks for a residual of a tenth of the stop level; a less
        exact ``pi`` gets -1, which never stops.
        """
        return TV_STOP_LEVEL if self._residual <= STOP_RESIDUAL_LEVEL else -1.0


def log_power_horizon(n: int, power: int) -> int:
    """``ceil(log(n)**power)`` with the natural log (the asymptotic schedule)."""
    return math.ceil(math.log(n) ** power)


@dataclass(eq=False)
class TargetWalk(Propagator):
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

    def start(self) -> np.ndarray:
        v = np.zeros(self.chain.size)
        v[self.target] = 1.0
        return v

    def left_step(self, v: np.ndarray) -> np.ndarray:
        return self.chain.kernel_t @ v

    def target_mass(self, v: np.ndarray) -> float:
        return float(v[self.target])

    def kill(self, v: np.ndarray) -> None:
        v[self.target] = 0.0

    def stationary_state(self) -> np.ndarray:
        return stationary_distribution(self.chain).copy()


def certified_scan(p: Propagator, state, horizon: int) -> tuple[int, float]:
    """Run ``state`` for up to ``horizon`` steps, stopping at a certified TV level.

    The TV distance to stationarity is measured at every multiple of
    ``TV_CHECK_EVERY`` and at ``horizon``; the run stops at the first such
    step ``t0`` where it is at most ``p.scan_stop_level``, or at ``horizon``.
    Returns ``t0`` and ``TV(t0)``. For ``t >= t0`` the TV distance to the
    computed stationary law is at most ``TV(t0) + 2e``, where ``e`` is its
    distance to the exact one (see :attr:`Propagator.scan_stop_level`).
    """
    if horizon < 0:
        raise ValueError(f"horizon must be at least 0, got {horizon}")
    level = p.scan_stop_level
    t = 0
    while True:
        if t == horizon or (level >= 0 and t % TV_CHECK_EVERY == 0):
            tv = p.tv_to_stationary(state)
            if t == horizon or tv <= level:
                return t, tv
        state = p.left_step(state)
        t += 1


def return_sums(p: Propagator, t_horizon: int | None = None, sum_z: bool = True) -> ReturnSums:
    """Horizon ``T``, return mass ``R(T)`` and ``Z(target, target)`` in one pass.

    ``Z = sum_t (Q^t(target, target) - mu(target))`` is the
    fundamental-matrix entry and ``T`` defaults to the relaxation horizon:
    the smallest ``t >= 1`` whose term is at most
    ``RELAX_FACTOR * mu(target)``, or ``p.horizon_cap``. Once ``T`` is
    known (from step 0 when it is given) the pass measures the TV distance
    to stationarity at every multiple of ``TV_CHECK_EVERY``, and stops at
    the first such step ``t0`` where it is at most ``p.scan_stop_level``,
    or at the first ``t0 >= T`` that ends ``Z_CONSECUTIVE_SMALL``
    successive terms below ``Z_TERM_TOL`` in magnitude, whichever comes
    first. ``Z`` sums the terms up to ``t0``, and
    ``R(T) = sum_{t <= min(T, t0)} Q^t(target, target) + max(0, T - t0) * mu(target)``.

    The target mass is part of the state's TV distance, and that distance
    never increases. So after a certified stop at ``TV(t0)``, every later
    term is within ``TV(t0) + 2e`` of ``mu(target)``, where ``e`` is the
    distance from the computed to the exact stationary law (see
    :attr:`Propagator.scan_stop_level`), and ``R`` is off by at most
    ``(T - t0) * (TV(t0) + 2e)``. Writing the tail of ``Z`` through the
    fundamental matrix gives
    ``|Z - Z(t0)| <= (TV(t0) + 2e) * (1 + mu(target) * max_a E_a[tau_target])``.
    A pass with ``sum_z`` False, for callers that need only ``R``, also
    stops at ``T``.
    """
    if t_horizon is not None and t_horizon < 0:
        raise ValueError(f"horizon must be at least 0, got {t_horizon}")
    mu, level = p.mu_target, p.scan_stop_level
    relax, cap = RELAX_FACTOR * mu, p.horizon_cap
    state = p.start()
    terms: list[float] = []
    small, t = 0, 0
    while True:
        q = p.target_mass(state)
        terms.append(q)
        if t_horizon is None and t >= 1 and (q <= relax or t == cap):
            t_horizon = t
        small = small + 1 if abs(q - mu) < Z_TERM_TOL else 0
        check = t_horizon is not None and level >= 0 and t % TV_CHECK_EVERY == 0
        if check and p.tv_to_stationary(state) <= level:
            stop = "certified"
            break
        if t_horizon is not None and t >= t_horizon:
            if not sum_z:
                stop = "horizon"
                break
            if small >= Z_CONSECUTIVE_SMALL:
                stop = "consecutive"
                break
        if t >= Z_MAX_STEPS:
            raise ConvergenceError(t, abs(q - mu))
        state = p.left_step(state)
        t += 1
    series = np.array(terms)
    r_mass = series[: t_horizon + 1].sum()
    if t < t_horizon:
        r_mass += (t_horizon - t) * mu
    z = float((series - mu).sum()) if sum_z else None
    return ReturnSums(t_horizon, float(r_mass), z, t, stop)


def perron_pair(p: Propagator) -> QuasiStationaryPair:
    """Power iteration for the dominant left eigenpair of ``[Q]_target``.

    The sub-kernel is not assumed irreducible; iteration starts from the
    strictly positive ``killed_start`` and converges to the dominant closed
    class; a tie for the root between closed classes is not detected.
    ``mu_star`` comes back in the propagator's killed-state form.
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


def first_visit_report(p: Propagator, t_horizon: int | None = None,
                       compute_quasi_stationary: bool = False) -> FvtlReport:
    """The first-visit-time report of any propagator.

    Horizon, ``R`` and ``Z`` come from one :func:`return_sums` pass, and the
    expected hitting time from stationarity from the exact identity
    ``E = Z / mu``. The quasi-stationary pair is optional because it is the
    one genuinely iterative quantity at scale.
    """
    mu = p.mu_target
    if mu <= 0:
        raise ValueError("the target is outside the support of the stationary law")
    sums = return_sums(p, t_horizon)
    return FvtlReport(
        mu_target=mu,
        t_horizon=sums.t_horizon,
        return_mass=sums.return_mass,
        z_dd=sums.z,
        predicted_lambda=mu / sums.return_mass,
        expected_hitting_from_mu=sums.z / mu,
        z_stop_step=sums.stop_step,
        z_stop=sums.stop,
        quasi=perron_pair(p) if compute_quasi_stationary else None,
    )


def fvtl_quantities(c: ChainSpec, target: int) -> FvtlReport:
    """:func:`first_visit_report` of ``target`` in ``c``, with the quasi-stationary pair."""
    return first_visit_report(TargetWalk(c, target), compute_quasi_stationary=True)


def quasi_stationary_tail_check(c: ChainSpec, target: int, pair: QuasiStationaryPair) -> float:
    """``max_t |P_{mu_star}(tau > t) / (1 - lambda_star)^t - 1|`` up to ``ceil(10 / lambda_star)``.

    ``pair`` is :func:`perron_pair` of ``TargetWalk(c, target)``. The
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


def two_state_chain(p: float, q: float) -> ChainSpec:
    """Rows ``(1-p, p)`` and ``(q, 1-q)``; closed forms are documented in tests."""
    import scipy.sparse as sp

    kernel = sp.csr_array(np.array([[1.0 - p, p], [q, 1.0 - q]]))
    return make_chain(kernel)


def random_ergodic_chain(rng: np.random.Generator) -> ChainSpec:
    """Random irreducible aperiodic chain with at most ``RANDOM_CHAIN_MAX_STATES`` states.

    Rows are Dirichlet-like draws, randomly sparsified; a small uniform
    self-loop keeps the chain aperiodic and draws are retried until the
    support digraph is strongly connected.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

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
