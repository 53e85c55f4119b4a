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
pair chain in its pair-matrix form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import tee
from typing import Iterator, Protocol

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .chains import (
    ChainSpec,
    _recurrent_classes,
    hitting_time_expectation,
    make_chain,
    stationary_distribution,
)

Z_TERM_TOL = 1e-14
Z_CONSECUTIVE_SMALL = 50
Z_MAX_STEPS = 10**6
PERRON_TOL = 1e-13
RELAX_FACTOR = 1.5


class PerronConvergenceError(Exception):
    """Power iteration for the quasi-stationary pair failed to converge."""

    def __init__(self, iterations: int, last_delta: float):
        self.iterations = iterations
        self.last_delta = last_delta
        super().__init__(
            f"no convergence after {iterations} iterations (last delta {last_delta:.3e})"
        )


@dataclass
class QuasiStationaryPair:
    """Dominant left eigenpair of the target-deleted sub-kernel.

    ``lambda_star`` is one minus the Perron root; ``mu_star`` is the
    normalized left Perron vector as a killed state: a full-chain vector
    with zero at the target, or a pair matrix for the pair chain.
    ``tied_closed_classes`` flags a non-unique pair: several closed
    communicating classes of the sub-kernel share the dominant root.
    """

    lambda_star: float
    mu_star: np.ndarray = field(repr=False)
    iterations: int
    tied_closed_classes: bool = False


@dataclass
class FvtlReport:
    """Exact finite-chain quantities behind the geometric rate prediction."""

    target: int
    mu_target: float
    t_horizon: int
    return_mass: float
    z_dd: float
    predicted_lambda: float
    expected_hitting_from_mu: float
    lambda_star: float | None = None
    mu_star: np.ndarray | None = field(default=None, repr=False)
    qs_tied: bool = False


class Propagator(Protocol):
    """A chain seen from one target state, as the first-visit engine uses it.

    ``start`` is the point mass at the target, ``step`` one step of
    ``nu -> nu Q`` and ``target_mass`` the mass a state puts on the target.
    ``killed_start`` is uniform mass off the target and ``killed_step`` one
    step of the target-deleted sub-kernel ``[Q]_target``; killed states are
    arrays whose sum is the surviving mass. ``mu_target`` is the stationary
    mass of the target and ``horizon_cap`` the longest relaxation horizon.
    """

    mu_target: float
    horizon_cap: int

    def start(self): ...
    def step(self, state): ...
    def target_mass(self, state) -> float: ...
    def killed_start(self) -> np.ndarray: ...
    def killed_step(self, killed: np.ndarray) -> np.ndarray: ...


def log_power_horizon(n: int, power: int) -> int:
    """``ceil(log(n)**power)`` with the natural log (the asymptotic schedule)."""
    return math.ceil(math.log(n) ** power)


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

    def start(self) -> np.ndarray:
        v = np.zeros(self.chain.size)
        v[self.target] = 1.0
        return v

    def step(self, v: np.ndarray) -> np.ndarray:
        return v @ self.chain.kernel

    def target_mass(self, v: np.ndarray) -> float:
        return float(v[self.target])

    def killed_start(self) -> np.ndarray:
        v = np.full(self.chain.size, 1.0 / (self.chain.size - 1))
        v[self.target] = 0.0
        return v

    def killed_step(self, v: np.ndarray) -> np.ndarray:
        w = v @ self.chain.kernel
        w[self.target] = 0.0
        return w


def return_series(p: Propagator) -> Iterator[float]:
    """``Q^t(target, target)`` for ``t = 0, 1, 2, ...``; term ``t`` costs ``t`` steps."""
    state = p.start()
    while True:
        yield p.target_mass(state)
        state = p.step(state)


def relaxation_horizon(terms: Iterator[float], level: float, cap: int) -> int:
    """Smallest ``t >= 1`` whose return-series term is at most ``level``, or ``cap``.

    Reads ``terms`` (a :func:`return_series`) up to and including term ``t``.
    """
    return next(t for t, q in enumerate(terms) if t >= 1 and (q <= level or t == cap))


def return_sums(p: Propagator, t_horizon: int | None = None) -> tuple[int, float, float]:
    """Horizon ``T``, return mass ``R(T)`` and ``Z(target, target)`` in one pass.

    ``R(T) = sum_{t<=T} Q^t(target, target)``, with ``T`` defaulting to the
    :func:`relaxation_horizon` at ``RELAX_FACTOR * mu(target)``.
    ``Z = sum_t (Q^t(target, target) - mu(target))`` is the
    fundamental-matrix entry; the series is summed until ``t >= T`` and
    ``Z_CONSECUTIVE_SMALL`` successive terms fall below ``Z_TERM_TOL`` in
    magnitude. After mixing the terms decay geometrically, so the
    truncated tail is negligible at that point.
    """
    mu = p.mu_target
    # the horizon scan reads ahead; tee replays its terms without stepping again
    stream, scan = tee(return_series(p))
    if t_horizon is None:
        t_horizon = relaxation_horizon(scan, RELAX_FACTOR * mu, p.horizon_cap)
    terms: list[float] = []
    small = 0
    for t, q in enumerate(stream):
        terms.append(q)
        small = small + 1 if abs(q - mu) < Z_TERM_TOL else 0
        if t >= t_horizon and small >= Z_CONSECUTIVE_SMALL:
            break
        if t >= Z_MAX_STEPS:
            raise RuntimeError(f"return series did not settle in {Z_MAX_STEPS} steps")
    series = np.array(terms)
    return t_horizon, float(series[: t_horizon + 1].sum()), float((series - mu).sum())


def perron_pair(
    p: Propagator, tol: float = PERRON_TOL, max_iter: int = 10**6
) -> QuasiStationaryPair:
    """Power iteration for the dominant left eigenpair of ``[Q]_target``.

    The sub-kernel is not assumed irreducible; iteration starts from the
    strictly positive ``killed_start`` and converges to the dominant closed
    class. ``mu_star`` comes back in the propagator's killed-state form.
    """
    v = p.killed_start()
    delta = math.inf
    for it in range(1, max_iter + 1):
        # Half-lazy update: shifts the spectrum so the Perron root is the
        # unique dominant eigenvalue in modulus even for periodic classes.
        w = 0.5 * (v + p.killed_step(v))
        w /= w.sum()
        delta = float(np.abs(w - v).sum())
        v = w
        if delta <= tol:
            break
    else:
        raise PerronConvergenceError(max_iter, delta)
    root = float(p.killed_step(v).sum())
    return QuasiStationaryPair(lambda_star=1.0 - root, mu_star=v, iterations=it)


def quasi_stationary_pair(
    c: ChainSpec,
    target: int,
    tol: float = PERRON_TOL,
    max_iter: int = 10**6,
) -> QuasiStationaryPair:
    """:func:`perron_pair` of the chain seen from ``target``.

    A tie in the Perron root across several closed classes of the
    sub-kernel is reported via ``tied_closed_classes``.
    """
    pair = perron_pair(TargetWalk(c, target), tol=tol, max_iter=max_iter)
    keep = np.arange(c.size) != target
    sub = c.kernel[np.ix_(keep, keep)].tocsr()
    pair.tied_closed_classes = _closed_class_root_tie(sub, 1.0 - pair.lambda_star)
    return pair


def _closed_class_root_tie(sub: sp.csr_array, root: float, rel_tol: float = 1e-9) -> bool:
    """True when several closed classes of the sub-kernel tie for the root."""
    closed = _recurrent_classes(sub)
    if len(closed) <= 1:
        return False
    at_root = 0
    for cls in closed:
        block = sub[np.ix_(cls, cls)].toarray()
        cls_root = float(np.max(np.abs(np.linalg.eigvals(block))))
        if abs(cls_root - root) <= rel_tol * max(root, 1e-300):
            at_root += 1
    return at_root > 1


def fvtl_quantities(
    c: ChainSpec,
    target: int,
    t_horizon: int | None = None,
    compute_quasi_stationary: bool = True,
) -> FvtlReport:
    """Assemble the first-visit-time report for one target state.

    ``t_horizon`` defaults to the adaptive relaxation horizon of
    :func:`return_sums`. Requires the target to carry stationary mass.
    """
    mu = stationary_distribution(c)
    if mu[target] <= 0:
        raise ValueError(f"target {target} is outside the support of the stationary law")
    t_horizon, r_mass, z_dd = return_sums(TargetWalk(c, target), t_horizon)
    expected = hitting_time_expectation(c, mu, [target])
    report = FvtlReport(
        target=target,
        mu_target=float(mu[target]),
        t_horizon=t_horizon,
        return_mass=r_mass,
        z_dd=z_dd,
        predicted_lambda=float(mu[target] / r_mass),
        expected_hitting_from_mu=float(expected),
    )
    if compute_quasi_stationary:
        pair = quasi_stationary_pair(c, target)
        report.lambda_star = pair.lambda_star
        report.mu_star = pair.mu_star
        report.qs_tied = pair.tied_closed_classes
    return report


def quasi_stationary_tail_check(
    c: ChainSpec,
    target: int,
    t_max: int | None = None,
    pair: QuasiStationaryPair | None = None,
) -> float:
    """``max_t |P_{mu_star}(tau > t) / (1 - lambda_star)^t - 1|`` up to ``t_max``.

    The survival probabilities are iterated in normalized form, dividing by
    ``1 - lambda_star`` each step, so no underflow occurs even for long
    horizons. ``t_max`` defaults to ``ceil(10 / lambda_star)``.
    """
    if pair is None:
        pair = quasi_stationary_pair(c, target)
    if pair.lambda_star == 1.0:
        # degenerate absorption in one step: both tails are exactly zero
        return 0.0
    if t_max is None:
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


def random_ergodic_chain(rng: np.random.Generator, max_states: int = 40) -> ChainSpec:
    """Random irreducible aperiodic chain with at most ``max_states`` states.

    Rows are Dirichlet-like draws, randomly sparsified; a small uniform
    self-loop keeps the chain aperiodic and draws are retried until the
    support digraph is strongly connected.
    """
    while True:
        m = int(rng.integers(3, max_states + 1))
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
