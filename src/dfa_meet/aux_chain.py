"""The collapsed-diagonal pair chain and its exact finite-n quantities.

Two independent walks form a product chain on ordered pairs. Collapsing the
diagonal to a single state ``DELTA`` and re-emitting from a vertex drawn with
probability proportional to ``pi(z)**2`` gives an auxiliary chain whose
stationary law is known in closed form:

* ``pi_tilde((x, x')) = pi(x) * pi(x')`` for ``x != x'``,
* ``pi_tilde(DELTA) = sum_z pi(z)**2``.

Distributions over the auxiliary state space are represented as a dense
``(n, n)`` pair-mass matrix plus a scalar of diagonal mass, so one step of
the chain costs two sparse-times-dense products regardless of alphabet
size. An explicit sparse kernel over the ``n*(n-1) + 1`` states is also
available for small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np
import scipy.sparse as sp

from .chains import ChainSpec, make_chain, mixing_profile, stationary_distribution
from .fvtl import (
    RELAX_FACTOR,
    FvtlReport,
    log_power_horizon,
    perron_pair,
    relaxation_horizon,
    return_series,
    return_sums,
)

DEFAULT_KERNEL_NNZ_CAP = 30_000_000


class AuxChainError(Exception):
    """The base chain does not have the uniform-out-degree DFA shape."""


@dataclass(eq=False)
class AuxChain:
    """Auxiliary chain built from a DFA walk kernel and its stationary law.

    Off-diagonal ordered pairs are enumerated row-major with the diagonal
    state last, so ``pair_index`` and ``delta_index`` are stable across
    runs. ``diag_weights`` is the re-emission law ``pi(z)**2 / sum pi**2``.
    """

    n: int
    r: int
    kernel: sp.csr_array = field(repr=False)
    kernel_t: sp.csr_array = field(repr=False)
    pi: np.ndarray = field(repr=False)
    diag_weights: np.ndarray = field(repr=False)
    exit_kernel: sp.csr_array = field(repr=False)
    _exit_dense: np.ndarray | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.n * (self.n - 1) + 1

    @property
    def delta_index(self) -> int:
        return self.n * (self.n - 1)

    @property
    def pi_tilde_delta(self) -> float:
        return float(self.pi @ self.pi)

    def pair_index(self, x: int, xp: int) -> int:
        if x == xp:
            return self.delta_index
        return x * (self.n - 1) + (xp if xp < x else xp - 1)

    def index_pair(self, i: int) -> tuple[int, int]:
        if i == self.delta_index:
            raise ValueError("index refers to the collapsed diagonal state")
        x, k = divmod(i, self.n - 1)
        return x, k if k < x else k + 1

    def exit_dense(self) -> np.ndarray:
        if self._exit_dense is None:
            self._exit_dense = self.exit_kernel.toarray()
        return self._exit_dense

    def left_step(self, pair_mass: np.ndarray | None, delta_mass: float):
        """One step of ``nu -> nu @ P_tilde`` in pair-matrix form.

        ``pair_mass`` holds the off-diagonal mass (its diagonal must be
        zero, ``None`` means no off-diagonal mass), ``delta_mass`` the mass
        at the collapsed state. Returns the new ``(pair_mass, delta_mass)``.
        """
        if pair_mass is None:
            w = delta_mass * self.exit_dense()
        else:
            w = self.kernel_t @ (self.kernel_t @ pair_mass.T).T
            if delta_mass:
                w = w + delta_mass * self.exit_dense()
        new_delta = float(np.trace(w))
        np.fill_diagonal(w, 0.0)
        return w, new_delta

    # -- first-visit propagator (see dfa_meet.fvtl.Propagator) -----------
    # The target is DELTA; states are ``(pair_mass, delta_mass)`` and
    # killed states are pair matrices with zero diagonal.

    mu_target = pi_tilde_delta

    @property
    def horizon_cap(self) -> int:
        return log_power_horizon(self.n, 5)

    def start(self):
        return None, 1.0

    def step(self, state):
        return self.left_step(*state)

    def target_mass(self, state) -> float:
        return state[1]

    def killed_start(self) -> np.ndarray:
        v = np.full((self.n, self.n), 1.0 / (self.n * (self.n - 1)))
        np.fill_diagonal(v, 0.0)
        return v

    def killed_step(self, pair_mass: np.ndarray) -> np.ndarray:
        return self.left_step(pair_mass, 0.0)[0]

    def pi_tilde_pair_form(self):
        """Closed-form stationary law as a ``(pair_mass, delta_mass)`` pair."""
        m = np.outer(self.pi, self.pi)
        np.fill_diagonal(m, 0.0)
        return m, self.pi_tilde_delta

    def pi_tilde_vector(self) -> np.ndarray:
        """Closed-form stationary law as a flat vector over the state space."""
        m, a = self.pi_tilde_pair_form()
        return self.flatten_pair_form(m, a)

    def flatten_pair_form(self, pair_mass: np.ndarray, delta_mass: float) -> np.ndarray:
        off = pair_mass[~np.eye(self.n, dtype=bool)]
        return np.concatenate([off, [delta_mass]])

    def stationarity_residual(self) -> float:
        """L1 residual of the closed-form law under one exact step."""
        m, a = self.pi_tilde_pair_form()
        m1, a1 = self.left_step(m, a)
        return float(np.abs(m1 - m).sum() + abs(a1 - a))

    def kernel_matrix(self, max_nnz: int = DEFAULT_KERNEL_NNZ_CAP) -> sp.csr_array:
        """Explicit sparse kernel over the ``n*(n-1) + 1`` states.

        The diagonal self-transition is assigned ``1/r`` exactly rather than
        accumulated, which is the same value by the one-to-one constraint.
        """
        n, r = self.n, self.r
        est_nnz = n * (n - 1) * r * r + n * r * r + 1
        if est_nnz > max_nnz:
            raise ValueError(f"explicit kernel needs ~{est_nnz} entries > cap {max_nnz}")
        targets = self.kernel.indices.reshape(n, r).astype(np.int64)
        delta = self.delta_index

        def ordered_pair_index(y, yp):
            return np.where(y == yp, delta, y * (n - 1) + yp - (yp > y))

        # Off-diagonal rows: (x, x') -> (y, y') with weight 1/r^2 per color pair.
        x = np.arange(n)
        src = ordered_pair_index(
            np.broadcast_to(x[:, None, None, None], (n, n, r, r)),
            np.broadcast_to(x[None, :, None, None], (n, n, r, r)),
        )
        dst = ordered_pair_index(
            np.broadcast_to(targets[:, None, :, None], (n, n, r, r)),
            np.broadcast_to(targets[None, :, None, :], (n, n, r, r)),
        )
        offdiag = np.broadcast_to((x[:, None] != x[None, :])[:, :, None, None], src.shape)
        rows = src[offdiag]
        cols = dst[offdiag]
        data = np.full(rows.size, 1.0 / (r * r))

        # Diagonal row: re-emission law off the diagonal, plus 1/r on itself.
        exit_coo = self.exit_kernel.tocoo()
        keep = exit_coo.row != exit_coo.col
        rows = np.concatenate([rows, np.full(keep.sum() + 1, delta)])
        cols = np.concatenate(
            [cols, ordered_pair_index(exit_coo.row[keep], exit_coo.col[keep]), [delta]]
        )
        data = np.concatenate([data, exit_coo.data[keep], [1.0 / r]])
        size = self.size
        return sp.csr_array((data, (rows, cols)), shape=(size, size))

    def to_chain_spec(self, max_nnz: int = DEFAULT_KERNEL_NNZ_CAP) -> ChainSpec:
        """Materialize as a generic chain with the closed-form stationary law."""
        chain = make_chain(self.kernel_matrix(max_nnz=max_nnz))
        chain.stationary = self.pi_tilde_vector()
        return chain


def build_aux_chain(c: ChainSpec, pi: np.ndarray | None = None) -> AuxChain:
    """Assemble the auxiliary chain for a DFA walk kernel.

    Requires every row of ``c`` to hold exactly ``r`` entries equal to
    ``1/r`` (the one-to-one out-map shape); this is what makes the
    diagonal self-transition exactly ``1/r`` and the closed-form law
    stationary. Computes ``pi`` if not supplied, propagating
    :class:`~dfa_meet.chains.MultipleRecurrentClassesError`.
    """
    kernel = c.kernel
    n = c.size
    counts = np.diff(kernel.indptr)
    r = int(counts[0]) if n else 0
    if r < 2 or not (counts == r).all():
        raise AuxChainError("walk kernel must have the same out-degree r >= 2 in every row")
    if kernel.nnz and not (kernel.data == 1.0 / r).all():
        raise AuxChainError("walk kernel entries must all equal 1/r (one-to-one out-map)")
    if pi is None:
        pi = stationary_distribution(c)
    pi = np.asarray(pi, dtype=float)
    weights = pi * pi
    total = weights.sum()
    if total <= 0:
        raise AuxChainError("stationary law has no mass")
    weights = weights / total
    exit_kernel = (kernel.T.tocsr() @ sp.diags_array(weights) @ kernel).tocsr()
    return AuxChain(
        n=n,
        r=r,
        kernel=kernel,
        kernel_t=kernel.T.tocsr(),
        pi=pi,
        diag_weights=weights,
        exit_kernel=exit_kernel,
    )


@dataclass
class ExitMeasure:
    """Law of the first state entered when leaving the collapsed diagonal.

    ``mu_plus[x, x']`` is the probability of exiting to the ordered pair
    ``(x, x')``; the matrix has zero diagonal and total mass 1, and its
    support is exactly the pairs with a common in-neighbor inside the
    support of ``pi``.
    """

    mu_plus: sp.csr_array

    @property
    def total(self) -> float:
        return float(self.mu_plus.sum())

    @property
    def max_value(self) -> float:
        return float(self.mu_plus.data.max()) if self.mu_plus.nnz else 0.0

    def support_pairs(self) -> list[tuple[int, int]]:
        coo = self.mu_plus.tocoo()
        return [(int(x), int(y)) for x, y, v in zip(coo.row, coo.col, coo.data) if v > 0]


def exit_measure(a: AuxChain) -> ExitMeasure:
    """Exit law from the diagonal, ``r/(r-1)`` times the off-diagonal exit mass."""
    mu = sp.lil_array(a.exit_kernel * (a.r / (a.r - 1.0)))
    mu.setdiag(0.0)
    mu = mu.tocsr()
    mu.eliminate_zeros()
    return ExitMeasure(mu_plus=mu)


def return_mass(a: AuxChain, t_horizon: int) -> float:
    """``R = sum_{t=0}^{T} P_tilde^t(DELTA, DELTA)`` by exact iteration."""
    return float(np.sum(list(islice(return_series(a), t_horizon + 1))))


def auto_return_horizon(a: AuxChain, relax_factor: float = RELAX_FACTOR) -> int:
    """Adaptive horizon for the diagonal return mass.

    Iterates the return series until ``P_tilde^t(DELTA, DELTA)`` has
    relaxed to within ``relax_factor`` of its stationary value
    ``pi_tilde(DELTA)``, capped at ``ceil(log(n)**5)``. Past this point
    every further step inflates ``R`` by roughly ``pi_tilde(DELTA)``,
    which at finite ``n`` swamps the head sum the rate prediction needs;
    the cap recovers the asymptotic schedule for very large ``n``.
    """
    return relaxation_horizon(return_series(a), relax_factor * a.mu_target, a.horizon_cap)


def aux_fvtl_report(
    a: AuxChain,
    t_horizon: int | None = None,
    compute_quasi_stationary: bool = False,
) -> FvtlReport:
    """First-visit-time report for the collapsed diagonal state.

    ``mu_target`` and the expected hitting time from stationarity come
    from the closed-form law (the latter through the exact
    fundamental-matrix identity ``E = Z / mu``); the horizon, return mass
    and ``Z`` come from one pass over the return series. ``t_horizon``
    defaults to the adaptive relaxation horizon of
    :func:`auto_return_horizon`. The quasi-stationary pair is optional
    because it is the one genuinely iterative quantity at scale.
    """
    t_horizon, r_mass, z_dd = return_sums(a, t_horizon)
    mu_delta = a.mu_target
    report = FvtlReport(
        target=a.delta_index,
        mu_target=mu_delta,
        t_horizon=t_horizon,
        return_mass=r_mass,
        z_dd=z_dd,
        predicted_lambda=mu_delta / r_mass,
        expected_hitting_from_mu=z_dd / mu_delta,
    )
    if compute_quasi_stationary:
        pair = perron_pair(a)
        report.lambda_star = pair.lambda_star
        report.mu_star = pair.mu_star
    return report


@dataclass
class AuxEventReport:
    """Measured values and verdicts for the five finite-n events.

    The events bound the stationary extremes, the diagonal mass, the
    mixing of the auxiliary chain within ``S`` steps, and the diagonal
    return mass within ``T`` steps. All thresholds use the natural log.
    """

    n: int
    r: int
    eps: float
    t_horizon: int
    s_horizon: int
    min_pi_tilde: float
    max_pi_tilde: float
    n_pi_tilde_delta: float
    max_tv_at_s: float
    tv_mode: str
    return_mass: float
    a1: bool
    a2: bool
    a3: bool
    a4: bool
    a5: bool

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def _pi_tilde_extremes(a: AuxChain) -> tuple[float, float]:
    support = np.sort(a.pi[a.pi > 0])
    delta_mass = a.pi_tilde_delta
    if support.size >= 2:
        min_off = float(support[0] * support[1])
        max_off = float(support[-1] * support[-2])
        return min(min_off, delta_mass), max(max_off, delta_mass)
    return delta_mass, delta_mass


def check_events(
    a: AuxChain,
    eps: float,
    t_horizon: int | None = None,
    s_horizon: int | None = None,
    a4_exact_limit: int = 60,
    a4_samples: int = 200,
    seed: int = 0,
) -> AuxEventReport:
    """Evaluate the five events at horizons ``T = ceil(log^5 n)``, ``S = ceil(log^3 n)``.

    The mixing event is evaluated exactly (all starts) when ``n`` is at
    most ``a4_exact_limit`` and otherwise estimated from ``a4_samples``
    uniformly chosen pair starts plus the diagonal state; the sampled mode
    is an estimate of the max, not the exact max.
    """
    n, r = a.n, a.r
    if t_horizon is None:
        t_horizon = log_power_horizon(n, 5)
    if s_horizon is None:
        s_horizon = log_power_horizon(n, 3)
    min_pt, max_pt = _pi_tilde_extremes(a)
    n_pi_delta = n * a.pi_tilde_delta
    ratio = r / (r - 1.0)

    if n <= a4_exact_limit:
        profile = mixing_profile(a.to_chain_spec(), s_horizon)
        max_tv, tv_mode = float(profile.d_tv[s_horizon]), "exact"
    else:
        max_tv, tv_mode = _max_tv_sampled(a, s_horizon, a4_samples, seed), "sampled"

    r_mass = return_mass(a, t_horizon)
    log_n = math.log(n)
    return AuxEventReport(
        n=n,
        r=r,
        eps=eps,
        t_horizon=t_horizon,
        s_horizon=s_horizon,
        min_pi_tilde=min_pt,
        max_pi_tilde=max_pt,
        n_pi_tilde_delta=n_pi_delta,
        max_tv_at_s=max_tv,
        tv_mode=tv_mode,
        return_mass=r_mass,
        a1=min_pt >= n**-3.6,
        a2=max_pt <= log_n**8 / n,
        a3=abs(n_pi_delta - ratio) < eps,
        a4=max_tv < eps,
        a5=abs(r_mass - ratio) < eps,
    )


def _max_tv_sampled(a: AuxChain, s_horizon: int, samples: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    pi_pair, pi_delta = a.pi_tilde_pair_form()
    starts: list[tuple[int, int] | None] = [None]  # None marks the diagonal state
    for _ in range(samples):
        x = int(rng.integers(0, a.n))
        xp = int(rng.integers(0, a.n - 1))
        starts.append((x, xp + (xp >= x)))
    worst = 0.0
    for s in starts:
        if s is None:
            pair_mass, delta_mass = None, 1.0
        else:
            pair_mass = np.zeros((a.n, a.n))
            pair_mass[s] = 1.0
            delta_mass = 0.0
        for _ in range(s_horizon):
            pair_mass, delta_mass = a.left_step(pair_mass, delta_mass)
        tv = 0.5 * (float(np.abs(pair_mass - pi_pair).sum()) + abs(delta_mass - pi_delta))
        worst = max(worst, tv)
    return worst
