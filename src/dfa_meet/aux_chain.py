"""The collapsed-diagonal pair chain and its exact finite-n quantities.

Two independent walks form a product chain on ordered pairs. Collapsing the
diagonal to a single state ``DELTA`` and re-emitting from a vertex drawn with
probability proportional to ``pi(z)**2`` gives an auxiliary chain whose
stationary law is known in closed form:

* ``pi_tilde((x, x')) = pi(x) * pi(x')`` for ``x != x'``,
* ``pi_tilde(DELTA) = sum_z pi(z)**2``.

A distribution over the auxiliary state space is one dense ``(n, n)``
matrix ``M``: off the diagonal it holds the pair masses, and its diagonal
holds the mass at ``DELTA`` spread over the re-entry law
``w = pi**2 / sum(pi**2)``, so the mass at ``DELTA`` is ``trace(M)``. One
step is ``K^T M K`` followed by ``diag <- trace * w``: two
sparse-times-dense products regardless of alphabet size. In this form
``pi_tilde`` is ``outer(pi, pi)``. The explicit sparse kernel over the
``n*(n-1) + 1`` states (:meth:`AuxChain.kernel_matrix`), the off-diagonal
rows of ``kron(K, K)`` with each diagonal column summed into ``DELTA``, is
there to check the structure on small instances; no scan runs on it.

Pair-chain scans stop once their total-variation distance to
``pi_tilde`` is certified small: the return series through
:func:`~dfa_meet.fvtl.return_sums`, and every A4 start (``DELTA``, then
every pair or the sampled pairs) through
:func:`~dfa_meet.fvtl.certified_scan`. The distance to the exact
stationary law never increases along a run, so, up to the distance
between that law and the computed ``outer(pi, pi)``, it bounds the
distance, and the error of the diagonal mass, at every later step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .chains import (
    ChainSpec,
    _map_threaded,
    _row_groups,
    _thread_count,
    stationary_distribution,
)
from .dfa import _free_block
from .fvtl import (
    FvtlReport,
    Propagator,
    certified_scan,
    first_visit_report,
    log_power_horizon,
    return_sums,
)
from .simulate import _check_fits, _draw_uniform_distinct_pair

if TYPE_CHECKING:
    import scipy.sparse as sp

KERNEL_NNZ_CAP = 30_000_000
A4_EXACT_LIMIT = 60
A4_SAMPLES = 200
A4_SEED = 0
# n x n float64 arrays live at once: an A4 scan's start and state beside a
# step's first product and its transposed copy, or perron_pair's two
# iterates, their difference and its absolute value
LIVE_PAIR_ARRAYS = 4


class AuxChainError(Exception):
    """The base chain does not have the uniform-out-degree DFA shape."""


@dataclass(eq=False)
class AuxChain(Propagator):
    """Auxiliary chain built from a DFA walk kernel and its stationary law.

    Off-diagonal ordered pairs are enumerated row-major with the diagonal
    state last, so ``pair_index`` and ``delta_index`` are stable across
    runs. ``row_groups`` holds the row slices of ``kernel_t`` that threaded
    steps run on, one group per thread, or None for serial steps.
    """

    n: int
    r: int
    kernel: sp.csr_array = field(repr=False)
    kernel_t: sp.csr_array = field(repr=False)
    pi: np.ndarray = field(repr=False)
    reentry: np.ndarray = field(repr=False)
    row_groups: list[list[tuple]] | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.n * (self.n - 1) + 1

    @property
    def delta_index(self) -> int:
        return self.n * (self.n - 1)

    @property
    def pi_tilde_delta(self) -> float:
        return float(self.pi @ self.pi)

    def pair_index(self, x, xp):
        """Index of ``(x, xp)``, ``delta_index`` if ``x == xp``; takes ints or int arrays."""
        return np.where(x == xp, self.delta_index, x * (self.n - 1) + xp - (xp > x))

    def left_step(self, m: np.ndarray) -> np.ndarray:
        """One step of ``nu -> nu @ P_tilde`` on a pair-matrix state ``m``.

        ``K^T m K`` moves both walks; its diagonal, the mass that met, is
        collapsed onto ``DELTA`` and spread over ``reentry``. From ``DELTA``
        this re-emits by ``sum_z w(z) K(z, y) K(z, y')``, self-loop ``1/r``.

        ``M -> K^T M K`` commutes with transposition, so the step runs on
        the C-ordered buffer ``s`` of ``m`` (``m`` or ``m.T``) as
        ``kernel_t @ ascontiguousarray((kernel_t @ s).T)``, with one
        transpose copy. That is the step of ``m`` when ``s = m.T``, and
        its transpose when ``s = m``, which comes back as an F-ordered
        ``.T`` view; either way the result is the state the right way round.

        When ``n * nnz`` of the kernel reaches
        :data:`~dfa_meet.chains.THREADED_STEP_MIN`, both products run on
        threads over contiguous row slices of ``kernel_t``: each thread
        writes the transpose of its slice's first product into its own
        columns of the transposed buffer, then its slice's second product
        into its own rows of the result. Every entry is summed as in the
        serial step, so the states are bit-identical for any thread count.
        """
        s = m.T if m.flags.f_contiguous and not m.flags.c_contiguous else m
        if self.row_groups is None:
            w = self.kernel_t @ np.ascontiguousarray((self.kernel_t @ s).T)
        else:
            w = _threaded_products(self.row_groups, s)
        if s is m:
            w = w.T
        w[np.diag_indices(self.n)] = np.trace(w) * self.reentry
        return w

    # -- first-visit propagator (see dfa_meet.fvtl.Propagator) -----------
    # The target is DELTA; killed states are pair matrices with zero diagonal.

    mu_target = pi_tilde_delta

    @property
    def horizon_cap(self) -> int:
        return log_power_horizon(self.n, 5)

    def start(self) -> np.ndarray:
        return np.diag(self.reentry)

    def target_mass(self, m: np.ndarray) -> float:
        return float(np.trace(m))

    def kill(self, m: np.ndarray) -> None:
        np.fill_diagonal(m, 0.0)

    def stationary_state(self) -> np.ndarray:
        """Closed-form stationary law as a pair-matrix state: ``outer(pi, pi)``."""
        return np.outer(self.pi, self.pi)

    def kernel_matrix(self) -> sp.csr_array:
        """Explicit sparse kernel over the ``n*(n-1) + 1`` states.

        The off-diagonal rows of ``kron(K, K)``, each entry ``1/r**2``, with
        every diagonal column summed into ``DELTA``; then the ``DELTA`` row,
        the re-emission law plus ``1/r`` on itself, assigned exactly rather
        than accumulated, which is the same value by the one-to-one constraint.
        """
        import scipy.sparse as sp

        n, r = self.n, self.r
        est_nnz = n * (n - 1) * r * r + n * r * r + 1
        if est_nnz > KERNEL_NNZ_CAP:
            raise ValueError(f"explicit kernel needs ~{est_nnz} entries > cap {KERNEL_NNZ_CAP}")
        x, xp = np.divmod(np.arange(n * n), n)
        product = sp.kron(self.kernel, self.kernel, format="csr")[np.flatnonzero(x != xp)]
        product.data[:] = 1.0 / (r * r)
        collapse = sp.csr_array((np.ones(n * n), (np.arange(n * n), self.pair_index(x, xp))),
                                shape=(n * n, self.size))
        exit_mass = self.killed_step(self.start())
        exit_mass[0, 0] = 1.0 / r  # the killed diagonal's one entry, which collapses onto DELTA
        delta_row = sp.csr_array(exit_mass.reshape(1, -1)) @ collapse
        return sp.vstack([product @ collapse, delta_row], format="csr")


def _threaded_products(groups: list[list[tuple]], s: np.ndarray) -> np.ndarray:
    """``kernel_t @ ascontiguousarray((kernel_t @ s).T)``, one thread per row group of ``kernel_t``."""
    n = s.shape[0]
    t = np.empty((n, n))

    def first(group):
        for lo, hi, rows in group:
            t[:, lo:hi] = (rows @ s).T

    _map_threaded(first, groups, len(groups))
    # made after the first product, as the serial step makes its result, so
    # that the heap's n x n blocks keep the serial step's rotation
    w = np.empty((n, n))

    def second(group):
        for lo, hi, rows in group:
            w[lo:hi] = rows @ t

    _map_threaded(second, groups, len(groups))
    return w


def build_aux_chain(c: ChainSpec) -> AuxChain:
    """Assemble the auxiliary chain for a DFA walk kernel.

    Requires every row of ``c`` to hold exactly ``r`` entries equal to
    ``1/r`` (the one-to-one out-map shape); this is what makes the
    diagonal self-transition exactly ``1/r`` and the closed-form law
    stationary. Reads the chain's stationary law, computing and caching it
    if needed, which propagates
    :class:`~dfa_meet.chains.MultipleRecurrentClassesError`. Resolves the
    thread count of the chain's steps once (see
    :func:`~dfa_meet.chains._thread_count`), so a malformed
    ``DFA_MEET_THREADS`` is a ``ValueError`` here. A chain whose
    ``LIVE_PAIR_ARRAYS`` ``n x n`` arrays would outgrow physical memory is
    a ``MemoryError`` before the first is made.
    """
    kernel = c.kernel
    n = c.size
    counts = np.diff(kernel.indptr)
    r = int(counts[0]) if n else 0
    if r < 2 or not (counts == r).all():
        raise AuxChainError("walk kernel must have the same out-degree r >= 2 in every row")
    if kernel.nnz and not (kernel.data == 1.0 / r).all():
        raise AuxChainError("walk kernel entries must all equal 1/r (one-to-one out-map)")
    _check_fits(f"the pair chain at n = {n}", LIVE_PAIR_ARRAYS * 8 * n * n,
                f"{LIVE_PAIR_ARRAYS} n x n states")
    pi = stationary_distribution(c)
    weights = pi * pi
    total = weights.sum()
    if total <= 0:
        raise AuxChainError("stationary law has no mass")
    threads = _thread_count(n, kernel.nnz)
    # room for two n x n temporaries of a pair-chain step, which would
    # otherwise be unmapped when freed and faulted in again on the next step
    _free_block(8 * (2 * n * n + 512))
    return AuxChain(
        n=n,
        r=r,
        kernel=kernel,
        kernel_t=c.kernel_t,
        pi=pi,
        reentry=weights / total,
        row_groups=None if threads == 1 else _row_groups(c.kernel_t, threads),
    )


def return_mass(a: AuxChain, t_horizon: int) -> tuple[float, int]:
    """``R = sum_{t=0}^{T} P_tilde^t(DELTA, DELTA)`` and the stop step ``t0`` of its pass.

    The :func:`~dfa_meet.fvtl.return_sums` pass from ``DELTA``, without
    ``Z``, so ``t0`` is at most ``T``; when it stops before ``T``, the
    remaining terms are taken as ``pi_tilde(DELTA)``, with an error of at
    most ``(T - t0) * (TV(t0) + 2e)``.
    """
    sums = return_sums(a, t_horizon, sum_z=False)
    return sums.return_mass, sums.stop_step


def auto_return_horizon(a: AuxChain) -> int:
    """Adaptive horizon for the diagonal return mass.

    Runs the :func:`~dfa_meet.fvtl.return_sums` pass without ``Z`` until
    ``P_tilde^t(DELTA, DELTA)`` has relaxed to within
    ``fvtl.RELAX_FACTOR`` of its stationary value ``pi_tilde(DELTA)``,
    capped at ``ceil(log(n)**5)``. Past this point every further step
    inflates ``R`` by roughly ``pi_tilde(DELTA)``, which at finite ``n``
    swamps the head sum the rate prediction needs; the cap recovers the
    asymptotic schedule for very large ``n``.
    """
    return return_sums(a, sum_z=False).t_horizon


def aux_fvtl_report(a: AuxChain, t_horizon: int | None = None,
                    compute_quasi_stationary: bool = False) -> FvtlReport:
    """:func:`~dfa_meet.fvtl.first_visit_report` of the collapsed diagonal state.

    ``mu_target`` is the closed-form ``pi_tilde(DELTA)``, and ``t_horizon``
    defaults to the adaptive relaxation horizon of :func:`auto_return_horizon`.
    """
    return first_visit_report(a, t_horizon, compute_quasi_stationary)


@dataclass
class AuxEventReport:
    """Measured values and verdicts for the five finite-n events.

    The events bound the stationary extremes, the diagonal mass, the
    mixing of the auxiliary chain within ``S`` steps, and the diagonal
    return mass within ``T`` steps. All thresholds use the natural log.

    ``tv_mode`` is ``"exact"`` (``DELTA`` and every pair start, each run
    to ``S``; one scan per unordered pair stands for both its orders) or
    ``"sampled"`` (``DELTA`` and the sampled pair starts, each run to
    ``S``), with ``"-bound"`` appended when ``a4_stopped_starts`` of those
    starts, each order of a pair counted, stopped at a certified level
    before ``S`` and report their TV there. ``max_tv_at_s`` is then an
    upper bound on the maximum over the starts, up to twice the distance
    ``e`` between ``pi_tilde`` and the exact stationary law (see
    :func:`~dfa_meet.fvtl.certified_scan`).
    ``return_stop_step`` is the step ``t0`` at which the return-mass pass
    stopped, at most ``t_horizon``; when it is below ``t_horizon`` the
    later terms were taken as ``pi_tilde(DELTA)``.
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
    a4_stopped_starts: int
    return_mass: float
    return_stop_step: int
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
) -> AuxEventReport:
    """Evaluate the five events at horizons ``T = ceil(log^5 n)``, ``S = ceil(log^3 n)``.

    The mixing event is the largest TV over the starts of
    :func:`_a4_starts`, each run through its own
    :func:`~dfa_meet.fvtl.certified_scan` to ``S``: every start when ``n``
    is at most ``A4_EXACT_LIMIT``, with one scan for each unordered pair,
    otherwise ``DELTA`` and ``A4_SAMPLES`` uniform pair starts (seed
    ``A4_SEED``), an estimate of the max, not the exact max. ``R`` comes
    from :func:`return_mass`, without ``Z``. Both stop at the certified TV
    level (see :class:`AuxEventReport`), so A4 and A5 can differ from the
    verdicts of full runs only when ``eps`` lies within
    ``TV_STOP_LEVEL + 2e`` of ``max_tv_at_s``, or within
    ``(T - t0) * (TV_STOP_LEVEL + 2e)`` of ``|R - r/(r-1)|``.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    n, r = a.n, a.r
    if t_horizon is None:
        t_horizon = log_power_horizon(n, 5)
    if s_horizon is None:
        s_horizon = log_power_horizon(n, 3)
    min_pt, max_pt = _pi_tilde_extremes(a)
    n_pi_delta = n * a.pi_tilde_delta
    ratio = r / (r - 1.0)

    r_mass, r_stop = return_mass(a, t_horizon)
    exact = n <= A4_EXACT_LIMIT
    delta, *pairs = [certified_scan(a, m, s_horizon) for m in _a4_starts(a)]
    max_tv = max(tv for _, tv in [delta, *pairs])
    # in exact mode each pair scan stands for both orders of its pair
    orders = 2 if exact else 1
    stopped = (delta[0] < s_horizon) + orders * sum(t0 < s_horizon for t0, _ in pairs)
    tv_mode = ("exact" if exact else "sampled") + ("-bound" if stopped else "")

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
        a4_stopped_starts=stopped,
        return_mass=r_mass,
        return_stop_step=r_stop,
        a1=min_pt >= n**-3.6,
        a2=max_pt <= log_n**8 / n,
        a3=abs(n_pi_delta - ratio) < eps,
        a4=max_tv < eps,
        a5=abs(r_mass - ratio) < eps,
    )


def _a4_starts(a: AuxChain):
    """The A4 starts as pair states: ``DELTA``, then the pair starts.

    The pairs are every ``(x, x')`` with ``x < x'``, row-major, when ``n``
    is at most ``A4_EXACT_LIMIT``, and otherwise ``A4_SAMPLES`` uniform
    ordered ones drawn from ``A4_SEED``, ``x`` before ``x'``. The step
    commutes with transposition, so the scan from ``(x', x)`` is, up to
    rounding, the transpose of the scan from ``(x, x')``, and as far in TV
    from the symmetric ``outer(pi, pi)``: one scan serves both orders.
    """
    yield a.start()
    n = a.n
    if n <= A4_EXACT_LIMIT:
        pairs = ((x, xp) for x in range(n) for xp in range(x + 1, n))
    else:
        rng = np.random.default_rng(A4_SEED)
        pairs = (_draw_uniform_distinct_pair(rng, n) for _ in range(A4_SAMPLES))
    for x, xp in pairs:
        m = np.zeros((n, n))
        m[x, xp] = 1.0
        yield m
