"""Finite-chain numerics: kernels, stationary laws, mixing, hitting times.

Transition kernels are scipy CSR matrices throughout. Dense linear algebra
is used below ``DIRECT_SOLVE_LIMIT`` states and sparse iteration above.
Scipy is imported inside the functions that build or solve a kernel, so
the Monte Carlo side, which builds none, runs without loading it.

Pair-chain steps and mixing profiles whose kernel has ``n * nnz`` of at
least ``THREADED_STEP_MIN`` run their sparse products on one shared pool
of helper threads (see :func:`_thread_count`). Each thread writes its own
rows or columns of the result, with the same terms summed in the same
order, so every output is bit-identical to the serial one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .dfa import Dfa
from .simulate import _usable_cpus, resolve_workers

if TYPE_CHECKING:
    import scipy.sparse as sp

ROW_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10
POWER_ITERATION_TOL = 1e-13
POWER_MAX_ITER = 10**6
DIRECT_SOLVE_LIMIT = 5000
PRODUCT_STATE_CAP = 4_000_000
MAX_RESAMPLES = 64
MIXING_THRESHOLD = 1.0 / (2.0 * math.e)
MIXING_BATCH_SIZE = 2000
# n * nnz from which a kernel's steps run on threads (n = 1000, r = 2 is at
# it); below it the hand-offs cost more than the threads save
THREADED_STEP_MIN = 2_000_000
# row slices per thread of a threaded step; smaller slices keep each
# thread's product temporaries small
ROW_SUB_BLOCKS = 4

# (threads, ThreadPoolExecutor) of the helper pool, made on first use
_pool = None


def _drop_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's pool threads, so it makes its own pool
    os.register_at_fork(after_in_child=_drop_pool)


def _thread_count(size: int, nnz: int) -> int:
    """Threads for the steps of a kernel with ``size`` states and ``nnz`` entries.

    1 when ``size * nnz`` is below ``THREADED_STEP_MIN``, else the least of
    :func:`~dfa_meet.simulate.resolve_workers`, the usable CPUs and
    ``size``. The worker count is resolved either way, so a malformed
    ``DFA_MEET_THREADS`` is an error at every size.
    """
    workers = resolve_workers()
    if size * nnz < THREADED_STEP_MIN:
        return 1
    return min(workers, _usable_cpus(), size)


def _executor(threads: int):
    """The helper pool with all its ``threads`` threads started, made anew for another count."""
    global _pool
    if _pool is None or _pool[0] != threads:
        import threading
        from concurrent.futures import ThreadPoolExecutor

        if _pool is not None:
            _pool[1].shutdown(wait=False)
        _pool = (threads, ThreadPoolExecutor(max_workers=threads))
        # a pool starts a thread only when no thread is idle; tasks that wait
        # for each other start them all now
        barrier = threading.Barrier(threads)
        list(_pool[1].map(lambda _: barrier.wait(), range(threads)))
    return _pool[1]


def _map_threaded(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, on ``threads`` pool threads when more than one.

    ``fn`` runs numpy and scipy only: it calls no public function of this
    package, whose spans a tracer may keep on one stack.
    """
    if threads == 1:
        return [fn(item) for item in items]
    return list(_executor(threads).map(fn, items))


def _row_groups(kernel_t: sp.csr_array, threads: int) -> list[list[tuple]]:
    """``kernel_t`` cut into ``threads`` groups of contiguous CSR row slices ``(lo, hi, rows)``.

    Each group holds about ``ROW_SUB_BLOCKS`` slices; ``threads`` is at
    most the row count, so no group is empty. The pool's threads start
    here, before any step allocates its ``n x n`` blocks: a thread started
    during a step leaves its own small allocations between those blocks,
    and the heap then grows by a block.
    """
    n = kernel_t.shape[0]
    bounds = [g * n // threads for g in range(threads + 1)]
    groups = []
    for lo, hi in zip(bounds, bounds[1:]):
        cuts = [lo + j * (hi - lo) // ROW_SUB_BLOCKS for j in range(ROW_SUB_BLOCKS + 1)]
        groups.append([(a, b, kernel_t[a:b]) for a, b in zip(cuts, cuts[1:]) if b > a])
    _executor(threads)
    return groups


class MultipleRecurrentClassesError(Exception):
    """The chain has more than one recurrent class, so pi is not unique."""

    def __init__(self, classes):
        self.classes = classes
        sizes = [len(c) for c in classes]
        super().__init__(f"chain has {len(classes)} recurrent classes (sizes {sizes})")


class ConvergenceError(RuntimeError):
    """An iterative solve stopped before reaching its tolerance."""

    def __init__(self, iterations: int, last_delta: float):
        self.iterations = iterations
        self.last_delta = last_delta
        super().__init__(
            f"no convergence after {iterations} iterations (last delta {last_delta:.3e})"
        )


class StationaryResidualError(ConvergenceError):
    """The solved law misses ``pi P = pi`` by ``last_delta`` > ``STATIONARY_RESIDUAL_TOL`` in L1."""

    def __str__(self) -> str:
        return f"stationary residual {self.last_delta:.3e} above tolerance"


class UnreachableTargetError(Exception):
    """The target set cannot be reached from the support of the start law."""


@dataclass(eq=False)
class ChainSpec:
    """A finite row-stochastic kernel with its recurrent-class structure.

    ``recurrent_classes`` lists the closed strongly connected components of
    the support digraph; ``stationary`` caches the stationary law once it
    has been computed (it exists and is unique iff there is exactly one
    recurrent class).
    """

    kernel: sp.csr_array
    recurrent_classes: list[np.ndarray] = field(repr=False)
    stationary: np.ndarray | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.kernel.shape[0]

    @cached_property
    def kernel_t(self) -> sp.csr_array:
        """``kernel`` transposed, as CSR, built on first use and kept.

        Every left propagation ``nu P`` is ``kernel_t @ nu``, with the same
        terms summed in the same order as ``nu @ kernel``; the latter would
        build a transposed copy on each call.
        """
        return self.kernel.T.tocsr()

    def validate(self) -> None:
        """Check row-stochasticity within ``ROW_SUM_TOL``; raise on violation."""
        sums = np.asarray(self.kernel.sum(axis=1)).ravel()
        worst = float(np.abs(sums - 1.0).max()) if sums.size else 0.0
        if worst > ROW_SUM_TOL:
            raise ValueError(f"row sums deviate from 1 by {worst:.3e} > {ROW_SUM_TOL:.0e}")
        if self.kernel.nnz and self.kernel.data.min() < 0:
            raise ValueError("kernel has negative entries")


def make_chain(kernel: sp.spmatrix) -> ChainSpec:
    """Wrap a row-stochastic matrix, computing its recurrent classes."""
    import scipy.sparse as sp

    kernel = sp.csr_array(kernel)
    chain = ChainSpec(kernel=kernel, recurrent_classes=_recurrent_classes(kernel))
    chain.validate()
    return chain


def _recurrent_classes(kernel: sp.csr_array) -> list[np.ndarray]:
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(kernel, directed=True, connection="strong")
    # A class is recurrent iff no edge leaves it.
    coo = kernel.tocoo()
    edge_mask = coo.data > 0
    open_comp = np.zeros(n_comp, dtype=bool)
    src = labels[coo.row[edge_mask]]
    dst = labels[coo.col[edge_mask]]
    open_comp[src[src != dst]] = True
    return [np.flatnonzero(labels == c) for c in range(n_comp) if not open_comp[c]]


def walk_matrix(d: Dfa) -> ChainSpec:
    """Kernel of the single walk: each step picks a uniform color.

    With the one-to-one out-map every nonzero entry is exactly ``1/r`` and
    every row has exactly ``r`` nonzeros.
    """
    import scipy.sparse as sp

    rows = np.repeat(np.arange(d.n), d.r)
    cols = d.out.ravel()
    data = np.full(d.n * d.r, 1.0 / d.r)
    kernel = sp.csr_array((data, (rows, cols)), shape=(d.n, d.n))
    return make_chain(kernel)


def product_matrix(c: ChainSpec) -> ChainSpec:
    """Kernel of two independent copies, ``P (x) P`` on pair states.

    Pair ``(x, x')`` is indexed row-major as ``x * n + x'``. Refuses to
    build more than ``PRODUCT_STATE_CAP`` states.
    """
    import scipy.sparse as sp

    n = c.size
    if n * n > PRODUCT_STATE_CAP:
        raise ValueError(f"product chain would have {n * n} states > cap {PRODUCT_STATE_CAP}")
    kernel = sp.kron(c.kernel, c.kernel, format="csr")
    return make_chain(kernel)


def stationary_distribution(c: ChainSpec, method: str = "auto") -> np.ndarray:
    """Solve ``pi P = pi`` for the unique stationary law.

    Requires exactly one recurrent class and raises
    :class:`MultipleRecurrentClassesError` otherwise; callers sampling
    random DFAs typically resample on that error. ``method`` is ``"direct"``
    (dense solve on the recurrent class), ``"power"`` (L1 residual below
    ``POWER_ITERATION_TOL`` within ``POWER_MAX_ITER`` iterations), or
    ``"auto"`` which solves directly up to ``DIRECT_SOLVE_LIMIT`` states.
    A residual above ``STATIONARY_RESIDUAL_TOL`` raises
    :class:`StationaryResidualError`; the result is cached on ``c.stationary``.
    """
    if method not in ("auto", "direct", "power"):
        raise ValueError(f"unknown method {method!r}")
    if c.stationary is not None:
        return c.stationary
    if len(c.recurrent_classes) != 1:
        raise MultipleRecurrentClassesError(c.recurrent_classes)
    support = c.recurrent_classes[0]
    if method == "auto":
        method = "direct" if len(support) <= DIRECT_SOLVE_LIMIT else "power"
    if method == "direct":
        pi_supp = _stationary_direct(c.kernel, support)
    else:
        pi_supp = _stationary_power(c.kernel_t, support)
    pi = np.zeros(c.size)
    pi[support] = pi_supp
    residual = float(np.abs(c.kernel_t @ pi - pi).sum())
    if residual > STATIONARY_RESIDUAL_TOL:
        raise StationaryResidualError(0, residual)
    c.stationary = pi
    return pi


def _stationary_direct(kernel: sp.csr_array, support: np.ndarray) -> np.ndarray:
    m = len(support)
    a = np.ascontiguousarray(kernel[np.ix_(support, support)].toarray().T)
    a[np.diag_indices(m)] -= 1.0
    a[-1, :] = 1.0
    b = np.zeros(m)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


def _stationary_power(kernel_t: sp.csr_array, support: np.ndarray) -> np.ndarray:
    sub_t = kernel_t[np.ix_(support, support)].tocsr()
    x = np.full(len(support), 1.0 / len(support))
    # Half-lazy iteration keeps periodic classes convergent; the residual is
    # still measured against the original kernel.
    residual = math.inf
    for _ in range(POWER_MAX_ITER):
        x_next = 0.5 * (x + sub_t @ x)
        x_next /= x_next.sum()
        residual = float(np.abs(sub_t @ x_next - x_next).sum())
        if residual <= POWER_ITERATION_TOL:
            return x_next
        x = x_next
    raise ConvergenceError(POWER_MAX_ITER, residual)


def ergodic_walk_chain(n: int, r: int, seed: int):
    """Generate a DFA whose walk chain has a unique recurrent class.

    Uniqueness of the stationary law only holds with high probability, so
    the draw is retried with seeds derived from ``(seed, k, "resample")``
    until it does, at most ``MAX_RESAMPLES`` times, then raises
    :class:`MultipleRecurrentClassesError`; the retry count is returned for reporting.

    Returns ``(dfa, chain, resample_count)``.
    """
    from .dfa import generate_dfa
    from .seeds import seed_split

    current = seed
    for k in range(MAX_RESAMPLES + 1):
        d = generate_dfa(n, r, current)
        chain = walk_matrix(d)
        if len(chain.recurrent_classes) == 1:
            return d, chain, k
        current = seed_split(seed, k + 1, "resample")
    raise MultipleRecurrentClassesError(chain.recurrent_classes)


@dataclass
class MixingProfile:
    """Worst-start TV distance to stationarity per step, up to a cap."""

    d_tv: np.ndarray
    t_mix: int | None

    @property
    def mixed(self) -> bool:
        return self.t_mix is not None


def mixing_profile(c: ChainSpec, t_cap: int) -> MixingProfile:
    """Compute ``d_tv(t) = max_x TV(P^t(x, .), pi)`` for ``t = 0..t_cap``.

    ``t_mix`` is the first ``t`` with ``d_tv(t) <= 1/(2e)``, or ``None``
    when the cap is exhausted first (flagged, not fatal). Start states are
    processed in batches of at most ``MIXING_BATCH_SIZE``; a batch is held
    column-wise, one column per start, so a step is ``kernel_t @ block``,
    and memory stays at two blocks plus one TV buffer of
    ``MIXING_BATCH_SIZE * N`` floats each.

    At or above ``THREADED_STEP_MIN`` each batch is cut into about
    ``ROW_SUB_BLOCKS`` batches per thread (see :func:`_thread_count`), each
    run to ``t_cap`` on a pool thread; small batches keep each thread's
    blocks small. The batches' profiles are combined by their maximum, so
    ``d_tv`` is the same for any thread count.
    """
    if t_cap < 0:
        raise ValueError(f"horizon must be at least 0, got {t_cap}")
    pi = stationary_distribution(c)[:, None]
    n, kernel_t = c.size, c.kernel_t
    threads = _thread_count(n, kernel_t.nnz)
    cuts = 1 if threads == 1 else threads * ROW_SUB_BLOCKS
    batches = []
    for lo in range(0, n, MIXING_BATCH_SIZE):
        hi = min(lo + MIXING_BATCH_SIZE, n)
        # numpy sums a one-column block pairwise and a wider one column by
        # column, so the cuts of a wider batch keep two columns or more
        parts = max(1, min(cuts, (hi - lo) // 2))
        batches += [(lo + j * (hi - lo) // parts, lo + (j + 1) * (hi - lo) // parts)
                    for j in range(parts)]

    def batch_profile(batch: tuple[int, int]) -> np.ndarray:
        start, stop = batch
        block = np.zeros((n, stop - start))
        block[np.arange(start, stop), np.arange(stop - start)] = 1.0
        buf = np.empty_like(block)
        d_tv = np.empty(t_cap + 1)
        for t in range(t_cap + 1):
            if t:
                block = kernel_t @ block
            np.subtract(block, pi, out=buf)
            np.abs(buf, out=buf)
            d_tv[t] = 0.5 * float(buf.sum(axis=0).max())
        return d_tv

    d_tv = np.maximum.reduce(_map_threaded(batch_profile, batches, threads))
    below = np.flatnonzero(d_tv <= MIXING_THRESHOLD)
    t_mix = int(below[0]) if below.size else None
    return MixingProfile(d_tv=d_tv, t_mix=t_mix)


def hitting_time_expectation(c: ChainSpec, start: np.ndarray, target_set) -> float:
    """Exact ``E[tau_target]`` by first-step analysis.

    Solves ``(I - P_restricted) h = 1`` on the set of non-target states that
    can reach the target; states that cannot reach it have infinite hitting
    time, and any start mass there raises :class:`UnreachableTargetError`.
    Start mass already inside the target contributes 0.
    """
    n = c.size
    start = np.asarray(start, dtype=float)
    if start.shape != (n,):
        raise ValueError(f"start distribution must have length {n}")
    targets = np.zeros(n, dtype=bool)
    targets[np.asarray(list(target_set), dtype=int)] = True
    if not targets.any():
        raise ValueError("target set is empty")

    reach = _backward_reachable(c.kernel_t, targets)
    solvable = reach & ~targets
    bad_mass = float(start[~reach & ~targets].sum())
    if bad_mass > 0:
        raise UnreachableTargetError(
            f"start mass {bad_mass:.3g} on states that cannot reach the target"
        )
    if not solvable.any():
        return 0.0
    idx = np.flatnonzero(solvable)
    sub = c.kernel[np.ix_(idx, idx)]
    if len(idx) <= DIRECT_SOLVE_LIMIT:
        h = np.linalg.solve(np.eye(len(idx)) - sub.toarray(), np.ones(len(idx)))
    else:
        import scipy.sparse as sp
        from scipy.sparse.linalg import spsolve

        h = spsolve(
            (sp.eye_array(len(idx), format="csr") - sub).tocsc(), np.ones(len(idx))
        )
    return float(start[idx] @ h)


def _backward_reachable(kernel_t: sp.csr_array, targets: np.ndarray) -> np.ndarray:
    """States from which the target set is reachable (targets included)."""
    reach = targets.copy()
    frontier = np.flatnonzero(targets)
    while frontier.size:
        neighbors = np.unique(kernel_t[frontier].indices)
        new = neighbors[~reach[neighbors]]
        reach[new] = True
        frontier = new
    return reach

