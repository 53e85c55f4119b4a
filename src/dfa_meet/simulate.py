"""Reproducible Monte Carlo samplers for meeting, coalescence, and sync times.

Every stopping-time sampler consumes randomness from a single
``numpy.random.Generator`` in a frozen order, so a trial is replayable
from its derived seed alone and results are independent of worker count:

* every mode reads one stream of colors, drawn in blocks of
  ``COLOR_CHUNK``: independent walks read two colors per step (first walk,
  then second walk), coupled walks and the synchronization mode one, and
  the coalescing mode one per cluster, clusters ordered by increasing
  current position;
* uniform-random-distinct starts cost two integer draws (second shifted
  around the first);
* with a fresh automaton per trial, the automaton is generated from the
  trial stream before anything else. ``run_experiment`` generates a batch
  of trials' automata, each from its own stream, before those trials draw
  anything else, which leaves every stream's order as it is.

Successive ``Generator.integers(0, r, size=k)`` calls return the values
of one block draw of the summed size (``tests/test_streams.py`` checks
this). So each mode sees the values of one draw per step of the colors
that step reads, whatever ``COLOR_CHUNK`` is. Every sampler may draw past
its stopping step: where the generator stands after a sampler returns is
not part of the contract, and nothing draws from a trial stream after its
sampler.

The trials of ``sample_meeting_independent_batch`` share one stream
instead: each reads the independent layout from where the last stopped.

The samplers read the automaton as per-color columns (``cols[c][x]`` is
the ``c``-successor of ``x``). The two pair samplers read about ``2 * tau``
entries, so their columns are memoryviews of one contiguous copy of the
transposed table. Coalescing and sync read far more, in four phases:

* while the cluster or image set holds more than ``_SET_LOOP_SIZE``
  points, a step is one numpy pass: gather each point's target for its
  color, then sort and drop repeats, which leaves the positions ascending
  as the next step's colors need; coalescing takes its clusters' colors as
  slices of the ``COLOR_CHUNK`` blocks, so its stream is read as above;
* a smaller set steps point by point in a set loop over Python lists of
  the columns, reading the rest of the same stream;
* once three points are left, they step as three locals: the last three
  clusters take three colors per step, lowest position first, and are
  re-sorted after it; the last three image points read one color;
* once two points are left, a pair loop reads the colors in the order
  above: the last two clusters are two independent walks, the lower
  position taking the first color of each step, and the last two image
  points are two coupled walks, so sync resumes the coupled meeting loop
  at its step.

A set may skip a phase: one step can take it from more than
``_SET_LOOP_SIZE`` points to two.
"""

from __future__ import annotations

import atexit
import csv
import itertools
import math
import os
import re
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
# numpy 2 loads numpy.random on first use; loaded here, pool workers forked
# by run_experiment inherit it instead of each importing it for its first trial
import numpy.random

from .dfa import Dfa, _check_sizes, _free_block, _generate_dfas, parse_dfa
from .seeds import _is_integer, check_master_seed, check_seed, seed_split

COLOR_CHUNK = 4096
MODES = ("independent", "coupled", "coalescing", "sync")
THREADS_ENV_VAR = "DFA_MEET_THREADS"
# run_experiment frees a block of this size first, so that freed DFA tables
# stay mapped (see _free_block); fresh automata are built in batches whose
# tables fill at most a quarter of it, beside their temporaries
_FREED_BLOCK_BYTES = 1 << 22
_BATCH_BYTES = _FREED_BLOCK_BYTES // 4
# coalescing and sync step a cluster or image set larger than this as one
# numpy pass, and a smaller one of four or more point by point in a set loop
_SET_LOOP_SIZE = 32
# at most what one finished TrialRecord holds in memory (about 240 bytes)
_RECORD_BYTES = 200
# pool tasks per worker: each task costs a hand-off in which its worker idles,
# and more tasks even out the workers' shares of a run's slow trials; of 16, 8,
# 4 and 2, 4 ran the n = 1000 pair and coalescing runs fastest on two workers
_TASKS_PER_WORKER = 4

# (workers, multiprocessing.Pool) of the trial pool, made by the first pooled
# run_experiment call and kept for the next
_pool = None

CSV_HEADER = ["trial", "derived_seed", "mode", "n", "r", "x", "y", "tau", "censored"]
# what write_records_csv writes for an integer; int() alone would also take "1_5" or " 15"
_CSV_INT = re.compile(r"-?[0-9]+")
# verify divides tau by n in floats; a larger integer overflows the conversion
_INT64_MAX = 2**63 - 1


@dataclass
class TrialRecord:
    """Outcome of one Monte Carlo trial."""

    trial: int
    derived_seed: int | None
    mode: str
    n: int
    r: int
    x: int | None
    y: int | None
    tau: int
    censored: bool


@dataclass
class RunManifest:
    """Everything needed to reproduce an experiment byte-for-byte.

    ``starts`` is ``"uniform"`` (a fresh distinct pair per trial), a fixed
    ``(x, y)`` pair, or ``None`` for the all-vertex modes. ``dfa_policy``
    is ``"fresh"`` (one automaton per trial, from the trial stream) or
    ``"fixed"`` (a shared automaton from ``dfa_path``); ``dfa_path`` is
    set exactly when the policy is ``"fixed"``. The seed, sizes, counts
    and a fixed pair are integers (numpy's too, stored as ``int``; never
    ``bool``); ``trials`` is at least 0 and ``cap``, when given, at least
    1. The sizes, the master seed and a fixed pair are checked here as the
    trials would check them, so a bad one is an error even when no trial
    runs.
    """

    master_seed: int
    mode: str
    n: int
    r: int
    trials: int
    cap: int | None = None
    dfa_policy: str = "fresh"
    dfa_path: str | None = None
    starts: str | tuple[int, int] | None = "uniform"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        for key in ("master_seed", "n", "r", "trials", "cap"):
            value = getattr(self, key)
            if key == "cap" and value is None:
                continue
            if not _is_integer(value):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            setattr(self, key, int(value))
        if self.mode in ("coalescing", "sync"):
            # "uniform" is the untouched default; an explicit pair is an error.
            if self.starts not in (None, "uniform"):
                raise ValueError(f"mode {self.mode!r} starts from all vertices; set starts=None")
            self.starts = None
        elif self.starts != "uniform" and not (
            isinstance(self.starts, (tuple, list)) and len(self.starts) == 2
        ):
            raise ValueError(f"mode {self.mode!r} needs starts='uniform' or a fixed pair")
        if self.trials < 0:
            raise ValueError(f"trials must be nonnegative, got {self.trials}")
        if self.cap is not None and self.cap < 1:
            raise ValueError(f"cap must be at least 1, got {self.cap}")
        if self.dfa_policy not in ("fresh", "fixed"):
            raise ValueError(f"unknown dfa_policy {self.dfa_policy!r}")
        if self.dfa_policy == "fixed" and self.dfa_path is None:
            raise ValueError("dfa_policy='fixed' requires dfa_path")
        if self.dfa_policy == "fresh" and self.dfa_path is not None:
            raise ValueError("dfa_policy='fresh' takes no dfa_path")
        if isinstance(self.starts, (tuple, list)):
            if not all(map(_is_integer, self.starts)):
                raise ValueError(f"starts must be a pair of integers, got {self.starts!r}")
            self.starts = tuple(map(int, self.starts))
        _check_sizes(self.n, self.r)
        check_master_seed(self.master_seed)
        if isinstance(self.starts, tuple):
            _check_pair(self.n, self.starts)

    @property
    def effective_cap(self) -> int:
        return self.cap if self.cap is not None else default_cap(self.n)


def default_cap(n: int) -> int:
    """Step cap ``50 * n * ceil(ln n)``; hitting it signals an anomaly."""
    return 50 * n * math.ceil(math.log(n))


def _record(mode, d, x, y, tau, censored, seed, trial):
    derived = int(seed) if isinstance(seed, (int, np.integer)) else None
    return TrialRecord(
        trial=trial, derived_seed=derived, mode=mode, n=d.n, r=d.r,
        x=x, y=y, tau=tau, censored=censored,
    )


def _check_pair(n: int, pair) -> None:
    for v in pair:
        if not 0 <= v < n:
            raise ValueError(f"start vertex {v} outside [0, {n})")


def _sample_pair(mode: str, meet, d: Dfa, x: int, y: int, cap: int, seed, trial) -> TrialRecord:
    """One trial of the pair sampler ``meet`` from ``(x, y)``, each start in ``[0, n)``."""
    _check_pair(d.n, (x, y))
    rng = np.random.default_rng(seed)
    # the walks read about 2 * tau entries, so they index one copy of the
    # table in place rather than convert all n * r entries to a list
    flat = memoryview(d.out.T.copy().reshape(-1))
    cols = [flat[c * d.n:(c + 1) * d.n] for c in range(d.r)]
    tau, censored = meet(cols, x, y, cap, _colors(rng, d.r))
    return _record(mode, d, x, y, tau, censored, seed, trial)


def sample_meeting_independent(d: Dfa, x: int, y: int, cap: int, seed, trial: int = 0) -> TrialRecord:
    """Meeting time of two walks driven by independent color streams.

    ``tau`` is the first round (0 counts) at which the walks share a
    vertex; reaching ``cap`` without meeting censors the trial.
    """
    return _sample_pair("independent", _meet_independent, d, x, y, cap, seed, trial)


def sample_meeting_coupled(d: Dfa, x: int, y: int, cap: int, seed, trial: int = 0) -> TrialRecord:
    """Meeting time of two walks reading the same random word."""
    return _sample_pair("coupled", _meet_coupled, d, x, y, cap, seed, trial)


def sample_coalescence(d: Dfa, cap: int, seed, trial: int = 0) -> TrialRecord:
    """Time for independent walks, merged on meeting, to become one cluster.

    Walks start from every vertex. Clusters take colors in increasing order
    of their current position, from ``COLOR_CHUNK`` blocks that equal one
    draw per step; the last block may run past the stopping step. A step
    over more than ``_SET_LOOP_SIZE`` clusters is one numpy pass, a step
    over four or more a set loop, and the last three clusters step as
    locals. Once two clusters remain, a pair loop steps them until they
    meet: the last merge is an independent meeting, the lower position
    taking the first color.
    """
    rng = np.random.default_rng(seed)
    tau, censored = _coalesce(d, cap, rng, range(d.n))
    return _record("coalescing", d, None, None, tau, censored, seed, trial)


def sample_sync(d: Dfa, cap: int, seed, trial: int = 0) -> TrialRecord:
    """Length at which a growing uniform random word first synchronizes.

    Tracks the image set of the whole vertex set under the word read so
    far; non-synchronizable automata exist, so censoring at the cap is an
    expected occasional outcome. The word is read from ``COLOR_CHUNK``
    blocks, the last of which may run past the stopping step. An image of
    more than ``_SET_LOOP_SIZE`` vertices steps as one numpy pass, a
    smaller one in a set loop, and an image of three as three locals. Once
    the image holds two vertices, the rest of the word drives them as a
    coupled meeting, resumed from the step reached.
    """
    rng = np.random.default_rng(seed)
    tau, censored = _sync(d, cap, rng)
    return _record("sync", d, None, None, tau, censored, seed, trial)


def _meet_independent(cols: list, x: int, y: int, cap: int, colors) -> tuple[int, bool]:
    if x == y:
        return 0, False
    # one iterator passed twice: each step takes the first walk's color, then the second's
    for t, c, cp in zip(range(1, cap + 1), colors, colors):
        x = cols[c][x]
        y = cols[cp][y]
        if x == y:
            return t, False
    return cap, True


def _meet_coupled(cols: list, x: int, y: int, cap: int, colors, t: int = 0) -> tuple[int, bool]:
    """Walks from ``x`` and ``y`` at step ``t`` read one word until they meet or reach ``cap``."""
    if x == y:
        return t, False
    for t, c in zip(range(t + 1, cap + 1), colors):
        x = cols[c][x]
        y = cols[c][y]
        if x == y:
            return t, False
    return cap, True


def _color_blocks(rng, r: int):
    """Endless blocks of ``COLOR_CHUNK`` uniform colors."""
    while True:
        yield rng.integers(0, r, size=COLOR_CHUNK)


def _colors(rng, r: int):
    """Endless uniform colors, one at a time, from :func:`_color_blocks`."""
    return itertools.chain.from_iterable(map(np.ndarray.tolist, _color_blocks(rng, r)))


def _sorted_unique(points: np.ndarray) -> np.ndarray:
    """The distinct values of ``points``, ascending; sorts ``points`` in place, O(k log k)."""
    points.sort()
    keep = np.empty(points.size, dtype=bool)
    keep[:1] = True
    np.not_equal(points[1:], points[:-1], out=keep[1:])
    return points[keep]


def _coalesce(d: Dfa, cap: int, rng, starts) -> tuple[int, bool]:
    r = d.r
    # While the clusters are many, a step is one numpy pass over them. A
    # cluster at x is kept as x * r, where x's row starts in the flat table,
    # whose targets are times r too; the colors are slices of the blocks.
    targets = d.out.ravel() * r
    positions = _sorted_unique(np.array(starts, dtype=np.int64)) * r
    blocks = _color_blocks(rng, r)
    block, at, t = positions[:0], 0, 0
    while positions.size > _SET_LOOP_SIZE:
        if t == cap:
            return cap, True
        t += 1
        k = positions.size
        if at + k > block.size:
            fresh = -(-(at + k - block.size) // COLOR_CHUNK)
            block = np.concatenate([block[at:], *itertools.islice(blocks, fresh)])
            at = 0
        positions = _sorted_unique(targets[positions + block[at:at + k]])
        at += k
    colors = itertools.chain(block[at:].tolist(), _colors(rng, r))
    positions = (positions // r).tolist()
    cols = d.out.T.tolist()
    while len(positions) > 3:
        if t == cap:
            return cap, True
        t += 1
        # zip stops at the last cluster, so each step takes one color per cluster
        positions = sorted({cols[c][x] for x, c in zip(positions, colors)})
    if len(positions) == 3:
        # the last three clusters, lowest position first, re-sorted after each step
        x, y, z = positions
        for t, a, b, c in zip(range(t + 1, cap + 1), colors, colors, colors):
            x, y, z = cols[a][x], cols[b][y], cols[c][z]
            if x == y or y == z or x == z:
                break
            if x > y:
                x, y = y, x
            if y > z:
                y, z = z, y
            if x > y:
                x, y = y, x
        else:
            return cap, True
        positions = sorted({x, y, z})
    if len(positions) == 1:
        return t, False
    # the last two clusters: the lower position takes the first color of each step
    x, y = positions
    for t, c, cp in zip(range(t + 1, cap + 1), colors, colors):
        x = cols[c][x]
        y = cols[cp][y]
        if x == y:
            return t, False
        if x > y:
            x, y = y, x
    return cap, True


def _sync(d: Dfa, cap: int, rng) -> tuple[int, bool]:
    colors = _colors(rng, d.r)
    # while the image is large, a step is one numpy pass over it
    columns, image, t = d.out.T, np.arange(d.n), 0
    while image.size > _SET_LOOP_SIZE:
        if t == cap:
            return cap, True
        t += 1
        image = _sorted_unique(columns[next(colors)][image])
    cols = d.out.T.tolist()
    image = image.tolist()
    while len(image) > 3:
        if t == cap:
            return cap, True
        t += 1
        image = set(map(cols[next(colors)].__getitem__, image))
    if len(image) == 3:
        # the last three image points, each step reading one color
        x, y, z = image
        for t, c in zip(range(t + 1, cap + 1), colors):
            col = cols[c]
            x, y, z = col[x], col[y], col[z]
            if x == y or y == z or x == z:
                break
        else:
            return cap, True
        image = {x, y, z}
    # two points reading one word are a coupled meeting from step t; one has met
    return _meet_coupled(cols, min(image), max(image), cap, colors, t)


def sample_meeting_independent_batch(
    d: Dfa, x: int, y: int, trials: int, cap: int, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Independent meeting times of ``trials`` walk pairs from ``(x, y)`` on one DFA.

    Returns ``(taus, censored)`` arrays. The trials read one color stream
    from ``seed`` in turn, each from where the last one stopped. So a batch
    is deterministic for a fixed seed and is the start of any longer batch,
    but no trial is replayable alone; use :func:`run_experiment` when
    per-trial replay matters.
    """
    _check_pair(d.n, (x, y))
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    cols = d.out.T.tolist()
    colors = _colors(np.random.default_rng(seed), d.r)
    taus = np.zeros(trials, dtype=np.int64)
    censored = np.zeros(trials, dtype=bool)
    for i in range(trials):
        taus[i], censored[i] = _meet_independent(cols, x, y, cap, colors)
    return taus, censored


def sample_kingman_reference(n: int, seed, size: int) -> np.ndarray:
    """Sum of independent exponentials of rate ``i*(i-1)/2``, ``i = 2..n``.

    This is the coalescent limit law of the coalescence time in units of
    ``n``, truncated at the initial number of walkers. Returns an array of
    ``size`` independent replicas.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    total = np.zeros(size)
    for i in range(2, n + 1):
        total += rng.exponential(scale=2.0 / (i * (i - 1)), size=size)
    return total


def _draw_uniform_distinct_pair(rng, n: int) -> tuple[int, int]:
    x = int(rng.integers(0, n))
    y = int(rng.integers(0, n - 1))
    return x, y + (y >= x)


def _run_trials(manifest: RunManifest, indices: range, fixed_dfa: Dfa | None) -> list[TrialRecord]:
    """Trials ``indices`` of a manifest, in order, each from its own derived stream.

    Fresh automata are generated a batch at a time, each from its trial's
    stream, and checked as one stack; only then does each trial of the
    batch draw its starts and run its sampler, so every stream is read in
    the documented order. A batch's tables stay within ``_BATCH_BYTES``.
    """
    n, r, mode, cap = manifest.n, manifest.r, manifest.mode, manifest.effective_cap
    sampler = {"independent": sample_meeting_independent, "coupled": sample_meeting_coupled,
               "coalescing": sample_coalescence, "sync": sample_sync}[mode]
    batch = max(1, _BATCH_BYTES // (8 * n * r))
    records = []
    for lo in range(0, len(indices), batch):
        part = indices[lo:lo + batch]
        seeds = [seed_split(manifest.master_seed, i, mode) for i in part]
        rngs = [np.random.default_rng(seed) for seed in seeds]
        if manifest.dfa_policy == "fresh":
            dfas = _generate_dfas(n, r, rngs)
        else:
            dfas = itertools.repeat(fixed_dfa)
        for index, derived, rng, d in zip(part, seeds, rngs, dfas):
            if manifest.starts is None:
                rec = sampler(d, cap, rng, trial=index)
            else:
                uniform = manifest.starts == "uniform"
                x, y = _draw_uniform_distinct_pair(rng, n) if uniform else manifest.starts
                rec = sampler(d, x, y, cap, rng, trial=index)
            rec.derived_seed = derived
            records.append(rec)
    return records


def _read_fixed_dfa(manifest: RunManifest) -> Dfa:
    d = parse_dfa(Path(manifest.dfa_path).read_text(encoding="utf-8"))
    if (d.n, d.r) != (manifest.n, manifest.r):
        raise ValueError("fixed DFA does not match the manifest dimensions")
    return d


def _usable_cpus() -> int:
    """CPUs of the process's affinity mask where the platform reports one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, then the DFA_MEET_THREADS variable, then usable CPUs.

    A non-integer variable or a count below 1 is a ``ValueError`` naming
    its source.
    """
    source = f"workers={workers}"
    if workers is None:
        env = os.environ.get(THREADS_ENV_VAR)
        if not env:
            return _usable_cpus()
        source = f"{THREADS_ENV_VAR}={env}"
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"{source}: the worker count must be an integer") from None
    if workers < 1:
        raise ValueError(f"{source}: the worker count must be at least 1")
    return workers


def _check_fits(holder: str, nbytes: int, contents: str) -> None:
    """A ``MemoryError`` when ``holder`` would hold ``nbytes`` of ``contents``, above physical memory."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no such figure on this platform
        return
    if nbytes > memory:
        raise MemoryError(f"{holder} would hold {nbytes / 2**30:.3g} GiB of {contents}, "
                          f"more than the {memory / 2**30:.3g} GiB of memory")


def _drop_pool() -> None:
    """Terminate the trial pool's workers, if there is a pool, and forget it."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.terminate()


def _forget_parent_pool() -> None:
    """In a forked child, forget the parent's pool without touching it.

    Its workers and threads belong to the parent. The child's copy is marked
    terminated, so that collecting it writes nothing to the parent's pipes,
    and its workers leave the child's set of children, whose daemons
    multiprocessing would otherwise terminate when the child exits.
    """
    global _pool
    if _pool is not None:
        import multiprocessing.pool
        import multiprocessing.process

        pool, _pool = _pool[1], None
        pool._state = multiprocessing.pool.TERMINATE
        multiprocessing.process._children.difference_update(pool._pool)


# the workers end with the interpreter, before its modules are torn down
atexit.register(_drop_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_parent_pool)


def _worker_pool(workers: int):
    """The trial pool of ``workers`` processes, made on first use and anew for another count."""
    global _pool
    if _pool is None or _pool[0] != workers:
        import multiprocessing

        _drop_pool()
        _pool = (workers, multiprocessing.Pool(workers))
    return _pool[1]


def run_experiment(manifest: RunManifest, workers: int | None = None) -> list[TrialRecord]:
    """Run all trials of a manifest, in trial order, on a worker pool.

    Trials are seeded independently through :func:`seed_split`, so the
    output is byte-for-byte identical for any worker count. A fixed
    automaton is read once per call and sent to the workers. Every record
    stays in memory until the call returns, so a trial count whose records
    would outgrow physical memory is a ``MemoryError`` before any trial runs.

    The workers stay alive for the next call with the same count; a call
    with another count replaces them, and a call that raises ends them. A
    forked child makes its own workers, and the workers end with the
    interpreter.
    """
    workers = resolve_workers(workers)
    trials = manifest.trials
    _check_fits(f"{trials} trials", trials * _RECORD_BYTES, "records")
    fixed_dfa = _read_fixed_dfa(manifest) if manifest.dfa_policy == "fixed" else None
    _free_block(_FREED_BLOCK_BYTES)
    if workers == 1 or trials < 4 * workers:
        return _run_trials(manifest, range(trials), fixed_dfa)

    span = max(1, math.ceil(trials / (workers * _TASKS_PER_WORKER)))
    tasks = [range(lo, min(lo + span, trials)) for lo in range(0, trials, span)]
    pool = _worker_pool(workers)
    try:
        chunks = pool.imap(partial(_run_trials, manifest, fixed_dfa=fixed_dfa), tasks)
        return list(itertools.chain.from_iterable(chunks))
    except BaseException:
        # tasks still queued or running would run into the next call
        _drop_pool()
        raise


def write_records_csv(records, path) -> None:
    """RFC 4180 CSV with the fixed trial-record header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow([
                rec.trial,
                rec.derived_seed if rec.derived_seed is not None else "",
                rec.mode,
                rec.n,
                rec.r,
                rec.x if rec.x is not None else "",
                rec.y if rec.y is not None else "",
                rec.tau,
                int(rec.censored),
            ])


def _csv_rows(path, reader):
    """The rows of ``reader``; a ``csv.Error`` becomes a ``ValueError`` naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None


def read_records_csv(path) -> list[TrialRecord]:
    """Read a trial CSV written by :func:`write_records_csv`.

    An empty file, a wrong header, a record the csv module cannot parse, a
    row of the wrong width, a field that is not an integer or has more digits
    than ``int()`` converts, a ``censored`` value other than 0 or 1, a mode
    not in ``MODES``, sizes outside ``2 <= r <= n`` or above ``2**63 - 1``, a
    negative ``tau`` or one above ``2**63 - 1``, or a row whose
    ``(mode, n, r)`` differs from the first row's is a ``ValueError`` naming
    the line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = _csv_rows(path, reader)
        header = next(rows, None)
        if header is None:
            raise ValueError(f"{path}, line 1: empty file, expected the CSV header")
        if header != CSV_HEADER:
            raise ValueError(f"{path}, line 1: unexpected CSV header {header!r}")
        records, run = [], None
        for row in rows:
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"{where}: {len(row)} fields, expected {len(CSV_HEADER)}")
            fields = dict(zip(CSV_HEADER, row))
            for name in ("trial", "derived_seed", "n", "r", "x", "y", "tau"):
                value = fields[name]
                if not value and name in ("derived_seed", "x", "y"):
                    fields[name] = None
                    continue
                if not _CSV_INT.fullmatch(value):
                    raise ValueError(f"{where}: {name} must be an integer, got {value!r}")
                try:
                    fields[name] = int(value)
                except ValueError:  # more digits than int() converts
                    raise ValueError(f"{where}: {name} has more than "
                                     f"{sys.get_int_max_str_digits()} digits") from None
            if fields["censored"] not in ("0", "1"):
                raise ValueError(f"{where}: censored must be 0 or 1, got {fields['censored']!r}")
            fields["censored"] = fields["censored"] == "1"
            if fields["mode"] not in MODES:
                raise ValueError(f"{where}: unknown mode {fields['mode']!r}, "
                                 f"expected one of {MODES}")
            n, r = fields["n"], fields["r"]
            if not 2 <= r <= n <= _INT64_MAX:
                raise ValueError(f"{where}: invalid sizes n={n}, r={r}: "
                                 "need 2 <= r <= n <= 2**63 - 1")
            if fields["tau"] < 0:
                raise ValueError(f"{where}: tau must be at least 0, got {fields['tau']}")
            if fields["tau"] > _INT64_MAX:
                raise ValueError(f"{where}: tau must be at most 2**63 - 1")
            key = (fields["mode"], n, r)
            run = run or key
            if key != run:
                raise ValueError(f"{where}: (mode, n, r) = {key} differs from the first "
                                 f"row's {run}")
            records.append(TrialRecord(**fields))
    return records
