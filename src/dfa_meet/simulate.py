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
  trial stream before anything else.

Successive ``Generator.integers(0, r, size=k)`` calls return the values
of one block draw of the summed size (``tests/test_streams.py`` checks
this). So each mode sees the values of one draw per step of the colors
that step reads, whatever ``COLOR_CHUNK`` is. Every sampler may draw past
its stopping step: where the generator stands after a sampler returns is
not part of the contract, and nothing draws from a trial stream after its
sampler.

The samplers read the automaton as per-color columns (``cols[c][x]`` is
the ``c``-successor of ``x``). Once two points are left, coalescing and
sync finish in a pair loop that reads the colors in the order above: the
last two clusters are two independent walks, the lower position taking
the first color of each step, and the last two image points are two
coupled walks, so sync resumes the coupled meeting loop at its step.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
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

from .dfa import Dfa, _check_sizes, generate_dfa, parse_dfa
from .seeds import check_master_seed, check_seed, seed_split

COLOR_CHUNK = 4096
MODES = ("independent", "coupled", "coalescing", "sync")
THREADS_ENV_VAR = "DFA_MEET_THREADS"

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


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
    tau, censored = meet(d.out.T.tolist(), x, y, cap, _colors(rng, d.r))
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
    draw per step; the last block may run past the stopping step. Once two
    clusters remain, a pair loop steps them until they meet: the last merge
    is an independent meeting, the lower position taking the first color.
    """
    rng = np.random.default_rng(seed)
    tau, censored = _coalesce(d, cap, rng, range(d.n))
    return _record("coalescing", d, None, None, tau, censored, seed, trial)


def sample_sync(d: Dfa, cap: int, seed, trial: int = 0) -> TrialRecord:
    """Length at which a growing uniform random word first synchronizes.

    Tracks the image set of the whole vertex set under the word read so
    far; non-synchronizable automata exist, so censoring at the cap is an
    expected occasional outcome. The word is read from ``COLOR_CHUNK``
    blocks, the last of which may run past the stopping step. Once the
    image holds two vertices, the rest of the word drives them as a coupled
    meeting, resumed from the step reached.
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


def _colors(rng, r: int):
    """Endless uniform colors from blocks of ``COLOR_CHUNK`` draws."""
    # a block is never None, so the sentinel never stops the stream
    blocks = iter(lambda: rng.integers(0, r, size=COLOR_CHUNK).tolist(), None)
    return itertools.chain.from_iterable(blocks)


def _coalesce(d: Dfa, cap: int, rng, starts) -> tuple[int, bool]:
    cols = d.out.T.tolist()
    positions = sorted(set(starts))
    colors = _colors(rng, d.r)
    t = 0
    while len(positions) > 2:
        if t == cap:
            return cap, True
        t += 1
        # zip stops at the last cluster, so each step takes one color per cluster
        positions = sorted({cols[c][x] for x, c in zip(positions, colors)})
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
    cols = d.out.T.tolist()
    colors = _colors(rng, d.r)
    image = range(d.n)
    for t, c in zip(range(1, cap + 1), colors):
        image = set(map(cols[c].__getitem__, image))
        if len(image) <= 2:
            # two points reading one word are a coupled meeting from step t; one has met
            return _meet_coupled(cols, min(image), max(image), cap, colors, t)
    return cap, True


def sample_meeting_independent_batch(
    d: Dfa, x: int, y: int, trials: int, cap: int, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized independent-meeting sampler for many trials on one DFA.

    Returns ``(taus, censored)`` arrays. Uses a single stream across all
    trials (per-step color blocks for the still-active trials), so it is
    deterministic for a fixed seed but not trial-replayable; use
    :func:`run_experiment` when per-trial replay matters.
    """
    rng = np.random.default_rng(seed)
    taus = np.zeros(trials, dtype=np.int64)
    censored = np.zeros(trials, dtype=bool)
    if x == y:
        return taus, censored
    out = d.out
    active = np.arange(trials)
    xs = np.full(trials, x)
    ys = np.full(trials, y)
    for t in range(1, cap + 1):
        colors = rng.integers(0, d.r, size=(active.size, 2))
        xs[active] = out[xs[active], colors[:, 0]]
        ys[active] = out[ys[active], colors[:, 1]]
        met = xs[active] == ys[active]
        taus[active[met]] = t
        active = active[~met]
        if active.size == 0:
            return taus, censored
    taus[active] = cap
    censored[active] = True
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


def run_trial(manifest: RunManifest, index: int, fixed_dfa: Dfa | None = None) -> TrialRecord:
    """Execute trial ``index`` of a manifest; fully determined by the manifest.

    ``fixed_dfa`` is the automaton at ``dfa_path``, read here when omitted.
    """
    derived = seed_split(manifest.master_seed, index, manifest.mode)
    rng = np.random.default_rng(derived)
    if manifest.dfa_policy == "fresh":
        d = generate_dfa(manifest.n, manifest.r, rng)
    else:
        d = fixed_dfa if fixed_dfa is not None else _read_fixed_dfa(manifest)
    cap = manifest.effective_cap
    mode = manifest.mode
    if mode in ("independent", "coupled"):
        if manifest.starts == "uniform":
            x, y = _draw_uniform_distinct_pair(rng, manifest.n)
        else:
            x, y = manifest.starts
        sampler = sample_meeting_independent if mode == "independent" else sample_meeting_coupled
        rec = sampler(d, x, y, cap, rng, trial=index)
    elif mode == "coalescing":
        rec = sample_coalescence(d, cap, rng, trial=index)
    else:
        rec = sample_sync(d, cap, rng, trial=index)
    rec.derived_seed = derived
    return rec


def _read_fixed_dfa(manifest: RunManifest) -> Dfa:
    d = parse_dfa(Path(manifest.dfa_path).read_text(encoding="utf-8"))
    if (d.n, d.r) != (manifest.n, manifest.r):
        raise ValueError("fixed DFA does not match the manifest dimensions")
    return d


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, then the DFA_MEET_THREADS variable, then usable CPUs.

    Usable CPUs are those of the process's affinity mask where the platform
    reports one, else the CPU count. A non-integer variable or a count
    below 1 is a ``ValueError`` naming its source.
    """
    source = f"workers={workers}"
    if workers is None:
        env = os.environ.get(THREADS_ENV_VAR)
        if not env:
            if hasattr(os, "sched_getaffinity"):
                return len(os.sched_getaffinity(0))
            return os.cpu_count() or 1
        source = f"{THREADS_ENV_VAR}={env}"
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"{source}: the worker count must be an integer") from None
    if workers < 1:
        raise ValueError(f"{source}: the worker count must be at least 1")
    return workers


def run_experiment(manifest: RunManifest, workers: int | None = None) -> list[TrialRecord]:
    """Run all trials of a manifest, in trial order, on a worker pool.

    Trials are seeded independently through :func:`seed_split`, so the
    output is byte-for-byte identical for any worker count. A fixed
    automaton is read once per call and sent to the workers.
    """
    workers = resolve_workers(workers)
    trials = manifest.trials
    fixed_dfa = _read_fixed_dfa(manifest) if manifest.dfa_policy == "fixed" else None
    trial = partial(run_trial, manifest, fixed_dfa=fixed_dfa)
    # Freeing one 4 MiB block raises glibc's mmap threshold to 4 MiB and its
    # trim threshold to 8 MiB, and forked workers inherit both. At the
    # defaults (128 KiB), a fresh n = 1000, r = 20 trial, whose DFA tables
    # are 160 KB each, would hand its pages back and fault them in again:
    # about 100 minor faults, and 15% of its time. Other allocators ignore it.
    np.empty(1 << 19)
    if workers == 1 or trials < 4 * workers:
        return [trial(i) for i in range(trials)]

    import multiprocessing as mp

    span = max(1, math.ceil(trials / (workers * 16)))
    with mp.Pool(workers) as pool:
        return list(pool.imap(trial, range(trials), chunksize=span))


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
