"""Reproducible Monte Carlo samplers for meeting, coalescence, and sync times.

Every stopping-time sampler consumes randomness from a single
``numpy.random.Generator`` in a frozen order, so a trial is replayable
from its derived seed alone and results are independent of worker count:

* pair walks draw colors in flat blocks of ``2 * COLOR_CHUNK`` (step-major,
  first walk then second walk within a step); coupled walks and the
  synchronization mode draw blocks of ``COLOR_CHUNK`` single colors;
* the coalescing mode draws one color per cluster per step, clusters
  ordered by increasing current position;
* uniform-random-distinct starts cost two integer draws (second shifted
  around the first);
* with a fresh automaton per trial, the automaton is generated from the
  trial stream before anything else.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dfa import Dfa, generate_dfa, parse_dfa
from .seeds import seed_split

COLOR_CHUNK = 4096
MODES = ("independent", "coupled", "coalescing", "sync")
THREADS_ENV_VAR = "DFA_MEET_THREADS"

CSV_HEADER = ["trial", "derived_seed", "mode", "n", "r", "x", "y", "tau", "censored"]


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
    ``"fixed"`` (a shared automaton from ``dfa_path``).
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
        if self.mode in ("coalescing", "sync"):
            # "uniform" is the untouched default; an explicit pair is an error.
            if self.starts not in (None, "uniform"):
                raise ValueError(f"mode {self.mode!r} starts from all vertices; set starts=None")
            self.starts = None
        elif self.starts != "uniform" and not (
            isinstance(self.starts, (tuple, list)) and len(self.starts) == 2
        ):
            raise ValueError(f"mode {self.mode!r} needs starts='uniform' or a fixed pair")
        if self.dfa_policy not in ("fresh", "fixed"):
            raise ValueError(f"unknown dfa_policy {self.dfa_policy!r}")
        if self.dfa_policy == "fixed" and self.dfa_path is None:
            raise ValueError("dfa_policy='fixed' requires dfa_path")
        if isinstance(self.starts, list):
            self.starts = tuple(self.starts)

    @property
    def effective_cap(self) -> int:
        return self.cap if self.cap is not None else default_cap(self.n)

    def as_dict(self) -> dict:
        d = asdict(self)
        if isinstance(d["starts"], tuple):
            d["starts"] = list(d["starts"])
        return d


def default_cap(n: int) -> int:
    """Step cap ``50 * n * ceil(ln n)``; hitting it signals an anomaly."""
    return 50 * n * math.ceil(math.log(n))


def _record(mode, d, x, y, tau, censored, seed, trial):
    derived = int(seed) if isinstance(seed, (int, np.integer)) else None
    return TrialRecord(
        trial=trial, derived_seed=derived, mode=mode, n=d.n, r=d.r,
        x=x, y=y, tau=tau, censored=censored,
    )


def _check_start(d: Dfa, v: int) -> None:
    if not 0 <= v < d.n:
        raise ValueError(f"start vertex {v} outside [0, {d.n})")


def sample_meeting_independent(d: Dfa, x: int, y: int, cap: int, seed, trial: int = 0) -> TrialRecord:
    """Meeting time of two walks driven by independent color streams.

    ``tau`` is the first round (0 counts) at which the walks share a
    vertex; reaching ``cap`` without meeting censors the trial.
    """
    _check_start(d, x)
    _check_start(d, y)
    rng = np.random.default_rng(seed)
    tau, censored = _meet_independent(d.out.ravel().tolist(), d.r, x, y, cap, rng)
    return _record("independent", d, x, y, tau, censored, seed, trial)


def sample_meeting_coupled(d: Dfa, x: int, y: int, cap: int, seed, trial: int = 0) -> TrialRecord:
    """Meeting time of two walks reading the same random word."""
    _check_start(d, x)
    _check_start(d, y)
    rng = np.random.default_rng(seed)
    tau, censored = _meet_coupled(d.out.ravel().tolist(), d.r, x, y, cap, rng)
    return _record("coupled", d, x, y, tau, censored, seed, trial)


def sample_coalescence(d: Dfa, cap: int, seed, trial: int = 0, walkers=None) -> TrialRecord:
    """Time for independent walks, merged on meeting, to become one cluster.

    Walks start from every vertex; ``walkers`` restricts the start set
    (debug mode: with two walkers this has the law of the independent
    meeting time). Clusters draw colors in increasing order of their
    current position.
    """
    rng = np.random.default_rng(seed)
    tau, censored = _coalesce(d, cap, rng, walkers)
    return _record("coalescing", d, None, None, tau, censored, seed, trial)


def sample_sync(d: Dfa, cap: int, seed, trial: int = 0) -> TrialRecord:
    """Length at which a growing uniform random word first synchronizes.

    Tracks the image set of the whole vertex set under the word read so
    far; non-synchronizable automata exist, so censoring at the cap is an
    expected occasional outcome.
    """
    rng = np.random.default_rng(seed)
    tau, censored = _sync(d, cap, rng)
    return _record("sync", d, None, None, tau, censored, seed, trial)


def _meet_independent(out_flat: list, r: int, x: int, y: int, cap: int, rng) -> tuple[int, bool]:
    if x == y:
        return 0, False
    t = 0
    while t < cap:
        m = min(COLOR_CHUNK, cap - t)
        colors = rng.integers(0, r, size=2 * m).tolist()
        idx = 0
        for _ in range(m):
            x = out_flat[x * r + colors[idx]]
            y = out_flat[y * r + colors[idx + 1]]
            idx += 2
            t += 1
            if x == y:
                return t, False
    return cap, True


def _meet_coupled(out_flat: list, r: int, x: int, y: int, cap: int, rng) -> tuple[int, bool]:
    if x == y:
        return 0, False
    t = 0
    while t < cap:
        m = min(COLOR_CHUNK, cap - t)
        colors = rng.integers(0, r, size=m).tolist()
        for c in colors:
            x = out_flat[x * r + c]
            y = out_flat[y * r + c]
            t += 1
            if x == y:
                return t, False
    return cap, True


def _coalesce(d: Dfa, cap: int, rng, walkers=None) -> tuple[int, bool]:
    positions = np.arange(d.n) if walkers is None else np.unique(np.asarray(walkers))
    out = d.out
    if positions.size == 1:
        return 0, False
    for t in range(1, cap + 1):
        colors = rng.integers(0, d.r, size=positions.size)
        positions = np.unique(out[positions, colors])
        if positions.size == 1:
            return t, False
    return cap, True


def _image_step(out: np.ndarray, image: np.ndarray, color: int) -> np.ndarray:
    return np.unique(out[image, color])


def sync_image_sizes(d: Dfa, letters) -> list[int]:
    """Sizes of the whole-vertex-set image along a word, ``|S_0|, |S_1|, ...``."""
    image = np.arange(d.n)
    sizes = [int(image.size)]
    for c in letters:
        image = _image_step(d.out, image, int(c))
        sizes.append(int(image.size))
    return sizes


def _sync(d: Dfa, cap: int, rng) -> tuple[int, bool]:
    image = np.arange(d.n)
    out = d.out
    t = 0
    while t < cap:
        if image.size == 1:
            return t, False
        m = min(COLOR_CHUNK, cap - t)
        colors = rng.integers(0, d.r, size=m).tolist()
        for c in colors:
            image = _image_step(out, image, c)
            t += 1
            if image.size == 1:
                return t, False
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


def sample_kingman_reference(n: int, seed, size: int | None = None):
    """Sum of independent exponentials of rate ``i*(i-1)/2``, ``i = 2..n``.

    This is the coalescent limit law of the coalescence time in units of
    ``n``, truncated at the initial number of walkers. Returns a scalar,
    or an array of ``size`` independent replicas.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    count = 1 if size is None else size
    total = np.zeros(count)
    for i in range(2, n + 1):
        total += rng.exponential(scale=2.0 / (i * (i - 1)), size=count)
    return float(total[0]) if size is None else total


def _draw_uniform_distinct_pair(rng, n: int) -> tuple[int, int]:
    x = int(rng.integers(0, n))
    y = int(rng.integers(0, n - 1))
    return x, y + (y >= x)


def run_trial(manifest: RunManifest, index: int, fixed_dfa: Dfa | None = None) -> TrialRecord:
    """Execute trial ``index`` of a manifest; fully determined by the manifest."""
    derived = seed_split(manifest.master_seed, index, manifest.mode)
    rng = np.random.default_rng(derived)
    if manifest.dfa_policy == "fresh":
        d = generate_dfa(manifest.n, manifest.r, rng)
    else:
        d = fixed_dfa if fixed_dfa is not None else _load_dfa_cached(manifest.dfa_path)
        if (d.n, d.r) != (manifest.n, manifest.r):
            raise ValueError("fixed DFA does not match the manifest dimensions")
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


_WORKER_MANIFEST: RunManifest | None = None
_WORKER_DFA: Dfa | None = None
_DFA_CACHE: dict[str, Dfa] = {}


def _load_dfa_cached(path: str) -> Dfa:
    if path not in _DFA_CACHE:
        _DFA_CACHE[path] = parse_dfa(Path(path).read_text())
    return _DFA_CACHE[path]


def _init_worker(manifest: RunManifest):
    global _WORKER_MANIFEST, _WORKER_DFA
    _WORKER_MANIFEST = manifest
    _WORKER_DFA = None
    if manifest.dfa_policy == "fixed":
        _WORKER_DFA = _load_dfa_cached(manifest.dfa_path)


def _run_range(bounds: tuple[int, int]) -> list[TrialRecord]:
    start, stop = bounds
    return [run_trial(_WORKER_MANIFEST, i, _WORKER_DFA) for i in range(start, stop)]


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, then the DFA_MEET_THREADS variable, then CPU count."""
    if workers is not None:
        return max(1, workers)
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


def run_experiment(manifest: RunManifest, workers: int | None = None) -> list[TrialRecord]:
    """Run all trials of a manifest, in trial order, on a worker pool.

    Trials are seeded independently through :func:`seed_split`, so the
    output is byte-for-byte identical for any worker count.
    """
    workers = resolve_workers(workers)
    trials = manifest.trials
    if trials == 0:
        return []
    if manifest.dfa_policy == "fixed":
        _load_dfa_cached(manifest.dfa_path)  # fail fast on a bad file
    if workers == 1 or trials < 4 * workers:
        _init_worker(manifest)
        return _run_range((0, trials))

    import multiprocessing as mp

    span = max(1, math.ceil(trials / (workers * 16)))
    chunks = [(lo, min(lo + span, trials)) for lo in range(0, trials, span)]
    records: list[TrialRecord | None] = [None] * trials
    with mp.Pool(workers, initializer=_init_worker, initargs=(manifest,)) as pool:
        for batch in pool.imap_unordered(_run_range, chunks):
            for rec in batch:
                records[rec.trial] = rec
    return records  # type: ignore[return-value]


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


def read_records_csv(path) -> list[TrialRecord]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        records = []
        for row in reader:
            records.append(TrialRecord(
                trial=int(row[0]),
                derived_seed=int(row[1]) if row[1] else None,
                mode=row[2],
                n=int(row[3]),
                r=int(row[4]),
                x=int(row[5]) if row[5] else None,
                y=int(row[6]) if row[6] else None,
                tau=int(row[7]),
                censored=bool(int(row[8])),
            ))
    return records
