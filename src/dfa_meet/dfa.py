"""Random deterministic finite automata as colored r-out-regular digraphs.

A DFA here is a vertex set ``{0, ..., n-1}``, a color alphabet
``{0, ..., r-1}``, and for every vertex ``x`` an injective map from colors to
target vertices. Equivalently it is a digraph in which every vertex has
exactly ``r`` out-edges with pairwise distinct targets, one per color.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .seeds import _is_integer, check_seed


class DfaError(ValueError):
    """Invalid DFA construction or query."""


class DfaFormatError(DfaError):
    """Malformed serialized DFA."""


def _free_block(nbytes: int) -> None:
    """Allocate and free one block of ``nbytes``, at most just under 32 MiB.

    Freeing an mmapped block raises glibc's mmap threshold to its size, up
    to 32 MiB on 64-bit (a larger block raises nothing), and its trim
    threshold to twice that; forked workers inherit both. At the defaults
    (128 KiB), a fresh n = 1000, r = 20 trial, whose DFA tables are 160 KB
    each, would hand its pages back and fault them in again: about 100
    minor faults, and 15% of its time; so would each ``n x n`` temporary of
    a pair-chain step. The thresholds are process-wide, and other
    allocators ignore the block.
    """
    np.empty(min(nbytes, (32 << 20) - (64 << 10)), dtype=np.uint8)


def _check_sizes(n: int, r: int) -> None:
    if not (_is_integer(n) and _is_integer(r)):
        raise DfaError(f"sizes must be integers, got n={n!r}, r={r!r}")
    if n < 2 or not 2 <= r <= n:
        raise DfaError(f"invalid sizes n={n}, r={r}: need n >= 2 and 2 <= r <= n")


@dataclass(eq=False)
class Dfa:
    """Colored r-out-regular digraph on n vertices.

    Parameters
    ----------
    n : int
        Number of vertices, at least 2.
    r : int
        Alphabet size, with ``2 <= r <= n``.
    out : array of integers, shape (n, r)
        ``out[x, c]`` is the target of the color-``c`` edge leaving ``x``.
        For each ``x`` the ``r`` targets must be pairwise distinct.

    The instance is immutable after construction and safe for concurrent
    reads.
    """

    n: int
    r: int
    out: np.ndarray = field(repr=False)

    def __post_init__(self):
        _check_sizes(self.n, self.r)
        self.n, self.r = int(self.n), int(self.r)
        out = np.asarray(self.out)
        if out.dtype.kind not in "iu":
            raise DfaError(f"out table has dtype {out.dtype}, expected integers")
        if out.shape != (self.n, self.r):
            raise DfaError(f"out table has shape {out.shape}, expected {(self.n, self.r)}")
        if out.dtype == np.uint64 and out.max() > np.iinfo(np.int64).max:
            x, c = np.argwhere(out > np.iinfo(np.int64).max)[0]
            raise DfaError(f"row {x}, field {c}: target {out[x, c]} is not a 64-bit integer")
        out = np.ascontiguousarray(out, dtype=np.int64)
        _check_tables(out[None], self.n)
        out.setflags(write=False)
        object.__setattr__(self, "out", out)

    def __reduce__(self):
        # workers receive the automaton by pickle; rebuilding keeps it checked and read-only
        return Dfa, (self.n, self.r, self.out)

    def __eq__(self, other):
        if not isinstance(other, Dfa):
            return NotImplemented
        return self.n == other.n and self.r == other.r and np.array_equal(self.out, other.out)


# While r**2 <= _COMPARE_R2_PER_N * n, repeats are found by comparing the
# array with itself shifted by d = 1, ..., r-1 rows, r**2 N / 2 compares
# along the columns; beyond, all r N entries are sorted once, on keys that
# widen with n. Timed on whole batches as a run makes them, the compare
# scan was the faster up to r of about 24 at n = 100, 50 at n = 300, 72 at
# n = 1000 and 130 at n = 3000 and 10**4.
_COMPARE_R2_PER_N = 5


def _repeats(cols: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries of an ``(r, N)`` array of values in ``[0, n)`` that repeat
    an earlier entry of their column.

    Returns the flat index of each such entry ``(k, x)`` and of its last
    earlier copy ``(l, x)``, ``l < k``, in the C-order layout of ``cols``.
    """
    r, m = cols.shape
    if r * r <= _COMPARE_R2_PER_N * n:
        narrow = cols.astype(np.min_scalar_type(n - 1), order="C")
        repeated = np.zeros((r, m), dtype=bool)
        for d in range(1, r):
            repeated[d:] |= narrow[d:] == narrow[:-d]
        at = np.flatnonzero(repeated)
        k, x = np.divmod(at, m)
        earlier = narrow[:, x] == narrow.ravel()[at]
        earlier &= np.arange(r)[:, None] < k
        return at, (r - 1 - earlier[::-1].argmax(axis=0)) * m + x
    # sorted by column, then value, then row, a repeat follows its last earlier copy
    vbits, rbits = (n - 1).bit_length(), (r - 1).bit_length()
    keys = (np.arange(m) << vbits | cols) << rbits | np.arange(r)[:, None]
    keys = np.sort(keys.astype(np.uint32 if m << vbits + rbits <= 1 << 32 else np.int64), axis=None)
    entry = keys >> rbits
    dup = np.flatnonzero(entry[1:] == entry[:-1])
    x = (entry[dup] >> vbits).astype(np.intp)
    row = (1 << rbits) - 1
    return (keys[dup + 1] & row) * m + x, (keys[dup] & row) * m + x


def _check_tables(tables: np.ndarray, n: int) -> None:
    """Range and one-to-one checks of a ``(k, n, r)`` stack of out-tables.

    An error names the row within its table, and the table when ``k > 1``.
    """
    k = len(tables)
    rows = tables.reshape(-1, tables.shape[-1])

    def where(i):
        b, x = divmod(int(i), n)
        return f"table {b}, row {x}" if k > 1 else f"row {x}"

    if rows.min() < 0 or rows.max() >= n:
        i, c = np.argwhere((rows < 0) | (rows >= n))[0]
        raise DfaError(f"{where(i)}, field {c}: target {rows[i, c]} outside [0, {n})")
    dup = _repeats(rows.T, n)[0]
    if dup.size:
        raise DfaError(f"{where((dup % len(rows)).min())}: one-to-one violated (duplicate targets)")


def generate_dfa(n: int, r: int, seed) -> Dfa:
    """Draw a DFA uniformly at random among all one-to-one out-maps.

    Every vertex independently picks an ordered ``r``-tuple of distinct
    targets, uniformly over the ``n * (n-1) * ... * (n-r+1)`` possibilities,
    by the first ``r`` swaps of a Fisher-Yates shuffle of ``0..n-1``. Swap
    ``k`` exchanges position ``k`` with a drawn jump ``j_k`` in ``[k, n)``;
    the jumps of swap ``k`` are drawn for all vertices at once, one column
    per swap, in the order of ``k``. Each target follows from the jumps
    without running the swaps, by passes along all vertices at once (see
    :func:`_resolve_swaps`), so a vertex costs about ``O(r log r)``.

    Parameters
    ----------
    n, r : int
        Vertex count and alphabet size, ``2 <= r <= n``.
    seed : int or numpy.random.Generator
        Seed for the draw; a fixed integer seed, at least 0, gives a
        bitwise-identical DFA on every call.
    """
    return _generate_dfas(n, r, [seed])[0]


def _generate_dfas(n: int, r: int, seeds) -> list[Dfa]:
    """One :func:`generate_dfa` automaton per seed, the tables built and checked as one stack.

    Each seed's stream gives its jump columns exactly as it would alone, so
    the automata are those of one call per seed. The batch is one ``(r, N)``
    array whose row ``k`` holds the ``k``-th jump column of every table, so
    each pass runs along the ``N = len(seeds) * n`` vertices of the batch.
    :func:`_check_tables` checks the result once for all automata, and one
    transposed copy makes the ``(len(seeds), n, r)`` stack; they hold
    read-only views of it.
    """
    _check_sizes(n, r)
    n, r = int(n), int(r)
    rngs = []
    for seed in seeds:
        check_seed(seed)
        rngs.append(np.random.default_rng(seed))
    # Swap positions are drawn column-by-column so the stream layout is a
    # frozen part of the generator contract. Each column goes straight into
    # the batch, so no second copy of it is held; the batch is made after the
    # first draw, so a size too large to allocate fails there, as it always has.
    draws = (rng.integers(k, n, size=n) for k in range(r) for rng in rngs)
    first = next(draws)
    jumps = np.empty((r, len(rngs) * n), dtype=np.int64)
    for row, column in zip(jumps.reshape(-1, n), itertools.chain([first], draws)):
        row[...] = column
    _resolve_swaps(jumps, n)
    # checked as a view of the columns, which the check reads along, then copied
    tables = jumps.reshape(r, len(rngs), n).transpose(1, 2, 0)
    _check_tables(tables, n)
    tables = np.ascontiguousarray(tables)
    tables.setflags(write=False)
    dfas = []
    for out in tables:
        d = Dfa.__new__(Dfa)
        d.n, d.r, d.out = n, r, out
        dfas.append(d)
    return dfas


def _resolve_swaps(jumps: np.ndarray, n: int) -> None:
    """Turn drawn jumps, shape ``(r, N)`` with ``jumps[k, x]`` the jump ``j_k``
    of vertex ``x``, into its targets ``out[x, k]``, in place, running no swap.

    The swaps before swap ``k`` exchange positions below ``k`` with their
    jumps. So position ``j_k >= k`` still holds ``j_k``, and ``out[x, k] =
    j_k``, unless an earlier jump hit it. If one did, the last such swap
    ``l`` left there ``V(l)``, what position ``l`` held just before swap
    ``l``, and ``out[x, k] = V(l)``. ``V(p) = p`` unless a jump below ``r``
    hit position ``p``, so one pass per swap ``i`` moves ``V(i)`` to the
    position below ``r`` that its jump hits, if any; the last hitter wins.
    Finding the repeats costs about ``O(r log r)`` per vertex at large ``r``
    (see :func:`_repeats`), and the passes ``O(r)`` per vertex.
    """
    r, m = jumps.shape
    at, before = _repeats(jumps, n)
    if not at.size:
        return
    flat = jumps.ravel()
    # held[p * m + x]: what position p < r of vertex x holds; V(p) once swap p is due
    held = np.repeat(np.arange(r, dtype=np.min_scalar_type(r - 1)), m)
    hit = np.flatnonzero(flat < r)
    bounds = np.searchsorted(hit, np.arange(r) * m)
    dst = hit + (flat[hit] - np.repeat(np.arange(r), np.diff(bounds, append=hit.size))) * m
    # swap r - 1 can only hit its own position, so it moves nothing
    for a, b in zip(bounds[:-1], bounds[1:]):
        held[dst[a:b]] = held[hit[a:b]]
    flat[at] = held[before]


def serialize_dfa(d: Dfa) -> str:
    """Serialize to the JSON text format ``{"n":..., "r":..., "out":[[...]]}``.

    Vertex and color indices are 0-based in the serialized form.
    """
    return json.dumps({"n": d.n, "r": d.r, "out": d.out.tolist()})


def _is_json_int(value) -> bool:
    # JSON true/false decode to bool, which is an int subclass
    return isinstance(value, int) and not isinstance(value, bool)


def parse_dfa(text: str) -> Dfa:
    """Parse the JSON text format; the :class:`Dfa` constructor checks the automaton."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DfaFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise DfaFormatError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise DfaFormatError("top-level value must be an object")
    for key in ("n", "r", "out"):
        if key not in obj:
            raise DfaFormatError(f"missing field {key!r}")
    n, r, rows = obj["n"], obj["r"], obj["out"]
    if not _is_json_int(n) or not _is_json_int(r):
        raise DfaFormatError("fields 'n' and 'r' must be integers")
    if not isinstance(rows, list) or len(rows) != n:
        got = len(rows) if isinstance(rows, list) else type(rows).__name__
        raise DfaFormatError(f"'out' must list {n} rows, got {got}")
    for x, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != r:
            raise DfaFormatError(f"row {x}: expected {r} targets")
    # one pass checks the types and numpy the int64 range; the loop only words an error
    out = None
    if set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
        try:
            out = np.array(rows, dtype=np.int64)
        except OverflowError:
            pass
    if out is None:
        for x, row in enumerate(rows):
            for c, y in enumerate(row):
                if not _is_json_int(y) or not -(2**63) <= y < 2**63:
                    raise DfaFormatError(f"row {x}, field {c}: target {y!r} is not a 64-bit integer")
    try:
        return Dfa(n=n, r=r, out=out)
    except DfaError as exc:
        raise DfaFormatError(str(exc)) from exc
