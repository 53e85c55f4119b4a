"""Random deterministic finite automata as colored r-out-regular digraphs.

A DFA here is a vertex set ``{0, ..., n-1}``, a color alphabet
``{0, ..., r-1}``, and for every vertex ``x`` an injective map from colors to
target vertices. Equivalently it is a digraph in which every vertex has
exactly ``r`` out-edges with pairwise distinct targets, one per color.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class DfaError(ValueError):
    """Invalid DFA construction or query."""


class DfaFormatError(DfaError):
    """Malformed serialized DFA."""


def _check_sizes(n: int, r: int) -> None:
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
    out : ndarray, shape (n, r)
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
        out = np.ascontiguousarray(self.out, dtype=np.int64)
        if out.shape != (self.n, self.r):
            raise DfaError(f"out table has shape {out.shape}, expected {(self.n, self.r)}")
        if out.min() < 0 or out.max() >= self.n:
            x, c = np.argwhere((out < 0) | (out >= self.n))[0]
            raise DfaError(f"row {x}, field {c}: target {out[x, c]} outside [0, {self.n})")
        ordered = np.sort(out, axis=1)
        repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if repeats.any():
            raise DfaError(f"row {repeats.argmax()}: one-to-one violated (duplicate targets)")
        out.setflags(write=False)
        object.__setattr__(self, "out", out)

    def __reduce__(self):
        # workers receive the automaton by pickle; rebuilding keeps it checked and read-only
        return Dfa, (self.n, self.r, self.out)

    def __eq__(self, other):
        if not isinstance(other, Dfa):
            return NotImplemented
        return self.n == other.n and self.r == other.r and np.array_equal(self.out, other.out)


def generate_dfa(n: int, r: int, seed) -> Dfa:
    """Draw a DFA uniformly at random among all one-to-one out-maps.

    Every vertex independently picks an ordered ``r``-tuple of distinct
    targets, uniformly over the ``n * (n-1) * ... * (n-r+1)`` possibilities,
    by the first ``r`` swaps of a Fisher-Yates shuffle of ``0..n-1``. Swap
    ``k`` exchanges position ``k`` with a drawn jump ``j_k`` in ``[k, n)``.
    Before swap ``k`` only an earlier swap with the same jump can have moved
    position ``j_k``, since that swap's other position is below ``k``. So a
    vertex whose ``r`` jumps are pairwise distinct is its own target row,
    ``out[x, k] = j_k``, and one row-wise sort of the jumps finds the
    vertices that hold a repeated jump.

    Only those vertices run the swaps, all at once, in a compact row of
    ``2 * r`` slots: position ``p < r`` is slot ``p``, and a jump ``j >= r``
    is slot ``r`` plus the rank of its first copy among the row's sorted
    jumps, so a repeated jump finds its earlier swap. That is ``O(r)`` numpy
    passes and ``O(n * r * log r)`` work in total.

    Parameters
    ----------
    n, r : int
        Vertex count and alphabet size, ``2 <= r <= n``.
    seed : int or numpy.random.Generator
        Seed for the draw; a fixed integer seed, at least 0, gives a
        bitwise-identical DFA on every call.
    """
    _check_sizes(n, r)
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    # Swap positions are drawn column-by-column so the stream layout is a
    # frozen part of the generator contract.
    jumps = np.column_stack([rng.integers(k, n, size=n) for k in range(r)])
    ranked = np.sort(jumps, axis=1)
    same = ranked[:, 1:] == ranked[:, :-1]
    # rows of distinct jumps are already their targets; the rest run the swaps
    redo = np.flatnonzero(same.any(axis=1))
    if redo.size:
        m = redo.size
        cols = np.arange(r)
        rows = np.arange(0, m * r, r)[:, None]
        picked = jumps[redo]
        order = np.argsort(picked, axis=1)
        # rank of each sorted jump's first copy in its row
        first = np.zeros((m, r), dtype=np.int64)
        first[:, 1:] = np.where(same[redo], 0, cols[1:])
        np.maximum.accumulate(first, axis=1, out=first)
        rank = np.empty((m, r), dtype=np.int64)
        rank.ravel()[order + rows] = first
        # flat index, in the (m, 2r) scratch, of the slot swap k exchanges with slot k
        there = np.where(picked < r, picked, rank + r) + 2 * rows

        scratch = np.empty((m, 2 * r), dtype=np.int64)
        scratch[:, :r] = cols
        scratch[:, r:] = ranked[redo]
        flat = scratch.ravel()
        # swap k only touches slot k and slots past it, so column k is final after it
        for k in range(r):
            moved = flat[there[:, k]]
            flat[there[:, k]] = scratch[:, k]
            scratch[:, k] = moved
        jumps[redo] = scratch[:, :r]
    return Dfa(n=n, r=r, out=jumps)


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
        for c, y in enumerate(row):
            if not _is_json_int(y) or not -(2**63) <= y < 2**63:
                raise DfaFormatError(f"row {x}, field {c}: target {y!r} is not a 64-bit integer")
    try:
        return Dfa(n=n, r=r, out=np.array(rows, dtype=np.int64))
    except DfaError as exc:
        raise DfaFormatError(str(exc)) from exc
