"""Random deterministic finite automata as colored r-out-regular digraphs.

A DFA here is a vertex set ``{0, ..., n-1}``, a color alphabet
``{0, ..., r-1}``, and for every vertex ``x`` an injective map from colors to
target vertices. Equivalently it is a digraph in which every vertex has
exactly ``r`` out-edges with pairwise distinct targets, one per color.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

Word = Sequence[int]


class DfaError(Exception):
    """Invalid DFA construction or query."""


class DfaFormatError(DfaError):
    """Malformed serialized DFA."""


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
        if self.n < 2:
            raise DfaError(f"need at least 2 vertices, got n={self.n}")
        if not 2 <= self.r <= self.n:
            raise DfaError(f"need 2 <= r <= n, got r={self.r}, n={self.n}")
        out = np.ascontiguousarray(self.out, dtype=np.int64)
        if out.shape != (self.n, self.r):
            raise DfaError(f"out table has shape {out.shape}, expected {(self.n, self.r)}")
        if out.min() < 0 or out.max() >= self.n:
            raise DfaError("out table contains targets outside [0, n)")
        for x in range(self.n):
            if len(set(out[x].tolist())) != self.r:
                raise DfaError(f"one-to-one violated: vertex {x} has duplicate targets")
        out.setflags(write=False)
        object.__setattr__(self, "out", out)

    def __eq__(self, other):
        if not isinstance(other, Dfa):
            return NotImplemented
        return self.n == other.n and self.r == other.r and np.array_equal(self.out, other.out)


@dataclass
class DfaDiagnostics:
    """Structural counts from the reversed adjacency of a DFA.

    ``common_in_neighbor_pairs`` counts unordered pairs of distinct vertices
    sharing at least one in-neighbor; ``max_common_in_neighbors`` is the
    largest number of shared in-neighbors over such pairs.
    ``in_degree_histogram`` maps in-degree to vertex count; its
    degree-weighted sum equals the edge count ``r * n``.
    """

    common_in_neighbor_pairs: int
    max_common_in_neighbors: int
    in_degree_histogram: dict[int, int]


def generate_dfa(n: int, r: int, seed) -> Dfa:
    """Draw a DFA uniformly at random among all one-to-one out-maps.

    Every vertex independently picks an ordered ``r``-tuple of distinct
    targets, uniformly over the ``n * (n-1) * ... * (n-r+1)`` possibilities.
    Sampling uses a partial Fisher-Yates pass over a shared scratch array
    (exact, O(r) per vertex after the swaps are undone).

    Parameters
    ----------
    n, r : int
        Vertex count and alphabet size, ``2 <= r <= n``.
    seed : int or numpy.random.Generator
        Seed for the draw; a fixed integer seed gives a bitwise-identical
        DFA on every call.
    """
    if n < 2:
        raise DfaError(f"need at least 2 vertices, got n={n}")
    if not 2 <= r <= n:
        raise DfaError(f"need 2 <= r <= n, got r={r}, n={n}")
    rng = np.random.default_rng(seed)
    # Swap positions are drawn column-by-column so the stream layout is a
    # frozen part of the generator contract.
    jumps = [rng.integers(k, n, size=n).tolist() for k in range(r)]
    out = np.empty((n, r), dtype=np.int64)
    scratch = list(range(n))
    for v in range(n):
        for k in range(r):
            j = jumps[k][v]
            scratch[k], scratch[j] = scratch[j], scratch[k]
            out[v, k] = scratch[k]
        for k in range(r - 1, -1, -1):
            j = jumps[k][v]
            scratch[k], scratch[j] = scratch[j], scratch[k]
    return Dfa(n=n, r=r, out=out)


def apply_word(d: Dfa, v: int, w: Word) -> int:
    """Return the vertex reached from ``v`` by reading ``w`` left to right."""
    if not 0 <= v < d.n:
        raise DfaError(f"vertex {v} outside [0, {d.n})")
    out = d.out
    for c in w:
        if not 0 <= c < d.r:
            raise DfaError(f"letter {c} outside [0, {d.r})")
        v = int(out[v, c])
    return v


def diagnostics(d: Dfa) -> DfaDiagnostics:
    """Exact common-in-neighbor and in-degree counts.

    Any two distinct targets of the same vertex ``z`` share ``z`` as an
    in-neighbor, so shared-in-neighbor multiplicities are accumulated by
    scanning each out-neighborhood once.
    """
    pair_counts: Counter = Counter()
    for z in range(d.n):
        targets = sorted(d.out[z].tolist())
        for i in range(d.r):
            a = targets[i]
            for j in range(i + 1, d.r):
                pair_counts[(a, targets[j])] += 1
    in_degrees = np.bincount(d.out.ravel(), minlength=d.n)
    histogram = Counter(in_degrees.tolist())
    return DfaDiagnostics(
        common_in_neighbor_pairs=len(pair_counts),
        max_common_in_neighbors=max(pair_counts.values(), default=0),
        in_degree_histogram=dict(sorted(histogram.items())),
    )


def serialize_dfa(d: Dfa) -> str:
    """Serialize to the JSON text format ``{"n":..., "r":..., "out":[[...]]}``.

    Vertex and color indices are 0-based in the serialized form.
    """
    return json.dumps({"n": d.n, "r": d.r, "out": d.out.tolist()})


def _is_json_int(value) -> bool:
    # JSON true/false decode to bool, which is an int subclass
    return isinstance(value, int) and not isinstance(value, bool)


def parse_dfa(text: str) -> Dfa:
    """Parse the JSON text format, rejecting structural and invariant errors."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DfaFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DfaFormatError("top-level value must be an object")
    for key in ("n", "r", "out"):
        if key not in obj:
            raise DfaFormatError(f"missing field {key!r}")
    n, r, rows = obj["n"], obj["r"], obj["out"]
    if not _is_json_int(n) or not _is_json_int(r):
        raise DfaFormatError("fields 'n' and 'r' must be integers")
    if n < 2 or not 2 <= r <= n:
        raise DfaFormatError(f"invalid sizes n={n}, r={r}: need n >= 2 and 2 <= r <= n")
    if not isinstance(rows, list) or len(rows) != n:
        got = len(rows) if isinstance(rows, list) else type(rows).__name__
        raise DfaFormatError(f"'out' must list {n} rows, got {got}")
    out = np.empty((n, r), dtype=np.int64)
    for x, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != r:
            raise DfaFormatError(f"row {x}: expected {r} targets")
        for c, y in enumerate(row):
            if not _is_json_int(y) or not 0 <= y < n:
                raise DfaFormatError(f"row {x}, field {c}: target {y!r} outside [0, {n})")
            out[x, c] = y
        if len(set(row)) != r:
            raise DfaFormatError(f"row {x}: one-to-one violated (duplicate targets)")
    return Dfa(n=n, r=r, out=out)
