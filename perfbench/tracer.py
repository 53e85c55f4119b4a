"""Spans recorded around calls into dfa_meet, from outside the package.

``Tracer.install`` replaces every public function of the layer modules (and
the public methods of ``AuxChain``) with a wrapper that records a span, in
every ``dfa_meet`` module namespace that binds it, so calls between modules
are traced too. ``uninstall`` puts the originals back. Spans stay in memory
until the run ends. Forked pool workers inherit the wrappers but record
nothing: their work is measured by the serial replay instead.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

LAYERS = ("dfa", "seeds", "chains", "aux_chain", "fvtl", "simulate", "stats", "recipes", "cli")
BENCH_LAYER = "perfbench"


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run_id: str
    tag: str = ""
    probe: bool = False

    @property
    def dur(self) -> float:
        return self.end - self.start


def _tag(args) -> str:
    """Instance size of a call, from its first argument: ``n1000-r2``, ``n150``."""
    if not args:
        return ""
    first = args[0]
    if hasattr(first, "n") and hasattr(first, "r"):
        return f"n{first.n}-r{first.r}"
    if hasattr(first, "name") and isinstance(first.name, str):
        return first.name
    if hasattr(first, "size") and isinstance(first.size, int):
        return f"n{first.size}"
    return ""


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, layer: str = BENCH_LAYER, tag: str = "", probe: bool = False):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(sid, name, layer, time.perf_counter(), 0.0, parent, self.run_id, tag, probe)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            with self.span(name, layer, _tag(args)):
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layer modules, at every binding."""
        import dfa_meet
        from dfa_meet.aux_chain import AuxChain

        replace: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"dfa_meet.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    replace[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer)
        namespaces = [dfa_meet] + [sys.modules[f"dfa_meet.{layer}"] for layer in LAYERS]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replace:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, replace[id(obj)])
        for attr, obj in list(vars(AuxChain).items()):
            if inspect.isfunction(obj) and not attr.startswith("_"):
                self._saved.append((AuxChain, attr, obj))
                setattr(AuxChain, attr, self._wrap(obj, f"aux_chain.AuxChain.{attr}", "aux_chain"))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- queries -------------------------------------------------------

    def select(self, name: str, tag: str | None = None, run_prefix: str = "",
               parent_names: tuple[str, ...] | None = None) -> list[Span]:
        out = []
        for s in self.spans:
            if s.name != name or not s.run_id.startswith(run_prefix):
                continue
            if tag is not None and s.tag != tag:
                continue
            if parent_names is not None:
                parent = self.spans[s.parent].name if s.parent is not None else ""
                if parent not in parent_names:
                    continue
            out.append(s)
        return out

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children, per span."""
        own = [s.dur for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.dur
        return own

    def subtree(self, root: int) -> set[int]:
        children: dict[int, list[int]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s.sid)
        seen, todo = set(), [root]
        while todo:
            sid = todo.pop()
            seen.add(sid)
            todo.extend(children.get(sid, ()))
        return seen

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
