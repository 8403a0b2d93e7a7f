"""Outside-in layer tracing for the benchmark.

The tracer wraps public functions of the program by name, from outside:
each wrapped call becomes a span (name, start, end, parent span, frame id)
kept in memory, plus counters read off the call's arguments and result.
Two very hot functions (sub-pel interpolation and the Laplacian apply) are
"leaves": they are counted and timed into their enclosing span instead of
getting a span each, which keeps the trace small and the overhead low.

A target that no longer exists (renamed, deleted) is skipped and listed in
``Tracer.missing``; its metrics then read 0.  Nothing under ``src/`` changes.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "graphdenoise"
_EXTRACT_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError,
                   OSError)


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.attr`` or ``module.cls.attr``.

    ``name`` is the span (or leaf) name, or a callable deriving it from the
    call's arguments.  ``counts(args, kwargs, result)`` returns counters
    keyed by full metric name; ``attrs(args, kwargs)`` labels the span.
    """

    module: str
    attr: str
    name: str | Callable
    cls: str | None = None
    leaf: bool = False
    counts: Callable | None = None
    attrs: Callable | None = None

    @property
    def qualname(self) -> str:
        return ".".join(p for p in (self.module, self.cls, self.attr) if p)


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    frame: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    # leaf name -> [calls, seconds, {counter: total}]
    leaves: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "frame": self.frame,
                "attrs": self.attrs, "counts": self.counts,
                "leaves": {k: {"calls": v[0], "s": v[1], **v[2]}
                           for k, v in self.leaves.items()}}


class Tracer:
    """Span recorder.  Records only while a frame is open (``frame()``)."""

    def __init__(self):
        self.spans: list[Span] = []   # in close order: children first
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._undo: list[tuple] = []
        self._frame_id: int | None = None
        self._ids = itertools.count()

    # -- recording ---------------------------------------------------------
    def open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        s = Span(id=next(self._ids), name=name,
                 start=time.perf_counter(), parent=parent, frame=self._frame_id,
                 attrs=attrs or {})
        self._stack.append(s)
        return s

    def close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(s)

    @contextlib.contextmanager
    def frame(self, frame_id: int):
        """One traced frame, itself recorded as a span named ``frame``."""
        self._frame_id = frame_id
        s = self.open("frame")
        try:
            yield s
        finally:
            self.close(s)
            self._frame_id = None

    @property
    def active(self) -> bool:
        return self._frame_id is not None

    # -- wrapping ----------------------------------------------------------
    def install(self, targets) -> None:
        for t in targets:
            mod = sys.modules.get(t.module)
            owner = getattr(mod, t.cls, None) if (mod and t.cls) else mod
            orig = vars(owner).get(t.attr) if owner is not None else None
            if not callable(orig):
                self.missing.append(t.qualname)
                continue
            wrapper = self._wrap(orig, t)
            if t.cls:
                self._replace(owner, t.attr, wrapper)
                continue
            # `from .x import f` copies the reference: patch every module of
            # the package that holds this very function object
            for m in [m for n, m in list(sys.modules.items())
                      if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        self._replace(m, k, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, t: Target):
        tracer = self
        clock = time.perf_counter

        if t.leaf:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                if not tracer._stack:
                    return fn(*args, **kwargs)
                t0 = clock()
                result = fn(*args, **kwargs)
                dt = clock() - t0
                acc = tracer._stack[-1].leaves.setdefault(t.name, [0, 0.0, {}])
                acc[0] += 1
                acc[1] += dt
                for k, v in _extract(t.counts, args, kwargs, result).items():
                    acc[2][k] = acc[2].get(k, 0) + v
                return result
            return leaf

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = t.name if isinstance(t.name, str) else _derive(t.name, args, kwargs)
            attrs = _extract(t.attrs, args, kwargs)
            s = tracer.open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(s)
            for k, v in _extract(t.counts, args, kwargs, result).items():
                s.counts[k] = s.counts.get(k, 0) + v
            return result
        return spanned


def _derive(fn, args, kwargs) -> str:
    try:
        return fn(args, kwargs)
    except _EXTRACT_ERRORS:
        return "unnamed"


def _extract(fn, *call) -> dict:
    if fn is None:
        return {}
    try:
        return fn(*call)
    except _EXTRACT_ERRORS:
        return {}


# ---------------------------------------------------------------------------
# Analysis

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus what its child spans and leaves cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start)
            - covered(children.get(s.id, ()), s.start, s.end)
            - sum(v[1] for v in s.leaves.values())
            for s in spans}


def inclusive_leaf_calls(spans) -> dict[int, dict[str, int]]:
    """Span id -> leaf calls in the span's whole subtree.

    ``spans`` must be in close order, so children precede parents.
    """
    incl: dict[int, dict[str, int]] = {}
    for s in spans:
        mine = incl.setdefault(s.id, {})
        for k, v in s.leaves.items():
            mine[k] = mine.get(k, 0) + v[0]
        if s.parent is not None:
            up = incl.setdefault(s.parent, {})
            for k, v in mine.items():
                up[k] = up.get(k, 0) + v
    return incl


def aggregate(spans) -> dict[str, float]:
    """Totals over all spans, keyed by metric name.

    For each span name N: ``N.s``, ``N.self_s``, ``N.calls`` and its
    counters; for each leaf L: ``L.s``, ``L.calls`` and its counters.  The
    ``frame`` spans themselves are not reported, their leaves are.
    """
    out: dict[str, float] = {}

    def add(k, v):
        out[k] = out.get(k, 0) + v

    selfs = self_times(spans)
    for s in spans:
        for k, v in s.leaves.items():
            add(f"{k}.calls", v[0])
            add(f"{k}.s", v[1])
            for ck, cv in v[2].items():
                add(ck, cv)
        if s.name == "frame":
            continue
        add(f"{s.name}.s", s.end - s.start)
        add(f"{s.name}.self_s", selfs[s.id])
        add(f"{s.name}.calls", 1)
        for k, v in s.counts.items():
            add(k, v)
    return out


def dump(path, spans, extra: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({**extra, "spans": [s.to_json() for s in spans]}, fh)
