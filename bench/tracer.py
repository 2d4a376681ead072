"""In-memory span tracer that times public symgraph functions from outside.

The tracer replaces a public function with a timing wrapper everywhere a
caller looks it up: in every loaded ``symgraph`` module that binds the same
function object (``from .power import sym_power`` makes such a binding), or
on the class for methods.  ``uninstall`` puts the originals back.

Two kinds of wrapper exist:

* a *span* wrapper records ``(name, start, end, parent, pass_id)`` for each
  call, where ``parent`` is the index of the enclosing span or -1;
* a *tally* wrapper only adds to ``<name>.calls`` and ``<name>.s`` counters.
  It is meant for functions called about a million times, where one span per
  call would cost more than the call.  A tally is not a span, so its time
  stays in the enclosing span's self time.

A hook attached to a span wrapper runs after the call and records counters
from its arguments and result.  The hook runs inside a ``trace.hooks`` span,
a sibling of the call's span, so the enclosing span's self time excludes it.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

HOOK_SPAN = "trace.hooks"


class Tracer:
    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, nid: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[sid] = (nid, start, end, parent, self.pass_id)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` and return its result."""
        nid = self._name_id(name)
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, nid, start, time.perf_counter())

    def add(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, nid, start, perf())
            if hook is not None:
                self.call(HOOK_SPAN, hook, self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def tally_wrapper(self, name: str, fn):
        counters = self.counters
        calls, secs = name + ".calls", name + ".s"
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                counters[secs] += perf() - start
                counters[calls] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def wrap_function(self, module, attr: str, name: str, hook=None) -> None:
        """Wrap a module-level function in every symgraph module binding it."""
        original = getattr(module, attr)
        wrapper = self.span_wrapper(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "symgraph" and not mod_name.startswith("symgraph."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attr: str, name: str, hook=None, tally: bool = False) -> None:
        """Wrap a method (plain or static) on its class."""
        raw = cls.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        wrapper = self.tally_wrapper(name, fn) if tally else self.span_wrapper(name, fn, hook)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, staticmethod(wrapper) if is_static else wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- output ------------------------------------------------------------

    def finished_spans(self) -> list[tuple[int, float, float, int, int]]:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        return list(self.spans)

    def summary(self) -> dict[str, float]:
        """Counters plus ``<name>.calls``, ``.s`` and ``.self_s`` per span name."""
        out = dict(self.counters)
        out.update(aggregate(self.names, self.finished_spans()))
        return out


def self_times(spans) -> list[float]:
    """Each span's length minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def aggregate(names: list[str], spans) -> dict[str, float]:
    """Per span name: call count, inclusive seconds and self seconds.

    Inclusive seconds count only spans with no ancestor of the same name, so
    a function that calls itself is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for sid, (nid, start, end, parent, _) in enumerate(spans):
        name = names[nid]
        out[name + ".calls"] += 1
        out[name + ".self_s"] += selfs[sid]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != nid:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[name + ".s"] += end - start
    return dict(out)
