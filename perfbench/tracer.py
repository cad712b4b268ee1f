"""In-memory spans around fluxbound's public functions.

A Tracer wraps a function and installs the wrapper in every loaded
fluxbound module that holds the original, so calls through names bound by
`from .linalg import eigh` are seen as well as calls through the defining
module.  Each call becomes a span (name, start, end, parent).  Spans stay
in typed arrays until the run ends; a layer's self time is its spans'
durations minus the time their direct children cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # calls counted without a span, keyed by (name, enclosing span name)
        self.counts: Counter = Counter()
        self._targets: list = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def span(self, fn, name: str, name_of=None):
        """Wrap fn so each call records a span.

        name_of, if given, maps the call's arguments to the span name, for
        layers whose cost depends on an argument.
        """
        fixed = self.name_id(name)
        open_, close, name_id = self.open, self.close, self.name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = open_(fixed if name_of is None
                        else name_id(name_of(*args, **kwargs)))
            try:
                return fn(*args, **kwargs)
            finally:
                close(sid)

        self._targets.append((fn, wrapper))

    def count(self, fn, name: str, inside: str):
        """Wrap fn so calls made directly under an `inside` span are
        counted; for functions too cheap to carry a span of their own."""
        inside_id = self.name_id(inside)
        names, stack, counts = self.name, self._stack, self.counts
        key = (name, inside)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack[-1] >= 0 and names[stack[-1]] == inside_id:
                counts[key] += 1
            return fn(*args, **kwargs)

        self._targets.append((fn, wrapper))

    def install(self) -> list:
        """Replace every wrapped function in the fluxbound modules; returns
        what uninstall() needs to put the originals back."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fluxbound" or n.startswith("fluxbound.")]
        patched = []
        for original, wrapper in self._targets:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        return patched

    @staticmethod
    def uninstall(patched: list) -> None:
        for module, attr, original in patched:
            setattr(module, attr, original)

    def _arrays(self, lo: int, hi: int):
        names = np.frombuffer(self.name, dtype=np.intc)[lo:hi]
        parents = np.frombuffer(self.parent, dtype=np.intc)[lo:hi]
        duration = (np.frombuffer(self.end)[lo:hi]
                    - np.frombuffer(self.start)[lo:hi])
        return names, parents, duration

    def layer_totals(self, lo: int, hi: int) -> dict:
        """{span name: (calls, self seconds)} over spans lo..hi-1, which
        must hold whole span trees (one or more passes)."""
        names, parents, duration = self._arrays(lo, hi)
        child = np.zeros(hi - lo)
        nested = parents >= 0
        np.add.at(child, parents[nested] - lo, duration[nested])
        own = duration - child
        calls = np.bincount(names, minlength=len(self.names))
        own_s = np.bincount(names, weights=own, minlength=len(self.names))
        return {self.names[i]: (int(calls[i]), float(own_s[i]))
                for i in range(len(self.names)) if calls[i]}

    def calls_under(self, name: str, parent: str) -> int:
        """Spans named `name` whose parent span is named `parent`."""
        if name not in self._ids or parent not in self._ids:
            return 0
        names, parents, _ = self._arrays(0, len(self.name))
        nested = parents >= 0
        parent_names = names[parents[nested]]
        return int(np.sum((names[nested] == self._ids[name])
                          & (parent_names == self._ids[parent])))

    def write(self, path) -> None:
        """All spans as CSV: id, parent, name, start and end in seconds
        from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="ascii") as out:
            out.write("id,parent,name,start_s,end_s\n")
            for sid in range(len(self.name)):
                out.write(f"{sid},{self.parent[sid]},{self.names[self.name[sid]]},"
                          f"{self.start[sid] - t0:.9f},{self.end[sid] - t0:.9f}\n")
