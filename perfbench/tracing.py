"""In-memory span recording and call wrappers for the benchmark.

Spans come only from wrappers the benchmark installs around public calls of
the program (class methods, module functions, or the bound methods of one
instance); nothing inside the program is instrumented.  A span is four
numbers in flat arrays — key id, parent index, start, end — so a traced
pass of a few hundred thousand spans stays a few megabytes.  Spans nest
strictly because every wrapper is synchronous and single-threaded: the
parent of a span is whichever span was open when it started.

A span's self time is its duration minus the durations of its direct
children, which (spans nesting strictly) is exactly the part of its
interval that no child covers.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_MISSING = object()


class Tracer:
    """Spans of one traced pass, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.names = []  # key id -> span name
        self._ids = {}
        self.key_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def key(self, name: str) -> int:
        kid = self._ids.get(name)
        if kid is None:
            kid = self._ids[name] = len(self.names)
            self.names.append(name)
        return kid

    def open(self, kid: int) -> int:
        index = len(self.start)
        self.key_of.append(kid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(self.key(name))
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, name: str):
        """``fn`` recording one span named ``name`` per call."""
        kid = self.key(name)
        key_of, parent = self.key_of, self.parent
        start, end = self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(start)
            key_of.append(kid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def wrap_named(self, fn, name_of):
        """Like :meth:`wrap`, with the span name computed per call."""

        def traced(*args, **kwargs):
            index = self.open(self.key(name_of(*args, **kwargs)))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    # -- aggregation --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def _columns(self):
        # Copies, so the arrays export no buffer and can still grow.
        key_of = np.frombuffer(self.key_of, dtype=np.intc).copy()
        parent = np.frombuffer(self.parent, dtype=np.intc).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        return key_of, parent, start, end

    def totals(self) -> dict:
        """``name -> (count, total seconds, self seconds)``."""
        key_of, parent, start, end = self._columns()
        durations = end - start
        nested = parent >= 0
        child = np.bincount(
            parent[nested], weights=durations[nested], minlength=len(start)
        )
        width = len(self.names)
        calls = np.bincount(key_of, minlength=width)
        total = np.bincount(key_of, weights=durations, minlength=width)
        own = np.bincount(key_of, weights=durations - child, minlength=width)
        return {
            name: (int(calls[kid]), float(total[kid]), float(own[kid]))
            for kid, name in enumerate(self.names)
            if calls[kid]
        }

    def nesting_problems(self) -> list:
        """Spans not inside their parent's interval (empty when sound)."""
        key_of, parent, start, end = self._columns()
        problems = [f"span {i} ends before it starts"
                    for i in np.flatnonzero(end < start)]
        nested = np.flatnonzero(parent >= 0)
        outer = parent[nested]
        problems += [f"span {i} opened before its parent"
                     for i in nested[outer >= nested]]
        escapes = (start[nested] < start[outer]) | (end[nested] > end[outer])
        problems += [
            f"span {i} ({self.names[key_of[i]]}) escapes its parent "
            f"{parent[i]}"
            for i in nested[escapes]
        ]
        return problems

    def write(self, path) -> None:
        """Binary dump: a JSON header line, then the four arrays."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["key_of:i", "parent:i", "start:d", "end:d"],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.key_of, self.parent, self.start, self.end):
                column.tofile(handle)


def timed(fn, sink):
    """``fn`` appending each call's wall seconds to ``sink``."""
    clock = time.perf_counter
    append = sink.append

    def timed_call(*args, **kwargs):
        started = clock()
        result = fn(*args, **kwargs)
        append(clock() - started)
        return result

    return timed_call


class Patches:
    """Attribute replacements on classes, modules or instances, undone in
    reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo = []

    def set(self, owner, attribute: str, value) -> None:
        previous = vars(owner).get(attribute, _MISSING)
        self._undo.append((owner, attribute, previous))
        setattr(owner, attribute, value)

    def wrap(self, owner, attribute: str, wrapper) -> None:
        """Replace ``owner.attribute`` with ``wrapper(original)``."""
        self.set(owner, attribute, wrapper(getattr(owner, attribute)))

    def restore(self) -> None:
        while self._undo:
            owner, attribute, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)
