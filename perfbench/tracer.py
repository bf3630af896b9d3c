"""In-memory span tracer that times a package's functions from outside.

`Tracer.install` replaces each target function with a timing wrapper. It
rebinds the defining module's attribute and every other module attribute
of the package that refers to the same function object (names brought in
with ``from .hmm import viterbi_score_lattice`` and the package's own
re-exports), so calls made inside the package are caught as well as the
caller's. A target given as ``module.Class.method`` is rebound on the
class. A target that no longer exists is listed in `absent` and never
wrapped; nothing else about the run changes.

Spans are recorded only below a root span opened with `Tracer.root`, so
the caller decides which work is measured (for example, operations but
not the correctness checks run after them). Each span keeps its name,
start, end, parent and root; the columns stay in memory until `write`.
A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager


class Tracer:
    def __init__(self, package, targets):
        self.package = package
        self.targets = list(targets)
        self.absent = []
        self.names = []
        self._name_ids = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.root_of = array("l")
        self._stack = []
        self._restore = []

    def _intern(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_idx):
        i = len(self.start)
        stack = self._stack
        self.name.append(name_idx)
        self.parent.append(stack[-1] if stack else -1)
        self.root_of.append(stack[0] if stack else i)
        self.end.append(0)
        stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def root(self, name):
        """Record a top-level span; wrapped calls inside it become its children."""
        if self._stack:
            raise RuntimeError(f"root span {name!r} opened inside another span")
        i = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, target, fn):
        idx = self._intern(target)
        stack = self._stack
        open_span = self._open
        close_span = self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            i = open_span(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(i)

        return traced

    def install(self):
        """Wrap every target that exists; record the others in `absent`."""
        found = []
        for target in self.targets:
            module_name, _, attr_path = target.partition(".")
            try:
                module = importlib.import_module(f"{self.package}.{module_name}")
            except ImportError:
                self.absent.append(target)
                continue
            *owner_path, attr = attr_path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(target)
                continue
            found.append((target, module, owner, attr, original))
        modules = [
            m
            for name, m in sys.modules.items()
            if name == self.package or name.startswith(self.package + ".")
        ]
        for target, module, owner, attr, original in found:
            wrapper = self._wrap(target, original)
            self._rebind(owner, attr, wrapper)
            if owner is not module:
                continue
            for other in modules:
                for name, value in list(vars(other).items()):
                    if value is original:
                        self._rebind(other, name, wrapper)

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put every original function back."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def aggregate(self):
        """{(span name, root span name): [calls, inclusive ns, self ns]}."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        names = self.names
        out = {}
        for i in range(n):
            key = (names[self.name[i]], names[self.name[self.root_of[i]]])
            row = out.get(key)
            if row is None:
                row = out[key] = [0, 0, 0]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return out

    def write(self, path):
        """Write every span as gzipped JSON columns (times in ns)."""
        blob = {
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "root": self.root_of.tolist(),
            "absent": self.absent,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(blob, fh, separators=(",", ":"))
