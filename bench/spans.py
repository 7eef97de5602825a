"""In-memory span recorder for the traced benchmark run.

A span is [name, start, end, parent index].  The package imports functions
by name (``from .modforms import f_eval``), so a traced function is replaced
in every module namespace that holds it, and a traced method on its class.
Spans stay in memory; ``write`` saves them once the run has ended.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self._stack = []
        self._restore = []       # (owner, attribute, original)
        self.misses = defaultdict(list)   # name -> positional args of cache misses

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn):
        info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = info().misses if info else 0
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if info and info().misses > before:
                    self.misses[name].append(args)

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, modules, targets):
        """targets: (metric prefix, owner module name, attribute path).  A plain
        function is replaced wherever any of `modules` holds it; 'Class.method'
        is replaced on the class."""
        for prefix, home, path in targets:
            owner = sys.modules[home]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(prefix, orig))
                continue
            orig = getattr(owner, path)
            wrapped = self._wrap(prefix, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- analysis --------------------------------------------------------------

    def summary(self):
        """Per name: calls, inclusive seconds, self seconds (duration minus the
        time covered by child spans); plus the spans of each name nested under
        each other name, counted once per (ancestor name, span)."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        for (name, start, end, _), kids in zip(self.spans, child_time):
            self_s[name] += end - start - kids
        nested = defaultdict(int)
        for name, _, _, parent in self.spans:
            seen = set()
            while parent >= 0:
                outer = self.spans[parent][0]
                if outer not in seen:
                    seen.add(outer)
                    nested[(outer, name)] += 1
                parent = self.spans[parent][3]
        top = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        return {"calls": calls, "total_s": total, "self_s": self_s,
                "nested": nested, "top_s": top}

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
