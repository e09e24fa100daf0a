"""Spans around the public functions of every loaded ``wilsonlat`` module.

``Tracer.install()`` rebinds each public function in each module namespace
that binds it (``wilson.sigma_params`` as well as
``metaplectic.sigma_params``) to one shared wrapper, so calls made inside
the library become child spans of the call that caused them.  A span
records its name, start, end, parent span and instance id; spans stay in
memory (compact arrays) and are written out once, at the end of a run.

Span names use the defining module: ``metaplectic.sigma_params`` whatever
namespace the caller went through.  For ``lru_cache``-wrapped functions the
wrapper also marks the first call with each argument tuple, which is the
cold (cache-missing) use of the function.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

PACKAGE = "wilsonlat"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.instance = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.inst = array("l")
        self.first = array("b")
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, nid: int, first: bool) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.inst.append(self.instance)
        self.first.append(first)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        tracer = self
        nid = self._id(name)
        cached = hasattr(fn, "cache_info")
        seen: set = set()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            first = False
            if cached:
                key = (args, tuple(sorted(kwargs.items())))
                try:
                    first = key not in seen
                    seen.add(key)
                except TypeError:
                    pass
            idx = tracer._open(nid, first)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        traced.perfbench_span = name
        return traced

    def install(self, package: str = PACKAGE) -> int:
        """Wrap every public function of every loaded ``package`` module.

        Returns the number of namespace bindings replaced.  Only names that
        exist are wrapped, so a function a later version removes simply
        reports no calls.
        """
        wrappers: dict[int, object] = {}
        bound = 0
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or (modname != package and not modname.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or hasattr(obj, "perfbench_span"):
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if home != package and not home.startswith(package + "."):
                    continue
                w = wrappers.get(id(obj))
                if w is None:
                    w = wrappers[id(obj)] = self.wrap(obj, f"{home.rsplit('.', 1)[-1]}.{obj.__name__}")
                setattr(mod, attr, w)
                bound += 1
        return bound

    # -- spans from other processes ------------------------------------------

    def export(self) -> dict:
        return {"names": self.names,
                "spans": [[self.name_id[i], self.start[i], self.end[i], self.parent[i],
                           self.first[i]] for i in range(len(self.start))]}

    def absorb(self, dump: dict, instance: int) -> None:
        """Append spans exported by another process under ``instance``."""
        base = len(self.start)
        for nid, start, end, parent, first in dump["spans"]:
            self.name_id.append(self._id(dump["names"][nid]))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + base if parent >= 0 else -1)
            self.inst.append(instance)
            self.first.append(first)

    # -- reporting -----------------------------------------------------------

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("span\tname\tstart\tend\tparent\tinstance\tfirst\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                         f"\t{self.parent[i]}\t{self.inst[i]}\t{self.first[i]}\n")

    def summary(self) -> tuple[dict, dict]:
        """Per span name: calls, busy_s, self_s, first_calls, first_busy_s;
        and per instance: the time covered by its top-level spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        top: dict[int, float] = {}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                top[self.inst[i]] = top.get(self.inst[i], 0.0) + dur[i]
        stats: dict[str, dict] = {}
        for i in range(n):
            s = stats.setdefault(self.names[self.name_id[i]],
                                 {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                  "first_calls": 0, "first_busy_s": 0.0})
            s["calls"] += 1
            s["busy_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
            if self.first[i]:
                s["first_calls"] += 1
                s["first_busy_s"] += dur[i]
        return stats, top
