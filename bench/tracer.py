"""Span tracer that wraps the public functions of newton_strata from outside.

``Tracer.install`` replaces every public function, public method and
dataclass constructor of the given modules with a wrapper that records a
span (name, start, end, parent); ``uninstall`` puts the originals back, so
the library source is never edited and untraced runs pay nothing.  Spans live
in flat arrays until ``summary`` folds them into calls, total and self time
per name (self = span minus the part its child spans cover).
"""

from __future__ import annotations

import enum
import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns


def _count_execute(counters, args, result):
    code = result[0]
    if code == 2:
        counters["cli.rejected"] += 1
    elif code == 1:
        counters["cli.internal_error"] += 1


def _count_poset(counters, args, poset):
    counters["strata.nodes"] += len(poset.nodes)
    counters["strata.relation_pairs"] += len(poset.relation)
    counters["strata.cover_edges"] += len(poset.cover_edges)


def _count_slope_terms(counters, args, result):
    sig = args[0]
    counters["muord.slope_terms"] += sum(sig.d * len(o.f_values) for o in sig.orbits)


# Counts taken at a span boundary from the call's arguments and result.
COUNTERS = {
    "cli.execute": _count_execute,
    "strata.build_poset": _count_poset,
    "muord.mu_ordinary": _count_slope_terms,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.samples: defaultdict[str, list] = defaultdict(list)
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counts; installed wrappers stay valid."""
        self.name_of = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.stack = [-1]
        self.counters.clear()
        self.samples.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self.stack[-1])
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self.stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = tracer.start
            idx = len(start)
            tracer.name_of.append(nid)
            tracer.parent.append(tracer.stack[-1])
            start.append(perf_counter_ns())
            tracer.end.append(0)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter_ns()
                tracer.stack.pop()
            if count is not None:
                count(tracer.counters, args, result)
            return result

        return wrapper

    # -- installing wrappers -----------------------------------------------------

    def install(self, modules) -> None:
        """Wrap the public callables defined in ``modules`` wherever they are bound."""
        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "newton_strata"]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{attr}", obj)
                    for other in package:
                        for key, value in list(vars(other).items()):
                            if value is obj:
                                self._patch(other, key, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                    self._install_class(f"{layer}.{attr}", obj)

    def _install_class(self, prefix: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr == "__init__":
                self._patch(cls, attr, self._wrap(prefix, member))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(f"{prefix}.{attr}", member))
            elif isinstance(member, (classmethod, staticmethod)):
                wrapped = self._wrap(f"{prefix}.{attr}", member.__func__)
                self._patch(cls, attr, type(member)(wrapped))

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- results -------------------------------------------------------------------

    def export(self) -> dict:
        """Spans and counts as plain JSON data, for a child process to hand back."""
        return {
            "names": self.names,
            "name_of": self.name_of.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "counters": dict(self.counters),
        }

    def merge(self, data: dict, under: int) -> None:
        """Append a child's exported spans; its root spans become children of ``under``.

        ``perf_counter`` reads the system-wide monotonic clock, so timestamps
        from another process on the same host line up with ours.
        """
        base = len(self.start)
        ids = [self._name_id(name) for name in data["names"]]
        self.name_of.extend(ids[i] for i in data["name_of"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(under if p < 0 else base + p for p in data["parent"])
        for key, value in data["counters"].items():
            self.counters[key] += value

    def summary(self) -> dict[str, list[int]]:
        """Per span name: [calls, total ns, self ns]."""
        child = array("q", bytes(8 * len(self.start)))
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[idx] - self.start[idx]
        out: dict[str, list[int]] = {}
        for idx, nid in enumerate(self.name_of):
            duration = self.end[idx] - self.start[idx]
            row = out.setdefault(self.names[nid], [0, 0, 0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - child[idx]
        return out
