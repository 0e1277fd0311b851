"""Counting and timing wrappers around actsep's public functions, installed
from outside the package.

The package binds names with `from .x import y`, so a wrapper replaces the
original object under every name that holds it in every loaded actsep
module (for example `actsep.separability.enumerate_congruences` and
`actsep.families.closure_partial`).  The source is not edited.

Every call opens a span with a name, start, end and parent.  A generator
gets one span whose busy time covers only its `next()` calls.  Self time is
a span's busy time minus the busy time of the spans opened inside it.
Finished spans are kept in arrays and written out by `write_spans`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    ("catalog", "catalog_monoids"),
    ("catalog", "enumerate_acts"),
    ("congruences", "enumerate_congruences"),
    ("congruences", "principal_closure"),
    ("congruences", "compatibility_violation"),
    ("congruences", "two_sided_violation"),
    ("congruences", "quotient_monoid"),
    ("acts", "closure_partial"),
    ("acts", "subacts"),
    ("acts", "cyclic_subacts"),
    ("acts", "act_from_table"),
    ("monoids", "monoid_from_table"),
    ("monoids", "right_ideals"),
    ("separability", "sigma_a"),
    ("separability", "separate"),
    ("separability", "check_condition"),
    ("separability", "act_monoid_correspondence"),
    ("families", "build"),
    ("families", "verify"),
    ("families", "format_report"),
    ("textio", "parse_monoid"),
    ("textio", "parse_act"),
    ("textio", "write_certificate"),
    ("cli", "main"),
)
GENERATORS = {"catalog.enumerate_acts", "congruences.enumerate_congruences"}
SEARCHES = ("separability.separate", "separability.check_condition")


class _Stat:
    __slots__ = ("calls", "self_s", "yielded", "cap_aborts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.yielded = 0
        self.cap_aborts = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counts: Counter[str] = Counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_busy = array("d")
        # open frames: [span id, name, stat, start, busy time of child spans]
        self._stack: list[list] = []

    # -- spans ---------------------------------------------------------------

    def _open_span(self, name: str) -> int:
        sid = len(self.span_name)
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(self._name_ids[name])
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_busy.append(0.0)
        return sid

    def _stat(self, name: str) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    def _enter(self, sid: int, name: str, stat: _Stat) -> None:
        self._stack.append([sid, name, stat, time.perf_counter(), 0.0])

    def _leave(self) -> tuple[float, float]:
        end = time.perf_counter()
        _, _, stat, start, child = self._stack.pop()
        busy = end - start
        stat.self_s += busy - child
        if self._stack:
            self._stack[-1][4] += busy
        return start, end

    # -- wrappers ------------------------------------------------------------

    def wrap_call(self, name, fn, naming=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if naming is None else naming(args, kwargs)
            stat = self._stat(span)
            stat.calls += 1
            sid = self._open_span(span)
            self._enter(sid, span, stat)
            try:
                result = fn(*args, **kwargs)
            finally:
                start, end = self._leave()
                self.span_start[sid], self.span_end[sid] = start, end
                self.span_busy[sid] = end - start
            if after is not None:
                after(result)
            return result

        return wrapper

    def wrap_generator(self, name, fn, abort_type):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat = self._stat(name)
            stat.calls += 1
            searched = bool(self._stack) and self._stack[-1][1].startswith(SEARCHES)
            sid = self._open_span(name)
            return self._drive(fn(*args, **kwargs), sid, name, stat, searched, abort_type)

        return wrapper

    def _drive(self, gen, sid, name, stat, searched, abort_type):
        first = last = None
        busy = 0.0
        try:
            while True:
                self._enter(sid, name, stat)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                except abort_type:
                    stat.cap_aborts += 1
                    raise
                finally:
                    start, last = self._leave()
                    first = start if first is None else first
                    busy += last - start
                stat.yielded += 1
                if searched:
                    self.counts["search_yielded"] += 1
                yield item
        finally:
            gen.close()
            if first is not None:
                self.span_start[sid], self.span_end[sid] = first, last
                self.span_busy[sid] = busy

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in LAYERS and count Partition.index reads.
        Import every actsep module that holds a wrapped name first."""
        from actsep.errors import SearchSpaceTooLarge
        from actsep.partitions import Partition

        modules = [m for k, m in sys.modules.items() if k == "actsep" or k.startswith("actsep.")]
        for module_name, attr in LAYERS:
            original = getattr(sys.modules[f"actsep.{module_name}"], attr)
            name = f"{module_name}.{attr}"
            if name in GENERATORS:
                wrapped = self.wrap_generator(name, original, SearchSpaceTooLarge)
            elif name == "separability.check_condition":
                wrapped = self.wrap_call(name, original, naming=_condition_span, after=self._count_report)
            elif name == "separability.separate":
                wrapped = self.wrap_call(name, original, after=self._count_certificate)
            else:
                wrapped = self.wrap_call(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

        counts = self.counts
        index = Partition.index.fget

        def counted_index(partition):
            counts["partitions.Partition.index.calls"] += 1
            return index(partition)

        Partition.index = property(counted_index, doc=Partition.index.__doc__)

    def _count_report(self, report) -> None:
        self.counts["separability.instances"] += len(report.certificates)

    def _count_certificate(self, cert) -> None:
        self.counts["separability.instances"] += cert is not None

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat name -> value map: <layer>.calls/.self_s/.yielded/.cap_aborts
        for every layer that ran, plus the plain counters."""
        out: dict[str, float] = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            if name in GENERATORS:
                out[f"{name}.yielded"] = stat.yielded
                out[f"{name}.cap_aborts"] = stat.cap_aborts
        out.update(self.counts)
        yielded = self.counts.get("search_yielded", 0)
        out["separability.useful_ratio"] = (
            self.counts.get("separability.instances", 0) / yielded if yielded else 0.0
        )
        return out

    def write_spans(self, path) -> int:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tname\tparent\tstart\tend\tbusy\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{self.names[self.span_name[sid]]}\t{self.span_parent[sid]}\t"
                    f"{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\t{self.span_busy[sid]:.9f}\n"
                )
        return len(self.span_name)


def _condition_span(args, kwargs) -> str:
    condition = args[1] if len(args) > 1 else kwargs["condition"]
    return f"separability.check_condition.{str(condition).lower()}"
