"""In-memory span tracer around the public calls of each cryslift layer.

``Tracer.install`` patches, from outside the package, every public
module-level function of the measured layers, plus construction and the
public methods of ``units.UnitExpr``.  A function is replaced in its
defining module and in every cryslift module that imported it by name, so
calls from one layer into another are seen too.  Each call becomes a span
``(id, parent, name, start, end, item)``.  Call counts, total time and
self time (duration minus the part covered by child spans) are aggregated
online for every span; the first ``RAW_SPAN_CAP`` raw spans of a run are
kept in memory and written out as JSON lines by ``Tracer.write``.

Sweep cells run in forked pool workers, which inherit the patched
modules.  There the wrapped ``sweep.run_cell`` returns its rows as a
``CellRows`` list that carries the worker's aggregates and spans; when the
parent unpickles it, ``_receive`` queues them and ``Tracer.collect``
merges them.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

MEASURED_LAYERS = (
    "fields", "units", "transport", "lifting", "induction", "certio", "verify", "sweep",
)
UNMEASURED_LAYERS = {
    "ledger": "calls take microseconds and no user traffic depends on them",
    "cli": "a thin wrapper whose own cost is import time, which setup_s covers",
}
RAW_SPAN_CAP = 20_000
_UNIT_DUNDERS = ("__post_init__", "__mul__", "__pow__")

# Filled by _receive in the parent while a pool result is unpickled; only
# a module-level function can be named in a pickle.
_inbox: list[tuple] = []


def _receive(rows, stats, spans, dropped):
    _inbox.append((stats, spans, dropped))
    return rows


class CellRows(list):
    """Rows of one sweep cell plus the worker's trace of that cell."""

    def __init__(self, rows, payload):
        super().__init__(rows)
        self.payload = payload

    def __reduce__(self):
        return _receive, (list(self), *self.payload)


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.seq = 0
        self.stack: list[list] = []  # open spans: [id, name, start, child_s]
        self.stats: dict[str, list] = {}  # name -> [count, total_s, self_s, max_s]
        self.spans: list[tuple] = []
        self.kept = 0
        self.dropped = 0
        self.item = None
        self.root_parent = None
        self._worker_pid = self.pid
        self._patches: list[tuple] = []

    # -- spans -----------------------------------------------------------
    def enter(self, name: str) -> None:
        self.seq += 1
        self.stack.append([(self._worker_pid, self.seq), name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self.stack.pop()
        dur = end - start
        if self.stack:
            parent = self.stack[-1]
            parent[3] += dur
            parent_id = parent[0]
        else:
            parent_id = self.root_parent
        st = self.stats.get(name)
        if st is None:
            self.stats[name] = [1, dur, dur - child, dur]
        else:
            st[0] += 1
            st[1] += dur
            st[2] += dur - child
            if dur > st[3]:
                st[3] = dur
        if self.kept < RAW_SPAN_CAP:
            self.kept += 1
            self.spans.append((span_id, parent_id, name, start, end, self.item))
        else:
            self.dropped += 1

    def call(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def _wrap(self, name: str, fn):
        # enter/exit inlined rather than self.call: this runs on every call
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def _wrap_verify(self, name: str, fn):
        """Also counts rejected documents, as the span "verify.rejected"."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ok, violations = self.call(name, fn, *args, **kwargs)
            if not ok:
                self.stats.setdefault("verify.rejected", [0, 0.0, 0.0, 0.0])[0] += 1
            return ok, violations

        return wrapper

    def _wrap_run_cell(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(cell, config):
            if os.getpid() == self.pid:
                return self.call(name, fn, cell, config)
            if self._worker_pid != os.getpid():
                # first cell in a freshly forked worker: the open run_sweep
                # span of the parent becomes the parent of every cell span
                self._worker_pid = os.getpid()
                self.root_parent = self.stack[-1][0] if self.stack else None
                self.kept = 0
            self.stack, self.stats, self.spans, self.dropped = [], {}, [], 0
            self.item = cell.key
            rows = self.call(name, fn, cell, config)
            return CellRows(rows, (self.stats, self.spans, self.dropped))

        return wrapper

    def collect(self) -> None:
        """Merge the traces that sweep workers sent back."""
        for stats, spans, dropped in _inbox:
            for name, (count, total, self_s, mx) in stats.items():
                st = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
                st[0] += count
                st[1] += total
                st[2] += self_s
                st[3] = max(st[3], mx)
            room = max(RAW_SPAN_CAP - len(self.spans), 0)
            self.spans.extend(spans[:room])
            self.dropped += dropped + len(spans[room:])
        _inbox.clear()

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        import cryslift.units

        package = [m for n, m in sys.modules.items()
                   if n == "cryslift" or n.startswith("cryslift.")]
        for layer in MEASURED_LAYERS:
            mod = sys.modules[f"cryslift.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrap = {
                    "sweep.run_cell": self._wrap_run_cell,
                    "verify.verify_certificate": self._wrap_verify,
                }.get(name, self._wrap)
                wrapper = wrap(name, fn)
                for m in package:
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            self._patches.append((m, a, v))
                            setattr(m, a, wrapper)
        cls = cryslift.units.UnitExpr
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _UNIT_DUNDERS:
                continue
            name = "units.UnitExpr" if attr == "__post_init__" else f"units.UnitExpr.{attr}"
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(name, raw)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- output ----------------------------------------------------------
    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(st[2] for name, st in self.stats.items() if name.startswith(prefix))

    def count(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, item in self.spans:
                fh.write(json.dumps({
                    "id": "%d:%d" % span_id,
                    "parent": None if parent is None else "%d:%d" % parent,
                    "name": name, "start": start, "end": end, "item": item,
                }) + "\n")
