"""Per-layer timing from outside the program.

:class:`LayerTracer` wraps the public functions each layer exposes (the
names in :data:`LAYERS`) for the duration of a ``with`` block and restores
the originals afterwards; nothing inside ``src/`` changes and the
program's own tracer stays off.  Every wrapped call charges its *self*
time -- its duration minus that of the wrapped calls it made -- to its
layer.  The benchmark opens one frame per service call
(:meth:`LayerTracer.operation`); whatever part of that call no wrapped
function covers is ``server`` time.  By construction the layer self times
plus the server time sum to the operations' total time.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> (module, attribute path) of every function charged to it.
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "query.parse": [("repro.server.service", "parse_query")],
    "cache.fingerprint": [("repro.server.service", "fingerprint")],
    "cache.lookup": [("repro.cache.store", "QueryCache.get"),
                     ("repro.cache.store", "QueryCache.find_superset")],
    "cache.put": [("repro.cache.store", "QueryCache.put")],
    "cache.maintain": [("repro.cache.store", "QueryCache.invalidate"),
                       ("repro.cache.store", "QueryCache.patch"),
                       ("repro.cache.store", "QueryCache.drop")],
    "engine.plan": [("repro.engine.optimizer", "PlannedEngine.plan")],
    "engine.execute": [("repro.engine.optimizer", "PlannedEngine.run_planned")],
    "engine.stats_collect": [("repro.engine.stats", "DirectoryStatistics.collect")],
    "engine.stats_delta": [("repro.engine.stats", "DirectoryStatistics.apply_entry")],
    "storage.compact": [("repro.storage.maintenance", "UpdatableDirectory.compact")],
    "storage.write": [("repro.storage.maintenance", "UpdatableDirectory.add"),
                      ("repro.storage.maintenance", "UpdatableDirectory.modify"),
                      ("repro.storage.maintenance", "UpdatableDirectory.delete")],
    "txn.wal": [("repro.txn.wal", "WriteAheadLog.append"),
                ("repro.txn.wal", "WriteAheadLog.sync")],
    "security.acl": [("repro.security", "AccessControlList.readable")],
    "obs.observe": [("repro.obs.metrics", "Counter.inc"),
                    ("repro.obs.metrics", "Gauge.set"),
                    ("repro.obs.metrics", "Gauge.inc"),
                    ("repro.obs.metrics", "Histogram.observe"),
                    ("repro.obs.digest", "QueryDigestTable.observe"),
                    ("repro.obs.slowlog", "SlowQueryLog.record"),
                    ("repro.obs.heatmap", "SubtreeHeatMap.record_read"),
                    ("repro.obs.heatmap", "SubtreeHeatMap.record_write"),
                    ("repro.obs.heatmap", "SubtreeHeatMap.record_shipped")],
}

SERVER = "server"


class LayerTracer:
    """Self time and call counts per layer, split by operation kind."""

    def __init__(self):
        #: self seconds per (layer, operation kind)
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        #: wrapped calls per (layer, operation kind)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        #: logical / physical page reads and logical writes inside
        #: ``engine.execute`` during searches (the paper's cost of each
        #: evaluation)
        self.exec_pages = [0, 0, 0]
        #: seconds inside operation frames, per operation kind
        self.op_s: Dict[str, float] = defaultdict(float)
        self._stack: List[float] = [0.0]
        self._kind = "setup"
        self._saved: List[Tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *outer, name = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[name]
                self._saved.append((owner, name, raw))
                setattr(owner, name, self._wrap(layer, raw))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        self._saved.clear()

    def _wrap(self, layer: str, raw):
        if isinstance(raw, classmethod):
            return classmethod(self._timed(layer, raw.__func__))
        return self._timed(layer, raw)

    def _timed(self, layer: str, func: Callable):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        counts_pages = layer == "engine.execute"
        pages = self.exec_pages
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if counts_pages:
                io = args[0].store.pager.stats
                before = (io.logical_reads, io.reads, io.logical_writes)
            stack.append(0.0)
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - started
                key = (layer, self._kind)
                self_s[key] += elapsed - stack.pop()
                calls[key] += 1
                stack[-1] += elapsed
                if counts_pages and self._kind == "search":
                    pages[0] += io.logical_reads - before[0]
                    pages[1] += io.reads - before[1]
                    pages[2] += io.logical_writes - before[2]

        timed.__wrapped__ = func
        return timed

    # -- operations -----------------------------------------------------------

    @contextmanager
    def operation(self, kind: str):
        """One service call of ``kind``; its uncovered time is ``server``."""
        self._kind = kind
        self._stack[:] = [0.0]
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            key = (SERVER, kind)
            self.self_s[key] += elapsed - self._stack[0]
            self.calls[key] += 1
            self.op_s[kind] += elapsed
            self._stack[:] = [0.0]
            self._kind = "setup"

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.op_s.clear()
        self.exec_pages[:] = [0, 0, 0]

    def layer_seconds(self, layer: str, kind: Optional[str] = None) -> float:
        """Self seconds of ``layer`` in operations of ``kind`` (any kind of
        operation by default; ``"setup"`` is work outside operations)."""
        return sum(v for (name, k), v in self.self_s.items()
                   if name == layer and (k == kind if kind else k != "setup"))

    def layer_calls(self, layer: str, kind: Optional[str] = None) -> int:
        return sum(v for (name, k), v in self.calls.items()
                   if name == layer and (k == kind if kind else k != "setup"))
