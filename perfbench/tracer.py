"""Layer timing for the traced run, from outside the program.

:class:`Tracer` wraps public functions of each ``repro`` layer (and the
cluster coordinator's private delta listener) in place, records one duration per call
while :attr:`Tracer.recording` is set, and restores the originals on
:meth:`Tracer.remove`.  Nothing under ``src/`` changes: the wrappers are
installed on the imported modules and classes of the benchmark process.

The cluster's delta listener and the HTTP handler's parse are bound or
imported by the program before a run starts, so the wrappers stay
installed for the whole traced run and only the ``recording`` flag
separates untraced from traced passes.
"""

from __future__ import annotations

import gc
import threading
from time import perf_counter
from typing import Dict, List, Tuple

import common


def _targets() -> List[Tuple[str, object, str, str]]:
    """``(metric key, owner, attribute, kind)`` for every wrapped call."""
    from repro.cluster import coordinator
    from repro.core import incremental
    from repro.io import ntriples
    from repro.schema import encoded_saturation
    from repro.server import http, persistence
    from repro.service import catalog, evaluator, planner, service
    from repro.store import base

    return [
        ("io.load_ntriples", ntriples, "load_ntriples", "function"),
        ("io.parse_ntriples", ntriples, "parse_ntriples", "function"),
        ("io.parse_ntriples", http, "parse_ntriples", "function"),
        ("store.insert_triples", base.TripleStore, "insert_triples", "method"),
        ("core.weak_snapshot", incremental.IncrementalWeakSummarizer, "snapshot", "method"),
        ("core.encoded_summarize", catalog, "encoded_summarize", "function"),
        ("schema.saturator_build", encoded_saturation.IncrementalSaturator, "build", "method"),
        ("schema.saturator_delta", encoded_saturation.IncrementalSaturator, "ingest_rows", "method"),
        ("service.register", catalog.GraphCatalog, "register", "method"),
        ("service.statistics_index", catalog.CatalogEntry, "statistics_index", "method"),
        ("service.pruning_graph", catalog.CatalogEntry, "pruning_graph", "method"),
        ("service.has_answers", service, "has_answers", "function"),
        ("service.compile", evaluator.EncodedEvaluator, "compile", "method"),
        ("service.plan", planner.QueryPlanner, "plan", "method"),
        ("service.evaluate", evaluator.EncodedEvaluator, "evaluate", "method"),
        ("server.checkpoint", catalog.GraphCatalog, "checkpoint", "method"),
        ("server.open", catalog.GraphCatalog, "open", "classmethod"),
        ("server.append_update", persistence.PersistentCatalog, "append_update", "method"),
        ("server.add_triples", catalog.CatalogEntry, "add_triples", "wchar"),
        ("cluster.delta", coordinator.ClusterCoordinator, "_on_entry_delta", "method"),
    ]


class Tracer:
    """Per-call durations of the wrapped layer functions, by phase."""

    def __init__(self):
        self.recording = False
        self.phase = "setup"
        #: ``(phase, key) -> [seconds, ...]``
        self.calls: Dict[Tuple[str, str], List[float]] = {}
        #: ``(phase, key) -> bytes written`` for the ``wchar`` wrappers.
        self.written: Dict[Tuple[str, str], int] = {}
        self.gc_seconds: Dict[str, float] = {}
        self.gc_full: Dict[str, int] = {}
        self._gc_started = 0.0
        self._restore: List[Tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def install(self) -> None:
        for key, owner, attribute, kind in _targets():
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(key, original, kind))
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _wrap(self, key: str, original, kind: str):
        tracer = self
        if kind == "classmethod":
            function = original.__func__

            def wrapped_classmethod(cls, *args, **kwargs):
                if not tracer.recording:
                    return function(cls, *args, **kwargs)
                started = perf_counter()
                try:
                    return function(cls, *args, **kwargs)
                finally:
                    tracer._record(key, perf_counter() - started)

            return classmethod(wrapped_classmethod)
        if kind == "wchar":

            def wrapped_io(*args, **kwargs):
                if not tracer.recording:
                    return original(*args, **kwargs)
                before = common.written_chars()
                started = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._record(key, perf_counter() - started)
                    with tracer._lock:
                        slot = (tracer.phase, key)
                        tracer.written[slot] = (
                            tracer.written.get(slot, 0) + common.written_chars() - before
                        )

            return wrapped_io

        def wrapped(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._record(key, perf_counter() - started)

        return wrapped

    def _record(self, key: str, seconds: float) -> None:
        with self._lock:
            self.calls.setdefault((self.phase, key), []).append(seconds)

    def _on_gc(self, event: str, info: Dict[str, int]) -> None:
        if not self.recording:
            return
        if event == "start":
            self._gc_started = perf_counter()
            return
        self.gc_seconds[self.phase] = (
            self.gc_seconds.get(self.phase, 0.0) + perf_counter() - self._gc_started
        )
        if info.get("generation") == 2:
            self.gc_full[self.phase] = self.gc_full.get(self.phase, 0) + 1

    # ------------------------------------------------------------------
    def durations(self, phase: str, key: str) -> List[float]:
        return self.calls.get((phase, key), [])

    def total(self, phase: str, key: str) -> float:
        return sum(self.durations(phase, key))

    def count(self, phase: str, key: str) -> int:
        return len(self.durations(phase, key))

    def mean_ms(self, phase: str, key: str) -> float:
        values = self.durations(phase, key)
        return 1000.0 * sum(values) / len(values) if values else 0.0
