"""Traced runs: spans recorded from outside the program.

The untraced run calls only the program's public entry points. A traced
run additionally installs :func:`layer_patches` for its measured window:
each patch replaces one function of one layer with a wrapper that records
a span (name, layer, start, end, parent) into a thread-local stack of the
:class:`Recorder`, and restores the original when the window ends. Nothing
under ``src/`` is edited and the program's own ``tracer=`` parameters stay
unused, so the traced run's overhead is only these wrappers.

A span's self time is its duration minus the time its child spans cover.
Spans of one thread nest and do not overlap, so the self times of all spans
under an op add up to that op's duration exactly.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """Keeps spans in memory, grouped by op, and aggregates them per layer."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.ops = 0
        self.op_seconds: list[float] = []
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.self_by_name: dict[str, float] = defaultdict(float)
        self.inclusive_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: Finished spans: (op, thread, depth, name, layer, start, end).
        self.spans: list[tuple] = []

    def _stack(self) -> list | None:
        return getattr(self._local, "stack", None)

    @contextmanager
    def op(self, name: str, layer: str):
        """Root span of one op; its own self time goes to ``layer``."""
        with self._lock:
            op_index = self.ops
            self.ops += 1
        self._local.stack = []
        self._local.finished = []
        try:
            with self.span(name, layer):
                yield
        finally:
            finished = self._local.finished
            self._local.stack = None
            with self._lock:
                for depth, span_name, span_layer, start, end, self_time in finished:
                    self.self_seconds[span_layer] += self_time
                    self.self_by_name[span_name] += self_time
                    self.inclusive_seconds[span_name] += end - start
                    self.spans.append(
                        (op_index, threading.get_ident(), depth, span_name, span_layer, start, end)
                    )
                    if depth == 0:
                        self.op_seconds.append(end - start)

    @contextmanager
    def span(self, name: str, layer: str):
        """A child span of the thread's open span (no-op outside an op)."""
        stack = self._stack()
        if stack is None:
            yield
            return
        frame = [0.0]  # time covered by children
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            self._local.finished.append(
                (len(stack), name, layer, start, end, duration - frame[0])
            )

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named counter (only inside an op)."""
        if self._stack() is not None:
            with self._lock:
                self.counts[name] += amount

    def write(self, path: str) -> None:
        """Write every finished span as one JSON document."""
        origin = min((span[5] for span in self.spans), default=0.0)
        rows = [
            [op, thread, depth, name, layer, round((start - origin) * 1e3, 6), round((end - start) * 1e3, 6)]
            for op, thread, depth, name, layer, start, end in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"columns": ["op", "thread", "depth", "name", "layer", "start_ms", "duration_ms"], "spans": rows},
                handle,
            )


def _timed(recorder: Recorder, original, name: str, layer: str):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with recorder.span(name, layer):
            return original(*args, **kwargs)

    return wrapper


def layer_patches(recorder: Recorder) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every wrapped layer function."""
    import repro.analysis as analysis
    from repro.columnar import table_file
    from repro.core import loader, prost
    from repro.core.translator import JoinTreeTranslator
    from repro.engine import session, vectorized
    from repro.engine.dataframe import DataFrame
    from repro.engine.session import EngineSession
    from repro.governor.admission import Governor
    from repro.governor.context import GovernorContext
    from repro.governor.spill import SpillStore
    from repro.hdfs.filesystem import SimulatedHdfs
    from repro.serve import server
    from repro.serve.cache import LruCache
    from repro.serve.server import QueryServer, ResultEntry

    patches: list[tuple[object, str, object]] = []

    def timed(owner, attribute: str, name: str, layer: str) -> None:
        original = getattr(owner, attribute)
        patches.append((owner, attribute, _timed(recorder, original, name, layer)))

    # -- load path
    original_load = prost.ProstEngine.load

    @functools.wraps(original_load)
    def load(*args, **kwargs):
        recorder.count("core.prost.loads")
        with recorder.span("core.prost.load", "core.prost"):
            return original_load(*args, **kwargs)

    patches.append((prost.ProstEngine, "load", load))
    timed(prost, "load_prost_store", "core.loader.load", "core.loader")
    timed(loader, "collect_statistics", "rdf.stats.collect", "rdf.stats")
    timed(loader, "load_vertical_partitioning", "core.loader.vp_build", "core.loader")
    timed(loader, "load_property_table", "core.loader.pt_build", "core.loader")
    timed(EngineSession, "register_rows", "engine.register_rows", "engine")
    timed(session, "write_table", "columnar.write_table", "columnar")

    original_encode_best = table_file.encode_best

    @functools.wraps(original_encode_best)
    def encode_best(*args, **kwargs):
        recorder.count("columnar.encode_best_calls")
        with recorder.span("columnar.encode_best", "columnar"):
            return original_encode_best(*args, **kwargs)

    patches.append((table_file, "encode_best", encode_best))

    original_hdfs_write = SimulatedHdfs.write

    @functools.wraps(original_hdfs_write)
    def hdfs_write(self, path, data, *args, **kwargs):
        recorder.count("hdfs.bytes_written", len(data))
        with recorder.span("hdfs.write", "hdfs"):
            return original_hdfs_write(self, path, data, *args, **kwargs)

    patches.append((SimulatedHdfs, "write", hdfs_write))

    # -- query path
    parse = _timed(recorder, prost.parse_sparql, "sparql.parse", "sparql")
    patches.append((prost, "parse_sparql", parse))
    patches.append((server, "parse_sparql", parse))
    timed(QueryServer, "canonicalize_cached", "serve.canonicalize", "serve")
    timed(prost.ProstEngine, "dataframe", "core.prost.plan", "core.prost")
    timed(prost.ProstEngine, "execute_prepared", "core.prost.execute_prepared", "core.prost")
    timed(JoinTreeTranslator, "translate_bgp", "core.translator.translate", "core.translator")
    timed(analysis, "check_query", "analysis.verify", "analysis")
    timed(session, "optimize", "engine.optimizer.optimize", "engine.optimizer")
    timed(prost, "_finalize_columnar", "core.prost.finalize", "core.prost")

    original_collect = DataFrame.collect_data_with_report

    @functools.wraps(original_collect)
    def collect(self, *args, **kwargs):
        with recorder.span("engine.execute", "engine"):
            data, report = original_collect(self, *args, **kwargs)
        metrics = report.metrics
        recorder.count("engine.rows_scanned", metrics.rows_scanned)
        recorder.count("engine.rows_output", metrics.rows_output)
        for counter in ("spills", "spill_partitions", "spill_bytes", "degraded_joins", "budget_trips"):
            recorder.count(f"governor.{counter}", getattr(metrics, counter))
        return data, report

    patches.append((DataFrame, "collect_data_with_report", collect))

    original_dispatch = vectorized.dispatch_vectorized

    @functools.wraps(original_dispatch)
    def dispatch(executor, plan, *args, **kwargs):
        with recorder.span(f"engine.op.{type(plan).__name__}", "engine.vectorized"):
            return original_dispatch(executor, plan, *args, **kwargs)

    patches.append((vectorized, "dispatch_vectorized", dispatch))

    # -- serve and governor
    original_put = LruCache.put

    @functools.wraps(original_put)
    def cache_put(self, key, value):
        evicted = original_put(self, key, value)
        cache = "result" if isinstance(value, ResultEntry) else "plan"
        recorder.count(f"serve.{cache}_cache_evictions", evicted)
        return evicted

    patches.append((LruCache, "put", cache_put))

    original_admit = Governor.admit

    @functools.wraps(original_admit)
    @contextmanager
    def admit(self, *args, **kwargs):
        slot = original_admit(self, *args, **kwargs)
        with recorder.span("governor.admit", "governor"):
            granted = slot.__enter__()
        try:
            yield granted
        except BaseException as error:
            if not slot.__exit__(type(error), error, error.__traceback__):
                raise
        else:
            slot.__exit__(None, None, None)

    patches.append((Governor, "admit", admit))
    timed(vectorized, "grace_hash_join_partition", "governor.spill_join", "governor")
    timed(GovernorContext, "cleanup", "governor.cleanup", "governor")

    original_spill_write = SpillStore.write

    @functools.wraps(original_spill_write)
    def spill_write(self, *args, **kwargs):
        recorder.count("governor.spill_files")
        return original_spill_write(self, *args, **kwargs)

    patches.append((SpillStore, "write", spill_write))
    return patches


@contextmanager
def installed(recorder: Recorder):
    """Install every layer wrapper for the body, then restore the originals."""
    patches = layer_patches(recorder)
    originals = [(owner, attribute, owner.__dict__[attribute]) for owner, attribute, _ in patches]
    try:
        for owner, attribute, wrapper in patches:
            setattr(owner, attribute, wrapper)
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
