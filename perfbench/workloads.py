"""The four workloads: ingest, adhoc, serve and governed.

Each workload has an untimed input step, a timed ``setup`` (program work
before the measured window) and a ``window`` that runs ops for a given
number of seconds. Every op's answer is logged for the correctness gate
right after the op returns, outside the op's latency timer.
"""

from __future__ import annotations

import gc
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro.core.prost import ProstEngine
from repro.engine.cluster import ClusterConfig
from repro.rdf.dictionary import default_dictionary
from repro.serve.server import QueryServer

from . import inputs
from .verify import AnswerLog, Oracle, check_load

#: Per-query memory budget of the governed workload (bytes).
GOVERNED_BUDGET_BYTES = 32 * 1024
#: Closed-loop clients of the serve workload.
SERVE_CLIENTS = 2
#: Logged "answer" of a reload whose VP and PT row counts all checked out.
LOAD_OK = (1, "load check passed")


@dataclass
class Window:
    """What one measured window produced."""

    latencies: list[float] = field(default_factory=list)
    #: Window-clock time at which each op of ``latencies`` completed.
    done_at: list[float] = field(default_factory=list)
    elapsed: float = 0.0
    log: AnswerLog = field(default_factory=AnswerLog)
    errors: list[str] = field(default_factory=list)
    #: Workload-specific input-property counters (e.g. absent-constant ops).
    tally: dict[str, int] = field(default_factory=dict)
    stored_bytes: int = 0
    triples_loaded: int = 0
    dictionary_terms: int = 0

    @property
    def attempted(self) -> int:
        return len(self.log.entries)

    def bump(self, name: str, amount: int = 1) -> None:
        self.tally[name] = self.tally.get(name, 0) + amount


class _Clock:
    """Window clock for a single client: pauses while the benchmark does
    its own bookkeeping (answer digests, input generation)."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.paused = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start - self.paused

    @contextmanager
    def pause(self):
        began = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - began


def _op(recorder, layer: str):
    return recorder.op("op", layer) if recorder is not None else nullcontext()


class Workload:
    """Base class: ``prepare`` → ``setup`` (timed, repeatable) → ``window``."""

    name = ""
    #: Layer of the public entry point each op calls (root-span self time).
    entry_layer = ""
    #: Ops in one round of the workload's mix; statistics blocks hold whole rounds.
    round_ops = 1
    #: WatDiv scale of the workload's datasets.
    scale = inputs.SCALE
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 3

    def __init__(self, seed: int, out_dir: str, scale: int | None = None):
        self.seed = seed
        self.out_dir = out_dir
        if scale is not None:
            self.scale = scale
        self.data = None
        self.state = None

    def prepare(self) -> None:
        """Generate the inputs (untimed)."""
        self.data = inputs.dataset(self.seed, self.scale)
        self.triples = len(self.data.graph)

    def release_graph(self) -> None:
        """Drop the generated graph once it is loaded and checked.

        The program does not need the input graph after loading; keeping it
        would add its objects to every garbage-collector pass the program
        makes during the window. The oracle regenerates it from the seed.
        """
        self.data.graph = None
        gc.collect()

    def setup(self) -> None:
        """Build the program state (timed): construction, first load, warm-up."""
        raise NotImplementedError

    def setup_problems(self) -> list[str]:
        """Load-check problems of the state ``setup`` built (untimed)."""
        return check_load(self.engine(), self.data.graph)

    def engine(self) -> ProstEngine:
        return self.state.engine if isinstance(self.state, QueryServer) else self.state

    def drop_state(self) -> None:
        self.state = None
        gc.collect()

    def window(self, seconds: float, recorder=None, namespace: str = "a") -> Window:
        raise NotImplementedError

    def expected(self, keys) -> dict:
        """Reference digests for the logged query keys."""
        graph = self.data.graph or inputs.dataset(self.seed, self.scale).graph
        return Oracle(graph).expected_for(keys)

    def fresh_window_state(self) -> None:
        """Reset state a second window in the same process must not inherit."""

    def shares(self, window: Window) -> dict[str, float]:
        """The measured input-property shares of a window."""
        return {}


class Ingest(Workload):
    """Reload a new dataset version through ``QueryServer.load`` per op."""

    name = "ingest"
    entry_layer = "serve"
    scale = inputs.INGEST_SCALE
    setup_repeats = 5  # a set-up is one sub-second load

    def __init__(self, seed: int, out_dir: str, scale: int | None = None):
        super().__init__(seed, out_dir, scale)
        self.version = 0

    def setup(self) -> None:
        server = QueryServer(ProstEngine())
        self.setup_report = server.load(self.data.graph)
        self.state = server

    def window(self, seconds, recorder=None, namespace="a") -> Window:
        server = self.state
        result = Window()
        clock = _Clock()
        while clock.elapsed() < seconds:
            with clock.pause():
                self.version += 1
                graph = inputs.dataset(self.seed + self.version, self.scale).graph
                gc.collect()
            started = time.perf_counter()
            try:
                with _op(recorder, self.entry_layer):
                    report = server.load(graph)
            except Exception as error:  # a failed reload is a failed op
                result.errors.append(f"reload {self.version}: {error!r}")
                result.log.record_failure(f"version-{self.version}")
                continue
            result.latencies.append(time.perf_counter() - started)
            result.done_at.append(clock.elapsed())
            with clock.pause():
                problems = check_load(server.engine, graph)
                key = f"version-{self.version}"
                result.log.entries.append((key, None if problems else LOAD_OK))
                result.errors.extend(problems)
                result.stored_bytes += report.stored_bytes
                result.triples_loaded += report.triples_loaded
                result.dictionary_terms = len(default_dictionary())
                del graph
        result.elapsed = clock.elapsed()
        return result

    def expected(self, keys) -> dict:
        return {key: LOAD_OK for key in keys}


class Adhoc(Workload):
    """First-sight queries straight to ``ProstEngine.sparql``, one client."""

    name = "adhoc"
    entry_layer = "core.prost"
    round_ops = len(inputs.TEMPLATES)

    def setup(self) -> None:
        engine = ProstEngine()
        self.setup_report = engine.load(self.data.graph)
        for query in inputs.basic_mix(self.data):
            engine.sparql(query.text)
        self.state = engine

    def window(self, seconds, recorder=None, namespace="a") -> Window:
        engine = self.state
        stream = inputs.adhoc_stream(self.data, self.seed, namespace)
        result = Window()
        clock = _Clock()
        done = 0
        while clock.elapsed() < seconds or done % len(inputs.TEMPLATES):  # whole rounds
            done += 1
            with clock.pause():
                query = next(stream)
            started = time.perf_counter()
            try:
                with _op(recorder, self.entry_layer):
                    answer = engine.sparql(query.text)
            except Exception as error:
                result.errors.append(f"{query.template}: {error!r}")
                with clock.pause():
                    result.log.record_failure(query.key)
                continue
            result.latencies.append(time.perf_counter() - started)
            result.done_at.append(clock.elapsed())
            with clock.pause():
                result.log.record(query.key, answer.rows)
                result.bump("absent", int(query.absent))
        result.elapsed = clock.elapsed()
        result.dictionary_terms = len(default_dictionary())
        return result

    def shares(self, window):
        done = max(window.attempted, 1)
        return {"absent_constant_ops": window.tally.get("absent", 0) / done}


class Serve(Workload):
    """Two closed-loop clients calling ``QueryServer.sparql`` with Zipf
    popularity over a pool larger than the result cache."""

    name = "serve"
    entry_layer = "serve"

    def prepare(self) -> None:
        super().prepare()
        self.pool = inputs.serve_pool(self.data, self.seed)
        self.requests = inputs.zipf_requests(len(self.pool), 50_000, self.seed)

    def setup(self) -> None:
        engine = ProstEngine()
        server = QueryServer(engine)
        self.setup_report = server.load(self.data.graph)
        # Warm the engine (columnar scans) without touching the server's
        # caches, which every window starts empty.
        for query in inputs.basic_mix(self.data):
            engine.sparql(query.text)
        self.state = server

    def fresh_window_state(self) -> None:
        self.state = QueryServer(self.state.engine)

    def window(self, seconds, recorder=None, namespace="a") -> Window:
        server = self.state
        result = Window()
        lock = threading.Lock()
        cursor = [0]
        per_client: list[tuple[list[tuple[float, float]], AnswerLog, list[str]]] = []
        deadline = [0.0]
        window_start = [0.0]

        def client() -> None:
            latencies: list[tuple[float, float]] = []  # (completed at, latency)
            log = AnswerLog()
            errors: list[str] = []
            per_client.append((latencies, log, errors))
            try:
                serve_loop(latencies, log, errors)
            except BaseException as error:  # surfaced by the correctness gate
                errors.append(f"client crashed: {error!r}")
                log.record_failure("client-crash")

        def serve_loop(latencies, log, errors) -> None:
            while time.perf_counter() < deadline[0]:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                query = self.pool[self.requests[index % len(self.requests)]]
                started = time.perf_counter()
                try:
                    with _op(recorder, self.entry_layer):
                        answer = server.sparql(query.text)
                except Exception as error:
                    errors.append(f"{query.template}: {error!r}")
                    log.record_failure(query.key)
                    continue
                done = time.perf_counter()
                latencies.append((done - window_start[0], done - started))
                log.record(query.key, answer.rows, answer.report)

        threads = [threading.Thread(target=client, daemon=True) for _ in range(SERVE_CLIENTS)]
        started = time.perf_counter()
        window_start[0] = started
        deadline[0] = started + seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
            if thread.is_alive():
                raise RuntimeError("serve client did not finish")
        result.elapsed = time.perf_counter() - started
        completed = []
        for latencies, log, errors in per_client:
            completed.extend(latencies)
            result.log.entries.extend(log.entries)
            result.errors.extend(errors)
        for done, latency in sorted(completed):
            result.done_at.append(done)
            result.latencies.append(latency)
        served = [self.requests[i % len(self.requests)] for i in range(cursor[0])]
        result.bump("requests", len(served))
        result.bump("repeats", len(served) - len(set(served)))
        result.bump("distinct", len(set(served)))
        result.dictionary_terms = len(default_dictionary())
        return result

    def shares(self, window):
        requests = max(window.tally.get("requests", 0), 1)
        return {
            "repeat_requests": window.tally.get("repeats", 0) / requests,
            "distinct_queries": window.tally.get("distinct", 0),
            "pool_size": len(self.pool),
        }


class Governed(Workload):
    """The 20-query basic mix, repeated, under a small per-query budget."""

    name = "governed"
    entry_layer = "core.prost"

    def prepare(self) -> None:
        super().prepare()
        self.mix = inputs.basic_mix(self.data)
        self.round_ops = len(self.mix)

    def setup(self) -> None:
        spill_dir = os.path.join(self.out_dir, "spill")
        os.makedirs(spill_dir, exist_ok=True)
        config = ClusterConfig(memory_budget_bytes=GOVERNED_BUDGET_BYTES, spill_dir=spill_dir)
        engine = ProstEngine(cluster_config=config)
        self.setup_report = engine.load(self.data.graph)
        for query in self.mix:
            engine.sparql(query.text)
        self.state = engine

    def window(self, seconds, recorder=None, namespace="a") -> Window:
        engine = self.state
        result = Window()
        clock = _Clock()
        while clock.elapsed() < seconds:  # whole rounds of the mix only
            for query in self.mix:
                started = time.perf_counter()
                try:
                    with _op(recorder, self.entry_layer):
                        answer = engine.sparql(query.text)
                except Exception as error:
                    result.errors.append(f"{query.template}: {error!r}")
                    with clock.pause():
                        result.log.record_failure(query.key)
                    continue
                result.latencies.append(time.perf_counter() - started)
                result.done_at.append(clock.elapsed())
                with clock.pause():
                    result.log.record(query.key, answer.rows)
                    spilled = answer.report.engine_report.metrics.spills > 0
                    result.bump("spilling", int(spilled))
            result.bump("rounds")
        result.elapsed = clock.elapsed()
        result.dictionary_terms = len(default_dictionary())
        return result

    def shares(self, window):
        done = max(window.attempted, 1)
        return {"spilling_ops": window.tally.get("spilling", 0) / done}


WORKLOADS = {cls.name: cls for cls in (Ingest, Adhoc, Serve, Governed)}
