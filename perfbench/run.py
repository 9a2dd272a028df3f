"""Run one PRoST benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {ingest,adhoc,serve,governed} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics of an untraced run. ``--trace 1``
makes a separate traced run: an untraced window and then a traced window
after one set-up, printing the per-layer metrics and the tracing overhead.
The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full record (environment fingerprint, sample
counts, input-property shares). The exit code is non-zero when any answer
or load was wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Layers whose self times the traced run reports (``self.<layer>_ms``).
LAYERS = (
    "rdf.stats",
    "core.loader",
    "columnar",
    "hdfs",
    "engine",
    "sparql",
    "core.translator",
    "analysis",
    "engine.optimizer",
    "engine.vectorized",
    "core.prost",
    "serve",
    "governor",
)
OPERATORS = ("Join", "Filter", "Project", "TableScan", "Explode")


def _import_program():
    """Put the checkout's ``src`` first on the path; fail if it is absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source under {ROOT / 'src'}\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))


def git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """sha256 over the program's source files (a commit stand-in when the
    checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(workload, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "scale": workload.scale,
        "seed": seed,
        "triples": workload.triples,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def machine_speed() -> float:
    """Loops per second of a fixed pure-Python loop (0.3 s): a yardstick for
    how fast this machine ran around a window, to tell program changes from
    machine drift when comparing runs. Not a metric of the program."""
    loops = 0
    started = time.perf_counter()
    while time.perf_counter() - started < 0.3:
        total = 0
        for value in range(10_000):
            total += value * value % 7
        loops += 1
    return loops / (time.perf_counter() - started)


def rss_peak_mb() -> float:
    """Peak resident memory of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(workload, window) -> dict[str, float]:
    """Throughput, median and 90th-percentile latency of one window, each a
    median over blocks of whole rounds (see ``perfbench.stats.block_metrics``)."""
    from perfbench.stats import block_metrics

    return block_metrics(window.latencies, window.done_at, workload.round_ops)


def tail_detail(workload, window) -> dict:
    """The whole window's nearest-rank tail, for the record only.

    ``op_p99_ms`` is not a bounded metric: on ``adhoc`` it is set by the
    growing full garbage-collector pauses (see README), which spread across
    seeds by more than any bound the benchmark may set.
    """
    from perfbench.stats import block_bounds, percentile, supported_tail

    ms = [value * 1e3 for value in window.latencies]
    return {
        "samples": len(ms),
        "supported_tail": supported_tail(len(ms)),
        "blocks": len(block_bounds(len(ms), workload.round_ops)) - 1,
        "window_op_p90_ms": percentile(ms, 90),
        "window_op_p99_ms": percentile(ms, 99),
    }


def gate(workload, windows) -> tuple[int, int, list[str]]:
    """(attempted, failed, failing keys) over the windows' logged answers."""
    keys = set()
    for window in windows:
        keys |= window.log.keys()
    expected = workload.expected(keys)
    attempted = sum(window.attempted for window in windows)
    failing = [key for window in windows for key in window.log.failures(expected)]
    return attempted, len(failing), failing


def run_untraced(workload, seconds: float) -> dict:
    """Set up ``workload.setup_repeats`` times (median is ``setup_s``), then measure."""
    setup_times = []
    problems: list[str] = []
    for repeat in range(workload.setup_repeats):
        if repeat:
            workload.drop_state()
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)
        problems += workload.setup_problems()
    workload.release_graph()
    speed_before = machine_speed()
    window = workload.window(seconds)
    rss = rss_peak_mb()
    speed_after = machine_speed()
    attempted, failed, failing = gate(workload, [window])
    from perfbench.stats import median

    if window.triples_loaded:  # ingest: the window's reloads
        stored = window.stored_bytes / window.triples_loaded
    else:  # query workloads: the set-up load
        report = workload.setup_report
        stored = report.stored_bytes / report.triples_loaded
    values = {
        "setup_s": median(setup_times),
        **latency_metrics(workload, window),
        "success_rate": (attempted - failed) / attempted,
        "rss_peak_mb": rss,
        "stored_bytes_per_triple": stored,
    }
    units = {
        "setup_s": "s",
        "ops_per_s": "1/s",
        "op_p50_ms": "ms",
        "op_p90_ms": "ms",
        "success_rate": "ratio",
        "rss_peak_mb": "MB",
        "stored_bytes_per_triple": "B",
    }
    detail = {
        "setup_samples_s": setup_times,
        **tail_detail(workload, window),
        "window_s": window.elapsed,
        "machine_loops_per_s": [speed_before, speed_after],
        "shares": workload.shares(window),
        "errors": (problems + window.errors)[:20],
        "failing_keys": failing[:20],
        "latencies_ms": [value * 1e3 for value in window.latencies],
    }
    correct = failed == 0 and not problems and not window.errors
    return _result(correct, attempted, failed + len(problems), values, units, detail)


def run_traced(workload, seconds: float) -> dict:
    """One traced set-up, an untraced window, then a traced window."""
    from perfbench.tracing import Recorder, installed

    setup_recorder = Recorder()
    with installed(setup_recorder), setup_recorder.op("setup", workload.entry_layer):
        workload.setup()
    problems = workload.setup_problems()
    workload.release_graph()
    plain = workload.window(seconds, namespace="u")
    workload.fresh_window_state()
    recorder = Recorder()
    with installed(recorder):
        traced = workload.window(seconds, recorder=recorder, namespace="t")
    attempted, failed, failing = gate(workload, [plain, traced])

    ops = max(recorder.ops, 1)
    incl = recorder.inclusive_seconds
    self_by_name = recorder.self_by_name
    counts = recorder.counts
    values: dict[str, float] = {}
    units: dict[str, str] = {}

    def put(name: str, value: float, unit: str) -> None:
        values[name] = value
        units[name] = unit

    # Load-path figures are per load: from the traced window's loads when the
    # window loads (ingest), otherwise from the traced set-up's one load.
    loader = recorder if recorder.counts.get("core.prost.loads") else setup_recorder
    loads = max(loader.counts.get("core.prost.loads", 0), 1)
    for name in ("rdf.stats.collect", "core.loader.vp_build", "core.loader.pt_build",
                 "columnar.write_table", "columnar.encode_best"):
        put(f"{name}_s", loader.inclusive_seconds.get(name, 0.0) / loads, "s")
    put("columnar.encode_best_calls", loader.counts.get("columnar.encode_best_calls", 0) / loads, "count/op")
    put("hdfs.bytes_written", loader.counts.get("hdfs.bytes_written", 0) / loads, "B/op")
    put("rdf.dictionary.terms", traced.dictionary_terms, "count")
    for span, metric in (
        ("sparql.parse", "sparql.parse_ms"),
        ("core.translator.translate", "core.translator.translate_ms"),
        ("analysis.verify", "analysis.verify_ms"),
        ("engine.optimizer.optimize", "engine.optimizer.optimize_ms"),
        ("core.prost.finalize", "core.prost.finalize_ms"),
        ("engine.execute", "engine.execute_ms"),
        ("serve.canonicalize", "serve.canonicalize_ms"),
        ("governor.admit", "governor.admission_wait_ms"),
        ("governor.spill_join", "governor.spill_join_ms"),
        ("governor.cleanup", "governor.cleanup_ms"),
    ):
        put(metric, incl.get(span, 0.0) / ops * 1e3, "ms")
    for operator in OPERATORS:
        put(f"engine.op.{operator}_ms", self_by_name.get(f"engine.op.{operator}", 0.0) / ops * 1e3, "ms")
    put(
        "engine.rows_scanned_per_row_out",
        counts.get("engine.rows_scanned", 0) / max(counts.get("engine.rows_output", 0), 1),
        "ratio",
    )
    stats = workload.state.stats if workload.name == "serve" else None
    for cache in ("result", "plan"):
        hits = getattr(stats, f"{cache}_cache_hits", 0) if stats else 0
        misses = getattr(stats, f"{cache}_cache_misses", 0) if stats else 0
        put(f"serve.{cache}_cache_hit_ratio", hits / max(hits + misses, 1), "ratio")
        put(f"serve.{cache}_cache_evictions", counts.get(f"serve.{cache}_cache_evictions", 0) / ops, "count/op")
    for counter in ("spills", "spill_partitions", "degraded_joins", "budget_trips", "spill_files"):
        put(f"governor.{counter}", counts.get(f"governor.{counter}", 0) / ops, "count/op")
    put("governor.spill_bytes", counts.get("governor.spill_bytes", 0) / ops, "B/op")

    plain_latency = latency_metrics(workload, plain)
    traced_latency = latency_metrics(workload, traced)
    put("obs.tracing_overhead_pct", 100.0 * (traced_latency["op_p50_ms"] / plain_latency["op_p50_ms"] - 1.0), "%")
    put("obs.tracing_overhead_ops_pct", 100.0 * (1.0 - traced_latency["ops_per_s"] / plain_latency["ops_per_s"]), "%")
    op_total = sum(recorder.op_seconds)
    put("obs.traced_op_ms", op_total / ops * 1e3, "ms")
    unknown = set(recorder.self_seconds) - set(LAYERS)
    if unknown:
        raise RuntimeError(f"spans recorded under unlisted layers: {sorted(unknown)}")
    for layer in LAYERS:
        put(f"self.{layer}_ms", recorder.self_seconds.get(layer, 0.0) / ops * 1e3, "ms")
    self_total = sum(recorder.self_seconds.values())
    if abs(self_total - op_total) > 1e-9 * max(ops, 1) + 1e-9 * op_total:
        raise RuntimeError(f"layer self times {self_total} do not add up to op time {op_total}")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{workload.name}-seed{workload.seed}-spans.json"
    recorder.write(str(spans_path))
    setup_spans_path = OUT_DIR / f"{workload.name}-seed{workload.seed}-setup-spans.json"
    setup_recorder.write(str(setup_spans_path))
    detail = {
        "source": (
            "traced run: per-layer numbers come from the traced window; load-path"
            " numbers are per load, from the traced set-up when the window loads nothing"
        ),
        "load_source": "window" if loader is recorder else "set-up",
        "traced_ops": recorder.ops,
        "untraced": plain_latency,
        "traced": traced_latency,
        "traced_samples": len(traced.latencies),
        "self_time_sum_ms": self_total * 1e3,
        "op_time_sum_ms": op_total * 1e3,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "setup_spans_file": str(setup_spans_path.relative_to(ROOT)),
        "shares": workload.shares(traced),
        "errors": (problems + plain.errors + traced.errors)[:20],
        "failing_keys": failing[:20],
    }
    correct = failed == 0 and not problems and not plain.errors and not traced.errors
    return _result(correct, attempted, failed + len(problems), values, units, detail)


def _result(correct, attempted, failed, values, units, detail) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ingest", "adhoc", "serve", "governed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=None, help="WatDiv scale override (self-tests only)")
    args = parser.parse_args(argv)

    _import_program()
    from perfbench.workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, str(OUT_DIR), args.scale)
    workload.prepare()
    run = run_traced if args.trace else run_untraced
    result = run(workload, args.seconds)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "fingerprint": fingerprint(workload, args.seed),
        **result["detail"],
        "metrics": result["metrics"],
    }
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2))
    record.pop("latencies_ms", None)
    print(json.dumps(record))
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
