"""Self-tests of the benchmark.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import inputs, stats, workloads  # noqa: E402
from perfbench.tracing import Recorder  # noqa: E402
from perfbench.verify import AnswerLog, Oracle, digest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SCALE = 40
#: The declared workloads and those that run on request only (README).
WORKLOADS = sorted(workloads.WORKLOADS)


def _run(workload: str, trace: int) -> tuple[int, dict]:
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0.3", "--trace", str(trace), "--scale", str(TINY_SCALE),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return completed.returncode, json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_named_metric_with_its_unit(workload, trace):
    _, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert result["metrics"]["success_rate"]["value"] == 1.0


def _tiny_engine_answer():
    from repro.core.prost import ProstEngine

    data = inputs.dataset(seed=5, scale=TINY_SCALE)
    engine = ProstEngine()
    engine.load(data.graph)
    query = next(q for q in inputs.basic_mix(data) if q.template == "C3")
    return data, query, engine.sparql(query.text)


def test_a_dropped_row_is_counted_as_a_failure():
    data, query, answer = _tiny_engine_answer()
    assert len(answer.rows) > 1
    expected = Oracle(data.graph).expected_for([query.key])
    log = AnswerLog()
    log.record(query.key, answer.rows)
    log.record(query.key, answer.rows[1:])  # one row dropped
    log.record_failure(query.key)  # an op that raised
    assert log.failures(expected) == [query.key, query.key]


def test_a_cache_hit_memo_still_reads_every_row():
    _, query, answer = _tiny_engine_answer()
    log = AnswerLog()
    report = object()
    log.record(query.key, answer.rows, report)
    log.record(query.key, answer.rows[:-1], report)  # same report, row dropped
    assert log.entries[0][1] == digest(answer.rows)
    assert log.entries[1][1] == digest(answer.rows[:-1])


def test_reordered_oracle_matches_the_unordered_evaluator():
    from repro.rdf.reference import ReferenceEvaluator
    from repro.sparql.parser import parse_sparql

    data = inputs.dataset(seed=5, scale=TINY_SCALE)
    plain = ReferenceEvaluator(data.graph)
    oracle = Oracle(data.graph)
    for query in inputs.basic_mix(data):
        assert oracle.expected(query.key) == digest(plain.evaluate(parse_sparql(query.key)))


@pytest.mark.parametrize(
    "count, name",
    [(5, None), (99, None), (100, "op_p90_ms"), (999, "op_p90_ms"), (1000, "op_p99_ms"), (50_000, "op_p99_ms")],
)
def test_tail_metric_is_named_after_the_percentile_its_samples_support(count, name):
    assert stats.supported_tail(count) == name
    if name is not None:
        pct = 99 if name == "op_p99_ms" else 90
        assert stats.samples_beyond(count, pct) >= stats.TAIL_SAMPLES_BEYOND


def test_blocks_hold_whole_rounds_and_enough_ops_for_a_p90():
    assert stats.block_bounds(3) == [0, 3]
    assert stats.block_bounds(199) == [0, 199]
    bounds = stats.block_bounds(1_000, unit=20)
    assert bounds[0] == 0 and bounds[-1] == 1_000
    sizes = [last - first for first, last in zip(bounds, bounds[1:])]
    assert all(size % 20 == 0 and size >= stats.BLOCK_MIN_OPS for size in sizes)
    assert len(stats.block_bounds(100_000)) - 1 == stats.BLOCK_MAX


def test_block_medians_ignore_one_stalled_block():
    latencies = [0.001] * 1_000
    latencies[150] = 0.5  # one stall inside the second block
    done_at, clock = [], 0.0
    for latency in latencies:
        clock += latency
        done_at.append(clock)
    figures = stats.block_metrics(latencies, done_at)
    assert figures["ops_per_s"] == pytest.approx(1_000.0)
    assert figures["op_p50_ms"] == pytest.approx(1.0)
    assert figures["op_p90_ms"] == pytest.approx(1.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile([3.0], 99) == 3.0


def test_self_times_add_up_to_the_op_time():
    recorder = Recorder()
    with recorder.op("op", "root"):
        with recorder.span("a", "layer.a"):
            time.sleep(0.002)
            with recorder.span("b", "layer.b"):
                time.sleep(0.002)
        with recorder.span("c", "layer.a"):
            time.sleep(0.001)
    assert recorder.ops == 1
    assert sum(recorder.self_seconds.values()) == pytest.approx(recorder.op_seconds[0], rel=1e-9)
    assert recorder.self_seconds["layer.b"] == pytest.approx(recorder.inclusive_seconds["b"])
    assert recorder.self_seconds["layer.a"] < recorder.inclusive_seconds["a"] + recorder.inclusive_seconds["c"]


def test_inputs_are_a_function_of_the_seed():
    data = inputs.dataset(seed=9, scale=TINY_SCALE)
    first = [q.text for _, q in zip(range(60), inputs.adhoc_stream(data, 9, "x"))]
    again = [q.text for _, q in zip(range(60), inputs.adhoc_stream(data, 9, "x"))]
    assert first == again
    assert inputs.zipf_requests(100, 50, 9) == inputs.zipf_requests(100, 50, 9)
    absent = [q for _, q in zip(range(200), inputs.adhoc_stream(data, 9, "x")) if q.absent]
    assert len(absent) == 200 * inputs.ABSENT_SHARE
    assert len({q.text for q in absent}) == len(absent)
