"""Small statistics helpers: percentiles, tail naming, medians."""

from __future__ import annotations

import math

#: Samples a percentile needs beyond it before the benchmark reports it as
#: the tail (p99 needs 1,000 samples, p90 needs 100).
TAIL_SAMPLES_BEYOND = 10


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: list[float]) -> float:
    """The median (mean of the middle two for an even count)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count)) if count else 0


def supported_tail(count: int) -> str | None:
    """Name of the highest tail metric ``count`` samples support.

    A percentile is supported when at least ``TAIL_SAMPLES_BEYOND`` samples
    lie beyond it: ``op_p99_ms`` from 1,000 samples, ``op_p90_ms`` from
    100, and no tail below that.
    """
    for pct, name in ((99, "op_p99_ms"), (90, "op_p90_ms")):
        if samples_beyond(count, pct) >= TAIL_SAMPLES_BEYOND:
            return name
    return None


#: Fewest ops in one block of :func:`block_metrics`: the block's p90 then
#: has at least ``TAIL_SAMPLES_BEYOND`` samples beyond it.
BLOCK_MIN_OPS = 100
#: Most blocks a window is split into.
BLOCK_MAX = 10


def block_bounds(count: int, unit: int = 1) -> list[int]:
    """Op indexes that split ``count`` ops into equal consecutive blocks.

    Every block holds at least ``BLOCK_MIN_OPS`` ops and a whole number of
    ``unit`` ops (a round of the workload's mix), so each block sees the
    same mix. Too few ops make one block of all of them.
    """
    rounds = count // unit
    per_block = -(-BLOCK_MIN_OPS // unit)  # rounds per block, rounded up
    blocks = max(1, min(BLOCK_MAX, rounds // per_block))
    if blocks == 1:
        return [0, count]
    return [unit * round(i * rounds / blocks) for i in range(blocks)] + [count]


def block_metrics(latencies: list[float], done_at: list[float], unit: int = 1) -> dict:
    """Throughput and latency percentiles as medians over blocks of ops.

    ``latencies`` (seconds) and ``done_at`` (window-clock seconds at which
    each op completed) are in completion order. Each block's throughput is
    its ops over the window time between the previous block's last
    completion and its own; its percentiles are nearest-rank over its ops.
    A median over blocks keeps a short stall of a shared machine, or one
    garbage-collector pause, from moving the whole window's figures.
    """
    bounds = block_bounds(len(latencies), unit)
    rates, p50, p90 = [], [], []
    for first, last in zip(bounds, bounds[1:]):
        began = done_at[first - 1] if first else 0.0
        rates.append((last - first) / (done_at[last - 1] - began))
        ms = [value * 1e3 for value in latencies[first:last]]
        p50.append(percentile(ms, 50))
        p90.append(percentile(ms, 90))
    return {"ops_per_s": median(rates), "op_p50_ms": median(p50), "op_p90_ms": median(p90)}
