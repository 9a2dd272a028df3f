"""Correctness gate: answer digests, the reference oracle, load checks.

Each op's answer is reduced to a multiset digest of its decoded rows right
after the op (outside its latency timer). Expected digests come from
``repro.rdf.reference.ReferenceEvaluator`` once per distinct query, after
the measured window, so neither the oracle's time nor its memory shows in
the program's metrics.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.rdf.reference import ReferenceEvaluator
from repro.sparql.algebra import TriplePattern, Variable
from repro.sparql.parser import parse_sparql


def _cell(term) -> str:
    return "UNBOUND" if term is None else term.n3()


def digest(rows) -> tuple[int, str]:
    """Order-insensitive digest of decoded rows: ``(row count, sha256)``."""
    encoded = sorted("\t".join(_cell(term) for term in row) for row in rows)
    return len(encoded), hashlib.sha256("\n".join(encoded).encode()).hexdigest()


class AnswerLog:
    """Digests of every op's answer, checked against the oracle at the end.

    ``record`` is called by the client right after an op returns. A result
    served from the result cache shares its rows with an earlier result, so
    the digest of an identical row list is reused (``==`` on lists of the
    very same tuples is a C-level identity scan), keeping the check cheap on
    the hit path while still reading every row.
    """

    def __init__(self) -> None:
        self.entries: list[tuple[str, tuple[int, str] | None]] = []
        self._memo: dict[int, tuple[object, list, tuple[int, str]]] = {}

    def record(self, key: str, rows, report=None) -> None:
        """Log the answer ``rows`` of the query identified by ``key``."""
        value = None
        if report is not None:
            memo = self._memo.get(id(report))
            if memo is not None and memo[1] == rows:
                value = memo[2]
        if value is None:
            value = digest(rows)
            if report is not None:
                if len(self._memo) >= 1024:
                    self._memo.pop(next(iter(self._memo)))
                self._memo[id(report)] = (report, list(rows), value)
        self.entries.append((key, value))

    def record_failure(self, key: str) -> None:
        """Log an op that raised instead of answering."""
        self.entries.append((key, None))

    def keys(self) -> set[str]:
        """Every distinct query key logged."""
        return {key for key, _ in self.entries}

    def failures(self, expected: dict[str, tuple[int, str]]) -> list[str]:
        """Keys of ops whose answer was missing or differs from ``expected``."""
        return [key for key, value in self.entries if value is None or value != expected[key]]


def _selective_order(patterns, stats) -> list[TriplePattern]:
    """Reorder a BGP so every pattern after the first joins on a bound
    variable, most selective first.

    BGP answers do not depend on pattern order; the oracle's backtracking
    matcher is simply far faster when constants and bound variables come
    first. ``stats`` maps predicate → (triples, subjects, objects, object
    counts).
    """
    remaining = list(patterns)
    bound: set[str] = set()
    ordered: list[TriplePattern] = []

    def estimate(pattern: TriplePattern) -> float:
        triples, subjects, objects, object_counts = stats.get(
            pattern.predicate, (0, 1, 1, Counter())
        )
        s_bound = not isinstance(pattern.subject, Variable) or pattern.subject.name in bound
        o_const = not isinstance(pattern.object, Variable)
        o_bound = o_const or pattern.object.name in bound
        if s_bound and o_bound:
            return 0.5
        if o_const:
            return float(object_counts.get(pattern.object, 0))
        if s_bound:
            return triples / max(subjects, 1)
        if o_bound:
            return triples / max(objects, 1)
        return float(triples) * 10  # disconnected: last resort

    while remaining:
        best = min(remaining, key=estimate)
        remaining.remove(best)
        ordered.append(best)
        for slot in (best.subject, best.predicate, best.object):
            if isinstance(slot, Variable):
                bound.add(slot.name)
    return ordered


@dataclass
class Oracle:
    """Expected digests for query texts over one graph, memoized per key."""

    graph: object
    _evaluator: ReferenceEvaluator | None = None
    _stats: dict = field(default_factory=dict)
    _expected: dict[str, tuple[int, str]] = field(default_factory=dict)

    def _prepare(self) -> ReferenceEvaluator:
        if self._evaluator is None:
            self._evaluator = ReferenceEvaluator(self.graph)
            by_predicate: dict = {}
            for triple in self.graph:
                by_predicate.setdefault(triple.predicate, []).append(triple)
            for predicate, triples in by_predicate.items():
                objects = Counter(triple.object for triple in triples)
                subjects = len({triple.subject for triple in triples})
                self._stats[predicate] = (len(triples), subjects, len(objects), objects)
        return self._evaluator

    def expected(self, key: str) -> tuple[int, str]:
        """The digest of the reference answer to the query text ``key``."""
        found = self._expected.get(key)
        if found is None:
            evaluator = self._prepare()
            parsed = parse_sparql(key)
            parsed = replace(parsed, patterns=tuple(_selective_order(parsed.patterns, self._stats)))
            found = digest(evaluator.evaluate(parsed))
            self._expected[key] = found
        return found

    def expected_for(self, keys) -> dict[str, tuple[int, str]]:
        """Expected digests for every key in ``keys``."""
        return {key: self.expected(key) for key in keys}


def check_load(engine, graph) -> list[str]:
    """Problems with a finished load: VP table row counts against the
    graph's per-predicate triple counts, and the Property Table's row count
    against the graph's distinct subjects. Empty when the load is right."""
    store = engine.store
    catalog = engine.session.catalog
    problems = []
    counts = graph.predicate_counts()
    if set(store.vp_tables) != {predicate.value for predicate in counts}:
        problems.append("VP tables do not cover exactly the graph's predicates")
    for predicate, count in counts.items():
        info = store.vp_tables.get(predicate.value)
        if info is not None and catalog.get(info.table_name).row_count != count:
            problems.append(f"VP table for {predicate.value} has the wrong row count")
    subjects = len({triple.subject for triple in graph})
    pt = store.property_table
    if pt is None or catalog.get(pt.table_name).row_count != subjects:
        problems.append("Property Table row count differs from the distinct subjects")
    return problems
