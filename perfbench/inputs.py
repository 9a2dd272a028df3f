"""Seeded input generation: datasets, query pools and request streams.

Everything here is a pure function of the workload seed. The program under
test only ever receives the generated graphs and query texts.
"""

from __future__ import annotations

import bisect
import random
import re
from dataclasses import dataclass

from repro.watdiv.generator import WatDivDataset, generate_watdiv
from repro.watdiv.queries import TEMPLATES, QueryTemplate, basic_query_set

#: WatDiv scale the query workloads run at (about 79k triples).
SCALE = 2000
#: WatDiv scale of every dataset version ``ingest`` loads (about 16k
#: triples): a reload takes about 0.8 s, so one window holds enough reloads
#: for a steady median.
INGEST_SCALE = 400
#: Share of adhoc ops whose first placeholder is a constant the graph lacks.
ABSENT_SHARE = 0.1
#: Distinct instantiations the adhoc workload draws each template from.
ADHOC_SALTS_PER_TEMPLATE = 8
#: Distinct instantiations in the serve workload's popularity pool.
SERVE_POOL_SIZE = 1200
#: Zipf exponent of serve request popularity.
SERVE_ZIPF_S = 1.0

_PLACEHOLDER = re.compile(r"%([a-z_]+)%")
_VARIABLE = re.compile(r"\?(v\d+)\b")
_ABSENT_BASE = "http://db.uwaterloo.ca/~galuc/wsdbm/absent"


@dataclass(frozen=True)
class Query:
    """One query the benchmark may send.

    ``key`` identifies the expected answer: texts that differ only by a
    variable suffix share a key, because renaming variables keeps the
    answer's rows (projection order is unchanged).
    """

    key: str
    template: str
    text: str
    absent: bool = False


def dataset(seed: int, scale: int = SCALE) -> WatDivDataset:
    """The WatDiv dataset for ``seed`` (version ``k`` of ingest uses ``seed + k``)."""
    return generate_watdiv(scale=scale, seed=seed)


def has_placeholder(template: QueryTemplate) -> bool:
    """Whether the template has a ``%kind%`` constant to instantiate."""
    return _PLACEHOLDER.search(template.template) is not None


def instantiate(template: QueryTemplate, data: WatDivDataset, salt: int) -> Query:
    """The template's ``salt`` instantiation, keyed by its own text."""
    text = template.instantiate(data, salt=salt)
    return Query(key=text, template=template.name, text=text)


def instantiate_absent(
    template: QueryTemplate, data: WatDivDataset, salt: int, tag: str
) -> Query:
    """Like :func:`instantiate`, but the first placeholder names an IRI
    absent from every generated graph (``tag`` makes it unique)."""
    first = _PLACEHOLDER.search(template.template)
    if first is None:
        raise ValueError(f"template {template.name} has no placeholder")
    present = data.placeholder(first.group(1), salt).n3()
    text = template.instantiate(data, salt=salt)
    head, body = text.split("WHERE", 1)
    body = body.replace(present, f"<{_ABSENT_BASE}/{first.group(1)}/{tag}>", 1)
    text = head + "WHERE" + body
    return Query(key=text, template=template.name, text=text, absent=True)


def with_suffix(query: Query, suffix: str) -> Query:
    """The same query with every variable renamed ``?vN`` → ``?vN_<suffix>``.

    The renamed text is new to every cache keyed on text, while its answer
    rows are those of ``query`` (same projection positions).
    """
    text = _VARIABLE.sub(lambda match: f"?{match.group(1)}_{suffix}", query.text)
    return Query(key=query.key, template=query.template, text=text, absent=query.absent)


def adhoc_stream(data: WatDivDataset, seed: int, namespace: str):
    """Endless stream of first-sight adhoc queries.

    Templates are drawn uniformly over the twenty, without replacement in
    rounds of twenty (each round is a seeded shuffle), so every window holds
    the same template mix. Each op takes one of the template's first
    ``ADHOC_SALTS_PER_TEMPLATE`` seeded instantiations and renames its
    variables with a per-op suffix. In every round, ``ABSENT_SHARE`` of the
    ops (two of twenty) are templates with a placeholder whose constant is
    replaced by an IRI no graph contains, unique to the op.
    """
    rng = random.Random(seed * 7919 + 17)
    salts = {
        template.name: rng.sample(range(10_000), ADHOC_SALTS_PER_TEMPLATE)
        for template in TEMPLATES
    }
    absent_per_round = round(ABSENT_SHARE * len(TEMPLATES))
    index = 0
    while True:
        order = list(TEMPLATES)
        rng.shuffle(order)
        candidates = [t.name for t in order if has_placeholder(t)]
        absent = set(rng.sample(candidates, absent_per_round))
        for template in order:
            suffix = f"{namespace}{index}"
            salt = rng.choice(salts[template.name])
            if template.name in absent:
                base = instantiate_absent(template, data, salt, tag=f"{seed}-{suffix}")
            else:
                base = instantiate(template, data, salt)
            yield with_suffix(base, suffix)
            index += 1


def serve_pool(data: WatDivDataset, seed: int, size: int = SERVE_POOL_SIZE) -> list[Query]:
    """About ``size`` distinct instantiations, in seeded popularity order.

    Templates take turns, in a seeded order each round, contributing their
    next new instantiation until the pool is full or every template is
    exhausted. Position ``r`` of the pool is the ``r+1``-th most popular
    query, so the hot head holds one query of every template whatever the
    seed, and the seed only changes which constants and turn order it gets.
    """
    rng = random.Random(seed * 104729 + 3)
    seen: dict[str, set[str]] = {t.name: set() for t in TEMPLATES}
    exhausted: set[str] = set()
    pool: list[Query] = []
    while len(pool) < size and len(exhausted) < len(TEMPLATES):
        order = list(TEMPLATES)
        rng.shuffle(order)
        for template in order:
            if template.name in exhausted or len(pool) >= size:
                continue
            for _ in range(64):
                query = instantiate(template, data, rng.randrange(100_000))
                if query.key not in seen[template.name]:
                    seen[template.name].add(query.key)
                    pool.append(query)
                    break
            else:
                exhausted.add(template.name)
    return pool


def zipf_requests(pool_size: int, count: int, seed: int, s: float = SERVE_ZIPF_S) -> list[int]:
    """``count`` pool indexes drawn with Zipf(``s``) popularity over ranks."""
    rng = random.Random(seed * 15485863 + 5)
    cumulative = []
    total = 0.0
    for rank in range(1, pool_size + 1):
        total += 1.0 / rank**s
        cumulative.append(total)
    return [
        min(bisect.bisect_left(cumulative, rng.random() * total), pool_size - 1)
        for _ in range(count)
    ]


def basic_mix(data: WatDivDataset) -> list[Query]:
    """The twenty WatDiv basic queries, one instantiation each."""
    return [
        Query(key=query.text, template=query.name, text=query.text)
        for query in basic_query_set(data)
    ]
