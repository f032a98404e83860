"""Workloads, seeded query catalogs and reference answers.

A *source* is a dataset stand-in plus a rule for sampling patterns from it.
A *workload* queries one source's patterns under some SM variants, either
counting (``CSCE.match(count_only=True)``) or streaming every embedding
(``CSCE.match_iter``), at a number of worker processes.

A *catalog* is the finite query set of a workload, generated from a catalog
seed: ``main`` for everyday runs, ``heldout`` for confirming a claim on
patterns nobody looked at while writing the change. The run seed
(``--seed``) only orders the queries within each pass, so every seed
measures the same population and the committed references cover it.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS_PATH = HERE / "refs.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: Catalog name -> generation seed. ``heldout`` is for confirming claims.
CATALOG_SEEDS = {"main": 1, "heldout": 2}

#: Digests fold Python's tuple hash, so they are stable across 64-bit
#: CPython 3.8+ processes; the mask keeps them in 64 bits.
DIGEST_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Source:
    """A dataset stand-in and how its patterns are sampled."""

    dataset: str
    scale: float
    sizes: tuple[int, ...]
    style: str
    patterns: int
    num_labels: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    source: str
    variants: tuple[str, ...]
    mode: str  # "count" or "stream"
    workers: int
    why: str
    pass_seconds: float = 1.0
    """Nominal time of one pass over the catalog. A run makes
    ``round(seconds / pass_seconds)`` passes (at least one), so every run
    of a commit measures the same number of queries."""


SOURCES = {
    "dip-dense6": Source("dip", 0.1, (6,), "dense", 4),
    "patent2000-induced64": Source(
        "patent", 4.0, (64,), "induced", 16, num_labels=2000
    ),
    "roadca-sparse8to10": Source("roadca", 0.25, (8, 9, 10), "sparse", 12),
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-count",
            "dip-dense6",
            ("edge_induced", "homomorphic"),
            "count",
            1,
            "execute-bound counting: edge-induced pays the factorized"
            " counter's overhead, homomorphic shows its win",
            pass_seconds=7.0,
        ),
        Workload(
            "large-induced",
            "patent2000-induced64",
            ("vertex_induced",),
            "count",
            1,
            "the paper's large-pattern case: ReadCSR, planning and"
            " negation probes do most of the work, the counting loop little",
            pass_seconds=10.0,
        ),
        Workload(
            "sparse-stream",
            "roadca-sparse8to10",
            ("edge_induced",),
            "stream",
            1,
            "every embedding emitted through match_iter: the emit path,"
            " which bypasses the factorized counter",
            pass_seconds=6.0,
        ),
        Workload(
            "pool-w2",
            "dip-dense6",
            ("edge_induced",),
            "count",
            2,
            "the dense-count edge-induced queries on the 2-worker pool,"
            " the only workload that runs the pool layer",
            pass_seconds=3.0,
        ),
    )
}


@dataclass(frozen=True)
class Query:
    qid: str  # "<pattern fingerprint>/<variant>"
    fingerprint: str
    variant: str
    pattern: object  # repro.graph.model.Graph


def build_graph(source: Source):
    from repro.datasets.registry import load_dataset

    kwargs = {} if source.num_labels is None else {"num_labels": source.num_labels}
    return load_dataset(source.dataset, source.scale, **kwargs)


def fingerprint(pattern) -> str:
    """A short digest of the pattern's labels and edges, in vertex order."""
    edges = sorted(
        (e.src, e.dst, repr(e.label), e.directed) for e in pattern.edges()
    )
    text = repr((list(map(repr, pattern.vertex_labels)), edges))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sample_patterns(source_name: str, graph, catalog: str) -> list:
    """The catalog's distinct patterns of one source, in generation order."""
    from repro.graph.sampling import sample_pattern

    source = SOURCES[source_name]
    rng = random.Random(f"{source_name}:{CATALOG_SEEDS[catalog]}")
    patterns, seen = [], set()
    for _ in range(50 * source.patterns):
        if len(patterns) == source.patterns:
            break
        size = rng.choice(source.sizes)
        pattern = sample_pattern(graph, size, rng=rng, style=source.style)
        fp = fingerprint(pattern)
        if fp not in seen:
            seen.add(fp)
            patterns.append(pattern)
    if len(patterns) != source.patterns:
        raise RuntimeError(f"{source_name}: too few distinct patterns")
    return patterns


def catalog_queries(workload: Workload, graph, catalog: str) -> list[Query]:
    queries = []
    for pattern in sample_patterns(workload.source, graph, catalog):
        fp = fingerprint(pattern)
        for variant in workload.variants:
            queries.append(Query(f"{fp}/{variant}", fp, variant, pattern))
    return queries


def pass_order(queries: list[Query], rng: random.Random) -> list[Query]:
    """One pass: every catalog query once, in the run seed's order."""
    order = list(queries)
    rng.shuffle(order)
    return order


def embedding_folder(num_vertices: int):
    """``fold(total, embedding)``: add one embedding to a set digest.

    Embeddings are ``{pattern vertex: data vertex}`` dicts; the values are
    read in pattern-vertex order and the hashes summed, so the digest
    depends neither on the plan's matching order nor on the order the
    embeddings arrive.
    """
    keys = range(num_vertices)

    def fold(total: int, embedding: dict) -> int:
        return total + hash(tuple(map(embedding.__getitem__, keys)))

    return fold


def load_refs() -> dict:
    """``{catalog: {source: {qid: {"count", "source"[, "digest"]}}}}``."""
    with open(REFS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["catalogs"]


def check_answer(
    ref: dict | None,
    count: int,
    digest: int | None = None,
    stop_reason: str | None = None,
) -> str | None:
    """Why an answer is wrong, or ``None`` when it matches the reference.

    A run that stopped early is wrong even when its partial count happens
    to match; a digest is checked only when the reference carries one.
    """
    if ref is None:
        return "no reference for this query (catalog drift?)"
    if stop_reason is not None:
        return f"stopped early: {stop_reason}"
    if count != ref["count"]:
        return f"count {count} != reference {ref['count']}"
    if "digest" in ref and digest is not None:
        if format(digest & DIGEST_MASK, "016x") != ref["digest"]:
            return "embedding digest differs from reference"
    return None
