"""Write ``refs.json``: the expected answer of every catalog query.

Each answer comes from a path independent of the one the benchmark times:

* a ``repro.baselines`` matcher (RapidMatch-style WCOJ for edge-induced and
  homomorphic counts, VF3-style VF2 for vertex-induced counts, RI-style
  backtracking for the embedding sets of streaming workloads) when it
  finishes within :data:`BASELINE_SECONDS`;
* otherwise the agreement of three engine paths: the default (factorized
  where eligible) count, the flat count, and the ``workers=2`` pool count.

Every engine path must agree with the others and with a finished baseline;
any disagreement aborts without writing. Usage::

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import sys
import time

import catalog
from run import FLAT_CAP

BASELINE_SECONDS = 120.0
BASELINES = {
    "edge_induced": "WCOJMatcher",
    "homomorphic": "WCOJMatcher",
    "vertex_induced": "VF2Matcher",
}


def source_variants() -> dict[str, dict[str, str]]:
    """``{source: {variant: mode}}`` over every workload."""
    needed: dict[str, dict[str, str]] = {}
    for workload in catalog.WORKLOADS.values():
        variants = needed.setdefault(workload.source, {})
        for variant in workload.variants:
            if variants.get(variant) != "stream":
                variants[variant] = workload.mode
    return needed


def engine_answer(engine, pattern, variant, mode) -> dict:
    counts = {
        "default": engine.match(pattern, variant, count_only=True),
        "flat": engine.match(
            pattern, variant, count_only=True, max_embeddings=FLAT_CAP
        ),
        "workers=2": engine.match(pattern, variant, count_only=True, workers=2),
    }
    for path, result in counts.items():
        if result.stop_reason is not None:
            raise SystemExit(f"{path} stopped early: {result.stop_reason}")
    values = {path: result.count for path, result in counts.items()}
    if len(set(values.values())) != 1:
        raise SystemExit(f"engine paths disagree: {values}")
    answer = {"count": values["default"]}
    if mode == "stream":
        fold = catalog.embedding_folder(pattern.num_vertices)
        digest = 0
        with engine.match_iter(pattern, variant) as stream:
            for embedding in stream:
                digest = fold(digest, embedding)
        if stream.count != answer["count"]:
            raise SystemExit(f"stream count {stream.count} != {answer['count']}")
        answer["digest"] = format(digest & catalog.DIGEST_MASK, "016x")
    return answer


def baseline_answer(graph, pattern, variant, mode) -> dict | None:
    import repro.baselines as baselines

    name = "BacktrackingMatcher" if mode == "stream" else BASELINES[variant]
    matcher = getattr(baselines, name)(graph)
    result = matcher.match(
        pattern, variant, count_only=mode != "stream", time_limit=BASELINE_SECONDS
    )
    if result.timed_out:
        return None
    answer = {"count": result.count, "source": matcher.display_name}
    if mode == "stream":
        fold = catalog.embedding_folder(pattern.num_vertices)
        digest = 0
        for embedding in result.embeddings:
            digest = fold(digest, embedding)
        answer["digest"] = format(digest & catalog.DIGEST_MASK, "016x")
    return answer


def main() -> int:
    from repro import CSCE

    refs: dict = {}
    for source_name, variants in source_variants().items():
        graph = catalog.build_graph(catalog.SOURCES[source_name])
        engine = CSCE(graph)
        for name in catalog.CATALOG_SEEDS:
            answers = refs.setdefault(name, {}).setdefault(source_name, {})
            for pattern in catalog.sample_patterns(source_name, graph, name):
                fp = catalog.fingerprint(pattern)
                for variant, mode in variants.items():
                    start = time.perf_counter()
                    answer = engine_answer(engine, pattern, variant, mode)
                    base = baseline_answer(graph, pattern, variant, mode)
                    if base is None:
                        answer["source"] = "agreement: default, flat, workers=2"
                    elif {k: base[k] for k in answer} != answer:
                        raise SystemExit(
                            f"{fp}/{variant}: baseline {base} != engine {answer}"
                        )
                    else:
                        answer = base
                    answers[f"{fp}/{variant}"] = answer
                    print(
                        f"{name} {source_name} {fp}/{variant}: {answer}"
                        f" ({time.perf_counter() - start:.1f} s)",
                        flush=True,
                    )
    with open(catalog.REFS_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {"format": "perfbench-refs", "version": 1, "catalogs": refs},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
