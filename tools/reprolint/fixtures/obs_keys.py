"""Known-bad fixture for the registry_literals pass: counter, metric and
recorder event literals that exist in no registry (typos of real names)."""


def record(counters, registry, recorder, bytes_read):
    counters.inc("ccsr.bytes_red", bytes_read)  # violation: typo
    counters.inc("nodes")  # clean: STAT_KEYS member
    counters.inc("plan_cache.hits")  # clean: KNOWN_COUNTERS member
    registry.gauge("reed_seconds").set(1.0)  # violation: typo
    registry.counter("embeddings").set(3)  # clean: KNOWN_METRICS member
    recorder.record("degrad", rung="evict_memo")  # violation: typo
    recorder.record("degrade", rung="evict_memo")  # clean: KNOWN_EVENTS
