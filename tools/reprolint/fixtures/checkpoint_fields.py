"""Known-bad fixture for the registry_literals pass: a counter carried
across suspend/resume that is not a STAT_KEYS member. (The document keys
are frozen by the checkpoint wire manifest; see the wire_schema pass.)"""

_RUNTIME_COUNTERS = (
    "nodes",
    "backtracks",
    "node_visits",  # violation: not a STAT_KEYS member
)
