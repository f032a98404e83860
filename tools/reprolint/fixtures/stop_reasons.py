"""Known-bad fixture for the registry_literals pass: stop_reason literals
that are not STOP_REASONS members, in each flagged position."""


def finish(runtime, result, make_result):
    runtime.stop_reason = "time-limit"  # violation: wrong spelling
    if result.stop_reason == "memory":  # violation: not a member
        pass
    if result.stop_reason == "cancelled":  # clean: canonical member
        pass
    return make_result(stop_reason="emb_limit")  # violation: not a member
