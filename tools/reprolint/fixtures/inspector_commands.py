"""Known-bad fixture for the registry_literals pass: inspector command
literals that exist in no registry (typos and never-registered commands)."""


def poke(client, inspector):
    client.request("stauts")  # violation: typo of "status"
    client.request("status")  # clean: KNOWN_COMMANDS member
    client.request("shutdown")  # violation: never a registered command
    inspector.handle("progres", {})  # violation: typo of "progress"
    inspector.handle("cancel", {})  # clean: KNOWN_COMMANDS member


HANDLERS = {
    "progress": "_cmd_progress",  # clean: KNOWN_COMMANDS member
    "cancel-all": "_cmd_cancel_all",  # violation: not registered
}
