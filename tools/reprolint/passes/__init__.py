"""Pass modules; importing this package registers every pass.

Add a new pass by creating a module here with a ``@register``-decorated
:class:`~tools.reprolint.LintPass` subclass, importing it below, and
dropping a known-bad snippet under ``tools/reprolint/fixtures/`` with a
test in ``tests/test_reprolint.py`` that pins what it flags. (A check of
the form "a literal in position P is a member of registry R" is a row of
``registry_literals.TABLE``, not a new pass.)
"""

from tools.reprolint.passes import (  # noqa: F401  (registration side effect)
    api_all,
    clock_discipline,
    exception_flow,
    fork_safety,
    layering,
    message_protocol,
    no_recursion,
    registry_literals,
    signal_safety,
    wire_schema,
)
