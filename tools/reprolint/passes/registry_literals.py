"""Registry-literals pass: string literals in registry-owned positions
must be members of the registry that owns them.

Several contracts in this codebase are string-keyed: hot paths bump
counters by name (``counters.inc("ccsr.rows_read")``), the metrics pump
creates series by name, the flight recorder matches events by name, the
inspector dispatches commands by name, ``stop_reason`` is compared by
value everywhere, and checkpoints carry counters back into the unified
stats by name. A typo in any of them runs fine and then silently misses
every downstream lookup. Each row of :data:`TABLE` names one such
position and the registries that own it; this pass flags every string
literal in that position that no owning registry lists. A position is:

* ``CALL`` — the first argument of a ``.method(...)`` call;
* ``NAME`` — a value assigned to, compared with, or passed as the
  keyword ``name`` (an attribute ``x.name`` counts as the name). The
  literals of a value are a bare string, the elements of a tuple, list
  or set, or the keys of a dict.

Adding a genuinely new name means adding it to the registry, which is
the point. A registry that is deleted loses its row.
"""

from __future__ import annotations

import ast
import importlib
from typing import NamedTuple

from tools.reprolint import LintContext, LintPass, Violation, register

CALL = "call"
NAME = "name"


class Row(NamedTuple):
    position: str  # CALL or NAME
    names: tuple[str, ...]  # method names (CALL) or target names (NAME)
    module: str  # the module defining the registries
    registries: tuple[str, ...]  # a literal must be in one of these
    what: str  # how a diagnostic names the literal


TABLE: tuple[Row, ...] = (
    Row(CALL, ("inc", "_count"), "repro.obs.counters",
        ("STAT_KEYS", "KNOWN_COUNTERS"), "counter"),
    Row(CALL, ("gauge", "counter", "histogram"), "repro.obs.metrics",
        ("KNOWN_METRICS",), "metric"),
    Row(CALL, ("record",), "repro.obs.recorder",
        ("KNOWN_EVENTS",), "recorder event"),
    Row(CALL, ("request", "handle"), "repro.obs.wire",
        ("KNOWN_COMMANDS",), "inspector command"),
    Row(NAME, ("HANDLERS",), "repro.obs.wire",
        ("KNOWN_COMMANDS",), "HANDLERS key"),
    Row(NAME, ("stop_reason",), "repro.engine.results",
        ("STOP_REASONS",), "stop_reason"),
    # Resume writes the carried counters back into the runtime, so an
    # unknown key would desynchronize the unified stats contract.
    Row(NAME, ("_RUNTIME_COUNTERS", "_CANDIDATE_COUNTERS"),
        "repro.obs.counters", ("STAT_KEYS",), "carried counter"),
)


def _str_constants(node: ast.AST | None) -> list[ast.Constant]:
    """The string literals of a value (see the module docstring)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        elements = node.elts
    elif isinstance(node, ast.Dict):
        elements = [key for key in node.keys if key is not None]
    else:
        return []
    return [found for e in elements for found in _str_constants(e)]


def _ref_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _positions(tree: ast.Module, calls: dict, names: dict):
    """Yield ``(row, value)`` for every registry-owned position."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Attribute) and node.args
                    and node.func.attr in calls):
                yield calls[node.func.attr], node.args[0]
            for keyword in node.keywords:
                if keyword.arg in names:
                    yield names[keyword.arg], keyword.value
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            rows = [names[n] for n in map(_ref_name, sides) if n in names]
            if rows:
                for side in sides:
                    yield rows[0], side
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                row = names.get(_ref_name(target))
                if row is not None:
                    yield row, node.value


@register
class RegistryLiteralsPass(LintPass):
    name = "registry_literals"
    description = (
        "string literals in registry-owned positions (.inc/._count,"
        " .gauge/.counter/.histogram, .record, .request/.handle,"
        " HANDLERS keys, stop_reason, carried checkpoint counters) must"
        " be members of the owning registry"
    )

    def run(self, ctx: LintContext) -> list[Violation]:
        ctx.ensure_importable()
        known = {
            row: frozenset().union(*(
                getattr(importlib.import_module(row.module), registry)
                for registry in row.registries
            ))
            for row in TABLE
        }
        calls = {n: row for row in TABLE if row.position == CALL
                 for n in row.names}
        names = {n: row for row in TABLE if row.position == NAME
                 for n in row.names}
        return [
            self.violation(
                ctx, path, literal.lineno,
                f"{row.what} {literal.value!r} is not in"
                f" {' or '.join(row.registries)} ({row.module}) —"
                " register it or fix the typo",
            )
            for path in ctx.files("src/repro")
            for row, value in _positions(ctx.tree(path), calls, names)
            for literal in _str_constants(value)
            if literal.value not in known[row]
        ]
