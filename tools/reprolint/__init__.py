"""reprolint: AST-based invariant passes for this repository.

The codebase is held together by contracts that ordinary linters cannot
see: the iterative engine must stay recursion-free, every string-keyed
name (counter, metric, event, inspector command, ``stop_reason``) must
exist in its registry (``registry_literals``), every versioned document
must match its wire manifest (``wire_schema``), and the engine layer must
never import the CLI. Each contract is one *pass* here — a small AST (or
subprocess) check with known-bad fixtures under
``tools/reprolint/fixtures/``.

Usage::

    python -m tools.reprolint                 # lint the live tree
    python -m tools.reprolint --list          # show the pass catalog
    python -m tools.reprolint --json          # machine-readable output
    python -m tools.reprolint --select layering,no_recursion
    python -m tools.reprolint path/to/file.py # fixture mode: lint only
                                              # the given files

Exit status: 0 clean, 1 with one diagnostic per violation, 2 on usage
errors. See ``docs/static-analysis.md`` for the pass catalog and how to
add a pass.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

REPO = Path(__file__).resolve().parent.parent.parent


@dataclass(frozen=True)
class Violation:
    """One diagnostic: which pass flagged what, where."""

    pass_name: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.pass_name}] {self.message}"

    def as_dict(self) -> dict:
        return {
            "pass": self.pass_name,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


class LintContext:
    """Shared state for one lint run: file discovery and a parse cache.

    ``explicit_paths`` switches the run into *fixture mode*: every pass
    checks exactly those files (regardless of its live-tree scope) and
    skips whole-tree checks that make no sense on a snippet (the dynamic
    import probe, the checkpoint-manifest lookup against the live module).
    """

    def __init__(self, root: Path | None = None,
                 explicit_paths: list[Path] | None = None):
        self.root = Path(root or REPO)
        self.explicit_paths = (
            [Path(p).resolve() for p in explicit_paths]
            if explicit_paths
            else None
        )
        self._trees: dict[Path, ast.Module] = {}
        self._model = None

    @property
    def fixture_mode(self) -> bool:
        return self.explicit_paths is not None

    def ensure_importable(self) -> None:
        """Make ``repro`` importable (passes read live registries)."""
        src = str(self.root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)

    def files(self, *relative_scopes: str) -> Iterator[Path]:
        """Yield the Python files a pass should check.

        ``relative_scopes`` are repo-relative files or directories (e.g.
        ``"src/repro"`` or ``"src/repro/engine/executor.py"``); in fixture
        mode the explicit paths are yielded instead.
        """
        if self.explicit_paths is not None:
            yield from self.explicit_paths
            return
        for scope in relative_scopes:
            path = self.root / scope
            if path.is_file():
                yield path
            else:
                yield from sorted(path.rglob("*.py"))

    def tree(self, path: Path) -> ast.Module:
        """Parse (and cache) one file."""
        path = Path(path)
        if path not in self._trees:
            self._trees[path] = ast.parse(
                path.read_text(encoding="utf-8"), filename=str(path)
            )
        return self._trees[path]

    def rel(self, path: Path) -> str:
        """Repo-relative display path (absolute when outside the repo)."""
        try:
            return str(Path(path).resolve().relative_to(self.root))
        except ValueError:
            return str(path)

    def program_model(self):
        """The shared :class:`~tools.reprolint.model.ProgramModel` for
        this run (built lazily, reused across semantic passes)."""
        if self._model is None:
            from tools.reprolint.model import ProgramModel

            self._model = ProgramModel(self)
        return self._model


class LintPass:
    """Base class for a pass: subclass, set ``name``/``description``, and
    implement :meth:`run` returning a list of :class:`Violation`."""

    name: str = ""
    description: str = ""

    def run(self, ctx: LintContext) -> list[Violation]:
        raise NotImplementedError

    def violation(self, ctx: LintContext, path: Path, line: int,
                  message: str) -> Violation:
        return Violation(self.name, ctx.rel(path), line, message)


#: The pass registry, in registration order.
REGISTRY: dict[str, LintPass] = {}


def register(cls: type[LintPass]) -> type[LintPass]:
    """Class decorator adding a pass to :data:`REGISTRY`."""
    if not cls.name:
        raise ValueError(f"pass {cls.__name__} has no name")
    if cls.name in REGISTRY:
        raise ValueError(f"duplicate pass name {cls.name!r}")
    REGISTRY[cls.name] = cls()
    return cls


def load_passes() -> dict[str, LintPass]:
    """Import every pass module (registration is an import side effect)."""
    from tools.reprolint import passes  # noqa: F401  (side effect)

    return REGISTRY


def run_passes(
    ctx: LintContext,
    select: Iterable[str] | None = None,
    on_pass: Callable[[str, list[Violation]], None] | None = None,
) -> list[Violation]:
    """Run the (selected) passes and return every violation found."""
    registry = load_passes()
    names = list(select) if select else list(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise KeyError(
            f"unknown pass(es) {', '.join(unknown)};"
            f" available: {', '.join(registry)}"
        )
    violations: list[Violation] = []
    for name in names:
        found = registry[name].run(ctx)
        if on_pass is not None:
            on_pass(name, found)
        violations.extend(found)
    return violations
