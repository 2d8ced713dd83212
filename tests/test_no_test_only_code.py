"""Every function, method and class in ``src/eqprice`` is reachable from
outside the tests: from a name the README or the benchmark scripts name, or
from ``cli.main``, through references in the package. A reference is a name
a definition reads, or an attribute it uses, that it does not bind itself as
a parameter or local; an import, such as a re-export in ``__init__.py``, is
not one. Code only a test reaches is deleted, not kept for the test, and a
module imports only names it reads."""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eqprice"

#: Names kept with no caller yet, each with the reason.
ALLOWED = {
    "max_shrink_events": "ROADMAP item 4 checks a run's shrinks against it",
    "max_total_shrinks": "ROADMAP item 4 checks a run's shrinks against it",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node: ast.AST) -> set:
    """The names read and attributes used under ``node``, less the names it
    binds (parameters, assignment and loop targets, nested definitions)."""
    names, attrs, bound = set(), set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            (names if isinstance(n.ctx, ast.Load) else bound).add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
        elif isinstance(n, ast.arg):
            bound.add(n.arg)
        elif isinstance(n, DEFS):
            bound.add(n.name)
    return (names - bound) | attrs


def _graph() -> tuple[dict, set]:
    """(references of each module-level or method name, the names of the
    definitions). A class refers to what its body and its dunder methods
    refer to, since using the class runs them; its other methods are reached
    by name."""
    refs = defaultdict(set)
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                defined.add(stmt.name)
                for s in [*stmt.bases, *stmt.decorator_list, *stmt.body]:
                    if isinstance(s, DEFS) and not s.name.startswith("__"):
                        defined.add(s.name)
                        refs[s.name] |= _references(s)
                    else:
                        refs[stmt.name] |= _references(s)
            elif isinstance(stmt, DEFS):
                defined.add(stmt.name)
                refs[stmt.name] |= _references(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for t in targets:
                    for name in (n.id for n in ast.walk(t) if isinstance(n, ast.Name)):
                        refs[name] |= _references(stmt.value)
    return refs, defined


def _unreachable() -> set:
    refs, defined = _graph()
    text = "\n".join(
        p.read_text() for p in [ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.py"))]
    )
    seen = {"main"} | {n for n in refs if re.search(rf"\b{re.escape(n)}\b", text)}
    todo = list(seen)
    while todo:
        for name in refs[todo.pop()] - seen:
            seen.add(name)
            todo.append(name)
    return defined - seen


def test_every_definition_has_a_caller_outside_the_tests():
    unused = _unreachable()
    assert sorted(unused - set(ALLOWED)) == []
    # an allowed name that gains a caller leaves the list
    assert sorted(ALLOWED) == sorted(unused & set(ALLOWED))


def _unused_imports() -> dict:
    """The names each module but ``__init__.py``, which re-exports, imports
    and never reads, by file name."""
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if imported - read:
            unused[path.name] = sorted(imported - read)
    return unused


def test_every_import_is_read():
    assert _unused_imports() == {}
