"""Every function, method and class in ``src/eqprice`` has a caller outside
its own test: a reference in the package other than in its own definition
or the package's re-exports, in the README, or in the benchmark scripts.
Code only a test reaches is deleted, not kept for the test."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "eqprice"

#: Names kept with no caller yet, each with the reason.
ALLOWED = {
    "max_shrink_events": "ROADMAP item 2 checks a run's shrinks against it",
    "max_total_shrinks": "ROADMAP item 2 checks a run's shrinks against it",
}


def _identifiers(node: ast.AST) -> Counter:
    """Every name read and attribute used under ``node``."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
    return out


def test_every_definition_has_a_caller_outside_the_tests():
    paths = sorted(PACKAGE.glob("*.py"))
    trees = [ast.parse(p.read_text()) for p in paths]
    # a re-export in __init__.py names a definition but does not call it
    used = sum(
        (_identifiers(t) for p, t in zip(paths, trees) if p.name != "__init__.py"), Counter()
    )
    text = "\n".join(
        p.read_text() for p in [ROOT / "README.md", *sorted((ROOT / "perfbench").glob("*.py"))]
    )
    unused = []
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] > _identifiers(node)[name]:  # used beyond its own body
                continue
            if re.search(rf"\b{re.escape(name)}\b", text) is None:
                unused.append(name)
    assert sorted(set(unused) - set(ALLOWED)) == []
    # an allowed name that gains a caller leaves the list
    assert sorted(ALLOWED) == sorted(set(unused) & set(ALLOWED))
