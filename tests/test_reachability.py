"""Reachability gate: no public ``src/repro`` function or class that only
its own tests reach.

Every public top-level function or class must be *named in code* (an AST
``Name`` or ``Attribute``, never a string or a comment) by at least one
of:

* another ``src/repro`` module that is not a package ``__init__`` (a
  re-export alone reaches nothing);
* its own module, outside its own body;
* ``examples/``, ``scripts/`` or ``perfbench/``.

The test suite and the package ``__init__`` re-exports do not count.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("examples", "scripts", "perfbench")

# Public names kept although no src, example, script or perfbench code
# names them: each is a test oracle or a test harness.
EXEMPT = frozenset({
    # naive per-path XY routing: the oracle for the vectorised link loads
    "repro.noc.routing.xy_route",
    "repro.noc.routing.path_link_loads",
    # scalar statement of a §VI conclusion, checked against the grid report
    "repro.experiments.conclusions.evaluate_point",
    # writes trace files for `repro simulate`, the inverse of load_program
    "repro.simx.traceio.dump_program",
    # in-process server harness for the serve tests
    "repro.serve.server.BackgroundServer",
    # fault injectors for the chaos suite
    "repro.engine.chaos.FlakyStore",
    "repro.engine.chaos.corrupt_store_entry",
    "repro.engine.chaos.truncate_tail",
    # by-name lookups used by benchmarks/ and the dataset tests
    "repro.core.classes.get_class",
    "repro.workloads.datasets.load_dataset",
})


def _module_name(path: Path) -> str:
    rel = path.relative_to(SRC.parent).with_suffix("")
    parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
    return ".".join(parts)


def _referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every identifier *tree* names as a ``Name`` or ``Attribute``,
    ignoring the subtree *skip* (a definition's own body)."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@functools.cache
def unreached_definitions() -> frozenset[str]:
    """Qualified names of public top-level functions and classes that
    nothing outside the tests and package re-exports names."""
    modules = {path: _parse(path) for path in sorted(SRC.rglob("*.py"))}
    external: set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            external |= _referenced_names(_parse(path))
    per_module = {
        path: _referenced_names(tree)
        for path, tree in modules.items()
        if path.name != "__init__.py"
    }

    unreached: set[str] = set()
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            name = node.name
            if name in external:
                continue
            if name in _referenced_names(tree, skip=node):
                continue
            if any(name in refs for other, refs in per_module.items() if other != path):
                continue
            unreached.add(f"{_module_name(path)}.{name}")
    return frozenset(unreached)


def test_every_public_definition_is_reached():
    stray = sorted(unreached_definitions() - EXEMPT)
    assert not stray, (
        "public definitions only tests reach (wire them in or delete them): "
        + ", ".join(stray)
    )


def test_exemptions_are_live():
    # an exemption whose definition moved, was renamed or became reached
    # is stale and must be dropped from the list
    stale = sorted(EXEMPT - unreached_definitions())
    assert not stale, stale
