"""The package keeps only what a command, a demo or the benchmark reaches.

Every top-level function and class of ``src/tropms``, and every method of a
top-level class other than the dunders, must be referenced from ``src/``,
``demos/`` or ``perfbench/``: by name, as an attribute, in an import, or as a
string constant equal to its name. A name that only the tests reach belongs
in ``tests/``. The package also holds no ``assert`` statement, and its
modules hold at most 4550 lines in all.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tropms"


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references() -> set[str]:
    refs: set[str] = set()
    for _, tree in _trees("src", "demos", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
    return refs


def _definitions() -> list[tuple[str, str]]:
    """(qualified name, name) of each top-level function and class of the
    package, and of each non-dunder method of a top-level class."""
    defs = []
    for path, tree in _trees("src/tropms"):
        module = path.stem
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                    ):
                        defs.append((f"{module}.{node.name}.{item.name}", item.name))
    return defs


def test_every_definition_is_reached_outside_the_tests():
    refs = _references()
    defs = _definitions()
    assert defs, f"no definitions found under {PACKAGE}"
    unreached = [qual for qual, name in defs if name not in refs]
    assert unreached == [], f"defined in src/tropms but reached only from tests: {unreached}"


def test_no_assert_statement_in_the_package():
    """An invariant is raised explicitly: ``python -O`` strips ``assert``."""
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path, tree in _trees("src/tropms")
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements in src/tropms: {found}"


def test_the_package_stays_within_its_line_bound():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in PACKAGE.glob("*.py"))
    assert lines <= 4550, f"src/tropms has {lines} lines, above the bound of 4550"
