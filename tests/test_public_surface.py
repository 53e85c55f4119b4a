"""Every public name of ``dfa_meet`` has a caller in the library or in the acceptance tests.

A name that only tests call belongs in the tests, as an oracle next to them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dfa_meet"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def references(node, skip=None):
    """``Name`` ids and ``Attribute`` attrs under ``node``, not counting ``skip`` itself."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    found.discard(skip)
    return found


def library_references():
    """References in the package modules; a definition's references to its own name are left out."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            defines = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            found |= references(node, node.name if isinstance(node, defines) else None)
    return found


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    used = library_references()
    acceptance = references(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(
        encoding="utf-8")))
    unused = [name for name in exported_names() if name not in used | acceptance]
    assert not unused, f"public names with no caller outside the unit tests: {unused}"
