"""Every public name, public method and dataclass field of ``dfa_meet`` is used by the library.

A public name or method needs a caller in the library or in the acceptance
tests; one that only tests call belongs in the tests, as an oracle next to
them.
A dataclass field must be read in the library or emitted by its class: a
value that is computed and then dropped goes, with the code that makes it.
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


def references(node):
    """``Name`` ids and ``Attribute`` attrs under ``node``."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def library_references():
    """References in the package modules; a definition's references to its own name are left out.

    This holds at every depth, so a method's calls to itself do not count
    as its callers.
    """
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and node.id not in enclosing:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


def acceptance_references():
    return references(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(
        encoding="utf-8")))


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    used = library_references() | acceptance_references()
    unused = [name for name in exported_names() if name not in used]
    assert not unused, f"public names with no caller outside the unit tests: {unused}"


def public_methods():
    """``(class, name)`` for every public method and property of a library class."""
    methods = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                methods += [(node.name, item.name) for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")]
    return methods


def test_every_public_method_has_a_caller_outside_the_unit_tests():
    used = library_references() | acceptance_references()
    unused = [f"{cls}.{name}" for cls, name in public_methods() if name not in used]
    assert not unused, f"public methods with no caller outside the unit tests: {unused}"


# Fields read only by tests, each with the reason it stays.
FIELD_EXEMPTIONS = {
    # the Perron iteration count, kept for the planned per-solve run stats
    ("QuasiStationaryPair", "iterations"),
}


def _is_dataclass(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _emits_all_fields(node) -> bool:
    """True when the class's ``as_dict`` returns ``asdict(self)`` or ``self.__dict__``."""
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "as_dict":
            for child in ast.walk(item):
                if (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "asdict"
                        or isinstance(child, ast.Attribute) and child.attr == "__dict__"):
                    return True
    return False


def dataclass_fields():
    """``(class, field)`` for every dataclass field that its class does not emit whole."""
    fields = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node) and not _emits_all_fields(node):
                fields += [(node.name, item.target.id) for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return fields


def attribute_loads():
    """Attribute names read (``x.name`` in load context) anywhere in the package."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for child in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                found.add(child.attr)
    return found


def test_every_dataclass_field_is_read_by_the_library():
    read = attribute_loads()
    unread = [f"{cls}.{name}" for cls, name in dataclass_fields()
              if name not in read and (cls, name) not in FIELD_EXEMPTIONS]
    assert not unread, f"dataclass fields that the library never reads: {unread}"
