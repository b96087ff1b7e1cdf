"""Every name the package exports has a reader outside its own unit tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "missingmass"


def _reads(node: ast.AST) -> set[str]:
    """The names that code under node reads: every Name, and every
    attribute of an Attribute (``mm.verify_bias``, ``cloud.distances``)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _quickstart() -> str:
    """The Python block of the README's library quickstart."""
    section = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _unread_exports() -> list[str]:
    """The names that missingmass/__init__.py imports and nothing reads.

    Code that runs as it stands reads: the benchmark, the experiment scripts,
    the acceptance suite, the README quickstart, and the package modules'
    statements outside a function or class (the CLI's ``__main__`` guard
    among them).  The body of a module-level function or class reads only
    once that definition is itself read, so a name read only by dead code,
    or only by its own definition, has no reader.  Docstrings and comments
    are not code, so a name they mention is not read.
    """
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = {alias.asname or alias.name for node in init.body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = _reads(ast.parse(_quickstart()))
    bodies = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bodies.append((node.name, _reads(node)))
            else:
                read |= _reads(node)
    roots = [*sorted((ROOT / "bench").glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]
    for path in roots:
        read |= _reads(ast.parse(path.read_text()))
    grown = True
    while grown:
        grown = False
        for name, names in bodies:
            if name in read and not names <= read:
                read |= names
                grown = True
    return sorted(exports - read)


def test_every_export_has_a_reader():
    unread = _unread_exports()
    assert not unread, f"exports without a reader: {', '.join(unread)}"
