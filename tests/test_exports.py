"""Every public name has a reader outside the tests.

A name in geohmm.__all__, or a public module-level function or class in
src/geohmm, that only tests read is test scaffolding; it belongs in
tests/oracles.py, not in the package. A reader is a load of
the name, or of an attribute of that name, in Python code under src/
(outside the package's __init__ and outside the name's own definition),
bench/ or experiments/, or a mention in README.md or in a shell script
under experiments/. The scripts under demos/ are examples, not callers, so
they do not count.
"""

import ast
import pathlib
import re

import geohmm

ROOT = pathlib.Path(__file__).resolve().parent.parent


def python_readers(path):
    """Names loaded in a module, skipping each def or class's own name
    inside its body and at its definition."""
    found = set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            own = own | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in own:
                found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in own:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return found


PACKAGE = ROOT / "src" / "geohmm"


def unread(names):
    """The names without a reader outside the tests, in order."""
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("bench", "experiments"):
        sources += sorted((ROOT / folder).rglob("*.py"))
    read = set().union(*(python_readers(p) for p in sources))
    texts = [ROOT / "README.md"] + sorted((ROOT / "experiments").glob("*.sh"))
    prose = "\n".join(p.read_text(encoding="utf-8") for p in texts)
    return [name for name in names if name not in read
            and not re.search(r"\b%s\b" % re.escape(name), prose)]


def test_every_export_has_a_reader_outside_tests():
    missing = unread(geohmm.__all__)
    assert not missing, "exported names that only tests read: %s" % missing


def test_every_public_module_def_has_a_reader_outside_tests():
    defs = {node.name: "%s.%s" % (path.stem, node.name)
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")}
    missing = [defs[name] for name in unread(defs)]
    assert not missing, "module-level names that only tests read: %s" % missing
