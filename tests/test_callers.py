"""Every top-level name of src/polylab has a caller outside the tests.

A top-level def, class or assigned name of a polylab module counts as used
when some non-test .py file of src/, demos/ or perfbench/ reads it: as a
loaded name, as the attribute of an ast.Attribute, or as a name in a
`from ... import`.  perfbench's tracer wraps functions it names by string
in TARGETS, so those attribute names count as reads too.  The package's
own re-exports (src/polylab/__init__.py) are no read: a name that only
they reach must be in EXPORTED_ONLY, with the reason it stays.  Reads are
matched by name alone, so the check can pass a name it should not, but it
never fails one that a program calls.
"""

import ast
import re
from pathlib import Path

import polylab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polylab"
READERS = ("src", "demos", "perfbench")
INIT = PACKAGE / "__init__.py"

# Names that no program reads but the package re-exports, each with why it
# stays.
EXPORTED_ONLY = {
    "psi": "README's library section documents it as API",
}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def defined_names(tree):
    """The names a module binds at top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return names


def read_names(tree):
    """Every name the module reads: loaded names, attributes and the names
    of from-imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def traced_names(tree):
    """The attribute names of the tracer's TARGETS: (module, attribute,
    span name, counter) tuples."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {entry.elts[1].value for entry in node.value.elts}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def reader_files():
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if not (path.name.startswith("test_") or path.name == "conftest.py"
                    or path == INIT):
                yield path


def test_every_top_level_name_has_a_caller():
    reads = traced_names(parse(ROOT / "perfbench" / "tracer.py"))
    for path in reader_files():
        reads |= read_names(parse(path))
    unread = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
              for name in sorted(defined_names(parse(path)) - reads)]
    left = [f"{stem}.{name}" for stem, name in unread if name not in EXPORTED_ONLY]
    assert not left, f"defined in src/polylab but read by no program: {left}"
    # each exception is still one: re-exported, and read by no program
    exported = read_names(parse(INIT))
    assert EXPORTED_ONLY.keys() <= {name for _, name in unread} & exported


def test_the_census_sees_every_kind_of_read():
    """A name counts as read as a load, an attribute or a from-import, and
    a store, a def or a plain import does not read it."""
    tree = ast.parse("from m import a\nimport b\nc = d\ne.f\ndef g(): pass\n")
    assert read_names(tree) == {"a", "d", "e", "f"}
    assert defined_names(tree) == {"c", "g"}


def test_each_exported_only_name_is_library_api():
    """Each exception is a name the package gives its users: an attribute
    of polylab that README's library section names in code."""
    readme = (ROOT / "README.md").read_text()
    library = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    for name in EXPORTED_ONLY:
        assert hasattr(polylab, name), name
        assert re.search(rf"`{name}[`(]", library), name
