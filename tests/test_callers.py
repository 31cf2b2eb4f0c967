"""Every top-level name of src/polylab is reached by a program.

A program starts from its roots: cli.main (the console script), the
module-level statements of src/polylab, the non-test .py files of demos/
and perfbench/, and the functions perfbench's tracer wraps, which it names
by string in TARGETS.  Whatever a root reads is reached, and a reached
top-level def or class reads, in turn, every name of its own statement.
A name is read as a loaded name, as the attribute of an ast.Attribute or
as a name in a `from ... import`; the imports of src/polylab itself,
the package's re-exports included, read nothing, since they bind a name
without calling it.  So a name that only the tests, the re-exports or
code no program reaches read is unreached, and the check fails on it.
Reads are matched by name alone, so the check can pass a name it should
not, but it never fails one that a program calls.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polylab"
PROGRAMS = ("demos", "perfbench")
ENTRY = "main"      # cli.main, the console script of pyproject.toml


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


def module_reads(tree):
    """(roots, bodies) of a polylab module: the names its module-level
    statements read, imports aside, and for each top-level def or class
    the names its statement reads."""
    roots, bodies = set(), {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bodies[node.name] = read_names(node)
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            roots |= read_names(node)
    return roots, bodies


def reached(reads, bodies):
    """The names reads reach: each of them, and what the body of a reached
    name reads, until nothing new is reached."""
    seen, todo = set(), list(reads)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(bodies.get(name, ()))
    return seen


def traced_names(tree):
    """The attribute names of the tracer's TARGETS: (module, attribute,
    span name, counter) tuples."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {entry.elts[1].value for entry in node.value.elts}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def program_files():
    for top in PROGRAMS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if not (path.name.startswith("test_") or path.name == "conftest.py"):
                yield path


def test_every_top_level_name_has_a_caller():
    reads = {ENTRY} | traced_names(parse(ROOT / "perfbench" / "tracer.py"))
    for path in program_files():
        reads |= read_names(parse(path))
    bodies, defined = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        roots, own = module_reads(tree)
        reads |= roots
        for name, names in own.items():
            bodies.setdefault(name, set()).update(names)
        defined += [f"{path.stem}.{name}" for name in sorted(defined_names(tree))]
    seen = reached(reads, bodies)
    unreached = [name for name in defined if name.split(".")[1] not in seen]
    assert not unreached, f"defined in src/polylab but reached by no program: {unreached}"


def test_the_census_sees_every_kind_of_read():
    """A name counts as read as a load, an attribute or a from-import, and
    a store, a def or a plain import does not read it."""
    tree = ast.parse("from m import a\nimport b\nc = d\ne.f\ndef g(): pass\n")
    assert read_names(tree) == {"a", "d", "e", "f"}
    assert defined_names(tree) == {"c", "g"}


def test_a_name_read_only_by_unreached_code_is_unreached():
    """A module's imports read nothing, its other module-level statements
    are roots, and a def or class passes on its reads only once reached:
    g through f, but not k through h, nor D through the class C."""
    tree = ast.parse("from m import h\nA = f(B)\ndef f(): return g()\ndef g(): pass\n"
                     "def h(): return k()\ndef k(): pass\n"
                     "class C:\n    def m(self): return D\nD = 1\n")
    roots, bodies = module_reads(tree)
    assert roots == {"f", "B"}
    assert reached(roots, bodies) == {"f", "B", "g"}
    assert reached({"h"}, bodies) == {"h", "k"}
