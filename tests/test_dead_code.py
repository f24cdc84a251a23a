"""Dead-name guard: every function and class the package defines is used.

A name counts as used when code in `src/`, `tests/` or `demos/` refers to
it outside its own definition: as a name, an attribute or an imported
name.  A docstring or a comment that mentions it does not count, and
neither does a call from inside its own body.  Dunder methods are exempt,
since Python calls them; nothing else is.

A second guard holds the names that only tests and demos use to a pinned
list, so that code nothing in the package reaches cannot stay in `src/`
just because a test mentions it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shiftembed"

# Names the package defines and never reaches itself, not even by an export
# in __init__.py: only tests and demos call them.  A new name here is
# deliberate; one that the package starts to use leaves the list.
TEST_ONLY_NAMES = {
    "SymbolStream.restrict", "PeriodicCode.verify_injective",
    "count_disagreements", "EmpiricalMeasure.l1", "EmpiricalMeasure.marginal_left",
    "EmpiricalMeasure.marginal_right", "periodic_orbit_measure",
    "golden_mean", "full_shift", "dyadic_odometer", "forbidden_shape_count_bound",
}


def _defined_names():
    """(module path, qualified name, first line, last line) of every
    non-dunder def and class; a name defined inside a class or function is
    qualified by it, as in `Class.method`."""
    out = []

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    out.append((path, prefix + child.name, child.lineno, child.end_lineno))
                visit(path, child, prefix + child.name + ".")
            else:
                visit(path, child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path, ast.parse(path.read_text()), "")
    return out


def _references(folders):
    """word -> {(path, line)} of every name, attribute and imported name in
    the code of the folders.  Docstrings, comments and strings are no code."""
    refs = {}
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    word = node.id
                elif isinstance(node, ast.Attribute):
                    word = node.attr
                elif isinstance(node, ast.alias):
                    word = node.name.rpartition(".")[2]
                else:
                    continue
                refs.setdefault(word, set()).add((path, node.lineno))
    return refs


def _unused_names(folders):
    """(path, qualified name, line) of every defined name that no code in
    the folders references outside its own definition."""
    refs = _references(folders)
    return [(path, qualname, first) for path, qualname, first, last in _defined_names()
            if not {(p, line) for p, line in refs.get(qualname.rpartition(".")[2], ())
                    if p != path or not first <= line <= last}]


def test_guard_sees_the_package():
    names = {qualname for _, qualname, _, _ in _defined_names()}
    assert {"encode_k", "decode_k", "Codebook", "append_layer", "LayoutLayer.blocks_near"} <= names


def test_every_defined_name_is_used():
    assert ["%s:%d %s" % (path.relative_to(ROOT), lineno, qualname)
            for path, qualname, lineno in _unused_names(("src", "tests", "demos"))] == []


def test_test_only_names_are_pinned():
    assert {qualname for _, qualname, _ in _unused_names(("src",))} == TEST_ONLY_NAMES
