"""Dead-name guard: every function and class the package defines is used.

A name counts as used when code in `src/`, `tests/` or `demos/` refers to
it outside its own definition: as a name, an attribute or an imported
name.  A docstring or a comment that mentions it does not count, and
neither does a call from inside its own body.  Dunder methods are exempt,
since Python calls them; nothing else is.

A second guard holds the names that the package never reaches itself to a
pinned set of public names, each used by the code of the README or of a
demo, so that code nothing in the package reaches cannot stay in `src/`
just because a test mentions it.

Both guards match bare names, so they are blind to a name that another
definition or attribute shares: a call of `system.fix_count` counts as a
use of every `fix_count` the package defines, whichever class the call can
reach.  Such a name stays unseen until its callers are read.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shiftembed"

# Names the package defines and never reaches itself, not even by an export
# in __init__.py: public API that the README or the demos call.  A new name
# here is deliberate; one that the package starts to use leaves the set.
PUBLIC_NAMES = {"golden_mean", "full_shift", "dyadic_odometer", "periodic_orbit_measure"}


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


def _words(source):
    """(word, line) of every name, attribute and imported name in the
    source.  Docstrings, comments and strings are no code."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def _references(folders):
    """word -> {(path, line)} of every word in the code of the folders."""
    refs = {}
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for word, line in _words(path.read_text()):
                refs.setdefault(word, set()).add((path, line))
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


def test_names_the_package_never_reaches_are_public():
    assert {qualname for _, qualname, _ in _unused_names(("src",))} == PUBLIC_NAMES


def test_public_names_are_used_by_the_readme_or_the_demos():
    readme = (ROOT / "README.md").read_text()
    used = set(_references(("demos",))) | {
        word for block in re.findall(r"```python\n(.*?)```", readme, re.S)
        for word, _ in _words(block)}
    assert sorted(PUBLIC_NAMES - used) == []
