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

A third guard holds every function of the package to reading each local it
assigns, and each module-level function to reading each parameter.
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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(function):
    """The nodes of a function's own scope: its body, not the bodies of the
    functions, lambdas and classes it defines."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _dead_locals(folder=PACKAGE):
    """'module:line function name' of every local that a function of the
    folder's modules assigns and never reads, and of every parameter that a
    module-level function never reads.  A read anywhere in the function,
    a nested function's body included, counts; `x += 1` is no read of x.
    Names that start with `_` are exempt, and so are the parameters of
    methods, since the system and tower classes share signatures."""
    out = []
    for path in sorted(folder.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            reads = {node.id for node in ast.walk(fn)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            bound = [(node.id, node.lineno) for node in _own_nodes(fn)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
            bound += [(node.name, node.lineno) for node in _own_nodes(fn)
                      if isinstance(node, ast.ExceptHandler) and node.name]
            if id(fn) in top:
                a = fn.args
                bound += [(arg.arg, arg.lineno) for arg in a.posonlyargs + a.args + a.kwonlyargs
                          + [x for x in (a.vararg, a.kwarg) if x]]
            first = {}
            for name, line in bound:
                first[name] = min(line, first.get(name, line))
            out += ["%s:%d %s %s" % (path.stem, line, fn.name, name)
                    for name, line in sorted(first.items(), key=lambda item: item[1])
                    if not name.startswith("_") and name not in reads]
    return out


def test_every_local_is_read():
    assert _dead_locals() == []


def test_the_local_guard_sees_a_dead_local(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(a, unread, _exempt):\n"
        "    b, dead = a, 0\n"
        "    count = 0\n"
        "    count += 1\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as exc:\n"
        "        pass\n"
        "    return [b for _ in ()]\n"
        "class C:\n"
        "    def g(self, shared):\n"
        "        return 1\n")
    assert _dead_locals(tmp_path) == ["m:1 f unread", "m:2 f dead", "m:3 f count", "m:7 f exc"]


# The functions outside systems.py that pick their own module's per-kind
# implementation; every other question about a kind is the system's to answer.
KIND_CHOOSERS = {("codec", "build_first_codebook"), ("codec", "build_conditional_codebook"),
                 ("codec", "_period_streams"), ("markers", "build_towers"),
                 ("pipeline", "sample_points")}
KIND_NAMES = {"sft", "orbit", "odometer"}
# a cell label's type tells the kind too: an odometer label is a tuple
KIND_CLASSES = {"Sft", "Odometer", "Point", "OdometerPoint", "tuple"}


def _names(node):
    """The bare names of a name, an attribute or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in _names(elt)}
    if isinstance(node, ast.Name):
        return {node.id}
    return {node.attr} if isinstance(node, ast.Attribute) else set()


def _kinds_compared(node):
    """The kind names that a comparison of `.kind` tests against."""
    sides = [node.left] + node.comparators if isinstance(node, ast.Compare) else []
    if not any(isinstance(s, ast.Attribute) and s.attr == "kind" for s in sides):
        return set()
    return {s.value for s in sides if isinstance(s, ast.Constant)} & KIND_NAMES


def _is_kind_test(node):
    if isinstance(node, ast.Attribute):
        return node.attr == "is_word_system"
    if isinstance(node, ast.Compare):
        return bool(_kinds_compared(node))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and len(node.args) == 2:
        if node.func.id == "isinstance":
            return bool(_names(node.args[1]) & KIND_CLASSES)
        if node.func.id == "hasattr":
            return isinstance(node.args[1], ast.Constant) and node.args[1].value == "digits"
    return False


def _kind_tests():
    """'module:line' of every line outside systems.py and KIND_CHOOSERS that
    tests the kind of a system or a point."""
    out = set()

    def visit(module, node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and function is None:
            function = node.name
        if (module, function) in KIND_CHOOSERS:
            return
        if _is_kind_test(node):
            out.add("%s:%d" % (module, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(module, child, function)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "systems":
            visit(path.stem, ast.parse(path.read_text()), None)
    return sorted(out)


def test_only_the_systems_answer_for_their_kind():
    """Outside systems.py only KIND_CHOOSERS test the kind of a system or a
    point: no read of `is_word_system`, no comparison of `.kind` with a kind
    name, no `isinstance` against a system or point class or `tuple` (the
    type of an odometer label) and no `hasattr(..., "digits")`.  Reading
    `kind` for a message stays allowed,
    and so do markers' tests of its own tower classes.  Like the dead-name
    guards, this one matches bare names: a class of another module that
    shares one of these names is flagged too, and a test spelled another
    way (a `type(...) is` check, an alias of the class) is not seen."""
    assert _kind_tests() == []


def test_no_system_kind_is_orbit():
    """A finite orbit is an Sft (orbit_system): nowhere in the package,
    systems.py included, is a `.kind` compared with "orbit"."""
    assert ["%s:%d" % (path.stem, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if "orbit" in _kinds_compared(node)] == []
