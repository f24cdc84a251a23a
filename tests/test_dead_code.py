"""Dead-name guard: every function and class the package defines is used.

A name counts as used when it occurs as a whole word anywhere in `src/`,
`tests/` or `demos/` other than on its own `def`/`class` line.  Dunder
methods are exempt, since Python calls them; nothing else is.

A second guard holds the names that only tests and demos use to a pinned
list, so that code nothing in the package reaches cannot stay in `src/`
just because a test mentions it.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shiftembed"

# Names the package defines and never reaches itself, not even by an export
# in __init__.py: only tests and demos call them.  A new name here is
# deliberate; one that the package starts to use leaves the list.
TEST_ONLY_NAMES = {
    "BlockLayout.dump_lines", "build_block_layout", "next_scale_markers",
    "SymbolStream.restrict", "PeriodicCode.verify_injective",
    "count_disagreements", "EmpiricalMeasure.l1", "EmpiricalMeasure.marginal_left",
    "EmpiricalMeasure.marginal_right", "periodic_orbit_measure",
    "golden_mean", "full_shift", "dyadic_odometer", "forbidden_shape_count_bound",
}


def _defined_names():
    """(module path, qualified name, line) of every non-dunder def and class;
    a name defined inside a class or function is qualified by it, as in
    `Class.method`."""
    out = []

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    out.append((path, prefix + child.name, child.lineno))
                visit(path, child, prefix + child.name + ".")
            else:
                visit(path, child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(path, ast.parse(path.read_text()), "")
    return out


def _unused_names(folders):
    """(path, qualified name, line) of every defined name that occurs as a
    whole word nowhere in the folders but on its own def/class line."""
    words = {}          # word -> {(path, line number)} where it occurs
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for word in set(re.findall(r"\w+", line)):
                    words.setdefault(word, set()).add((path, lineno))
    return [(path, qualname, lineno) for path, qualname, lineno in _defined_names()
            if not words.get(qualname.rpartition(".")[2], set()) - {(path, lineno)}]


def test_guard_sees_the_package():
    names = {qualname for _, qualname, _ in _defined_names()}
    assert {"encode_k", "decode_k", "Codebook", "append_layer", "BlockLayout.roles"} <= names


def test_every_defined_name_is_used():
    assert ["%s:%d %s" % (path.relative_to(ROOT), lineno, qualname)
            for path, qualname, lineno in _unused_names(("src", "tests", "demos"))] == []


def test_test_only_names_are_pinned():
    assert {qualname for _, qualname, _ in _unused_names(("src",))} == TEST_ONLY_NAMES
