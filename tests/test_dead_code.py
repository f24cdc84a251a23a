"""Dead-name guard: every function and class the package defines is used.

A name counts as used when it occurs as a whole word anywhere in `src/`,
`tests/` or `demos/` other than on its own `def`/`class` line.  Dunder
methods are exempt, since Python calls them; nothing else is.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shiftembed"


def _defined_names():
    """(module path, name, line) of every non-dunder def and class."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.append((path, node.name, node.lineno))
    return out


def _unused_names():
    sources = {path: path.read_text().splitlines()
               for folder in ("src", "tests", "demos")
               for path in sorted((ROOT / folder).rglob("*.py"))}
    words = {}          # word -> {(path, line number)} where it occurs
    for path, lines in sources.items():
        for lineno, line in enumerate(lines, 1):
            for word in set(re.findall(r"\w+", line)):
                words.setdefault(word, set()).add((path, lineno))
    return ["%s:%d %s" % (path.relative_to(ROOT), lineno, name)
            for path, name, lineno in _defined_names()
            if not words.get(name, set()) - {(path, lineno)}]


def test_guard_sees_the_package():
    names = {name for _, name, _ in _defined_names()}
    assert {"encode_k", "decode_k", "Codebook", "append_layer"} <= names


def test_every_defined_name_is_used():
    assert _unused_names() == []
