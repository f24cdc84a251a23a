"""Line census: every statement of src/shiftembed that no tier-1 test runs.

Run it from the repository root:

    PYTHONPATH=src python tests/line_census.py [pytest arguments]

It runs the tier-1 suite in process under `sys.settrace`, with a line
tracer on the frames of src/shiftembed only, and prints each statement
that no test ran as `module.py:line: text`, then their count.  A statement
counts as run when a line event fires on any of its lines; a statement
with no code (a docstring, `global`) is not counted.  The suite is not
collected by pytest, and the tracer makes it several times slower.
"""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shiftembed"


def code_lines(source, path):
    """The lines that carry bytecode, over every nested code object."""
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def unrun_statements(path, hits):
    """(line, text) of every statement of the file that carries code and
    on none of whose lines a line event fired."""
    source = path.read_text()
    executable = code_lines(source, path)
    text = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        span = range(node.lineno, node.end_lineno + 1)
        if executable.intersection(span) and not hits.intersection(span):
            out.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(out)


def main(argv):
    import pytest

    prefix = str(PACKAGE) + "/"
    hits = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = hits.setdefault(filename, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")] + argv)
    finally:
        sys.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, statement in unrun_statements(path, hits.get(str(path), set())):
            print("%s:%d: %s" % (path.name, line, statement))
            total += 1
    print("%d unrun statements" % total)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
