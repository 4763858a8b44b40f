"""List the statements of `src/rrrt` that a pytest run never executes.

    python3 tools/linecov.py [PYTEST_ARGS ...]

With no arguments it runs the whole suite (`-q tests`). No coverage package
is needed: pytest runs in this process under `sys.settrace`, and a line event
is recorded only in frames whose code comes from `src/rrrt`. A statement ran
when any line of it produced a line event: the header lines of a compound
statement (with its decorators), every line of a simple one. A `try` ran when
its first statement did; docstrings, `global` and `nonlocal` run no code and
are not counted.

The report names each statement that never ran, per module, then the tests
that failed. Tracing makes the suite several times slower, so a test that
bounds its own time may fail here and pass without the tool; the coverage is
reported all the same. The trace function is paused while `tracemalloc`
traces: under any trace function CPython 3.11 no longer grows a string in
place with `+=`, so a test that bounds its own peak memory would measure the
tracing, not the code. Lines that run only while it is paused are not
recorded. The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rrrt"


def statement_spans(tree: ast.Module) -> list[tuple[int, range]]:
    """(first line, lines whose event means it ran) of each counted statement."""
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    spans = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        body = getattr(node, "body", None)
        if isinstance(node, ast.Try):
            first = node.body[0]
            span = range(first.lineno, first.end_lineno + 1)
        elif body:
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            span = range(start, max(body[0].lineno, node.lineno + 1))
        else:
            span = range(node.lineno, node.end_lineno + 1)
        spans.append((node.lineno, span))
    return sorted(spans)


class LineTracer:
    """Collects the lines executed in `package`'s modules, per file."""

    def __init__(self, package: Path):
        self.package = str(package.resolve()) + os.sep
        self.lines: dict[str, set[int]] = {}
        self._local: dict[str, object] = {}  # co_filename -> local tracer or None

    def _tracer_for(self, filename: str):
        path = os.path.realpath(filename)
        if not path.startswith(self.package):
            return None
        lines = self.lines.setdefault(path, set())
        add = lines.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            local = self._local[filename]
        except KeyError:
            local = self._local[filename] = self._tracer_for(filename)
        if local is not None and event == "call":
            return local(frame, event, arg)
        return local


class Outcomes:
    """pytest plugin: notes the tests that failed."""

    def __init__(self):
        self.failed: list[str] = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.append(f"{report.nodeid} ({report.when})")


def pause_while_tracing_memory(tracer) -> None:
    """Patch `tracemalloc.start` to clear the trace function, in `sys` and in
    `threading`, and `tracemalloc.stop` to set `tracer` again."""
    start, stop = tracemalloc.start, tracemalloc.stop

    def start_untraced(*args):
        sys.settrace(None)
        threading.settrace(None)
        start(*args)

    def stop_traced():
        stop()
        sys.settrace(tracer)
        threading.settrace(tracer)

    tracemalloc.start, tracemalloc.stop = start_untraced, stop_traced


def report(lines: dict[str, set[int]], failed: list[str]) -> str:
    out = []
    total = missed_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        ran = lines.get(str(path.resolve()), set())
        spans = statement_spans(ast.parse(text, filename=path.name))
        missed = [first for first, span in spans if ran.isdisjoint(span)]
        total += len(spans)
        missed_total += len(missed)
        out.append(f"{path.relative_to(ROOT)}: {len(missed)} of {len(spans)} statements never ran")
        out += [f"  {first:4d}  {source[first - 1].strip()}" for first in missed]
    out.append(f"total: {missed_total} of {total} statements never ran")
    out.append(f"failed under tracing: {len(failed)}")
    out += [f"  {name}" for name in failed]
    return "\n".join(out)


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    tracer = LineTracer(PACKAGE)
    outcomes = Outcomes()
    start, stop = tracemalloc.start, tracemalloc.stop
    pause_while_tracing_memory(tracer)
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "tests"], plugins=[outcomes])
    finally:
        sys.settrace(None)
        threading.settrace(None)
        tracemalloc.start, tracemalloc.stop = start, stop
    print(report(tracer.lines, outcomes.failed))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
