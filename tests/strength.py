"""List the rejection lines of `src/crowdreg` that the tier-1 tests never run.

A rejection line is the first line of a `raise`, a `return False`, a
`return Verdict.FORGED` or `return Verdict.REPLAYED`, or a `return` of a
call to a name ending in `Error` (as `LedgerView.refusal` returns its
errors). The script runs the tier-1 tests in this process under
`sys.settrace`, records every line of `src/crowdreg` that runs, and prints
each rejection line that never did, then one summary line. The tracing and
the listing use the standard library only; pytest runs the tests, with
Hypothesis's deadline off, since tracing slows every call. Not collected by
pytest.

    python tests/strength.py [pytest arguments]

Extra arguments go to pytest, so `python tests/strength.py tests/test_ledger.py`
traces one file's tests. It exits with pytest's status.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "crowdreg"
REJECTED_VERDICTS = {"FORGED", "REPLAYED"}


def rejection_kind(node: ast.AST):
    """What kind of rejection the statement `node` is, or None."""
    if isinstance(node, ast.Raise):
        return "raise"
    if not isinstance(node, ast.Return) or node.value is None:
        return None
    value = node.value
    if isinstance(value, ast.Constant) and value.value is False:
        return "return False"
    if (
        isinstance(value, ast.Attribute)
        and isinstance(value.value, ast.Name)
        and value.value.id == "Verdict"
        and value.attr in REJECTED_VERDICTS
    ):
        return f"return Verdict.{value.attr}"
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id.endswith("Error"):
        return f"return {value.func.id}"
    return None


def rejection_lines(path: Path):
    """(line, kind, source text) of every rejection statement in `path`."""
    source = path.read_text()
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        kind = rejection_kind(node)
        if kind is not None:
            found.append((node.lineno, kind, lines[node.lineno - 1].strip()))
    return sorted(found)


class NoDeadline:
    """A pytest plugin that turns Hypothesis's deadline off before the tests
    are collected, since tracing slows every call."""

    @staticmethod
    def pytest_sessionstart(session):
        from hypothesis import settings

        settings.register_profile("strength", deadline=None)
        settings.load_profile("strength")


def run_traced(args):
    """Run pytest under a line tracer of `SOURCE`; (exit status, {file: lines run})."""
    import pytest

    prefix = str(SOURCE) + "/"
    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    os.chdir(ROOT)  # so that pytest reads the repository's configuration and test paths
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args], plugins=[NoDeadline()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, ran


def main(args) -> int:
    status, ran = run_traced(args)
    total = unreached = 0
    for path in sorted(SOURCE.glob("*.py")):
        hit = ran.get(str(path), set())
        for line, kind, text in rejection_lines(path):
            total += 1
            if line not in hit:
                unreached += 1
                print(f"{f'{path.name}:{line}':18s}  {kind:28s}  {text}")
    print(f"{unreached} of {total} rejection lines in src/crowdreg never run (pytest exit status {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
