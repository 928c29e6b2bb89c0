"""Which executable lines of src/purb no Tier-1 test runs, by the
standard library alone (no coverage package needed).

    python tests/line_coverage.py [-k EXPR]

Run from the root of a checkout.  It runs the test suite in this process
under sys.settrace and threading.settrace, with pytest's -k EXPR if one
is given (say, -k "not test_roundtrip_and_bit_balance" to drop the
slowest tests), and prints, as its last line, a JSON object: the
executable lines that did not run, per file, their count, the suite's
exit code and the wall time.  It exits with the suite's exit code, so
a failing suite fails the run.  Executable lines are those that carry
bytecode.  Lines run only in a child process, such as a multiprocessing
worker or a CLI run through subprocess, count as not run.  pytest does
not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "purb"


def executable_lines(path: Path) -> set[int]:
    """The lines of path's source that carry bytecode, at any depth."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("-k", dest="expr", help="pytest -k expression")
    args = p.parse_args(argv)
    files = {str(path): executable_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}
    # Each code object's lines not yet run; one with none left is no
    # longer traced, which keeps the field arithmetic's loops cheap.
    left: dict[object, set[int]] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            todo = left[frame.f_code]
            todo.discard(frame.f_lineno)
            if not todo:
                return None
        return trace_lines

    def trace_calls(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in ran:
            return None
        if code not in left:
            left[code] = {line for _, _, line in code.co_lines() if line is not None}
        # A call runs the def line (or a generator's resume line) with no
        # line event of its own.
        ran[code.co_filename].add(frame.f_lineno)
        left[code].discard(frame.f_lineno)
        return trace_lines if left[code] else None

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import pytest  # imported before tracing starts, and purb after

    pytest_args = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    if args.expr:
        pytest_args += ["-k", args.expr]
    start = time.perf_counter()
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = {
        str(Path(name).relative_to(ROOT)): sorted(lines - ran[name])
        for name, lines in files.items()
        if lines - ran[name]
    }
    print(json.dumps({
        "unrun": unrun,
        "unrun_count": sum(map(len, unrun.values())),
        "executable_count": sum(map(len, files.values())),
        "tests_exit_code": int(status),
        "wall_s": round(time.perf_counter() - start, 1),
    }))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
