"""List the lines of src/lbvt/ that no tier-1 test executes.

Usage, from anywhere:

    python3 tools/linecov.py [extra pytest arguments]

It installs a sys.settrace line tracer before lbvt is imported, runs the
tier-1 suite (tests/) in this process through pytest.main, and prints
`path:line` for each executable line of src/lbvt/ that no test reached,
then a one-line summary on stderr. Executable lines are those that
compile(...).co_lines() maps to an instruction, over every nested code
object. Only frames whose file lies under src/lbvt/ are traced line by
line. Code that tests run in a child process (the `python -m lbvt` and
demo tests) is not seen, so a line reached only there is listed too.

Standard library plus pytest only. It writes nothing into the repository:
no bytecode, no pytest cache, and Hypothesis keeps its database in a
temporary directory. The exit code is pytest's.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lbvt"


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry an instruction in the file's code objects."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)  # the call line
        return local

    with tempfile.TemporaryDirectory() as tmp:
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = tmp
        sys.path.insert(0, str(ROOT / "src"))
        import pytest  # lbvt is first imported by the tests' conftest, under the tracer

        sys.settrace(trace)
        try:
            code = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider",
                                "--rootdir", str(ROOT), "--continue-on-collection-errors",
                                *argv])
        finally:
            sys.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        for line in sorted(executable_lines(path) - hits.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}")
            missed += 1
    print(f"linecov: {missed} executable lines of src/lbvt/ not reached", file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
