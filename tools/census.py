"""Line census: the function-body statements of src/growthcomp that the
tier-1 tests never execute.

    python tools/census.py [extra pytest arguments]

Runs the tier-1 suite in this process with a sys.settrace line tracer on the
package's frames, then prints, for each module, how many of its function-body
statements no test reached and their line numbers, and the total.  A raise
statement is marked "(raise)" and counted apart, so what remains past the
raises are the unreached computations and verdicts.  A
statement counts by its own lines (the header of a compound statement);
docstrings, try, global and nonlocal carry no code of their own and are not
counted.  Standard library only, besides pytest itself; the tracer makes the
run a few times slower.  The exit code is pytest's.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "growthcomp"
NO_CODE = (ast.Try, getattr(ast, "TryStar", ast.Try), ast.Global, ast.Nonlocal)


def statements(path: Path) -> dict[int, tuple[range, bool]]:
    """First line -> (own lines, is a raise) of each statement inside a
    function body."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    found = {}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in fn.body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.stmt) and id(node) not in docstrings
                        and not isinstance(node, NO_CODE)):
                    body = getattr(node, "body", None)
                    last = body[0].lineno - 1 if body else node.end_lineno
                    found[node.lineno] = (range(node.lineno, max(last, node.lineno) + 1),
                                          isinstance(node, ast.Raise))
    return found


def main(args: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    modules = {str(p): statements(p) for p in sorted(PACKAGE.glob("*.py"))}
    seen: dict[str, set[int]] = {f: set() for f in modules}

    def trace(frame, event, arg):
        lines = seen.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)

    total = missed_total = raises_total = 0
    for path, stmts in modules.items():
        missed = sorted((first, is_raise) for first, (own, is_raise) in stmts.items()
                        if not any(line in seen[path] for line in own))
        raises = sum(is_raise for _, is_raise in missed)
        total += len(stmts)
        missed_total += len(missed)
        raises_total += raises
        if missed:
            print(f"{Path(path).name}: {len(missed)} of {len(stmts)} unexecuted, "
                  f"{raises} raise: "
                  + ", ".join(f"{first} (raise)" if is_raise else str(first)
                              for first, is_raise in missed))
    print(f"total: {missed_total} of {total} function-body statements unexecuted, "
          f"{raises_total} of them raise")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
