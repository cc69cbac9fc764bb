"""List the ``src/`` functions that no figure and no example ever calls.

Runs the smoke figure grid (``python -m repro.bench --all --scale smoke
--jobs 1``) and the six examples at ``REPRO_EXAMPLES_SCALE=smoke`` in
this process under :func:`sys.setprofile`, recording every code object
that starts.  Every ``def`` under ``src/repro`` (found by walking the
AST, methods and nested functions included) that never started is
printed with its line count, grouped by module, followed by one total.

Usage::

    python3 benchmarks/reach_probe.py    # about 2.5 minutes on 2 vCPUs

Functions that only run inside spawned worker processes (the parallel
kernel's shard workers) are not seen, so they can be listed though a
figure reaches them.  The total counts the lines of a nested ``def``
once, inside its outermost unreached parent.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples"


def definitions() -> dict[tuple[str, int], tuple[str, int, tuple | None]]:
    """``(file, first line) -> (qualname, lines, enclosing def's key)``
    for every function under ``src/repro``.

    The key's line is the code object's ``co_firstlineno``, which for a
    decorated function is its first decorator's line.
    """
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node, prefix, parent):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    name = f"{prefix}{child.name}"
                    key = (str(path), first)
                    found[key] = (name, child.end_lineno - first + 1, parent)
                    visit(child, f"{name}.<locals>.", key)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", parent)
                else:
                    visit(child, prefix, parent)

        visit(tree, "", None)
    return found


def trace(run) -> set[tuple[str, int]]:
    """Run ``run()`` and return ``(file, first line)`` of every Python
    function that started, in any thread of this process."""
    started: set = set()
    src = str(SRC)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(src):
                started.add((code.co_filename, code.co_firstlineno))

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return started


def run_grid() -> None:
    argv = sys.argv
    sys.argv = ["repro.bench", "--all", "--scale", "smoke", "--jobs", "1"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module("repro.bench", run_name="__main__",
                             alter_sys=True)
    except SystemExit as exc:
        if exc.code:
            raise RuntimeError(f"figure grid exited {exc.code}") from None
    finally:
        sys.argv = argv


def run_examples() -> None:
    os.environ["REPRO_EXAMPLES_SCALE"] = "smoke"
    for path in sorted(EXAMPLES.glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")


def main() -> int:
    sys.path.insert(0, str(SRC))
    started = trace(lambda: (run_grid(), run_examples()))
    defs = definitions()
    unreached = {key: val for key, val in defs.items() if key not in started}
    module = None
    for (path, line), (name, lines, _parent) in sorted(unreached.items()):
        rel = Path(path).relative_to(SRC)
        if rel != module:
            module = rel
            print(rel)
        print(f"  {line:5d}  {name}  ({lines} lines)")
    # An unreached parent's count already holds its nested defs' lines.
    total_lines = sum(lines for _name, lines, parent in unreached.values()
                      if parent not in unreached)
    print(f"{len(unreached)} of {len(defs)} functions never called "
          f"({total_lines} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
