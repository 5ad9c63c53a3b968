"""List the functions and methods of src/opuckit that no command and no benchmark op runs.

    python3 tools/unrun_definitions.py

Runs, under one sys.settrace call trace, every command of
tools/compare_outputs.py in process through `opuckit.cli.main`, each in a
fresh temporary directory holding that tool's input files, and then one
round of every workload of perfbench/workloads.py: each op built by its
`build_*` function, run and checked.  A definition is a `def` anywhere in
src/opuckit/*.py, nested ones included; methods that dataclasses generate
have no `def` and are not listed.  Prints each definition whose code never
ran, as FILE:LINE MODULE.QUALIFIED.NAME, except those in ALLOWED, and
exits 1 if it printed any.  A printed definition that a span of
perfbench/tracing.py patches by name is marked so: it stays while
`perfbench/run.py --trace 1` looks it up.  The tool takes about 14 s on a
2-core Intel Xeon under CPython 3.11, too slow for Tier-1, so run it by
hand beside tools/compare_outputs.py.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "opuckit"
TRACING = ROOT / "perfbench" / "tracing.py"
SPAN_MARK = "named by perfbench/tracing.py"

# Data-model methods that stay although no command calls them, with the reason.
HASH = "the hash beside __eq__, which Python drops from a class that defines __eq__ alone"
REPR = "the text that a failing test or a debugger shows"
GUARD = "the guard that keeps an instance immutable: only an attempted write runs it"
ALLOWED = {
    "rationals.GaussianRational.__hash__": HASH,
    "rationals.GaussianRational.__repr__": REPR,
    "rationals.GaussianRational.__setattr__": GUARD,
    "sequences.VerblunskySequence.__eq__": "value equality: a dataclass's own __eq__ "
    "compares the value arrays inside tuples, which raises on two or more entries",
    "sequences.VerblunskySequence.__hash__": HASH,
    "shift_algebra.ShiftPolynomial.__repr__": REPR,
    "shift_algebra.ShiftPolynomial.__setattr__": GUARD,
}


def definitions() -> dict:
    """{(path, first line, name): (file name, def line, dotted name)} of every def in SRC.

    The dotted name starts with the module, as in "sequences.zero_extended",
    and the first line is the code object's: the first decorator's, if any.
    """
    found = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = scope + (child.name,)
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first, child.name)] = (
                        path.name, child.lineno, ".".join(qualified)
                    )
                visit(child, path, qualified)
            else:
                visit(child, path, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, (path.stem,))
    return found


def span_targets() -> set:
    """{dotted name} of every definition a span of perfbench/tracing.py patches.

    Loads the tracer from its file without writing bytecode next to it.
    """
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(tracing)
    finally:
        sys.dont_write_bytecode = saved
    return {f"{module.removeprefix('opuckit.')}.{path}" for _, module, path in tracing.SPANS}


def report_line(file_name: str, line: int, qualified: str, spans: set) -> str:
    mark = f"  ({SPAN_MARK})" if qualified in spans else ""
    return f"{file_name}:{line} {qualified}{mark}"


def run_everything() -> set:
    """{(path, first line, name)} of every code object that ran."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
    import compare_outputs
    import opuckit.cli
    import workloads

    ran = set()

    def trace(frame, event, arg):
        code = frame.f_code
        ran.add((code.co_filename, code.co_firstlineno, code.co_name))

    here = os.getcwd()
    sys.settrace(trace)
    try:
        for argv in compare_outputs.COMMANDS:
            with tempfile.TemporaryDirectory() as tmp:
                for name, text in compare_outputs.INPUTS.items():
                    Path(tmp, name).write_text(text)
                os.chdir(tmp)
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    with contextlib.suppress(SystemExit):
                        opuckit.cli.main(list(argv))
                os.chdir(here)
        for name, (build, _, _) in workloads.WORKLOADS.items():
            with tempfile.TemporaryDirectory() as tmp:
                for op in build(1, Path(tmp)):
                    op.check(op.output(op.run()))
    finally:
        sys.settrace(None)
        os.chdir(here)
    return ran


def main() -> int:
    defs = definitions()
    ran = run_everything()
    unrun = [
        defs[key] for key in sorted(defs.keys() - ran, key=lambda k: defs[k][:2])
        if defs[key][2] not in ALLOWED
    ]
    spans = span_targets()
    for file_name, line, qualified in unrun:
        print(report_line(file_name, line, qualified, spans))
    print(f"{len(defs)} definitions, {len(unrun)} never run outside the allow-list")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
