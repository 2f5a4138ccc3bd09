#!/usr/bin/env python3
"""What the package's source holds, and with ``--coverage`` what no test runs.

Prints, for ``src/thermal_landscape``:

- the line count of each module and their total;
- the defaulted parameters of every function and method (counted with
  ``ast``: positional parameters with a default plus keyword-only ones with
  a default), each named with ``--list``;
- the fields of every dataclass.

With ``--coverage`` it then runs pytest in this process under a
``sys.settrace`` line tracer limited to the package's files, and lists for
each module the executable lines (those in its code objects' line tables)
that never ran, as ranges.  pytest gets ``-m "not slow"`` and the test
directory by default, or the arguments after ``--``.  A code object is no
longer traced once all of its lines have run, which keeps hot loops cheap.
Nothing beyond pytest is needed (no ``coverage`` package).

Run from the repository root:

    python scripts/src_inventory.py [--list]
    python scripts/src_inventory.py --coverage
    python scripts/src_inventory.py --coverage -- tests/test_acceptance.py -k acceptance_11
"""

import argparse
import ast
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "thermal_landscape"


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def inventory(path):
    """(lines, [(qualified name, defaulted parameters)], {dataclass: [fields]}) of a module."""
    text = path.read_text()
    tree = ast.parse(text)
    defaults, fields = [], {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                named = [a.arg for a in (args.posonlyargs + args.args)[-len(args.defaults):]
                         ] if args.defaults else []
                named += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
                if named:
                    defaults.append((f"{prefix}{child.name}", named))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields[child.name] = [
                        item.target.id for item in child.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and "ClassVar" not in ast.unparse(item.annotation)]
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return len(text.splitlines()), defaults, fields


def print_inventory(modules, list_defaults):
    total_lines = total_defaults = 0
    print("# lines and defaulted parameters per module")
    for path in modules:
        lines, defaults, _ = inventory(path)
        count = sum(len(names) for _, names in defaults)
        total_lines += lines
        total_defaults += count
        print(f"{path.name:28s} {lines:6d} lines {count:4d} defaulted")
        if list_defaults:
            for name, names in defaults:
                print(f"    {name}({', '.join(names)})")
    print(f"{'total':28s} {total_lines:6d} lines {total_defaults:4d} defaulted")
    print("# dataclass fields")
    for path in modules:
        for name, names in inventory(path)[2].items():
            print(f"{path.stem}.{name}: {len(names)} ({', '.join(names)})")


def _code_lines(code, out):
    """Each code object nested in ``code`` (itself included) with its line numbers."""
    out[code] = {line for _, _, line in code.co_lines() if line}  # a module starts at line 0
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            _code_lines(const, out)
    return out


def _ranges(lines):
    out, start, prev = [], None, None
    for line in sorted(lines):
        if start is None:
            start = prev = line
        elif line == prev + 1:
            prev = line
        else:
            out.append(f"{start}-{prev}" if prev > start else f"{start}")
            start = prev = line
    if start is not None:
        out.append(f"{start}-{prev}" if prev > start else f"{start}")
    return out


def run_coverage(modules, pytest_args):
    """Run pytest under a line tracer; returns pytest's exit code and the
    lines of each module that never ran."""
    files = {str(path): path for path in modules}
    ran = {name: set() for name in files}
    remaining = {}  # code object -> its lines not yet run
    done = set()  # code objects all of whose lines have run

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            ran[code.co_filename].add(frame.f_lineno)
            left = remaining[code]
            left.discard(frame.f_lineno)
            if not left:
                done.add(code)
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        if code in done or code.co_filename not in files:
            return None
        if code not in remaining:
            remaining[code] = {line for _, _, line in code.co_lines() if line}
        # the line of a code object's entry (its def, or first decorator) has no line event
        ran[code.co_filename].add(code.co_firstlineno)
        remaining[code].discard(code.co_firstlineno)
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = {}
    for name, path in files.items():
        source = compile(path.read_text(), name, "exec")
        lines = set().union(*_code_lines(source, {}).values())
        missed[path] = lines - ran[name]
    return code, missed


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "--" in argv:
        at = argv.index("--")
        argv, pytest_args = argv[:at], argv[at + 1:]
    else:
        pytest_args = ["-q", "-p", "no:cacheprovider", "-m", "not slow", str(REPO / "tests")]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true",
                        help="name every defaulted parameter")
    parser.add_argument("--coverage", action="store_true",
                        help="run pytest under a line tracer and list the lines never run")
    args = parser.parse_args(argv)
    modules = sorted(PACKAGE.glob("*.py"))
    print_inventory(modules, args.list)
    if not args.coverage:
        return 0
    code, missed = run_coverage(modules, pytest_args)
    print(f"# lines never run (pytest {' '.join(pytest_args)}; exit code {int(code)})")
    for path, lines in missed.items():
        if lines:
            print(f"{path.name}: {len(lines)}: {', '.join(_ranges(lines))}")
    print(f"total never run: {sum(len(lines) for lines in missed.values())}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
