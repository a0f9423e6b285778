#!/usr/bin/env python3
"""Reach census: which functions in ``src/repro`` run outside the tests.

Every function in ``src/`` should be reached by an end-to-end workload, an
example or a paper run; one that only the tests reach is a candidate to
delete, to move into ``tests/`` or to reach from an example.  This tool
measures that, with the standard library only::

    python tools/reach.py            # all runs, tier-1 included; rewrites docs/reach.md
    python tools/reach.py --check    # the non-test runs; fails on an unlisted unreached function

It copies the checkout to a temporary directory and runs there, under a
``sitecustomize`` hook that every child Python process inherits through
``PYTHONPATH``:

* each e2e workload at full size for about 2 s, untraced and traced;
* every script in ``examples/``;
* the paper scripts (``benchmarks/bench_{table,figure,ablations}*.py``)
  with ``--benchmark-disable``, since pytest-benchmark clears the hook
  while it times;
* the legacy system smokes (``bench_load`` / ``bench_replica`` /
  ``bench_tenant --smoke``);
* tier-1 (``pytest tests``), skipped by ``--check``.

The hook is a global trace function that records a code object the first
time a frame of it starts and returns ``None``, so no line is traced.  It
appends the record to a per-process file at once, so a child killed with
SIGKILL still counts.  A record is matched to an AST function by file,
first line and name; a decorated function's ``co_firstlineno`` is the line
of its first decorator.  A function's lines are those of its span less the
spans of the functions and classes nested in it.

``docs/reach.md`` lists every function no non-test run reaches, each with
its lines and a verdict.  Rewriting the file keeps the verdicts already
there (and the text under its ``## Notes`` heading); a new entry reads
``unreviewed``.  ``--check`` fails on any unreached function whose entry is
missing or ``unreviewed``, so the file is the reviewed allowlist.  A run
that exits non-zero is reported but does not stop the census: what it
reached before failing still counts.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
REPORT = ROOT / "docs" / "reach.md"
TESTS = "tests"
WORKLOADS = ("serve_http", "scan_batch", "ingest_mixed", "usp_build")
PAPER = ("ablations", "figure5", "figure6", "figure7", "table2", "table3", "table4", "table5")
SMOKES = ("load", "replica", "tenant")
RUN_TIMEOUT_S = 1800
UNREVIEWED = "unreviewed"

#: ``sitecustomize.py`` of the hook directory; inert unless REACH_OUT is set
HOOK = '''\
import os
import sys
import threading

_out = os.environ.get("REACH_OUT")
_root = os.environ.get("REACH_ROOT", "")
if _out:
    _seen = {}
    _fd = os.open(os.path.join(_out, "%d.txt" % os.getpid()), os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def _reach(frame, event, arg):
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code
            if code.co_filename.startswith(_root):
                os.write(_fd, ("%s\\t%d\\t%s\\n" % (code.co_filename, code.co_firstlineno, code.co_name)).encode())

    sys.settrace(_reach)
    threading.settrace(_reach)
'''

Record = Tuple[str, int, str]  # (path relative to the package root's parent, first line, name)


@dataclass(frozen=True)
class Function:
    path: str  # e.g. "repro/core/base.py"
    qualname: str
    first_line: int  # first decorator's line, else the def line
    name: str
    lines: int
    declaration: Optional[str]  # "abstract" / "protocol" for a declaration without a body

    @property
    def key(self) -> str:
        return f"{self.path}:{self.qualname}"


def _declaration(node: ast.AST, owner: Optional[ast.ClassDef]) -> Optional[str]:
    """``"abstract"`` / ``"protocol"`` for a method with no body of its own, else ``None``.

    No body: only a docstring, ``pass``, ``...`` or ``raise NotImplementedError``.
    Such a method is abstract when it raises or is an ``abstractmethod``, and
    a protocol member when its class derives from ``Protocol``.
    """
    raises = False
    for stmt in node.body:
        if isinstance(stmt, ast.Raise) and "NotImplementedError" in ast.unparse(stmt):
            raises = True
        elif not (isinstance(stmt, ast.Pass) or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))):
            return None
    if raises or any(ast.unparse(d).endswith("abstractmethod") for d in node.decorator_list):
        return "abstract"
    if owner is not None and any(ast.unparse(b).endswith("Protocol") for b in owner.bases):
        return "protocol"
    return None


def _span(node: ast.AST) -> range:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return range(first, node.end_lineno + 1)


def functions_in(package: Path) -> List[Function]:
    """Every function and method under ``package``, nested ones included."""
    found: List[Function] = []
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for file in sorted(package.rglob("*.py")):
        rel = file.relative_to(package.parent).as_posix()
        tree = ast.parse(file.read_text(encoding="utf-8"), filename=str(file))
        taken: Dict[str, int] = {}

        def visit(node: ast.AST, prefix: str, owner: Optional[ast.ClassDef]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", child)
                elif isinstance(child, defs):
                    qualname = prefix + child.name
                    taken[qualname] = taken.get(qualname, 0) + 1
                    if taken[qualname] > 1:  # a property's setter shares its getter's name
                        qualname = f"{qualname}#{taken[qualname]}"
                    lines = set(_span(child))
                    for inner in ast.walk(child):
                        if inner is not child and isinstance(inner, (*defs, ast.ClassDef)):
                            lines -= set(_span(inner))
                    found.append(Function(rel, qualname, _span(child).start, child.name, len(lines),
                                          _declaration(child, owner)))
                    visit(child, f"{qualname}.", None)
                else:
                    visit(child, prefix, owner)

        visit(tree, "", None)
    return found


def read_records(directory: Path, package_parent: Path) -> Set[Record]:
    """The ``(path, first line, name)`` records the hook wrote under ``directory``."""
    records: Set[Record] = set()
    for file in directory.rglob("*.txt"):
        for line in file.read_text(encoding="utf-8").splitlines():
            filename, first, name = line.split("\t")
            path = Path(filename)
            if path.is_relative_to(package_parent):
                records.add((path.relative_to(package_parent).as_posix(), int(first), name))
    return records


def classify(funcs: Iterable[Function], reached: Dict[str, Set[Record]]) -> Dict[Function, List[str]]:
    """For each function, the run groups whose records include it."""
    return {
        f: sorted(group for group, records in reached.items() if (f.path, f.first_line, f.name) in records)
        for f in funcs
    }


def reach_class(groups: Sequence[str]) -> str:
    if any(g != TESTS for g in groups):
        return "reached"
    return "test-only" if groups else "never"


# -- runs -------------------------------------------------------------------


def planned_runs(tests: bool, out: Path) -> List[Tuple[str, str, List[str]]]:
    """``(group, label, argv)`` for every run, relative to the checkout copy."""
    py = sys.executable
    runs = [
        ("workloads", f"e2e {w} trace={t}",
         [py, "benchmarks/e2e/run.py", "--workload", w, "--seed", "7", "--seconds", "2",
          "--trace", str(t), "--out-dir", str(out / f"e2e-{w}-{t}")])
        for w in WORKLOADS for t in (0, 1)
    ]
    runs += [("examples", script.name, [py, f"examples/{script.name}"])
             for script in sorted((ROOT / "examples").glob("*.py"))]
    runs += [("paper", f"bench_{p}", [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                      "--benchmark-disable", f"benchmarks/bench_{p}.py"])
             for p in PAPER]
    runs += [("smokes", f"bench_{s} --smoke",
              [py, f"benchmarks/bench_{s}.py", "--smoke", "--out-dir", str(out / "smoke")])
             for s in SMOKES]
    if tests:
        runs.append((TESTS, "tier-1", [py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"]))
    return runs


def hook_env(hook_dir: Path, src: Path, records: Path, extra_path: Sequence[Path] = ()) -> Dict[str, str]:
    """The environment under which a child process records what it reaches in ``src/repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (hook_dir, src, *extra_path))
    env["REACH_OUT"] = str(records)
    env["REACH_ROOT"] = str(src / "repro") + os.sep
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def write_hook(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "sitecustomize.py").write_text(HOOK, encoding="utf-8")


def census(tests: bool) -> Tuple[Dict[Function, List[str]], List[str]]:
    """Run everything under the hook; return each function's groups and the failed runs."""
    failed: List[str] = []
    with tempfile.TemporaryDirectory(prefix="reach-") as name:
        tmp = Path(name).resolve()
        work = tmp / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".bench_out", ".pytest_cache", ".benchmarks", ".hypothesis", "*.egg-info"))
        write_hook(tmp / "hook")
        reached: Dict[str, Set[Record]] = {}
        for i, (group, label, argv) in enumerate(planned_runs(tests, tmp / "out")):
            records = tmp / "records" / group / str(i)
            records.mkdir(parents=True)
            env = hook_env(tmp / "hook", work / "src", records, [work / "benchmarks"])
            started = time.perf_counter()
            try:
                done = subprocess.run(argv, cwd=work, env=env, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True, timeout=RUN_TIMEOUT_S)
                ok, tail = done.returncode == 0, done.stdout[-2000:]
            except subprocess.TimeoutExpired:
                ok, tail = False, f"timed out after {RUN_TIMEOUT_S} s"
            print(f"reach: {group:9s} {label:32s} {time.perf_counter() - started:6.1f} s"
                  f"{'' if ok else '  FAILED'}", flush=True)
            if not ok:
                failed.append(label)
                print(tail, file=sys.stderr)
            reached.setdefault(group, set()).update(read_records(records, work / "src"))
        return classify(functions_in(work / "src" / "repro"), reached), failed


# -- the report -------------------------------------------------------------

_ENTRY = re.compile(r"^\| `([^`]+)` \| \d+ \| (.+?) \|$")
NOTES = "## Notes"


def listed_verdicts(text: str) -> Dict[str, str]:
    """``key -> verdict`` for every entry of a ``docs/reach.md`` text."""
    return {m.group(1): m.group(2) for m in map(_ENTRY.match, text.splitlines()) if m}


def summary(groups_of: Dict[Function, List[str]]) -> Dict[str, Tuple[int, int]]:
    """``class -> (functions, lines)``, plus the declarations and the smoke-only share."""
    counts: Dict[str, List[int]] = {}

    def add(name: str, f: Function) -> None:
        entry = counts.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += f.lines

    for f, groups in groups_of.items():
        add("all", f)
        kind = reach_class(groups)
        add(kind, f)
        if kind != "reached" and f.declaration:
            add(f"{kind} (declarations)", f)
        if groups and all(g in ("smokes", TESTS) for g in groups) and "smokes" in groups:
            add("reached only by the legacy smokes", f)
    return {name: (c[0], c[1]) for name, c in counts.items()}


def render(groups_of: Dict[Function, List[str]], previous: str) -> str:
    verdicts = listed_verdicts(previous)
    notes = previous[previous.index(NOTES):] if NOTES in previous else f"{NOTES}\n"
    counts = summary(groups_of)
    out = [
        "# Reach census of `src/repro`",
        "",
        "Written by `python tools/reach.py`; `python tools/reach.py --check` fails",
        "when a function that no workload, example, paper run or legacy smoke",
        "reaches is missing below or reads `unreviewed`.  Lines are a function's",
        "span less the functions nested in it.  Verdicts (kept across runs):",
        "`abstract` / `protocol` (a declaration without a body), `keep: <why>`,",
        "or `open: <what to do>` for work not done yet.",
        "",
        "| class | functions | lines |",
        "|---|---:|---:|",
    ]
    for name in ("all", "reached", "reached only by the legacy smokes", "test-only",
                 "test-only (declarations)", "never", "never (declarations)"):
        n, lines = counts.get(name, (0, 0))
        out.append(f"| {name} | {n:,} | {lines:,} |")
    for kind, title in (("test-only", "Reached only by tier-1"), ("never", "Never reached")):
        out += ["", f"## {title}", "", "| function | lines | verdict |", "|---|---:|---|"]
        for f in sorted((f for f, g in groups_of.items() if reach_class(g) == kind), key=lambda f: f.key):
            verdict = verdicts.get(f.key, UNREVIEWED)
            if verdict == UNREVIEWED:
                verdict = f.declaration or UNREVIEWED
            out.append(f"| `{f.key}` | {f.lines} | {verdict} |")
    return "\n".join(out) + "\n\n" + notes.rstrip("\n") + "\n"


def unlisted(groups_of: Dict[Function, List[str]], text: str) -> List[Function]:
    """Functions no non-test run reaches that ``text`` does not list with a verdict."""
    verdicts = listed_verdicts(text)
    return sorted((f for f, g in groups_of.items()
                   if reach_class(g) != "reached" and verdicts.get(f.key, UNREVIEWED) == UNREVIEWED
                   and not f.declaration), key=lambda f: f.key)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="run the non-test runs only and fail on an unlisted unreached function")
    args = parser.parse_args(argv)
    groups_of, failed = census(tests=not args.check)
    if failed:
        # A failing assert (the paper scripts time things) still leaves the run's records;
        # a run that died early shows up below as functions that lost their reach.
        print(f"reach: {len(failed)} run(s) exited non-zero: {', '.join(failed)}", file=sys.stderr)
    previous = REPORT.read_text(encoding="utf-8") if REPORT.exists() else ""
    if args.check:
        missing = unlisted(groups_of, previous)
        for f in missing:
            print(f"reach: {f.key} ({f.lines} lines) is reached by no workload, example or paper run "
                  f"and {REPORT.relative_to(ROOT)} gives it no verdict", file=sys.stderr)
        return 1 if missing else 0
    REPORT.write_text(render(groups_of, previous), encoding="utf-8")
    for name, (n, lines) in summary(groups_of).items():
        print(f"reach: {name}: {n} functions, {lines} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
