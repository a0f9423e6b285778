"""The reach census (``tools/reach.py``) classifies every kind of function right.

One child process runs a small fixture package under the census hook: a
decorated function, a ``@property``, a nested function and a method that
only a worker thread calls, then the child kills itself with SIGKILL right
after calling one more function.  Each must read as reached; a method no
one calls reads as never reached, and one only the tests' records hold as
test-only.
"""

from __future__ import annotations

import importlib.util
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach.py"

FIXTURE = '''\
import functools
import os
import signal
import threading


def deco(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


@deco
def decorated():
    return 1


class Box:
    @property
    def size(self):
        return 2

    def in_thread(self):
        return 3

    def never_called(self):
        return 4


def outer():
    def inner():
        return 5

    return inner()


def only_in_tests():
    return 6


def before_kill():
    return 7


def main():
    decorated()
    Box().size
    outer()
    worker = threading.Thread(target=Box().in_thread)
    worker.start()
    worker.join()
    before_kill()
    os.kill(os.getpid(), signal.SIGKILL)
'''


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def census(reach, tmp_path_factory):
    """``key -> groups`` for the fixture, after one hooked child run."""
    root = tmp_path_factory.mktemp("reach")
    package = root / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(FIXTURE)
    reach.write_hook(root / "hook")
    records = root / "records"
    records.mkdir()
    done = subprocess.run(
        [sys.executable, "-c", "import repro.mod; repro.mod.main()"],
        env=reach.hook_env(root / "hook", root / "src", records),
        cwd=root,
        timeout=60,
    )
    assert done.returncode == -signal.SIGKILL
    functions = {f.key: f for f in reach.functions_in(package)}
    only = functions["repro/mod.py:only_in_tests"]
    reached = {
        "examples": reach.read_records(records, root / "src"),
        reach.TESTS: {(only.path, only.first_line, only.name)},
    }
    return {f.key: groups for f, groups in reach.classify(functions.values(), reached).items()}


@pytest.mark.parametrize(
    "qualname, expected",
    [
        ("decorated", "reached"),  # co_firstlineno is the decorator's line
        ("deco.wrapper", "reached"),
        ("Box.size", "reached"),  # a property
        ("outer.inner", "reached"),  # a nested function
        ("Box.in_thread", "reached"),  # called from a worker thread only
        ("before_kill", "reached"),  # the child died by SIGKILL right after
        ("Box.never_called", "never"),
        ("only_in_tests", "test-only"),
    ],
)
def test_each_function_gets_its_class(reach, census, qualname, expected):
    assert reach.reach_class(census[f"repro/mod.py:{qualname}"]) == expected


def test_a_decorated_function_starts_at_its_decorator(reach, tmp_path):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "m.py").write_text(textwrap.dedent('''\
        import functools


        @functools.lru_cache()
        @staticmethod
        def f():
            """Doc."""
            return 1
    '''))
    (f,) = reach.functions_in(tmp_path / "repro")
    assert (f.key, f.first_line, f.lines) == ("repro/m.py:f", 4, 5)


def test_only_a_verdict_takes_an_unreached_function_off_the_check(reach, census):
    functions = [reach.Function("repro/mod.py", q, 1, q.split(".")[-1], 2, None)
                 for q in ("Box.never_called", "only_in_tests", "decorated")]
    groups = {f: census[f.key] for f in functions}
    assert [f.qualname for f in reach.unlisted(groups, "")] == ["Box.never_called", "only_in_tests"]
    listed = "| `repro/mod.py:Box.never_called` | 2 | keep: the fixture's dead method |\n"
    assert [f.qualname for f in reach.unlisted(groups, listed)] == ["only_in_tests"]
    report = reach.render(groups, listed)
    assert "| `repro/mod.py:Box.never_called` | 2 | keep: the fixture's dead method |" in report
    assert "| `repro/mod.py:only_in_tests` | 2 | unreviewed |" in report
    assert "decorated" not in report


def _functions(reach, tmp_path, source):
    """``key -> Function`` for one module written from ``source``."""
    package = tmp_path / "repro"
    package.mkdir()
    (package / "m.py").write_text(textwrap.dedent(source))
    return {f.qualname: f for f in reach.functions_in(package)}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("class A:\n    def f(self):\n        raise NotImplementedError\n", "abstract"),
        ("class A:\n    def f(self):\n        '''Doc.'''\n        raise NotImplementedError('f')\n", "abstract"),
        ("import abc\nclass A(abc.ABC):\n    @abc.abstractmethod\n    def f(self):\n        ...\n", "abstract"),
        ("from abc import abstractmethod\nclass A:\n    @abstractmethod\n    def f(self):\n        '''Doc.'''\n",
         "abstract"),
        ("from typing import Protocol\nclass A(Protocol):\n    def f(self):\n        ...\n", "protocol"),
        ("import typing\nclass A(typing.Protocol):\n    def f(self) -> int:\n        '''Doc.'''\n", "protocol"),
        ("class A:\n    def f(self):\n        '''Doc.'''\n        pass\n", None),
        ("class A:\n    def f(self):\n        return 1\n", None),
        ("class A:\n    def f(self):\n        if self:\n            raise NotImplementedError\n", None),
        ("from typing import Protocol\nclass A(Protocol):\n    def f(self):\n        return 1\n", None),
    ],
    ids=["raise", "doc-raise", "abc.abstractmethod", "abstractmethod", "protocol", "typing.Protocol",
         "pass", "body", "raise-in-branch", "protocol-with-body"],
)
def test_a_declaration_is_a_method_without_a_body(reach, tmp_path, source, expected):
    assert _functions(reach, tmp_path, source)["A.f"].declaration == expected


def test_a_function_owns_its_span_less_what_is_nested_in_it(reach, tmp_path):
    functions = _functions(reach, tmp_path, '''\
        def outer():
            x = 1

            def inner():
                return x

            class Local:
                def method(self):
                    return 2

            return inner
    ''')
    assert {q: (f.first_line, f.lines) for q, f in functions.items()} == {
        "outer": (1, 11 - 2 - 3),  # less inner (4-5) and Local (7-9)
        "outer.inner": (4, 2),
        "outer.Local.method": (8, 2),
    }


def test_a_property_setter_gets_a_key_of_its_own(reach, tmp_path):
    functions = _functions(reach, tmp_path, '''\
        class A:
            @property
            def x(self):
                return self._x

            @x.setter
            def x(self, value):
                self._x = value

            async def fetch(self):
                return 1
    ''')
    assert sorted(functions) == ["A.fetch", "A.x", "A.x#2"]
    assert (functions["A.x"].first_line, functions["A.x#2"].first_line) == (2, 6)
    assert functions["A.x#2"].name == "x"  # the name the hook records


def test_records_outside_the_package_parent_are_dropped(reach, tmp_path):
    src = tmp_path / "src"
    (tmp_path / "records" / "run").mkdir(parents=True)
    (tmp_path / "records" / "run" / "11.txt").write_text(
        f"{src / 'repro' / 'm.py'}\t3\tf\n{tmp_path / 'elsewhere' / 'm.py'}\t3\tf\n")
    (tmp_path / "records" / "12.txt").write_text(f"{src / 'repro' / 'n.py'}\t7\tg\n")
    assert reach.read_records(tmp_path / "records", src) == {("repro/m.py", 3, "f"), ("repro/n.py", 7, "g")}


@pytest.mark.parametrize(
    "groups, expected",
    [
        ([], "never"),
        (["tests"], "test-only"),
        (["smokes"], "reached"),
        (["examples", "tests"], "reached"),
    ],
)
def test_any_run_but_the_tests_reaches(reach, groups, expected):
    assert reach.reach_class(groups) == expected


def _census_of(reach):
    """A hand-made census: one function of each class, a declaration and a smoke-only one."""
    f = reach.Function
    return {
        f("repro/a.py", "used", 1, "used", 10, None): ["examples", "tests"],
        f("repro/a.py", "smoke", 20, "smoke", 4, None): ["smokes", "tests"],
        f("repro/a.py", "tested", 30, "tested", 3, None): ["tests"],
        f("repro/a.py", "Base.f", 40, "f", 2, "abstract"): ["tests"],
        f("repro/a.py", "dead", 50, "dead", 5, None): [],
        f("repro/a.py", "Proto.g", 60, "g", 1, "protocol"): [],
    }


def test_the_summary_counts_functions_and_lines_per_class(reach):
    assert reach.summary(_census_of(reach)) == {
        "all": (6, 25),
        "reached": (2, 14),
        "reached only by the legacy smokes": (1, 4),
        "test-only": (2, 5),
        "test-only (declarations)": (1, 2),
        "never": (2, 6),
        "never (declarations)": (1, 1),
    }


def test_rewriting_the_report_keeps_its_verdicts_and_notes(reach):
    groups = _census_of(reach)
    previous = ("| `repro/a.py:dead` | 99 | keep: a hand-written reason |\n"
                "| `repro/a.py:gone` | 3 | keep: a function since deleted |\n"
                "\n## Notes\n\nWhy things are kept.\n")
    report = reach.render(groups, previous)
    assert reach.render(groups, report) == report  # a second run writes the same file
    assert report.endswith("## Notes\n\nWhy things are kept.\n")
    assert reach.listed_verdicts(report) == {
        "repro/a.py:tested": "unreviewed",
        "repro/a.py:Base.f": "abstract",
        "repro/a.py:dead": "keep: a hand-written reason",  # its lines are recounted
        "repro/a.py:Proto.g": "protocol",
    }
    assert "| `repro/a.py:dead` | 5 |" in report
    assert "| test-only | 2 | 5 |" in report


def test_the_count_table_is_not_read_as_verdicts(reach):
    report = reach.render(_census_of(reach), "")
    assert all(key.startswith("repro/") for key in reach.listed_verdicts(report))


def test_the_check_omits_tier1_and_runs_every_example(reach, tmp_path):
    full = reach.planned_runs(True, tmp_path)
    check = reach.planned_runs(False, tmp_path)
    assert full[:-1] == check and full[-1][0] == reach.TESTS
    groups = [group for group, _, _ in check]
    assert groups.count("workloads") == 2 * len(reach.WORKLOADS)  # untraced and traced
    examples = {argv[-1] for group, _, argv in check if group == "examples"}
    assert examples == {f"examples/{p.name}" for p in (reach.ROOT / "examples").glob("*.py")}
    for group, label, argv in check:
        assert group != "paper" or "--benchmark-disable" in argv, label  # the benchmark plugin drops the hook
        assert group != "smokes" or "--out-dir" in argv, label  # keeps benchmarks/results/ clean
        assert group != reach.TESTS


def test_the_hook_is_inert_without_an_output_directory(monkeypatch):
    monkeypatch.delenv("REACH_OUT", raising=False)
    spec = importlib.util.spec_from_file_location("reach_tool_hook", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    before = sys.gettrace()
    namespace: dict = {}
    exec(module.HOOK, namespace)
    assert sys.gettrace() is before
    assert "_reach" not in namespace


def _run_main(reach, monkeypatch, tmp_path, argv, report_text):
    (tmp_path / "docs").mkdir()
    report = tmp_path / "docs" / "reach.md"
    report.write_text(report_text)
    monkeypatch.setattr(reach, "ROOT", tmp_path)
    monkeypatch.setattr(reach, "REPORT", report)
    monkeypatch.setattr(reach, "census", lambda tests: (_census_of(reach), []))
    return reach.main(argv), report.read_text()


def test_check_fails_on_an_unlisted_unreached_function(reach, monkeypatch, tmp_path, capsys):
    code, text = _run_main(reach, monkeypatch, tmp_path, ["--check"], "| `repro/a.py:dead` | 5 | keep: why |\n")
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "reach: repro/a.py:tested (3 lines) is reached by no workload, example or paper run "
        "and docs/reach.md gives it no verdict"]
    assert text == "| `repro/a.py:dead` | 5 | keep: why |\n"  # --check writes nothing


def test_check_passes_once_every_unreached_function_has_a_verdict(reach, monkeypatch, tmp_path):
    listed = "| `repro/a.py:dead` | 5 | keep: why |\n| `repro/a.py:tested` | 3 | open: move into tests/ |\n"
    code, _ = _run_main(reach, monkeypatch, tmp_path, ["--check"], listed)
    assert code == 0


def test_a_full_run_rewrites_the_report(reach, monkeypatch, tmp_path):
    code, text = _run_main(reach, monkeypatch, tmp_path, [], "| `repro/a.py:dead` | 5 | keep: why |\n")
    assert code == 0
    assert text == reach.render(_census_of(reach), "| `repro/a.py:dead` | 5 | keep: why |\n")


# -- the committed report ------------------------------------------------------


@pytest.fixture(scope="module")
def committed(reach):
    """``(functions by key, the committed docs/reach.md text)``."""
    return {f.key: f for f in reach.functions_in(reach.ROOT / "src" / "repro")}, reach.REPORT.read_text()


def test_every_listed_function_still_exists(reach, committed):
    functions, text = committed
    stale = sorted(set(reach.listed_verdicts(text)) - set(functions))
    assert stale == [], "docs/reach.md lists functions that are gone; rerun python tools/reach.py"


def test_every_listed_function_has_a_verdict(reach, committed):
    _, text = committed
    assert [key for key, verdict in reach.listed_verdicts(text).items() if verdict == reach.UNREVIEWED] == []


def test_the_count_table_adds_up_to_the_listed_entries(reach, committed):
    functions, text = committed
    sections = text.split("\n## ")
    counts = {row.split(" | ")[0].lstrip("| "): row for row in sections[0].splitlines() if row.startswith("| ")}
    for title, kind in (("Reached only by tier-1", "test-only"), ("Never reached", "never")):
        (section,) = [s for s in sections if s.startswith(title)]
        keys = list(reach.listed_verdicts(section))
        expected = f"| {kind} | {len(keys):,} | {sum(functions[k].lines for k in keys):,} |"
        assert counts[kind] == expected, kind


def test_every_verdict_takes_a_documented_form(reach, committed):
    _, text = committed
    odd = {key: verdict for key, verdict in reach.listed_verdicts(text).items()
           if verdict not in ("abstract", "protocol") and not verdict.startswith(("keep: ", "open: "))}
    assert odd == {}


def test_only_a_declaration_reads_abstract_or_protocol(reach, committed):
    functions, text = committed
    wrong = {key: verdict for key, verdict in reach.listed_verdicts(text).items()
             if verdict in ("abstract", "protocol") and functions[key].declaration != verdict}
    assert wrong == {}, "a function with a body needs a keep: or open: reason"


def test_each_section_lists_its_functions_once_in_key_order(reach, committed):
    _, text = committed
    for section in text.split("\n## ")[1:-1]:  # the two tables, not the notes
        keys = [m.group(1) for m in map(reach._ENTRY.match, section.splitlines()) if m]
        assert keys == sorted(set(keys)), section.splitlines()[0]
