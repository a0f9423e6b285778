"""The README's code snippets must actually run.

Docs rot when nothing executes them: this module extracts every fenced
``python`` block from ``README.md`` and ``exec``s it (doctest-style, but
for fenced markdown blocks).  The quickstart snippet carries its own
asserts, so a drifted API fails loudly here — and therefore in CI —
rather than on a new user's first copy-paste.  A pointer to a file that
does not exist is the same rot, so every script and doc path the docs,
CI and code name must resolve.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)

#: ``benchmarks/...py`` scripts, ``NAME.md`` docs (bare names resolve at the
#: repo root) and ``docs/*.md`` guides.
_REFERENCE = re.compile(
    r"benchmarks/[\w/]+\.py|(?:[\w-]+/)*[A-Z][A-Z_]*\.md|docs/[\w-]+\.md"
)
_REFERRING = (
    "README.md",
    "docs/*.md",
    ".github/workflows/ci.yml",
    "examples/*.py",
    "src/repro/**/*.py",
    "benchmarks/*.py",
)


def python_blocks() -> list[str]:
    return _FENCE.findall(README.read_text())


def test_readme_exists_with_python_quickstart():
    assert README.is_file(), "the repo front door (README.md) is missing"
    blocks = python_blocks()
    assert blocks, "README.md has no executable ```python quickstart block"


@pytest.mark.parametrize(
    "block_id", range(len(python_blocks())) if README.is_file() else []
)
def test_readme_snippet_executes(block_id):
    """Each fenced python block runs top-to-bottom in a fresh namespace."""
    source = python_blocks()[block_id]
    namespace: dict = {"__name__": f"readme_block_{block_id}"}
    exec(compile(source, f"README.md[python #{block_id}]", "exec"), namespace)


#: the README table's capability columns, in order
_TABLE_CAPABILITIES = (
    "routed",
    "trainable",
    "exact",
    "shardable",
    "mutable",
    "filterable",
)


def _registry_row(name: str) -> str:
    from repro.api import index_info

    info = index_info(name)
    flags = " | ".join(
        "yes" if info["capabilities"][column] else "-" for column in _TABLE_CAPABILITIES
    )
    return f"| `{name}` | `{info['class']}` | {flags} | {info['description']} |"


def _readme_backend_rows() -> dict:
    """``name -> row`` for every `` | `name` | `` row of README's back-end table."""
    section = README.read_text().split("## Index back-ends", 1)[1].split("\n## ", 1)[0]
    return {
        match.group(1): match.group(0)
        for match in re.finditer(r"^\| `([^`]+)` \|.*$", section, re.MULTILINE)
    }


def test_readme_backend_table_matches_registry():
    """The index table names the registry entries, no more and no fewer."""
    from repro.api import available_indexes

    rows = set(_readme_backend_rows())
    expected = set(available_indexes())
    assert sorted(rows) == sorted(expected), (
        f"README backend table rows {sorted(rows - expected)} are not "
        f"registered; registry entries {sorted(expected - rows)} have no row"
    )


def _registered_names():
    from repro.api import available_indexes

    return sorted(available_indexes())


@pytest.mark.parametrize("name", _registered_names())
def test_readme_backend_row_matches_registry(name):
    """Each registry entry's row is exactly the one built from index_info()."""
    assert _readme_backend_rows().get(name) == _registry_row(name)


def test_docs_name_no_missing_file():
    sources = {path for pattern in _REFERRING for path in ROOT.glob(pattern)}
    missing = sorted(
        f"{path.relative_to(ROOT)} names {name}"
        for path in sources
        for name in set(_REFERENCE.findall(path.read_text()))
        if not (ROOT / name).exists()
    )
    assert not missing, missing
