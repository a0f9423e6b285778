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


def test_readme_backend_table_matches_registry():
    """The index table is generated from the registry — keep them in sync."""
    from repro.api import available_indexes

    text = README.read_text()
    missing = [
        name for name in available_indexes() if f"| `{name}` |" not in text
    ]
    assert not missing, (
        f"README backend table is stale; missing registry entries: {missing} "
        "(regenerate the table from available_indexes()/index_info())"
    )


def test_docs_name_no_missing_file():
    sources = {path for pattern in _REFERRING for path in ROOT.glob(pattern)}
    missing = sorted(
        f"{path.relative_to(ROOT)} names {name}"
        for path in sources
        for name in set(_REFERENCE.findall(path.read_text()))
        if not (ROOT / name).exists()
    )
    assert not missing, missing
