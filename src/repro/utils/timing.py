"""Lightweight wall-clock timing helpers used by the experiment harness."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator


@dataclass
class Stopwatch:
    """Accumulates named timing sections.

    Example
    -------
    >>> sw = Stopwatch()
    >>> with sw.section("train"):
    ...     pass
    >>> "train" in sw.totals()
    True
    """

    _totals: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self._totals[name] = self._totals.get(name, 0.0) + (time.perf_counter() - start)

    def totals(self) -> Dict[str, float]:
        """Total seconds per section name."""
        return dict(self._totals)
