"""Checkpoint snapshots: atomic generation directories under a collection.

A :class:`~repro.store.Collection` directory holds a sequence of
*generations* — full materialisations of the collection's index (and its
attribute store) written through the PR-1 persistence format — plus a
``CURRENT`` pointer file naming the generation that is authoritative:

::

    <collection>/
      collection.json            -- collection manifest (name, config)
      CURRENT                    -- text file: "gen-0000000003"
      wal-0000000003.log         -- live WAL for the current generation
      generations/
        gen-0000000003/
          snapshot.json          -- generation, last_seq, op/byte counters
          index/                 -- the index's save() directory (attributes ride along)

The checkpoint discipline is **write-new → fsync → rename → truncate**:
the new generation directory is written completely and fsynced *before*
``CURRENT`` is atomically replaced (``os.replace`` of a same-directory
temp file), and only after the flip is the previous generation's WAL
deleted.  A crash at any point leaves either the old generation fully
authoritative (orphan half-written directories are swept on open) or the
new one — never a state that loads half of each.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..api.persistence import load_index
from ..utils.exceptions import SerializationError, StorageError
from .wal import fsync_directory

SNAPSHOT_FORMAT = "repro-snapshot"
SNAPSHOT_FORMAT_VERSION = 1
GENERATIONS_DIR = "generations"
CURRENT_FILE = "CURRENT"
SNAPSHOT_FILE = "snapshot.json"
INDEX_DIR = "index"


def generation_name(generation: int) -> str:
    return f"gen-{int(generation):010d}"


def wal_name(generation: int) -> str:
    return f"wal-{int(generation):010d}.log"


def parse_generation(name: str) -> Optional[int]:
    """The generation number encoded in a ``gen-``/``wal-`` file name."""
    stem = name[: -len(".log")] if name.endswith(".log") else name
    prefix, _, digits = stem.partition("-")
    if prefix not in ("gen", "wal") or not digits.isdigit():
        return None
    return int(digits)


def generation_dir(root: Path, generation: int) -> Path:
    return root / GENERATIONS_DIR / generation_name(generation)


def list_generations(root: Path) -> List[int]:
    """Every generation directory present under ``root``, ascending."""
    base = root / GENERATIONS_DIR
    if not base.is_dir():
        return []
    found = []
    for entry in base.iterdir():
        number = parse_generation(entry.name)
        if number is not None and entry.is_dir():
            found.append(number)
    return sorted(found)


def read_current(root: Path) -> Optional[int]:
    """The generation named by ``CURRENT``, or ``None`` when unset/garbled."""
    current = root / CURRENT_FILE
    if not current.is_file():
        return None
    try:
        return parse_generation(current.read_text().strip())
    except OSError:
        return None


def _fsync_tree(path: Path) -> None:
    """fsync every file under ``path`` (and the directories themselves)."""
    for directory, _, files in os.walk(path):
        for name in files:
            with open(Path(directory) / name, "rb") as handle:
                os.fsync(handle.fileno())
        fsync_directory(directory)


def write_snapshot(
    root: Path,
    index,
    *,
    generation: int,
    last_seq: int,
    collection: str,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Materialise ``index`` as generation ``generation`` (not yet current).

    The target directory is rewritten from scratch — a half-written
    orphan from a crashed earlier checkpoint of the same number is
    discarded, never merged into.
    """
    target = generation_dir(root, generation)
    if target.exists():
        shutil.rmtree(target)
    target.mkdir(parents=True)
    manifest = {
        "format": SNAPSHOT_FORMAT,
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "collection": str(collection),
        "generation": int(generation),
        "last_seq": int(last_seq),
        "created_at": time.time(),
        **(extra or {}),
    }
    index.save(
        target / INDEX_DIR,
        manifest_extra={
            "generation": int(generation),
            "last_seq": int(last_seq),
            "collection": str(collection),
        },
    )
    (target / SNAPSHOT_FILE).write_text(json.dumps(manifest, indent=2, sort_keys=True))
    _fsync_tree(target)
    fsync_directory(target.parent)
    return target


def read_snapshot_manifest(root: Path, generation: int) -> Dict[str, Any]:
    manifest_file = generation_dir(root, generation) / SNAPSHOT_FILE
    if not manifest_file.is_file():
        raise StorageError(
            f"generation {generation_name(generation)} at {root} has no "
            f"{SNAPSHOT_FILE}; the checkpoint never completed"
        )
    try:
        manifest = json.loads(manifest_file.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"could not read {manifest_file}: {exc}") from exc
    if manifest.get("format") != SNAPSHOT_FORMAT:
        raise StorageError(f"{manifest_file} is not a {SNAPSHOT_FORMAT} manifest")
    return manifest


def load_snapshot(root: Path, generation: int) -> Tuple[Any, Dict[str, Any]]:
    """Load one generation's index; raises :class:`StorageError` if unusable."""
    manifest = read_snapshot_manifest(root, generation)
    try:
        index = load_index(generation_dir(root, generation) / INDEX_DIR)
    except SerializationError as exc:
        raise StorageError(
            f"generation {generation_name(generation)} at {root} is "
            f"unreadable: {exc}"
        ) from exc
    return index, manifest


def set_current(root: Path, generation: int) -> None:
    """Atomically flip ``CURRENT`` to ``generation`` (write-temp → rename)."""
    temporary = root / (CURRENT_FILE + ".tmp")
    with open(temporary, "w") as handle:
        handle.write(generation_name(generation) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, root / CURRENT_FILE)
    fsync_directory(root)


def candidate_generations(root: Path) -> List[int]:
    """Generations to try loading, most-authoritative first.

    ``CURRENT`` leads; any other on-disk generation follows in descending
    order so recovery can fall back across damaged snapshots to the
    newest one that still loads.
    """
    current = read_current(root)
    others = sorted(
        (g for g in list_generations(root) if g != current), reverse=True
    )
    return ([current] if current is not None else []) + others


def sweep(root: Path, *, current: int, keep: int = 2) -> List[str]:
    """Remove artifacts the current generation obsoletes; returns their names.

    Deletes generation directories beyond the ``keep`` newest at or below
    ``current`` — including orphans *above* ``current`` left by crashed
    checkpoints — and every WAL file belonging to a generation other than
    ``current`` (their operations are folded into a durable snapshot, or
    were never acknowledged as part of one).
    """
    removed: List[str] = []
    keep = max(1, int(keep))
    survivors = set(
        sorted((g for g in list_generations(root) if g <= current), reverse=True)[:keep]
    )
    for generation in list_generations(root):
        if generation in survivors:
            continue
        shutil.rmtree(generation_dir(root, generation), ignore_errors=True)
        removed.append(generation_name(generation))
    for entry in _wal_files(root):
        if parse_generation(entry.name) != current:
            entry.unlink(missing_ok=True)
            removed.append(entry.name)
    if removed:
        fsync_directory(root)
        fsync_directory(root / GENERATIONS_DIR)
    return removed


def _wal_files(root: Path) -> Iterable[Path]:
    return (
        entry
        for entry in root.iterdir()
        if entry.is_file()
        and entry.name.startswith("wal-")
        and entry.name.endswith(".log")
    )
