"""Index persistence: every registered index can ``save``/``load`` itself.

A saved index is a directory::

    path/
      index.json    -- registry name, class name, JSON-able configuration
      arrays.npz    -- every numpy array of the index, exactly as built
      <child>/      -- nested saved indexes (ensemble members, the ScaNN
                       partitioner, ...), in the same format

Arrays are stored in full float64 precision, so a loaded index answers
queries bitwise-identically to the instance that was saved.  The format is
deliberately dependency-free (``json`` + ``numpy.savez``), in the same
spirit as :mod:`repro.nn.serialization` for bare model weights.

Concrete classes participate by implementing two hooks:

* ``_state() -> (config, arrays, children)`` — JSON-able configuration,
  numpy arrays, and nested index objects;
* ``_from_state(config, arrays, load_child) -> instance`` (classmethod) —
  rebuild a queryable instance, loading children on demand.

:func:`load_index` is the generic entry point: it reads the registry name
from ``index.json`` and dispatches to the registered class's ``load``.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..utils.exceptions import SerializationError

FORMAT_NAME = "repro-index"
FORMAT_VERSION = 1
INDEX_FILE = "index.json"
ARRAYS_FILE = "arrays.npz"
ATTRIBUTES_FILE = "attributes.json"
ATTRIBUTES_ARRAYS_FILE = "attributes.npz"

#: hook signatures (documentation only)
StateTriple = Tuple[Dict[str, Any], Dict[str, np.ndarray], Dict[str, Any]]
ChildLoader = Callable[[str], Any]


def _read_metadata(path: Path) -> Dict[str, Any]:
    index_file = path / INDEX_FILE
    if not index_file.is_file():
        raise SerializationError(f"{path} is not a saved index (missing {INDEX_FILE})")
    try:
        metadata = json.loads(index_file.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"could not read {index_file}: {exc}") from exc
    if metadata.get("format") != FORMAT_NAME:
        raise SerializationError(f"{index_file} is not a {FORMAT_NAME} file")
    if int(metadata.get("format_version", 0)) > FORMAT_VERSION:
        raise SerializationError(
            f"{index_file} uses format version {metadata.get('format_version')}, "
            f"this library supports up to {FORMAT_VERSION}"
        )
    return metadata


def _read_arrays(path: Path) -> Dict[str, np.ndarray]:
    arrays_file = path / ARRAYS_FILE
    if not arrays_file.is_file():
        return {}
    try:
        with np.load(arrays_file) as archive:
            return {key: archive[key] for key in archive.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, KeyError) as exc:
        # A truncated/corrupt .npz surfaces as any of these depending on
        # where the zip archive was cut; all of them mean the same thing —
        # the artifact cannot be trusted — and must never load as an
        # silently empty index.
        raise SerializationError(
            f"could not read {arrays_file} (truncated or corrupt): {exc}"
        ) from exc


def saved_index_name(path: str | os.PathLike) -> str:
    """Registry name recorded in a saved index directory."""
    return str(_read_metadata(Path(path))["name"])


def save_index(index, path: str | os.PathLike) -> Path:
    """Save ``index`` (any registered index) to the directory ``path``."""
    save = getattr(index, "save", None)
    if save is None:
        raise SerializationError(
            f"{type(index).__name__} does not support persistence (no save method)"
        )
    return save(path)


def load_index(path: str | os.PathLike):
    """Load any saved index, dispatching on the registry name it recorded."""
    from .registry import get_spec

    path = Path(path)
    metadata = _read_metadata(path)
    spec = get_spec(metadata["name"])
    return spec.cls.load(path)


class PersistentIndexMixin:
    """Shared ``save``/``load`` implementation over the two state hooks."""

    #: populated by :func:`repro.api.registry.register_index`
    _registry_name: Optional[str] = None

    # -- hooks implemented by concrete classes ------------------------- #
    def _state(self) -> StateTriple:  # pragma: no cover - abstract
        raise NotImplementedError(f"{type(self).__name__} does not implement _state")

    @classmethod
    def _from_state(
        cls,
        config: Mapping[str, Any],
        arrays: Mapping[str, np.ndarray],
        load_child: ChildLoader,
    ):  # pragma: no cover - abstract
        raise NotImplementedError(f"{type(cls).__name__} does not implement _from_state")

    # -- public surface ------------------------------------------------- #
    def save(
        self,
        path: str | os.PathLike,
        *,
        manifest_extra: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Write this built index to the directory ``path`` (created if needed).

        ``manifest_extra`` adds JSON-able annotations to ``index.json``
        under an ``"extra"`` key — the storage layer stamps snapshots with
        their collection name, generation number, and last applied WAL
        sequence this way, so an index artifact knows *which* durable
        state it materialises without the loader growing new parameters.
        """
        if not self.is_built:
            raise SerializationError(
                f"cannot save {type(self).__name__}: the index has not been built"
            )
        config, arrays, children = self._state()
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        from .. import __version__

        metadata = {
            "format": FORMAT_NAME,
            "format_version": FORMAT_VERSION,
            "name": self._registry_name or type(self).__name__,
            "class": type(self).__name__,
            "repro_version": __version__,
            "children": sorted(children),
            "config": config,
        }
        if manifest_extra:
            metadata["extra"] = dict(manifest_extra)
        try:
            (path / INDEX_FILE).write_text(json.dumps(metadata, indent=2, sort_keys=True))
            if arrays:
                np.savez(path / ARRAYS_FILE, **arrays)
        except (OSError, TypeError) as exc:
            raise SerializationError(f"could not save index to {path}: {exc}") from exc
        for child_name, child in children.items():
            save_index(child, path / child_name)
        self._save_attributes(path)
        return path

    def _save_attributes(self, path: Path) -> None:
        """Write the attached attribute store (if any) next to the index.

        Stale files from a previous save are removed first: re-saving an
        index whose store was detached (or saving a store-less index over
        an old directory) must not resurrect outdated metadata on load.
        """
        store = self._attributes
        if store is None:
            (path / ATTRIBUTES_FILE).unlink(missing_ok=True)
            (path / ATTRIBUTES_ARRAYS_FILE).unlink(missing_ok=True)
            return
        # A store attached before build() skipped attach-time validation;
        # catching a row mismatch here beats writing an artifact that
        # load_index() will reject (mutable indexes may lag, never lead).
        try:
            from ..filter.planner import filter_row_count

            rows = filter_row_count(self)
        except Exception:
            rows = None
        mutable = type(self).capabilities.mutable
        if rows is not None and (
            store.n_rows > rows or (store.n_rows != rows and not mutable)
        ):
            raise SerializationError(
                f"cannot save {type(self).__name__}: its attribute store has "
                f"{store.n_rows} rows but the index has {rows} ids"
            )
        # Arrays first, manifest last: a crash between the two writes
        # leaves either no manifest (the index loads store-less; the old
        # metadata is gone but nothing is torn) or a manifest whose
        # arrays are already on disk — never a manifest referencing
        # arrays that do not exist.
        (path / ATTRIBUTES_FILE).unlink(missing_ok=True)
        config, arrays = store.to_state()
        try:
            if arrays:
                np.savez(path / ATTRIBUTES_ARRAYS_FILE, **arrays)
            else:
                (path / ATTRIBUTES_ARRAYS_FILE).unlink(missing_ok=True)
            (path / ATTRIBUTES_FILE).write_text(
                json.dumps(config, indent=2, sort_keys=True)
            )
        except (OSError, TypeError) as exc:
            raise SerializationError(
                f"could not save attribute store to {path}: {exc}"
            ) from exc

    @staticmethod
    def _load_attributes(path: Path):
        attributes_file = path / ATTRIBUTES_FILE
        if not attributes_file.is_file():
            return None
        from ..filter.attributes import AttributeStore

        try:
            config = json.loads(attributes_file.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise SerializationError(f"could not read {attributes_file}: {exc}") from exc
        arrays: Dict[str, np.ndarray] = {}
        arrays_file = path / ATTRIBUTES_ARRAYS_FILE
        if arrays_file.is_file():
            try:
                with np.load(arrays_file) as archive:
                    arrays = {key: archive[key] for key in archive.files}
            except (OSError, ValueError, EOFError, zipfile.BadZipFile, KeyError) as exc:
                raise SerializationError(
                    f"could not read {arrays_file} (truncated or corrupt): {exc}"
                ) from exc
        try:
            return AttributeStore.from_state(config, arrays)
        except (KeyError, ValueError) as exc:
            raise SerializationError(
                f"incompatible attribute store at {path}: {exc}"
            ) from exc

    @classmethod
    def load(cls, path: str | os.PathLike):
        """Rebuild a saved index of this class from the directory ``path``."""
        path = Path(path)
        metadata = _read_metadata(path)
        recorded = metadata.get("class")
        if recorded is not None and recorded != cls.__name__:
            # A manifest whose registry name dispatched here but whose
            # recorded class disagrees was hand-edited or mixed from two
            # artifacts; loading it as this backend would misinterpret
            # every array.
            raise SerializationError(
                f"saved index at {path} records class {recorded!r} but its "
                f"registry name dispatched to {cls.__name__}; the manifest "
                "and the artifact do not belong together"
            )
        arrays = _read_arrays(path)

        def load_child(name: str):
            if name not in metadata.get("children", []):
                raise SerializationError(f"saved index {path} has no child {name!r}")
            return load_index(path / name)

        try:
            index = cls._from_state(metadata.get("config", {}), arrays, load_child)
        except (KeyError, ValueError) as exc:
            raise SerializationError(f"incompatible saved index at {path}: {exc}") from exc
        store = cls._load_attributes(path)
        if store is not None:
            index.set_attributes(store)
        return index
