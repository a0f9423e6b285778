"""Index persistence: one rule saves and loads every registered index.

A saved index is a directory::

    path/
      index.json    -- format, registry name, class, the constructor
                       arguments and the fitted state
      arrays.npz    -- every numpy array of those two, exactly as held
      <child>/      -- each index among them (ensemble members, a
                       pipeline's partitioner, shards), saved the same way

An index saves three things: the arguments of its outermost ``__init__``
call (which :class:`PersistentIndexMixin` records), the attributes its
class names in ``_fitted``, and the indexes found among those, as child
directories named after where they were found.  :meth:`~PersistentIndexMixin.load`
calls ``cls(**arguments)``, sets the decoded attributes in ``_fitted``
order and calls ``_loaded()``, which derives everything else and checks
shapes.

One value codec covers a closed set of types: numpy arrays (an npz key),
JSON scalars and ``None``, lists, tuples and dicts (recursively), the
dataclasses of :mod:`repro`, nested indexes, a
:class:`~repro.core.models.PartitionModel` over :mod:`repro.nn` layers and
a numpy ``Generator`` (its bit generator's state).  Arrays keep their
dtype and every bit, so a loaded index answers queries bitwise-identically
to the instance that was saved.  The format is ``json`` + ``numpy.savez``,
read with ``allow_pickle=False``: nothing is ever unpickled.
:func:`load_index` reads the registry name from ``index.json`` and
dispatches to the registered class's ``load``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import os
import zipfile
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..nn.layers import BatchNorm1d, Dropout, Linear, ReLU, Sequential
from ..utils.exceptions import (
    ConfigurationError,
    NotFittedError,
    SerializationError,
    ValidationError,
)

FORMAT_NAME = "repro-index"
FORMAT_VERSION = 2
INDEX_FILE = "index.json"
ARRAYS_FILE = "arrays.npz"
ATTRIBUTES_FILE = "attributes.json"
ATTRIBUTES_ARRAYS_FILE = "attributes.npz"

#: the :mod:`repro.nn` layers a saved model may hold: each one's class and constructor keywords
_LAYERS = {
    "Linear": (
        Linear,
        lambda layer: dict(in_features=layer.in_features, out_features=layer.out_features, bias=layer.bias is not None),
    ),
    "BatchNorm1d": (
        BatchNorm1d,
        lambda layer: dict(num_features=layer.num_features, momentum=layer.momentum, eps=layer.eps),
    ),
    "ReLU": (ReLU, lambda layer: {}),
    "Dropout": (Dropout, lambda layer: dict(p=layer.p)),
}


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
    if metadata.get("format_version") != FORMAT_VERSION:
        raise SerializationError(
            f"{index_file} uses format version {metadata.get('format_version')}; "
            f"this library reads format version {FORMAT_VERSION} only"
        )
    return metadata


def _read_npz(arrays_file: Path) -> Dict[str, np.ndarray]:
    try:
        with np.load(arrays_file, allow_pickle=False) as archive:
            return {key: archive[key] for key in archive.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, KeyError) as exc:
        # A truncated/corrupt .npz surfaces as any of these depending on
        # where the zip archive was cut; all of them mean the same thing —
        # the artifact cannot be trusted — and must never load as an
        # silently empty index.
        raise SerializationError(
            f"could not read {arrays_file} (truncated or corrupt): {exc}"
        ) from exc


def _class_path(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _repro_class(path: str) -> type:
    """The class at ``module.Name`` ``path``: only :mod:`repro`'s own modules are imported."""
    module, _, name = str(path).rpartition(".")
    if module != "repro" and not module.startswith("repro."):
        raise SerializationError(f"saved value names {path!r}, which is not a repro class")
    try:
        cls = vars(importlib.import_module(module)).get(name)
    except ImportError as exc:
        raise SerializationError(f"saved value names {path!r}, whose module does not exist: {exc}") from exc
    if not isinstance(cls, type):
        raise SerializationError(f"saved value names {path!r}, which is not a class")
    return cls


def _get(owner, name: str):
    """``owner.name``, where ``name`` may be dotted (``"_codec.scale"``)."""
    return functools.reduce(getattr, name.split("."), owner)


def _set(owner, name: str, value) -> None:
    *path, last = name.split(".")
    setattr(functools.reduce(getattr, path, owner), last, value)


class _Encoder:
    """Turns values into JSON, collecting their arrays and child indexes by key.

    A value is keyed by where it was first found (``members.0``,
    ``_layout.rows``); an array or index met again under another key is
    written once and referenced by its first key.
    """

    def __init__(self) -> None:
        self.arrays: Dict[str, np.ndarray] = {}
        self.children: Dict[str, Any] = {}
        self._keys: Dict[int, str] = {}

    def _once(self, value, key: str, table: Dict[str, Any]) -> str:
        known = self._keys.get(id(value))
        if known is None:  # the table keeps ``value`` alive, so its id stays unique
            known = self._keys[id(value)] = key
            table[key] = value
        return known

    def encode(self, value, key: str):
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, np.ndarray):
            return {"__array__": self._once(value, key, self.arrays)}
        if isinstance(value, PersistentIndexMixin):
            return {"__index__": self._once(value, key, self.children)}
        if isinstance(value, list):
            return [self.encode(item, f"{key}.{i}") for i, item in enumerate(value)]
        if isinstance(value, tuple):
            return {"__tuple__": self.encode(list(value), key)}
        if isinstance(value, dict):
            if all(isinstance(name, str) and not name.startswith("__") for name in value):
                return {name: self.encode(item, f"{key}.{name}") for name, item in value.items()}
            return {
                "__items__": [
                    [self.encode(name, f"{key}.{i}"), self.encode(item, f"{key}.{name}")]
                    for i, (name, item) in enumerate(value.items())
                ]
            }
        if dataclasses.is_dataclass(value) and type(value).__module__.startswith("repro."):
            fields = {
                field.name: self.encode(vars(value)[field.name], f"{key}.{field.name}")
                for field in dataclasses.fields(value)
                if field.init
            }
            return {"__dataclass__": _class_path(type(value)), "fields": fields}
        if isinstance(value, np.random.Generator) and isinstance(value.bit_generator, np.random.PCG64):
            return {"__generator__": self.encode(value.bit_generator.state, key)}
        from ..core.models import PartitionModel  # local: repro.core imports this module

        if isinstance(value, PartitionModel):
            return {"__model__": self._encode_model(value, key)}
        raise SerializationError(f"cannot save {key}: a {type(value).__name__} is not a savable value")

    def _encode_model(self, model, key: str) -> Dict[str, Any]:
        layers = []
        for layer in model.module if isinstance(model.module, Sequential) else [model.module]:
            name = type(layer).__name__
            if _LAYERS.get(name, (None,))[0] is not type(layer):
                raise SerializationError(f"cannot save {key}: its {layer!r} layer is not a savable one")
            layers.append([name, _LAYERS[name][1](layer)])
        state = {name: self._once(value, f"{key}.{name}", self.arrays) for name, value in model.state_dict().items()}
        return {"dim": model.dim, "n_bins": model.n_bins, "layers": layers, "state": state}


class _Decoder:
    """The inverse of :class:`_Encoder` over one saved directory."""

    def __init__(self, path: Path, arrays: Mapping[str, np.ndarray], children: List[str]) -> None:
        self.path, self.arrays, self.children = path, arrays, set(children)
        self._loaded: Dict[str, Any] = {}

    def array(self, key: str) -> np.ndarray:
        if key not in self.arrays:
            raise SerializationError(f"{self.path / ARRAYS_FILE} is missing the array {key!r}")
        return self.arrays[key]

    def child(self, name: str):
        if name not in self.children:
            raise SerializationError(f"saved index {self.path} has no child {name!r}")
        if name not in self._loaded:
            self._loaded[name] = load_index(self.path / name)
        return self._loaded[name]

    def decode(self, value):
        if isinstance(value, list):
            return [self.decode(item) for item in value]
        if not isinstance(value, dict):
            return value
        if "__array__" in value:
            return self.array(value["__array__"])
        if "__index__" in value:
            return self.child(value["__index__"])
        if "__tuple__" in value:
            return tuple(self.decode(value["__tuple__"]))
        if "__items__" in value:
            return {self.decode(name): self.decode(item) for name, item in value["__items__"]}
        if "__dataclass__" in value:
            cls = _repro_class(value["__dataclass__"])
            if not dataclasses.is_dataclass(cls):
                raise SerializationError(f"saved value names {value['__dataclass__']!r}, which is not a dataclass")
            return cls(**self.decode(value["fields"]))
        if "__model__" in value:
            return self._decode_model(value["__model__"])
        if "__generator__" in value:
            generator = np.random.default_rng()
            generator.bit_generator.state = self.decode(value["__generator__"])  # PCG64's alone fits
            return generator
        return {name: self.decode(item) for name, item in value.items()}

    def _decode_model(self, spec):
        from ..core.models import PartitionModel  # local: repro.core imports this module

        layers = [_LAYERS[name][0](**arguments) for name, arguments in spec["layers"]]
        model = PartitionModel(Sequential(*layers), dim=spec["dim"], n_bins=spec["n_bins"])
        model.load_state_dict({name: self.array(key) for name, key in spec["state"].items()})
        model.eval()
        return model


def load_index(path: str | os.PathLike):
    """Load any saved index, dispatching on the registry name it recorded.

    An index of an unregistered class (a forest's trees) records no name
    and is loaded as the :mod:`repro` class it records.
    """
    from .registry import get_spec

    path = Path(path)
    metadata = _read_metadata(path)
    if metadata.get("name") is None:
        cls = _repro_class(metadata.get("class", ""))
        if not issubclass(cls, PersistentIndexMixin):
            raise SerializationError(f"saved index at {path} records {cls.__name__}, which is not an index")
    else:
        cls = get_spec(metadata["name"]).cls
    return cls.load(path)


def _recording(init):
    """``init``, recording the arguments of the outermost call (the one ``load`` repeats)."""
    signature = inspect.signature(init)

    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        if "_arguments" not in self.__dict__:
            bound = signature.bind(self, *args, **kwargs)
            bound.apply_defaults()
            arguments: Dict[str, Any] = {}
            for name, value in list(bound.arguments.items())[1:]:
                if signature.parameters[name].kind is inspect.Parameter.VAR_KEYWORD:
                    arguments.update(value)
                else:
                    arguments[name] = value
            self._arguments = arguments
        init(self, *args, **kwargs)

    return __init__


class PersistentIndexMixin:
    """``save`` / ``load`` of the constructor arguments and the ``_fitted`` attributes."""

    #: populated by :func:`repro.api.registry.register_index`
    _registry_name: Optional[str] = None

    #: the attributes a build fits, in the order ``load`` sets them (a
    #: dotted name reaches into a helper object); ``_loaded`` derives the rest
    _fitted: ClassVar[Tuple[str, ...]] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__:
            cls.__init__ = _recording(cls.__dict__["__init__"])

    def _loaded(self) -> None:
        """Derive what ``_fitted`` leaves out, and check its shapes, after ``load``."""

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
        encoder = _Encoder()
        # state first: an index met in both is a child named after its attribute
        state = {name: encoder.encode(_get(self, name), name) for name in type(self)._fitted}
        arguments = {
            name: encoder.encode(value, f"arguments.{name}") for name, value in self._arguments.items()
        }
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        from .. import __version__

        metadata = {
            "format": FORMAT_NAME,
            "format_version": FORMAT_VERSION,
            "name": type(self).__dict__.get("_registry_name"),
            "class": _class_path(type(self)),
            "repro_version": __version__,
            "children": sorted(encoder.children),
            "arguments": arguments,
            "state": state,
        }
        if manifest_extra:
            metadata["extra"] = dict(manifest_extra)
        try:
            (path / INDEX_FILE).write_text(json.dumps(metadata, indent=1))
            if encoder.arrays:
                np.savez(path / ARRAYS_FILE, **encoder.arrays)
        except (OSError, TypeError, ValueError) as exc:
            raise SerializationError(f"could not save index to {path}: {exc}") from exc
        for name, child in encoder.children.items():
            child.save(path / name)
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
        arrays_file = path / ATTRIBUTES_ARRAYS_FILE
        arrays = _read_npz(arrays_file) if arrays_file.is_file() else {}
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
        if recorded != _class_path(cls):
            # A manifest whose registry name dispatched here but whose
            # recorded class disagrees was hand-edited or mixed from two
            # artifacts; loading it as this backend would misinterpret
            # every array.
            raise SerializationError(
                f"saved index at {path} records class {recorded!r} but its "
                f"registry name dispatched to {_class_path(cls)}; the manifest "
                "and the artifact do not belong together"
            )
        arrays_file = path / ARRAYS_FILE
        arrays = _read_npz(arrays_file) if arrays_file.is_file() else {}
        try:
            decoder, state = _Decoder(path, arrays, metadata["children"]), metadata["state"]
            if sorted(state) != sorted(cls._fitted):
                raise ValueError(f"it holds the state {sorted(state)}, but {cls.__name__} fits {sorted(cls._fitted)}")
            index = cls(**decoder.decode(metadata["arguments"]))
            for name in cls._fitted:
                _set(index, name, decoder.decode(state[name]))
            index._loaded()
        except (LookupError, TypeError, ValueError, ConfigurationError, ValidationError, NotFittedError) as exc:
            raise SerializationError(f"incompatible saved index at {path}: {exc}") from exc
        store = cls._load_attributes(path)
        if store is not None:
            index.set_attributes(store)
        return index
