"""Persistence corruption paths must fail loudly with typed errors.

A production restart loads its indexes from disk; a artifact damaged by a
partial copy, a full disk, or a botched deploy must raise
:class:`~repro.utils.exceptions.SerializationError` — never come back as
a silently empty (or subtly wrong) index.  Covered here:

* truncated / zero-byte / garbage ``arrays.npz``;
* a sharded deployment missing one shard artifact;
* a learned index whose ``arrays.npz`` lacks a model parameter or buffer;
* a manifest whose registry name and recorded class disagree
  (hand-edited or mixed from two artifacts);
* a manifest of another format version (format 2 reads no other), or
  one naming a class outside :mod:`repro`;
* corrupt JSON manifests, including the attribute-store sidecar.
"""

import json
import shutil

import numpy as np
import pytest

from repro.api import load_index, make_index
from repro.filter import random_attribute_store
from repro.shard import ShardedIndex
from repro.utils.exceptions import SerializationError


@pytest.fixture()
def base():
    return np.random.default_rng(0).normal(size=(80, 8))


def save_kmeans(tmp_path, base):
    path = tmp_path / "kmeans"
    make_index("kmeans", n_bins=4, seed=0).build(base).save(path)
    return path


class TestTruncatedArrays:
    def test_truncated_npz_raises(self, tmp_path, base):
        path = save_kmeans(tmp_path, base)
        arrays = path / "arrays.npz"
        arrays.write_bytes(arrays.read_bytes()[: arrays.stat().st_size // 2])
        with pytest.raises(SerializationError, match="truncated or corrupt"):
            load_index(path)

    def test_zero_byte_npz_raises(self, tmp_path, base):
        path = save_kmeans(tmp_path, base)
        (path / "arrays.npz").write_bytes(b"")
        with pytest.raises(SerializationError, match="truncated or corrupt"):
            load_index(path)

    def test_garbage_npz_raises(self, tmp_path, base):
        path = save_kmeans(tmp_path, base)
        (path / "arrays.npz").write_bytes(b"not a zip archive at all")
        with pytest.raises(SerializationError, match="truncated or corrupt"):
            load_index(path)

    def test_truncated_attribute_arrays_raise(self, tmp_path, base):
        index = ShardedIndex(2).build(base)
        index.set_attributes(random_attribute_store(base.shape[0], seed=1))
        path = tmp_path / "with-attrs"
        index.save(path)
        sidecar = path / "attributes.npz"
        sidecar.write_bytes(sidecar.read_bytes()[:10])
        with pytest.raises(SerializationError, match="truncated or corrupt"):
            load_index(path)


class TestMissingArtifacts:
    def test_missing_shard_artifact_raises(self, tmp_path, base):
        path = tmp_path / "sharded"
        ShardedIndex(3).build(base).save(path)
        shutil.rmtree(path / "_serve_state.0.1")
        with pytest.raises(SerializationError, match="not a saved index"):
            load_index(path)

    def test_missing_manifest_raises(self, tmp_path, base):
        path = save_kmeans(tmp_path, base)
        (path / "index.json").unlink()
        with pytest.raises(SerializationError, match="not a saved index"):
            load_index(path)


SMALL_LEARNED_INDEXES = {
    "usp": dict(n_bins=4, k_prime=4, epochs=1, hidden_dim=8, min_batch_size=32, max_batch_size=32),
    "neural-lsh": dict(n_bins=4, k_prime=4, epochs=1, hidden_dim=8),
}


class TestMissingWeights:
    @pytest.mark.parametrize("key", ["model.0.weight", "model.__buffer__.1.running_mean"])
    @pytest.mark.parametrize("name", sorted(SMALL_LEARNED_INDEXES))
    def test_model_array_missing_from_arrays_npz_raises(self, tmp_path, base, name, key):
        # Loading would otherwise answer from freshly initialised weights.
        path = tmp_path / name
        make_index(name, **SMALL_LEARNED_INDEXES[name]).build(base).save(path)
        with np.load(path / "arrays.npz") as archive:
            arrays = {k: archive[k] for k in archive.files if k != key}
        assert len(arrays) == len(archive.files) - 1
        np.savez(path / "arrays.npz", **arrays)
        with pytest.raises(SerializationError, match="missing"):
            load_index(path)


class TestManifestMismatch:
    def test_registry_name_and_class_disagreeing_raises(self, tmp_path, base):
        path = save_kmeans(tmp_path, base)
        metadata = json.loads((path / "index.json").read_text())
        metadata["name"] = "bruteforce"  # dispatches to the wrong backend
        (path / "index.json").write_text(json.dumps(metadata))
        with pytest.raises(SerializationError, match="do not belong together"):
            load_index(path)

    def test_garbage_manifest_raises(self, tmp_path, base):
        path = save_kmeans(tmp_path, base)
        (path / "index.json").write_text("{not json")
        with pytest.raises(SerializationError, match="could not read"):
            load_index(path)

    def test_wrong_format_marker_raises(self, tmp_path, base):
        path = save_kmeans(tmp_path, base)
        metadata = json.loads((path / "index.json").read_text())
        metadata["format"] = "something-else"
        (path / "index.json").write_text(json.dumps(metadata))
        with pytest.raises(SerializationError, match="is not a repro-index"):
            load_index(path)

    def test_future_format_version_raises(self, tmp_path, base):
        path = save_kmeans(tmp_path, base)
        metadata = json.loads((path / "index.json").read_text())
        metadata["format_version"] = 99
        (path / "index.json").write_text(json.dumps(metadata))
        with pytest.raises(SerializationError, match="format version"):
            load_index(path)

    def test_format_version_1_manifest_raises(self, tmp_path, base):
        # Format 2 keeps no version-1 loader: an old manifest is refused by name.
        path = save_kmeans(tmp_path, base)
        metadata = json.loads((path / "index.json").read_text())
        metadata["format_version"] = 1
        (path / "index.json").write_text(json.dumps(metadata))
        with pytest.raises(SerializationError, match="format version 1.*format version 2"):
            load_index(path)

    def test_a_class_outside_repro_is_never_imported(self, tmp_path, base):
        # The codec rebuilds repro's own dataclasses only; a manifest naming
        # any other class is refused before its module is imported.
        path = tmp_path / "usp"
        make_index("usp", **SMALL_LEARNED_INDEXES["usp"]).build(base).save(path)
        metadata = json.loads((path / "index.json").read_text())
        assert metadata["arguments"]["config"]["__dataclass__"] == "repro.core.config.UspConfig"
        metadata["arguments"]["config"]["__dataclass__"] = "subprocess.Popen"
        (path / "index.json").write_text(json.dumps(metadata))
        with pytest.raises(SerializationError, match="not a repro class"):
            load_index(path)
