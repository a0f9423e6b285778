"""Durable collections: sustained upsert throughput and recovery time.

The claims behind :mod:`repro.store`:

* the write-ahead log sustains a mutation stream *with checkpointing
  enabled* — the maintenance policy folds the log into snapshot
  generations while upserts keep flowing, and the fsync discipline
  (``sync="always"`` vs ``"never"``) is the knob that prices durability;
* recovery is replay-bounded — ``Collection.open()`` on a crashed
  collection costs the snapshot load plus time linear in the WAL tail,
  which is exactly what checkpoints bound.

Results are written to ``benchmarks/results/bench_store.txt`` (human
readable) and ``benchmarks/results/bench_store.json`` (machine readable,
same shape as ``bench_filter.json``).  The module doubles as a CI smoke
test:

    python benchmarks/bench_store.py --smoke
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.eval import format_table
from repro.filter import random_attribute_store
from repro.shard import ShardedIndex
from repro.store import Collection, MaintenanceLoop

FULL_SCALE = dict(
    n_points=4000,
    dim=32,
    upsert_batches=150,
    batch_size=32,
    checkpoint_ops=64,
    wal_lengths=(1000, 5000, 10_000),
)
SMOKE_SCALE = dict(
    n_points=300,
    dim=16,
    upsert_batches=12,
    batch_size=8,
    checkpoint_ops=5,
    wal_lengths=(30, 90),
)


def build_collection(root, scale, *, sync: str, with_store: bool = True) -> Collection:
    rng = np.random.default_rng(7)
    base = rng.normal(size=(scale["n_points"], scale["dim"]))
    index = ShardedIndex(4, compact_threshold=None).build(base)
    if with_store:
        index.set_attributes(random_attribute_store(scale["n_points"], seed=11))
    return Collection.create(root, index, sync=sync)


def upsert_throughput(scale, workdir) -> list:
    """Vectors/second of a sustained add stream, checkpointing enabled."""
    rows = []
    rng = np.random.default_rng(3)
    batches = [
        rng.normal(size=(scale["batch_size"], scale["dim"]))
        for _ in range(scale["upsert_batches"])
    ]
    for sync in ("always", "never"):
        root = os.path.join(workdir, f"upsert-{sync}")
        collection = build_collection(root, scale, sync=sync, with_store=False)
        loop = MaintenanceLoop(
            collection,
            checkpoint_ops=scale["checkpoint_ops"],
            compact_pressure=0.5,
        )
        start = time.perf_counter()
        for batch in batches:
            collection.add(batch)
            loop.run_once()
        elapsed = time.perf_counter() - start
        vectors = scale["upsert_batches"] * scale["batch_size"]
        rows.append(
            {
                "section": "upsert",
                "sync": sync,
                "batches": scale["upsert_batches"],
                "batch_size": scale["batch_size"],
                "vectors_per_second": round(vectors / elapsed, 1),
                "ops_per_second": round(scale["upsert_batches"] / elapsed, 1),
                "checkpoints": loop.checkpoints,
                "compactions": loop.compactions,
                "final_generation": collection.generation,
            }
        )
        collection.close()
    return rows


def recovery_time(scale, workdir) -> list:
    """Collection.open() latency as a function of the WAL tail length."""
    rows = []
    rng = np.random.default_rng(5)
    for wal_ops in scale["wal_lengths"]:
        root = os.path.join(workdir, f"recover-{wal_ops}")
        collection = build_collection(root, scale, sync="never", with_store=False)
        vectors = rng.normal(size=(wal_ops, scale["dim"]))
        for row in range(wal_ops):
            collection.add(vectors[row : row + 1])
        collection.close()
        start = time.perf_counter()
        recovered = Collection.open(root)
        elapsed = time.perf_counter() - start
        assert recovered.last_seq == wal_ops
        rows.append(
            {
                "section": "recovery",
                "wal_ops": wal_ops,
                "open_seconds": round(elapsed, 3),
                "replayed_ops_per_second": round(wal_ops / max(elapsed, 1e-9), 1),
            }
        )
        recovered.close()
        shutil.rmtree(root, ignore_errors=True)
    return rows


def run_store_benchmark(smoke: bool = False):
    scale = SMOKE_SCALE if smoke else FULL_SCALE
    workdir = tempfile.mkdtemp(prefix="bench-store-")
    try:
        rows = upsert_throughput(scale, workdir) + recovery_time(scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return rows, scale


def format_report(rows, scale) -> str:
    header = (
        f"durable collections on {scale['n_points']} base points, "
        f"dim={scale['dim']}; upserts in batches of {scale['batch_size']}, "
        f"auto-checkpoint every {scale['checkpoint_ops']} WAL ops"
    )
    upsert = format_table(
        ["sync", "batches", "vectors/s", "ops/s", "checkpoints"],
        [
            [
                row["sync"],
                row["batches"],
                row["vectors_per_second"],
                row["ops_per_second"],
                row["checkpoints"],
            ]
            for row in rows
            if row["section"] == "upsert"
        ],
        title="sustained upsert throughput (checkpointing enabled)",
        float_format="{:.1f}",
    )
    recovery = format_table(
        ["wal ops", "open s", "replayed ops/s"],
        [
            [row["wal_ops"], row["open_seconds"], row["replayed_ops_per_second"]]
            for row in rows
            if row["section"] == "recovery"
        ],
        title="crash recovery time vs WAL length (snapshot + tail replay)",
        float_format="{:.3f}",
    )
    return "\n\n".join([header, upsert, recovery])


def write_results(rows, scale, smoke: bool, out_dir=None) -> str:
    # Smoke runs get their own suffix so CI (and anyone running --smoke
    # locally) never clobbers the committed full-scale trajectory.
    from conftest import smoke_artifact_guard

    results_dir = out_dir or os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    suffix = "_smoke" if smoke else ""
    text_path = os.path.join(results_dir, f"bench_store{suffix}.txt")
    smoke_artifact_guard(text_path, smoke=smoke)
    with open(text_path, "w") as handle:
        handle.write(format_report(rows, scale) + "\n")
    payload = {
        "benchmark": "bench_store",
        "smoke": bool(smoke),
        "scale": {
            key: (list(value) if isinstance(value, tuple) else value)
            for key, value in scale.items()
        },
        "rows": rows,
    }
    json_path = os.path.join(results_dir, f"bench_store{suffix}.json")
    smoke_artifact_guard(json_path, smoke=smoke)
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return json_path


def check_recovery_bound(rows) -> None:
    """Acceptance: a 10k-op WAL recovers in seconds, not minutes."""
    for row in rows:
        if row["section"] == "recovery":
            assert row["open_seconds"] < 60.0, row


def test_durable_store(benchmark, report):
    from conftest import run_once

    rows, scale = run_once(benchmark, run_store_benchmark)
    report("bench_store", format_report(rows, scale))
    write_results(rows, scale, smoke=False)
    check_recovery_bound(rows)
    # every upsert run must actually have exercised checkpointing
    for row in rows:
        if row["section"] == "upsert":
            assert row["checkpoints"] > 0, row


def main(argv=None) -> int:
    from conftest import resolve_out_dir

    argv = sys.argv[1:] if argv is None else argv
    out_dir, argv = resolve_out_dir(argv)
    smoke = "--smoke" in argv
    rows, scale = run_store_benchmark(smoke=smoke)
    print(format_report(rows, scale))
    json_path = write_results(rows, scale, smoke, out_dir=out_dir)
    check_recovery_bound(rows)
    print(f"\nwritten to {json_path} (and bench_store.txt alongside)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
