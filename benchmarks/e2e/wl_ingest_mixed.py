"""Workload ``ingest_mixed``: durable writes beside filtered reads.

Two HTTP connections against a durable ``Collection`` over
``sharded-sq8`` (2 shards), fsync-before-acknowledge, ``MaintenanceLoop``
on with thresholds low enough that several checkpoints and compactions
happen inside one window:

* a **writer** looping ``/add`` (32 vectors with a ``score`` attribute),
  then ``/remove`` of the 32 ids added 8 iterations earlier, so the live
  size stays near its start;
* a **reader** looping ``/query`` with a ``Range`` predicate on ``score``
  that about 10 % of rows satisfy.

``store`` (WAL, checkpoint), ``shard`` (pending buffer, tombstones,
compaction), ``filter`` and cache invalidation do the work.  A read-side
gain that slows acknowledged writes, or background work that stalls
reads, shows here.

The run ends with a crash: the server child is SIGKILLed, the harness
reopens the collection and checks that every acknowledged add not later
removed is present, every acknowledged remove is absent, and filtered
queries against the recovered collection match brute force over the live
set.  Limit: this is process-crash durability; the operating system's
page cache survives a SIGKILL, so unflushed-but-written bytes are not
discarded.
"""

from __future__ import annotations

import json
import shutil
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Set

import numpy as np

from datagen import Corpus, VectorStream, clustered_corpus, noisy_rows
from harness import (
    BenchmarkError,
    K,
    N_ROUNDS,
    Served,
    Spans,
    dir_bytes,
    finish,
    median,
    out_dir_for,
    recall_at_k,
    run_ladder,
    run_rounds,
    serve,
    unserve,
)
from loadgen import Recorder, closed_loop, dump_samples, get_json, one_by_one, warm_up
from stack import NAMESPACE

SCALES = {
    "full": dict(n=20_000, dim=64, n_truth=32, n_warm=64, n_ladder=60, rounds=N_ROUNDS,
                 maintenance=dict(checkpoint_ops=128, compact_pressure=0.15,
                                  interval_seconds=0.1)),
    "smoke": dict(n=2000, dim=32, n_truth=16, n_warm=16, n_ladder=10, rounds=1,
                  maintenance=dict(checkpoint_ops=16, compact_pressure=0.25,
                                   interval_seconds=0.05)),
}
ADD_ROWS = 32
REMOVE_LAG = 8
SCORE_LOW, SCORE_HIGH = 0.45, 0.55
RECALL_FLOOR = 0.95

LAYER_METRICS = frozenset({
    "datasets.generate_s", "datasets.ground_truth_s", "store.create_s", "net.boot_s",
    "store.wal_append_us", "store.add_us", "store.overhead_us", "service.overhead_us",
    "wire.add_decode_us", "net.overhead_us", "net.request_bytes", "net.shed_total",
    "net.errors_total", "store.wal_bytes_per_vector", "store.checkpoint_s",
    "store.recovery_s", "store.disk_amplification", "shard.compact_s", "filter.mask_us",
    "filter.selectivity", "store.checkpoints_total", "shard.compactions_total",
    "shard.pending_rows_end", "shard.tombstones_end", "loadgen.query_p95_ms",
    "loadgen.query_p99_ms", "loadgen.add_p50_ms", "loadgen.add_p99_ms",
    "loadgen.add_vectors_per_s", "loadgen.requests_sent", "loadgen.requests_ok",
    "loadgen.failed_share", "loadgen.busy_share",
})


def score_filter():
    from repro.filter import Range

    return Range("score", low=SCORE_LOW, high=SCORE_HIGH)


@dataclass
class State:
    corpus: Corpus
    scores: np.ndarray
    served: Served

    @property
    def build_s(self) -> float:
        return self.served.build_s

    @property
    def port(self) -> int:
        return self.served.child.port


@dataclass
class Ledger:
    """What the server acknowledged, as the writer saw it."""

    vectors: Dict[int, np.ndarray] = field(default_factory=dict)
    scores: Dict[int, float] = field(default_factory=dict)
    removed: Set[int] = field(default_factory=set)
    #: ids of writes whose outcome the client never learned
    unknown: Set[int] = field(default_factory=set)


def build_index(corpus: Corpus, scores: np.ndarray):
    from repro.api import make_index
    from repro.filter import AttributeStore

    # Compaction is the maintenance loop's decision, not a side effect of
    # whichever /add crosses the index's own threshold.
    index = make_index("sharded-sq8", n_shards=2, compact_threshold=None)
    index.build(corpus.base)
    index.set_attributes(AttributeStore().add_numeric("score", scores))
    return index


def set_up(args, scale, out: Path) -> State:
    corpus = clustered_corpus(args.seed, scale["n"], scale["dim"], scale["n_truth"])
    scores = np.random.default_rng([args.seed, 5]).uniform(size=scale["n"])
    warm = noisy_rows(np.random.default_rng([args.seed, 3]), corpus.base, scale["n_warm"])
    served = serve(
        lambda: build_index(corpus, scores), out / "collection",
        {"cache_size": 0, "tenant": False, "maintenance": scale["maintenance"]},
        lambda port: warm_up(port, "/query", [query_body(v) for v in warm]),
    )
    return State(corpus, scores, served)


def tear_down(state: State) -> None:
    unserve(state.served)


def query_body(vector: np.ndarray) -> Dict[str, Any]:
    return {
        "vector": vector.tolist(),
        "request": {"k": K, "filter": {"predicate": score_filter().as_dict()}},
    }


def add_body(vectors: np.ndarray, scores: np.ndarray) -> Dict[str, Any]:
    return {"vectors": vectors.tolist(), "attributes": {"score": scores.tolist()}}


def writer(state: State, seed: int, ledger: Ledger, round_index: int):
    stream = VectorStream(state.corpus.base, [seed, 20, round_index], block=ADD_ROWS * 16)
    rng = stream.rng

    async def run(conn) -> None:
        recent = deque()
        next_id = state.corpus.base.shape[0] + len(ledger.vectors)
        while conn.running():
            vectors, scores = stream.take(ADD_ROWS), rng.uniform(size=ADD_ROWS)
            answer = await conn.post(
                "add", "/add", add_body(vectors, scores),
                accept=lambda parsed: parsed.get("count") == ADD_ROWS,
            )
            if answer is None:
                # Unacknowledged: the rows may or may not be there.  Ids are
                # sequential, so these are the ones they would have taken.
                ledger.unknown.update(range(next_id, next_id + ADD_ROWS))
                next_id += ADD_ROWS
                continue
            ids = [int(i) for i in answer["ids"]]
            next_id = ids[-1] + 1
            for i, vector, score in zip(ids, vectors, scores):
                ledger.vectors[i] = vector
                ledger.scores[i] = float(score)
            recent.append(ids)
            if len(recent) > REMOVE_LAG:
                ids = recent.popleft()
                answer = await conn.post(
                    "remove", "/remove", {"ids": ids},
                    accept=lambda parsed: parsed.get("removed") == ADD_ROWS,
                )
                (ledger.removed if answer is not None else ledger.unknown).update(ids)

    return run


def reader(state: State, seed: int, ledger: Ledger, round_index: int):
    stream = VectorStream(state.corpus.base, [seed, 21, round_index])
    n_base = state.scores.shape[0]

    def accept(parsed: Any) -> bool:
        """``K`` ids, each satisfying the predicate as far as the client knows.

        An id the writer has not seen acknowledged yet cannot be judged.
        """
        ids = parsed.get("ids", ())
        if len(ids) != K:
            return False
        for i in ids:
            score = state.scores[i] if 0 <= i < n_base else ledger.scores.get(i)
            if score is not None and not SCORE_LOW <= score <= SCORE_HIGH:
                return False
        return True

    async def run(conn) -> None:
        while conn.running():
            await conn.post("query", "/query", query_body(stream.take()[0]), accept=accept)

    return run


def drive(
    state: State, seed: int, seconds: float, ledger: Ledger, round_index: int = 0
) -> Recorder:
    workers = [
        writer(state, seed, ledger, round_index),
        reader(state, seed, ledger, round_index),
    ]
    return closed_loop(state.port, workers, seconds)


def crash_and_verify(state: State, ledger: Ledger) -> Dict[str, Any]:
    """SIGKILL the server, recover the collection here, check it against the ledger."""
    from repro.store import Collection

    state.served.child.kill()
    started = time.perf_counter()
    collection = Collection.open(state.served.path)
    recovery_s = time.perf_counter() - started
    try:
        index = collection.index
        live_added = sorted(set(ledger.vectors) - ledger.removed - ledger.unknown)
        removed = sorted(ledger.removed - ledger.unknown)
        adds_present = bool(np.all(index.contains(live_added))) if live_added else True
        removes_absent = not bool(np.any(index.contains(removed))) if removed else True

        # Brute force over what must be live: the base plus surviving adds.
        n_base = state.corpus.base.shape[0]
        ids = np.concatenate([np.arange(n_base), np.asarray(live_added, dtype=np.int64)])
        vectors = np.vstack(
            [state.corpus.base.astype(np.float64)]
            + [ledger.vectors[i][None, :].astype(np.float64) for i in live_added]
        )
        scores = np.concatenate(
            [state.scores, np.asarray([ledger.scores[i] for i in live_added])]
        )
        allowed = (scores >= SCORE_LOW) & (scores <= SCORE_HIGH)
        queries = state.corpus.queries.astype(np.float64)
        distances = (
            (queries**2).sum(axis=1)[:, None]
            - 2.0 * queries @ vectors[allowed].T
            + (vectors[allowed] ** 2).sum(axis=1)[None, :]
        )
        truth = ids[allowed][np.argsort(distances, axis=1, kind="stable")[:, :K]]
        found, _ = collection.batch_query(queries, K, filter=score_filter())
        recall = recall_at_k(found, truth)
        only_allowed = bool(np.isin(found, ids[allowed]).all())
        collection.checkpoint(force=True)
        live = n_base + len(live_added)
        return {
            "recovery_s": recovery_s,
            "adds_present": adds_present,
            "removes_absent": removes_absent,
            "only_allowed": only_allowed,
            "recall": recall,
            "n_live": live,
            "n_live_recovered": int(index.n_points),
            "disk_amplification": dir_bytes(state.served.path)
            / float(live * state.corpus.base.shape[1] * 4),
            "selectivity": float(allowed.mean()),
        }
    finally:
        collection.close()


def durability_checks(verdict: Dict[str, Any], ledger: Ledger) -> Dict[str, bool]:
    return {
        "acknowledged_adds_present_after_crash": verdict["adds_present"],
        "acknowledged_removes_absent_after_crash": verdict["removes_absent"],
        "filtered_answers_only_allowed_ids": verdict["only_allowed"],
        "live_count_matches_ledger": not ledger.unknown
        and verdict["n_live"] == verdict["n_live_recovered"],
        "recall_floor": verdict["recall"] >= RECALL_FLOOR,
    }


def add_p50_ms(recorders: List[Recorder]) -> float:
    return median(median(r.latencies_ms("add")) for r in recorders)


def add_vectors_per_s(recorders: List[Recorder]) -> float:
    return median(r.rate("add", ADD_ROWS) for r in recorders)


# ---------------------------------------------------------------------- #
# untraced run
# ---------------------------------------------------------------------- #
def run_end_to_end(args, scale, out: Path) -> int:
    rounds = scale["rounds"]
    ledgers: List[Ledger] = []
    figures: List[Dict[str, Any]] = []

    def measure(state: State, index: int) -> Recorder:
        ledgers.append(Ledger())
        recorder = drive(state, args.seed, args.seconds / rounds, ledgers[-1], index)
        figures.append(
            {
                "peak_rss_mb": state.served.child.peak_rss_mb(),
                **state.served.child.ask("maintenance"),
            }
        )
        return recorder

    state, setups, builds, recorders = run_rounds(
        rounds, lambda: set_up(args, scale, out), measure, tear_down
    )
    with state.served.child:
        # Only the last round's server dies by SIGKILL; its ledger is the
        # one the recovered collection is checked against.
        verdict = crash_and_verify(state, ledgers[-1])
    shutil.rmtree(state.served.path, ignore_errors=True)
    dump_samples(recorders, out / "samples.json")
    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    metrics = {
        "setup_s": median(setups),
        "build_s": median(builds),
        "query_qps": median(r.rate("query") for r in recorders),
        "query_p50_ms": median(median(r.latencies_ms("query")) for r in recorders),
        "recall_at_10": verdict["recall"],
        "peak_rss_mb": max(f["peak_rss_mb"] for f in figures),
        "add_p50_ms": add_p50_ms(recorders),
        "add_vectors_per_s": add_vectors_per_s(recorders),
        "disk_amplification": verdict["disk_amplification"],
        "failed_share": failed / max(attempted, 1),
    }
    checks = durability_checks(verdict, ledgers[-1])
    checks["maintenance_healthy"] = all(f["last_error"] is None for f in figures)
    details = {
        "rounds": rounds,
        "query_samples": sum(len(r.of("query")) for r in recorders),
        "add_samples": sum(len(r.of("add")) for r in recorders),
        "loadgen.add_p99_ms": median(r.tail_ms("add", 99) for r in recorders),
        "loadgen.query_p99_ms": median(r.tail_ms("query", 99) for r in recorders),
        "loadgen.busy_share": max(r.busy_share for r in recorders),
        "store.checkpoints_total": sum(f["checkpoints"] for f in figures),
        "shard.compactions_total": sum(f["compactions"] for f in figures),
        "store.recovery_s": verdict["recovery_s"],
        "setup_samples_s": setups,
        "build_samples_s": builds,
    }
    return finish(
        args, out, metrics=metrics, attempted=attempted, failed=failed,
        checks=checks, details=details,
    )


# ---------------------------------------------------------------------- #
# traced run: the write ladder and the storage counters
# ---------------------------------------------------------------------- #
def write_ladder(
    state: State, scale, seed: int, out: Path, spans: Spans, ledger: Ledger
) -> Dict[str, float]:
    """The same add batches through every write rung's public entry point.

    The in-process rungs run on the harness's own collection (same rows,
    own directory): the server child owns the one it serves.  The HTTP
    rung does change the served collection, so its rows enter the ledger.
    """
    from repro.service import SearchService
    from repro.store import Collection, WriteAheadLog

    rng = np.random.default_rng([seed, 4])
    n = scale["n_ladder"]
    batches = [
        (noisy_rows(rng, state.corpus.base, ADD_ROWS), rng.uniform(size=ADD_ROWS))
        for _ in range(n)
    ]
    bodies = [json.dumps(add_body(v, s)).encode("utf-8") for v, s in batches]
    doubles = [np.asarray(v.tolist(), dtype=np.float64) for v, _ in batches]
    rows = [{"score": s.tolist()} for _, s in batches]

    index = build_index(state.corpus, state.scores)
    path = out / "ladder-collection"
    shutil.rmtree(path, ignore_errors=True)
    collection = Collection.create(path, index)
    service = SearchService(collection, cache_size=0)
    wal = WriteAheadLog(out / "ladder.wal", sync="always")

    def wal_append(item: int) -> None:
        record = {"seq": item + 1, "op": "add", "n": ADD_ROWS, "rows": rows[item]}
        wal.append(record, {"vectors": doubles[item]})

    def decode(item: int) -> None:
        body = json.loads(bodies[item].decode("utf-8"))
        np.asarray(body["vectors"], dtype=np.float64)

    try:
        run_ladder(
            spans,
            [
                ("wal", wal_append),
                ("store", lambda i: collection.add(doubles[i], attributes=rows[i])),
                ("service", lambda i: service.add(doubles[i], attributes=rows[i])),
            ],
            n,
        )
        run_ladder(spans, [("wire.add_decode", decode)], n)
        wal_bytes_per_vector = collection.wal_bytes / float(collection.wal_ops * ADD_ROWS)

        mask_us = []
        predicate = score_filter()
        for _ in range(50):
            called = time.perf_counter()
            predicate.mask(collection.attributes)
            mask_us.append((time.perf_counter() - called) * 1e6)

        called = time.perf_counter()
        collection.compact()
        compact_s = time.perf_counter() - called
        called = time.perf_counter()
        collection.checkpoint(force=True)
        checkpoint_s = time.perf_counter() - called
    finally:
        wal.close()
        service.close()
        collection.close()
        shutil.rmtree(path, ignore_errors=True)

    answers = one_by_one(
        state.port, "/add", [json.loads(b) for b in bodies], spans=spans
    )
    if any(a is None for a in answers):
        raise BenchmarkError("write ladder: the server refused an /add")
    for answer, (vectors, scores) in zip(answers, batches):
        for i, vector, score in zip(answer["ids"], vectors, scores):
            ledger.vectors[int(i)] = vector
            ledger.scores[int(i)] = float(score)
    return {
        "wal": spans.median_us("wal"),
        "store": spans.median_us("store"),
        "service": spans.median_us("service"),
        "decode": spans.median_us("wire.add_decode"),
        "net": spans.median_us("net"),
        "net_self": spans.self_us("net", "service") - spans.median_us("wire.add_decode"),
        "wal_bytes_per_vector": wal_bytes_per_vector,
        "mask_us": median(mask_us),
        "compact_s": compact_s,
        "checkpoint_s": checkpoint_s,
        "request_bytes": median(len(b) for b in bodies),
    }


def run_traced(args, scale, out: Path) -> int:
    spans = Spans()
    state = set_up(args, scale, out)
    ledger = Ledger()
    with state.served.child as child:
        rungs = write_ladder(state, scale, args.seed, out, spans, ledger)
        recorder = drive(state, args.seed, max(args.seconds / 2.0, 1.0), ledger)
        status, stats = get_json(child.port, "/stats")
        maintenance = child.ask("maintenance")
        mutation = stats["services"][NAMESPACE]["mutation"]
        verdict = crash_and_verify(state, ledger)
    shutil.rmtree(state.served.path, ignore_errors=True)
    spans.flush(out / "spans.jsonl")
    dump_samples([recorder], out / "samples.json")
    metrics = {
        "datasets.generate_s": state.corpus.generate_s,
        "datasets.ground_truth_s": state.corpus.ground_truth_s,
        "store.create_s": state.served.create_s,
        "net.boot_s": state.served.child.boot_s,
        "store.wal_append_us": rungs["wal"],
        "store.add_us": rungs["store"],
        "store.overhead_us": spans.self_us("store", "wal"),
        "service.overhead_us": spans.self_us("service", "store"),
        "wire.add_decode_us": rungs["decode"],
        "net.overhead_us": rungs["net_self"],
        "net.request_bytes": rungs["request_bytes"],
        "net.shed_total": stats["server"]["shed_total"],
        "net.errors_total": sum(stats["server"]["errors_total"].values()),
        "store.wal_bytes_per_vector": rungs["wal_bytes_per_vector"],
        "store.checkpoint_s": rungs["checkpoint_s"],
        "store.recovery_s": verdict["recovery_s"],
        "store.disk_amplification": verdict["disk_amplification"],
        "shard.compact_s": rungs["compact_s"],
        "filter.mask_us": rungs["mask_us"],
        "filter.selectivity": verdict["selectivity"],
        "store.checkpoints_total": maintenance["checkpoints"],
        "shard.compactions_total": maintenance["compactions"],
        "shard.pending_rows_end": mutation["n_pending"],
        "shard.tombstones_end": mutation["n_tombstones"],
        "loadgen.query_p95_ms": recorder.tail_ms("query", 95),
        "loadgen.query_p99_ms": recorder.tail_ms("query", 99),
        "loadgen.add_p50_ms": add_p50_ms([recorder]),
        "loadgen.add_p99_ms": recorder.tail_ms("add", 99),
        "loadgen.add_vectors_per_s": add_vectors_per_s([recorder]),
        "loadgen.requests_sent": recorder.attempted,
        "loadgen.requests_ok": recorder.attempted - recorder.failed,
        "loadgen.failed_share": recorder.failed / max(recorder.attempted, 1),
        "loadgen.busy_share": recorder.busy_share,
    }
    top_ms = rungs["net"] / 1e3
    add_p50 = metrics["loadgen.add_p50_ms"]
    details = {
        "write_ladder_top_rung_ms_one_connection": top_ms,
        "add_p50_ms_beside_reader": add_p50,
        "write_ladder_gap_share": (add_p50 - top_ms) / add_p50,
        "ladder_batches": scale["n_ladder"],
    }
    checks = durability_checks(verdict, ledger)
    checks["server_counted_no_errors"] = (
        status == 200 and not stats["server"]["errors_total"]
    )
    checks["maintenance_healthy"] = maintenance["last_error"] is None
    return finish(
        args, out, metrics=metrics, attempted=recorder.attempted,
        failed=recorder.failed, checks=checks, details=details,
        layer_metrics=LAYER_METRICS,
    )


def run(args) -> int:
    scale = SCALES["smoke" if args.smoke else "full"]
    out = out_dir_for(args)
    return run_traced(args, scale, out) if args.trace else run_end_to_end(args, scale, out)
