"""Shared plumbing of the end-to-end benchmark.

Everything here is benchmark-owned: locating the repo source, reading
``BENCHMARK.json``, robust rates and medians, memory probes, the span
recorder behind the layer ladder, the server child handle, and the
result line the driver parses.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: what ``BENCHMARK.json`` has no room for: metrics that exist on some
#: workloads only, absolute bounds, and the spreads the bounds came from
BOUNDS_PATH = HERE / "bounds.json"
#: scratch space inside the checkout (the benchmark may write nowhere else)
OUT_ROOT = ROOT / ".bench_out"


K = 10


class BenchmarkError(RuntimeError):
    """The harness cannot produce trustworthy numbers; abort without a result."""


def use_repo_source() -> None:
    """Put the checkout's ``src/`` on ``sys.path`` or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"benchmarks/e2e: no program to measure: {src}/repro is missing "
            "(run from a full checkout)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def load_bounds() -> Dict[str, Any]:
    with open(BOUNDS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------- #
# numbers
# ---------------------------------------------------------------------- #
def median(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise BenchmarkError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 when the sample is empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q / 100.0 * len(ordered))) - 1))
    return float(ordered[rank])


def segment_rate(
    ends: Sequence[float],
    weights: Sequence[float],
    start: float,
    seconds: float,
    n_segments: int,
) -> float:
    """Median per-segment completion rate over ``[start, start + seconds)``.

    ``ends`` are completion timestamps; ``weights`` how much each
    completion counts (the queries in a batch call).
    """
    width = seconds / n_segments
    totals = [0.0] * n_segments
    for end, weight in zip(ends, weights):
        segment = int((end - start) / width)
        if 0 <= segment < n_segments:
            totals[segment] += weight
    return median(total / width for total in totals)


def recall_at_k(found, truth) -> float:
    """Mean overlap of the first ``K`` ids per row with the exact answer."""
    hits = 0
    rows = 0
    for row, expected in zip(found, truth):
        expected = set(int(v) for v in expected[:K])
        hits += len(expected.intersection(int(v) for v in row[:K]))
        rows += 1
    return hits / float(max(rows, 1) * K)


# ---------------------------------------------------------------------- #
# host and memory
# ---------------------------------------------------------------------- #
def host_fingerprint() -> Dict[str, Any]:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def reset_peak_rss() -> bool:
    """Restart this process's RSS high-water mark (Linux ``clear_refs``).

    In-process workloads generate their inputs in the process they
    measure; without the reset the peak would be the generator's.  Returns
    False where the kernel refuses, and the peak then covers set-up too.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb_self() -> float:
    return peak_rss_mb_pid(os.getpid())


def peak_rss_mb_pid(pid: int) -> float:
    """High-water RSS of another live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"/proc/{pid}/status has no VmHWM line")


def dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def out_dir_for(args) -> Path:
    """The run's artifact directory (inside the checkout unless redirected)."""
    if args.out_dir:
        out = Path(args.out_dir)
    else:
        out = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------- #
# spans and the layer ladder
# ---------------------------------------------------------------------- #
class Spans:
    """In-memory span log, flushed to ``spans.jsonl`` when the run ends."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, float, float, Optional[str], int]] = []

    def record(self, name, start, end, parent, query_id) -> None:
        self.rows.append((name, start, end, parent, query_id))

    def flush(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, query_id in self.rows:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "query_id": query_id,
                        }
                    )
                    + "\n"
                )

    def durations(self, name: str) -> Dict[int, float]:
        """Duration per query id of the spans called ``name``."""
        return {qid: end - start for n, start, end, _, qid in self.rows if n == name}

    def median_us(self, name: str) -> float:
        return 1e6 * median(self.durations(name).values())

    def self_us(self, name: str, below: str) -> float:
        """A layer's self time: median over query ids of rung minus rung below."""
        upper, lower = self.durations(name), self.durations(below)
        return 1e6 * median(upper[qid] - lower[qid] for qid in upper if qid in lower)


#: fewest items a time-budgeted ladder pushes (a median needs a few)
LADDER_MIN_ITEMS = 5


def run_ladder(
    spans: Spans,
    rungs: Sequence[Tuple[str, Callable[[int], Any]]],
    n_items: int,
    *,
    budget_seconds: Optional[float] = None,
) -> int:
    """Push item ids ``0..n_items`` through every rung, lowest rung first.

    Each call is one span whose parent is the rung above it (the rung
    that would have caused it in a real request); spans of one item share
    its id, and :meth:`Spans.self_us` subtracts rungs pairwise per item.
    A rung sees all its items back to back, so every call runs in that
    rung's own steady state (a rung that wakes pool threads would
    otherwise pay for the idle rung before it and warm the one after).
    With ``budget_seconds`` the item count shrinks to what the first rung
    — the cheapest — suggests will fit (at least ``LADDER_MIN_ITEMS``).  Returns
    the number of items pushed.
    """
    names = [name for name, _ in rungs]
    for level, (name, call) in enumerate(rungs):
        parent = names[level + 1] if level + 1 < len(names) else None
        began = time.perf_counter()
        for item in range(n_items):
            start = time.perf_counter()
            call(item)
            end = time.perf_counter()
            spans.record(name, start, end, parent, item)
            if (
                level == 0
                and budget_seconds is not None
                and item + 1 >= LADDER_MIN_ITEMS
                and (end - began) * len(rungs) > budget_seconds
            ):
                n_items = item + 1
                break
    return n_items


# ---------------------------------------------------------------------- #
# the server child
# ---------------------------------------------------------------------- #
#: a child that has not bound its port by now never will
BOOT_TIMEOUT_S = 120.0


class ServerChild:
    """The program under test for HTTP workloads: its own OS process.

    The child (``server_child.py``) opens the collection, boots a
    ``SearchServer`` and answers one-word commands on stdin with one JSON
    line on stdout.  ``stop`` drains gracefully; ``kill`` is the crash.
    """

    def __init__(self, config: Dict[str, Any]) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "server_child.py"), json.dumps(config)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            ready = self._read_line(BOOT_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.boot_s = time.perf_counter() - started
        self.port = int(ready["port"])
        self.pid = int(ready["pid"])
        if self.pid == os.getpid() or self.pid != self.process.pid:
            self.kill()
            raise BenchmarkError(
                "server under test is not on its own process "
                f"(child reports pid {self.pid}, harness is {os.getpid()})"
            )

    def _read_line(self, timeout: float) -> Dict[str, Any]:
        # The child answers promptly or has died; a dead child closes the
        # pipe, which readline reports as an empty string.
        import select

        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        if not ready:
            raise BenchmarkError(f"server child silent for {timeout:.0f}s")
        line = self.process.stdout.readline()
        if not line:
            raise BenchmarkError(
                f"server child exited (code {self.process.poll()}) before answering"
            )
        return json.loads(line)

    def ask(self, command: str) -> Dict[str, Any]:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self._read_line(60.0)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_pid(self.pid)

    def stop(self) -> bool:
        """Graceful drain; returns whether the server reported a clean drain."""
        if self.process.poll() is not None:
            return False
        try:
            clean = bool(self.ask("stop").get("clean"))
        except (BenchmarkError, OSError, ValueError):
            clean = False
        self._reap(timeout=60.0)
        return clean

    def kill(self) -> None:
        """SIGKILL: no drain, no checkpoint, no flush of user-space buffers."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self._reap(timeout=30.0)

    def _reap(self, timeout: float) -> None:
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            try:
                pipe.close()
            except OSError:
                pass

    def __enter__(self) -> "ServerChild":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()


@dataclass
class Served:
    """A built index, its durable collection and the server child over it."""

    index: Any
    path: Path
    child: ServerChild
    #: from raw vectors to a server that answers: index build, durable
    #: snapshot, process start, ``Collection.open``, bind
    build_s: float
    create_s: float


def serve(
    build_index: Callable[[], Any],
    path: Path,
    config: Dict[str, Any],
    warm: Callable[[int], None],
) -> Served:
    """Build, snapshot to ``path``, boot a server child on it, warm it up.

    ``config`` is the child's (see ``server_child.py``) minus the
    collection path; ``warm`` gets the port and sends whatever fills the
    caches and finishes lazy set-up.
    """
    from repro.store import Collection

    shutil.rmtree(path, ignore_errors=True)
    started = time.perf_counter()
    index = build_index()
    built = time.perf_counter()
    Collection.create(path, index).close()
    created = time.perf_counter()
    child = ServerChild({"collection": str(path), **config})
    served = Served(index, path, child, time.perf_counter() - started, created - built)
    try:
        warm(child.port)
    except BaseException:
        child.kill()
        raise
    return served


def unserve(served: Served) -> None:
    served.child.stop()
    shutil.rmtree(served.path, ignore_errors=True)


# ---------------------------------------------------------------------- #
# results
# ---------------------------------------------------------------------- #
#: rounds of (fresh set-up, then a slice of the measured window) per run
N_ROUNDS = 8


def run_rounds(
    n_rounds: int,
    set_up: Callable[[], Any],
    measure: Callable[[Any, int], Any],
    tear_down: Callable[[Any], None],
):
    """Alternate a fresh set-up with one slice of the measured window.

    Returns ``(last_state, setup_seconds, build_seconds, measurements)``;
    the last state is left up for the caller's checks (and torn down here
    if a round raises, so no server child outlives a failed run).  ``set_up``
    returns a state with a ``build_s`` attribute, which is taken out of
    that round's set-up time (it is a metric of its own, so work moved
    between the two shows in both).

    Why rounds: on this host the same code runs 10-20 % faster or slower
    depending on where a process's arrays and threads happened to land,
    and the mode lasts for the life of the allocation.  One set-up per
    run would report whichever mode it drew; the median over rounds, each
    on fresh state, does not.  It also makes ``setup_s`` a median over
    several set-ups instead of one sample.
    """
    state = None
    setups: List[float] = []
    builds: List[float] = []
    measurements = []
    try:
        for index in range(n_rounds):
            if state is not None:
                tear_down(state)
                state = None
            started = time.perf_counter()
            state = set_up()
            setups.append(time.perf_counter() - started - state.build_s)
            builds.append(state.build_s)
            measurements.append(measure(state, index))
    except BaseException:
        if state is not None:
            tear_down(state)
        raise
    return state, setups, builds, measurements


def finish(
    args,
    out: Path,
    *,
    metrics: Dict[str, float],
    attempted: int,
    failed: int,
    checks: Dict[str, bool],
    details: Dict[str, Any],
    layer_metrics: frozenset = frozenset(),
) -> int:
    """Validate against ``BENCHMARK.json``, write artifacts, print the result.

    ``metrics`` must hold exactly what the workload owes: untraced, every
    end-to-end metric plus the scoped ones ``bounds.json`` assigns to it;
    traced, the per-layer metrics it declared in ``layer_metrics``.  A
    per-layer metric of a layer the workload never enters is reported as
    zero; one it declared and did not measure aborts the run, so a
    dropped key cannot read as "0 us".  The last line of stdout is the one
    JSON object the driver reads; the exit code is non-zero when a check
    or a request failed.
    """
    spec = load_spec()
    scoped = {}
    if args.trace:
        wanted = spec["per_layer"]
        owed = set(layer_metrics)
        undefined = sorted(owed - {entry["name"] for entry in wanted})
        if undefined:
            raise BenchmarkError(f"metrics missing from BENCHMARK.json: {undefined}")
    else:
        wanted = spec["end_to_end"]
        scoped = {
            entry["name"]: entry for entry in load_bounds()["scoped"]
            if args.workload in entry["workloads"]
        }
        owed = {entry["name"] for entry in wanted} | set(scoped)
    if set(metrics) != owed:
        raise BenchmarkError(
            f"workload {args.workload} did not measure {sorted(owed - set(metrics))} "
            f"and measured undeclared {sorted(set(metrics) - owed)}"
        )
    reported = {
        entry["name"]: {"value": float(metrics.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in wanted
    }
    scoped = {
        name: {"value": float(metrics[name]), "unit": entry["unit"]}
        for name, entry in scoped.items()
    }
    correct = all(checks.values()) and failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": bool(args.smoke),
        "host": host_fingerprint(),
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "checks": checks,
        "metrics": reported,
        "scoped": scoped,
        "details": details,
    }
    with open(out / "result.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={bool(args.smoke)} -> {out}")
    for name, entry in {**reported, **scoped}.items():
        print(f"{name:38s} {entry['value']:16.6f} {entry['unit']}")
    for name, value in sorted(details.items()):
        if isinstance(value, (int, float, str)):
            print(f"  ({name}: {value})")
    for name, passed in sorted(checks.items()):
        print(f"check {name}: {'ok' if passed else 'FAILED'}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": reported,
            }
        )
    )
    return 0 if correct else 1
