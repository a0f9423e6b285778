"""All-workloads mode: every workload, untraced and traced, each in a fresh process.

Writes ``summary.json`` (one row per run, medians per workload) and
prints it; the summary ends with ``"claim": null`` — defining the
benchmark claims no gain.  ``compare.py`` reads two such summaries.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from harness import HERE, OUT_ROOT, ROOT, host_fingerprint, load_spec, median


def run_one(workload: str, repeat: int, trace: int, args, out: Path) -> Dict[str, Any]:
    run_dir = out / f"{workload}-trace{trace}-run{repeat}"
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--out-dir", str(run_dir),
    ]
    if args.smoke:
        command.append("--smoke")
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    row: Dict[str, Any] = {
        "workload": workload, "seed": args.seed, "trace": trace,
        "exit_code": done.returncode,
        "wall_s": time.perf_counter() - started,
    }
    try:
        row.update(json.loads(lines[-1]))
        # The workload-scoped metrics are not on the driver's line.
        with open(run_dir / "result.json", encoding="utf-8") as handle:
            row["metrics"].update(json.load(handle)["scoped"])
    except (IndexError, OSError, ValueError):
        row.update({"correct": False, "attempted": 0, "failed": 0, "metrics": {}})
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
    return row


def medians(rows: List[Dict[str, Any]]) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """workload -> metric -> {median, unit, n} over the rows that measured it."""
    table: Dict[str, Dict[str, List[float]]] = {}
    units: Dict[str, str] = {}
    for row in rows:
        for name, entry in row["metrics"].items():
            table.setdefault(row["workload"], {}).setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
    return {
        workload: {
            name: {"median": median(values), "unit": units[name], "n": len(values)}
            for name, values in metrics.items()
        }
        for workload, metrics in table.items()
    }


def run_suite(args) -> int:
    spec = load_spec()
    out = Path(args.out_dir) if args.out_dir else OUT_ROOT / "suite"
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for repeat in range(args.repeats):
        for entry in spec["workloads"]:
            for trace in (0, 1):
                row = run_one(entry["name"], repeat, trace, args, out)
                rows.append(row)
                print(
                    f"{row['workload']:13s} seed={row['seed']} trace={trace} "
                    f"correct={row['correct']} attempted={row['attempted']} "
                    f"failed={row['failed']} wall={row['wall_s']:.1f}s",
                    flush=True,
                )
    table = medians(rows)
    for workload, metrics in table.items():
        print(f"\n== {workload}")
        for name, cell in metrics.items():
            if cell["median"] != 0.0:
                print(f"{name:38s} {cell['median']:16.6f} {cell['unit']:8s} n={cell['n']}")
    summary = {
        "benchmark": "benchmarks/e2e",
        "host": host_fingerprint(),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "smoke": bool(args.smoke),
        "runs": rows,
        "medians": table,
        "claim": None,
    }
    with open(out / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
    print(f"\nsummary written to {out / 'summary.json'}")
    print(json.dumps({"correct": all(r["correct"] for r in rows), "runs": len(rows), "claim": None}))
    return 0 if all(row["correct"] and row["exit_code"] == 0 for row in rows) else 1
