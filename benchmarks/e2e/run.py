"""The repo benchmark: one command, four workloads, end-to-end and per-layer metrics.

Driver form (one workload, one run; the last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload serve_http --seed 7 --seconds 10 --trace 0

Without ``--workload`` every workload runs untraced and traced, each in a
fresh process, and a summary ending in ``"claim": null`` is written::

    python3 benchmarks/e2e/run.py --seed 7 [--repeats 3] [--smoke] [--out-dir DIR]
    python3 benchmarks/e2e/run.py compare A/summary.json B/summary.json

See ``README.md`` beside this file for the metric glossary.
"""

from __future__ import annotations

import argparse
import sys

from harness import BenchmarkError, load_spec, use_repo_source

WORKLOADS = {
    "serve_http": "wl_serve_http",
    "scan_batch": "wl_scan_batch",
    "ingest_mixed": "wl_ingest_mixed",
    "usp_build": "wl_usp_build",
}

#: development seed; seed 23 is held out for claims (see README.md)
DEFAULT_SEED = 7
SMOKE_SECONDS = 1


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-scale sizes")
    parser.add_argument("--out-dir", help="artifact directory (default: .bench_out/)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="all-workloads mode: runs per workload, all at --seed")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else load_spec()["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv) -> int:
    if argv and argv[0] == "compare":
        from compare import main as compare_main

        return compare_main(argv[1:])
    args = parse(argv)
    use_repo_source()
    if args.workload is None:
        from suite import run_suite

        return run_suite(args)
    module = __import__(WORKLOADS[args.workload])
    try:
        return module.run(args)
    except BenchmarkError as exc:
        print(f"benchmarks/e2e: aborted: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
