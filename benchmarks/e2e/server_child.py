"""The program under test for the HTTP workloads, in its own process.

Usage: ``server_child.py '<json config>'``.  Opens the durable
collection the harness created, assembles the production stack over it
(see ``stack.py``), boots a ``SearchServer`` and prints one JSON line
``{"port", "pid"}``.  Then answers one-word commands from stdin, one
JSON line each:

* ``maintenance`` — the ``MaintenanceLoop`` counters (not on ``/stats``);
* ``stop`` — drain gracefully, report ``{"clean": bool}``, exit.

EOF on stdin stops the server as well, so a dead harness leaves no
orphan.  The ``ingest_mixed`` crash test ends this process with SIGKILL
instead.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv) -> int:
    config = json.loads(argv[1])
    from harness import use_repo_source

    use_repo_source()
    from repro.net import SearchServer, ServerConfig
    from repro.store import Collection, MaintenanceLoop

    from stack import build_stack

    collection = Collection.open(config["collection"])
    service, registry = build_stack(
        collection, cache_size=config["cache_size"], tenant=config["tenant"]
    )
    maintenance = None
    if config.get("maintenance"):
        maintenance = MaintenanceLoop(collection, **config["maintenance"])
    server = SearchServer(
        service,
        tenants=registry,
        config=ServerConfig(
            port=0,
            max_concurrency=2,
            # End-to-end numbers are measured with tracing off; the traced
            # run asks for traces per request with a ``traceparent`` header.
            trace_sample_rate=0.0,
        ),
        maintenance=maintenance,
    )
    server.start_in_thread()

    def say(payload) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    say({"port": server.port, "pid": os.getpid()})
    clean = None
    for line in sys.stdin:
        command = line.strip()
        if command == "maintenance":
            say(
                {
                    "checkpoints": 0 if maintenance is None else maintenance.checkpoints,
                    "compactions": 0 if maintenance is None else maintenance.compactions,
                    "last_error": None if maintenance is None else maintenance.last_error,
                }
            )
        elif command == "stop":
            clean = server.stop()
            say({"clean": bool(clean)})
            break
        else:
            say({"error": f"unknown command {command!r}"})
    if clean is None:
        server.stop()
    collection.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
