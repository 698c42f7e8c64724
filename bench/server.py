"""Curator server child process for the audit-wire workload.

    python3 bench/server.py --seed N [--scale full|tiny] [--trace]

Builds the same test split as the caller, holds it in a `Curator` behind a
`CuratorServer` on 127.0.0.1 (an OS-chosen port) and prints `{"port": ...}`
once it listens. One thread accepts connections and reads control commands
from stdin; the server spawns one handler thread per connection, and the
caller opens one, so the process runs at most two threads. Commands, one per
line, each answered with one JSON line on stdout:

    stats     peak RSS, ledger totals and, when tracing, the span aggregates
    trace-on  start recording spans
    quit      (or end of stdin) stop serving and exit
"""

from __future__ import annotations

import argparse
import json
import resource
import selectors
import sys

from common import SCALES, curator_seed, load_privfair, make_split, settle_process


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    settle_process()
    load_privfair()
    from privfair.curator import Curator, CuratorServer

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.op_id = 0
    _, test, table = make_split(SCALES[args.scale], "ethnicity")
    curator = Curator(test, table, total_epsilon=args.budget, seed=curator_seed(args.seed))
    server = CuratorServer(curator, "127.0.0.1", 0)
    try:
        reply({"port": server.address[1]})
        serve(server, curator, tracer)
    finally:
        server.server_close()
    return 0


def reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def serve(server, curator, tracer) -> None:
    with selectors.DefaultSelector() as sel:
        sel.register(server.socket, selectors.EVENT_READ, "accept")
        sel.register(sys.stdin, selectors.EVENT_READ, "command")
        while True:
            for key, _ in sel.select():
                if key.data == "accept":
                    server.handle_request()
                    continue
                command = sys.stdin.readline().strip()
                if command in ("", "quit"):
                    return
                if command == "trace-on" and tracer is not None:
                    tracer.enabled = True
                    reply({"ok": True})
                elif command == "stats":
                    reply(stats(curator, tracer))
                else:
                    reply({"error": f"unknown command {command!r}"})


def stats(curator, tracer) -> dict:
    ledger = curator.ledger()
    out = {
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spent": ledger.spent,
        "ledger_entries": len(ledger.entries),
        "batches": len({e.composition for e in ledger.entries if e.composition != "sequential"}),
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
    return out


if __name__ == "__main__":
    sys.exit(main())
