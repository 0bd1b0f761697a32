"""The ``serve_socket`` server process.

Builds the engine from the seed (several times, like every other workload),
starts ``repro.serve()`` over it, prints one JSON line with the bound port and
the set-up time, then serves until its stdin closes or says ``stop``; on the
way out it prints its counters and peak RSS.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import repro  # noqa: E402
from e2e import build, loadgen  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    sizing = build.QUICK if args.quick else build.FULL

    dataset = build.generate(args.seed, sizing.scale_factor)

    def start_server(database, _connection):
        return repro.serve(
            database=database,
            port=0,
            pool_size=loadgen.SERVER_POOL_SIZE,
            session_kwargs={"planner_config": build.planner_config()},
        )

    setup_s, (database, connection, server) = build.timed_setups(
        dataset, sizing.setup_repeats, finish=start_server
    )
    try:
        ready = {
            "port": server.address[1],
            "setup_s": setup_s,
            "generate_s": dataset.generate_seconds,
        }
        print(json.dumps(ready), flush=True)
        sys.stdin.readline()  # "stop", or EOF when the parent went away
        report = {
            "rss_mb": loadgen.rss_mb(),
            "server_stats": server.stats.as_dict(),
            "database_stats": dict(database.stats),
        }
    finally:
        server.shutdown()
        connection.close()
        database.close()
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
