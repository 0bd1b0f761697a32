"""Serving tier tour: socket server, thin client, cancel, admission control.

1. start a :class:`~repro.server.VerdictServer` over an engine with a
   sample built (one process owns the engine; many clients share it),
2. connect with ``repro.client.connect(host, port)`` and per-connection
   ``ExecutionOptions`` — the familiar cursor surface over the wire,
3. run a parameterized approximate query — one frame each way: the RESULT
   frame brings the rows (only an answer longer than 1024 rows stays
   server-side, FETCH frames pulling further batches on demand),
4. check server health over the wire (engine, pool and server sections of
   one typed :class:`~repro.health.HealthReport`),
5. cancel a slow query mid-flight from another thread — the waiting
   ``execute`` raises :class:`~repro.errors.QueryCancelledError` and the
   connection stays usable,
6. overload a deliberately tiny server and see admission control reject the
   excess with a typed :class:`~repro.errors.ServerBusyError`.

Run with ``python examples/serve.py`` (set ``REPRO_EXAMPLES_QUICK=1`` for a
CI-sized run).  The demo runs server and clients in one process for
convenience; in production the server runs standalone and clients connect
from anywhere.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

import repro
import repro.client
from repro import ExecutionOptions, SampleSpec
from repro.errors import QueryCancelledError, ServerBusyError
from repro.sqlengine import Database


def build_engine(num_rows: int, **database_kwargs) -> Database:
    """An engine with an orders table loaded (stands in for your database)."""
    rng = np.random.default_rng(7)
    engine = Database(**database_kwargs)
    engine.register_table(
        "orders",
        {
            "order_id": np.arange(num_rows),
            "price": rng.gamma(2.0, 8.0, num_rows),
            "qty": rng.integers(1, 100, num_rows),
            "region": rng.choice(
                ["north", "south", "east", "west"], num_rows
            ).astype(object),
        },
    )
    return engine


def main() -> None:
    num_rows = 50_000 if os.environ.get("REPRO_EXAMPLES_QUICK") else 500_000

    # 1. One server process owns the engine, its samples and caches.
    engine = build_engine(num_rows)
    server = repro.serve(database=engine, port=0, pool_size=4)
    host, port = server.address
    print(f"server listening on {host}:{port} (pool of 4 sessions)")

    with server._pool.connection() as admin:
        info = admin.session.create_sample("orders", SampleSpec("uniform", (), 0.02))
        print(f"built sample {info.sample_table!r}: {info.sample_rows} rows\n")

    # 2. A thin client: same cursor surface, options ride in the handshake
    #    and apply server-side to every query on this connection.
    with repro.client.connect(
        host, port, options=ExecutionOptions(accuracy=0.05, include_errors=True)
    ) as connection:
        # 3. Parameterized approximate query; a dashboard-sized answer
        #    arrives with the RESULT frame, fetch* read the cursor's buffer.
        cursor = connection.execute(
            "SELECT region, count(*) AS n, avg(price) AS mean FROM orders "
            "WHERE qty >= ? GROUP BY region ORDER BY region",
            (25,),
        )
        print(f"approximate={cursor.approximate}, rowcount={cursor.rowcount}")
        batch = cursor.fetchmany(2)
        print(f"first batch of 2: {batch}")
        print(f"the rest:         {cursor.fetchall()}")

        # Per-query overrides merge over the connection defaults.
        exact = connection.execute(
            "SELECT count(*) AS n FROM orders", options={"mode": "exact"}
        )
        print(f"exact count:      {exact.fetchone()[0]} rows\n")

        # 4. One typed HealthReport over the wire: pool + server + stats.
        report = connection.health_check()
        print(f"health: ok={report.ok}, status={report.status}, "
              f"pool in_use={report.pool['in_use']}/{report.pool['size']}, "
              f"served={report.server['served']}")

    server.shutdown()  # graceful: drains in-flight queries first
    engine.close()

    # 5 + 6. A deliberately tiny, slow server: one query slot, no queue.  A
    #    sleep failpoint makes every query slow enough to cancel and to
    #    collide with — deterministic stand-ins for expensive analytics.
    slow_engine = build_engine(
        5_000,
        fault_injection={
            "executor.checkpoint": {"kind": "sleep", "seconds": 0.05, "times": None}
        },
    )
    slow_server = repro.serve(
        database=slow_engine, port=0, pool_size=2,
        max_concurrent_queries=1, max_queue_depth=0,
    )
    try:
        host, port = slow_server.address
        with repro.client.connect(host, port) as connection:
            cursor = connection.cursor()
            canceller = threading.Timer(0.15, cursor.cancel)
            canceller.start()
            try:
                cursor.execute("SELECT sum(price) AS s FROM orders")
                print("\nquery finished before the cancel landed (rare)")
            except QueryCancelledError as exc:
                print(f"\ncancelled mid-query, as requested: {exc}")
            finally:
                canceller.cancel()

            # The connection survives a cancel; run something small.
            survivor = connection.execute(
                "SELECT order_id FROM orders LIMIT 1", options={"mode": "exact"}
            )
            print(f"same connection still works: {survivor.fetchone()}")

            # Admission control: occupy the only slot from a second
            # connection, then watch this one get a typed rejection.
            def occupy() -> None:
                with repro.client.connect(host, port) as other:
                    try:
                        other.execute("SELECT sum(qty) AS s FROM orders").fetchall()
                    except QueryCancelledError:
                        pass  # server shutdown may cancel the straggler

            hog = threading.Thread(target=occupy, daemon=True)
            hog.start()
            time.sleep(0.15)  # let the hog's query occupy the slot
            try:
                connection.execute("SELECT count(*) AS n FROM orders")
                print("no rejection (slot was free)")
            except ServerBusyError as exc:
                print(f"admission control rejected the overload: {exc}")
            print(f"server stats: {slow_server.stats.as_dict()}")
    finally:
        slow_server.shutdown(drain=False)
        slow_engine.close()


if __name__ == "__main__":
    main()
