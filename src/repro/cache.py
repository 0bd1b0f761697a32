"""A small LRU cache shared by the engine and middleware cache layers.

The statement, plan, analysis and rewrite caches all need the same
mechanics — bounded size, recency ordering, hit/miss counters — so they
share this one implementation instead of re-rolling ``OrderedDict``
bookkeeping (and its easy-to-miss ``move_to_end`` bugs) at every site.

Staleness has one rule, shared by every cache whose values are derived from
backend state: **an entry is valid iff it was stored under the version token
it is looked up with**.  Callers read the backend's version token *before*
computing a value and pass that same token to ``get`` and ``put``; a value
computed across a concurrent change is then filed under the old token and
can never be served once the version has moved.  Nothing is ever cleared:
a stale entry is overwritten by the next ``put`` on its key or ages out by
LRU.  Caches of pure functions of their key (parsed statements, analysed
templates) simply omit the token.

The cache is thread-safe: concurrent sessions share one engine (and thus its
statement/plan caches), so ``get``/``put`` serialize on a private lock.  The
critical sections are a handful of dict operations, so the lock is
uncontended in practice; values are returned by reference and must be
treated as immutable by callers.  All current uses cache parsed statements,
plans and prepared rewrites, which are never mutated after construction —
except for memos filled lazily on first use: the executor's
``SelectPlan.grouped_memo``, a ``SamplePlan``'s ``signature`` and
description, and a prepared rewrite's joined text and fold constants.  Each
write is monotonic and idempotent (a pure function of the cached value), so
concurrent fillers at worst duplicate the computation; last write wins with
an identical value.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable
from typing import Generic, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """Least-recently-used mapping with a fixed capacity and versioned entries."""

    def __init__(self, maxsize: int = 128) -> None:
        self._maxsize = maxsize
        self._entries: OrderedDict[K, tuple[object, V]] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: K, token: object = None) -> V | None:
        """Return the value stored for ``key`` under ``token``, or None.

        An entry stored under a different token is a miss (it stays in place
        until overwritten or evicted); a hit refreshes the entry's recency.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != token:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]

    def put(self, key: K, value: V, token: object = None) -> None:
        """Store ``value`` for ``key`` under ``token``, evicting the oldest when full."""
        with self._lock:
            self._entries[key] = (token, value)
            self._entries.move_to_end(key)
            if len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)
