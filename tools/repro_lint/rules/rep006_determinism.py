"""REP006 — determinism in the executor's hot paths.

The optimized executor is only admissible because its results are
*provably bit-identical* to the naive path (``optimize=False``) for a fixed
seed; any unseeded randomness or wall-clock dependence inside
``executor.py``, or the grouped tail it runs (``tail.py``), silently breaks
that proof (and makes the chaos suite's replayed schedules meaningless).  Randomness is allowed only through
explicitly seeded generators; timing is allowed only via the monotonic
clock (deadlines, backoff), never the wall clock.

Flagged:

* ``np.random.default_rng()`` with no seed argument;
* legacy global-state numpy randomness (``np.random.rand`` & friends);
* the stdlib ``random`` module's functions (global, unseeded-by-default);
* wall-clock reads: ``time.time``, ``time.ctime``, ``time.localtime``,
  ``time.gmtime``, ``datetime.now``, ``datetime.utcnow``, ``date.today``.

Allowed: ``time.monotonic``/``perf_counter``/``sleep`` (not wall-clock) and
``default_rng(seed)``/``Generator(...)``/``SeedSequence(...)`` with
arguments.
"""

from __future__ import annotations

import ast

from tools.repro_lint.core import (
    Finding,
    ModuleSource,
    Rule,
    attribute_chain,
)

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "date.today",
        "datetime.date.today",
    }
)

_SEEDED_FACTORIES = frozenset({"default_rng", "Generator", "SeedSequence", "RandomState"})


class DeterminismRule(Rule):
    code = "REP006"
    name = "determinism"
    description = (
        "the executor uses only seeded randomness and the monotonic clock"
    )
    # The grouped tail (select arithmetic, HAVING, ORDER BY, LIMIT) runs in
    # tail.py for the executor and the middleware's fold alike.
    scope = ("src/repro/sqlengine/executor.py", "src/repro/sqlengine/tail.py")

    def check_module(self, module: ModuleSource) -> list[Finding]:
        stdlib_random_aliases = self._stdlib_random_aliases(module)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if chain is None:
                continue
            parts = chain.split(".")
            if chain in _WALL_CLOCK:
                findings.append(
                    module.finding(
                        self.code,
                        node,
                        f"wall-clock read {chain}() in an executor path: use "
                        "time.monotonic() (deadlines/backoff) or thread the "
                        "value in from outside the engine",
                    )
                )
                continue
            if parts[0] in stdlib_random_aliases and len(parts) == 2:
                findings.append(
                    module.finding(
                        self.code,
                        node,
                        f"stdlib {chain}() draws from the global unseeded "
                        "RNG: use a seeded np.random.default_rng(seed)",
                    )
                )
                continue
            if "random" in parts[:-1]:  # np.random.* / numpy.random.*
                attr = parts[-1]
                if attr in _SEEDED_FACTORIES:
                    if not node.args and not node.keywords:
                        findings.append(
                            module.finding(
                                self.code,
                                node,
                                f"{chain}() without a seed is entropy-seeded "
                                "and breaks A/B determinism: pass an "
                                "explicit seed",
                            )
                        )
                else:
                    findings.append(
                        module.finding(
                            self.code,
                            node,
                            f"legacy global-state randomness {chain}(): use "
                            "a seeded np.random.default_rng(seed) generator",
                        )
                    )
        return findings

    @staticmethod
    def _stdlib_random_aliases(module: ModuleSource) -> set[str]:
        aliases: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        aliases.add(alias.asname or "random")
        return aliases
