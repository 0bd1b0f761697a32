"""Tests for the project linter (``tools/repro_lint``).

Three layers:

* **per-rule fixtures** — for each REP rule, one seeded violation that must
  fire and one idiomatic clean version that must not, run through
  :func:`~tools.repro_lint.core.lint_sources` (the exact pipeline the CLI
  uses, scoping and suppressions included);
* **mechanics** — inline suppressions (reason required, comment-above
  coverage), baseline fingerprints (line-number independence), CLI exit
  codes and the JSON reporter;
* **the repo gate** — linting ``src tests benchmarks`` of this very
  repository must produce zero non-baselined findings, i.e. the committed
  tree always keeps the gate green.

Fixture snippets that exercise suppression parsing build the magic comment
by string concatenation so this file itself never contains a reasonless
suppression (the repo-gate test lints this file too).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.repro_lint.baseline import load_baseline, write_baseline
from tools.repro_lint.core import (
    META_RULE,
    Finding,
    active_rules,
    lint_sources,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Built by concatenation so the repo-gate run never sees a reasonless
#: suppression comment in this file's own source.
_MAGIC = "# repro: " + "ignore"


def suppression(code: str, reason: str | None = None) -> str:
    comment = f"{_MAGIC}[{code}]"
    if reason is not None:
        comment += f" -- {reason}"
    return comment


def lint_one(rel_path: str, source: str, code: str):
    """Lint one dedented fixture module with a single rule enabled."""
    result = lint_sources(
        {rel_path: textwrap.dedent(source)}, only={code}
    )
    assert not result.errors, result.errors
    return result


def codes(result) -> list[str]:
    return [finding.rule for finding in result.findings]


# ---------------------------------------------------------------------------
# REP002 — lock discipline
# ---------------------------------------------------------------------------


class TestRep002LockDiscipline:
    def test_fires_on_lock_ordering_cycle(self):
        result = lint_one(
            "src/repro/sqlengine/fixture_locks.py",
            """
            class Engine:
                def forward(self):
                    with self._alpha_lock:
                        with self._beta_lock:
                            pass

                def backward(self):
                    with self._beta_lock:
                        with self._alpha_lock:
                            pass
            """,
            "REP002",
        )
        assert any("cycle" in f.message for f in result.findings)

    def test_fires_on_bare_acquire_without_try_finally(self):
        result = lint_one(
            "src/repro/sqlengine/fixture_bare.py",
            """
            class Engine:
                def work(self):
                    self._gate_lock.acquire()
                    self.compute()
            """,
            "REP002",
        )
        assert any("outside a 'with'" in f.message for f in result.findings)

    def test_clean_acquire_with_immediate_try_finally(self):
        result = lint_one(
            "src/repro/sqlengine/fixture_finally.py",
            """
            class Engine:
                def work(self):
                    self._gate_lock.acquire()
                    try:
                        self.compute()
                    finally:
                        self._gate_lock.release()
            """,
            "REP002",
        )
        assert codes(result) == []

    def test_fires_on_transitive_self_deadlock_of_nonreentrant_lock(self):
        result = lint_one(
            "src/repro/sqlengine/fixture_self.py",
            """
            import threading

            class Engine:
                def __init__(self):
                    self._state_lock = threading.Lock()

                def outer(self):
                    with self._state_lock:
                        self.inner()

                def inner(self):
                    with self._state_lock:
                        pass
            """,
            "REP002",
        )
        assert any("self-deadlock" in f.message for f in result.findings)

    def test_reentrant_lock_may_self_nest(self):
        result = lint_one(
            "src/repro/sqlengine/fixture_rlock.py",
            """
            import threading

            class Engine:
                def __init__(self):
                    self._state_lock = threading.RLock()

                def outer(self):
                    with self._state_lock:
                        self.inner()

                def inner(self):
                    with self._state_lock:
                        pass
            """,
            "REP002",
        )
        assert codes(result) == []

    def test_consistent_ordering_is_clean(self):
        result = lint_one(
            "src/repro/sqlengine/fixture_order.py",
            """
            class Engine:
                def one(self):
                    with self._alpha_lock:
                        with self._beta_lock:
                            pass

                def two(self):
                    with self._alpha_lock:
                        with self._beta_lock:
                            pass
            """,
            "REP002",
        )
        assert codes(result) == []


# ---------------------------------------------------------------------------
# REP003 — no blocking calls in coroutines
# ---------------------------------------------------------------------------


class TestRep003AsyncBlocking:
    def test_fires_on_direct_blocking_call_in_coroutine(self):
        result = lint_one(
            "src/repro/api/fixture_aio.py",
            """
            class AsyncCursor:
                async def execute(self, sql):
                    self._cursor.execute(sql)
            """,
            "REP003",
        )
        assert codes(result) == ["REP003"]
        assert "thread-executor" in result.findings[0].message

    def test_fires_on_time_sleep_in_coroutine(self):
        result = lint_one(
            "src/repro/api/fixture_sleep.py",
            """
            import time

            async def backoff():
                time.sleep(0.1)
            """,
            "REP003",
        )
        assert codes(result) == ["REP003"]

    def test_clean_when_routed_through_executor_bridge(self):
        result = lint_one(
            "src/repro/api/fixture_bridge.py",
            """
            class AsyncCursor:
                async def execute(self, sql):
                    await self._connection._run(
                        lambda: self._cursor.execute(sql)
                    )

                async def fetchone(self):
                    return await self._connection._run(self._cursor.fetchone)
            """,
            "REP003",
        )
        assert codes(result) == []

    def test_sync_functions_are_out_of_scope(self):
        result = lint_one(
            "src/repro/api/fixture_sync.py",
            """
            class Cursor:
                def execute(self, sql):
                    self._session.execute(sql)
            """,
            "REP003",
        )
        assert codes(result) == []


# ---------------------------------------------------------------------------
# REP004 — error-boundary discipline
# ---------------------------------------------------------------------------


class TestRep004ErrorBoundary:
    def test_fires_on_foreign_raise_in_public_layer(self):
        result = lint_one(
            "src/repro/api/fixture_raise.py",
            """
            def check(value):
                if value < 0:
                    raise ValueError("negative")
            """,
            "REP004",
        )
        assert codes(result) == ["REP004"]
        assert "ValueError" in result.findings[0].message

    def test_clean_raise_of_imported_error_type(self):
        result = lint_one(
            "src/repro/api/fixture_typed.py",
            """
            from repro.errors import InterfaceError

            def check(value):
                if value < 0:
                    raise InterfaceError("negative")
            """,
            "REP004",
        )
        assert codes(result) == []

    def test_internal_layers_may_raise_foreign_types(self):
        result = lint_one(
            "src/repro/sqlengine/fixture_internal.py",
            """
            def check(value):
                if value < 0:
                    raise ValueError("internal layers are not the boundary")
            """,
            "REP004",
        )
        assert codes(result) == []

    def test_fires_on_swallowing_broad_except(self):
        result = lint_one(
            "src/repro/sqlengine/fixture_swallow.py",
            """
            def probe(connection):
                try:
                    connection.ping()
                except Exception:
                    return None
            """,
            "REP004",
        )
        assert codes(result) == ["REP004"]
        assert "swallows" in result.findings[0].message

    def test_broad_except_that_reraises_typed_is_clean(self):
        result = lint_one(
            "src/repro/sqlengine/fixture_wrap.py",
            """
            from repro.errors import OperationalError

            def probe(connection):
                try:
                    connection.ping()
                except Exception as error:
                    raise OperationalError(str(error)) from error
            """,
            "REP004",
        )
        assert codes(result) == []


# ---------------------------------------------------------------------------
# REP006 — determinism in executor paths
# ---------------------------------------------------------------------------


class TestRep006Determinism:
    @pytest.mark.parametrize(
        "path", ["src/repro/sqlengine/executor.py", "src/repro/sqlengine/tail.py"]
    )
    def test_fires_on_unseeded_rng_wall_clock_and_global_random(self, path):
        result = lint_one(
            path,
            """
            import random
            import time

            import numpy as np

            def shuffle(rows):
                rng = np.random.default_rng()
                started = time.time()
                jitter = random.random()
                legacy = np.random.rand(3)
                return rng, started, jitter, legacy
            """,
            "REP006",
        )
        assert codes(result) == ["REP006"] * 4

    def test_clean_seeded_rng_and_monotonic_clock(self):
        result = lint_one(
            "src/repro/sqlengine/executor.py",
            """
            import time

            import numpy as np

            def shuffle(rows, seed):
                rng = np.random.default_rng(seed)
                deadline = time.monotonic() + 5.0
                return rng.permutation(rows), deadline
            """,
            "REP006",
        )
        assert codes(result) == []

    def test_scope_is_limited_to_executor_modules(self):
        result = lint_one(
            "src/repro/experiments/harness.py",
            """
            import time

            def stamp():
                return time.time()
            """,
            "REP006",
        )
        assert codes(result) == []


# ---------------------------------------------------------------------------
# REP007 — grouping is the key codec's decision
# ---------------------------------------------------------------------------


class TestRep007GroupingCodec:
    def test_fires_on_np_unique_outside_the_codec(self):
        result = lint_one(
            "src/repro/sqlengine/functions.py",
            """
            import numpy as np
            from numpy import unique

            def count_distinct(codes):
                return len(np.unique(codes))
            """,
            "REP007",
        )
        assert codes(result) == ["REP007"] * 2

    def test_clean_through_the_codec_and_inside_it(self):
        clean = lint_one(
            "src/repro/sqlengine/functions.py",
            """
            from repro.sqlengine.encoding import encode_key, group_rows_encoded

            def count_distinct(values):
                key = encode_key(values)
                _, first = group_rows_encoded([key], len(values))
                return len(first)
            """,
            "REP007",
        )
        codec = lint_one(
            "src/repro/sqlengine/encoding.py",
            """
            import numpy as np

            def densify(codes):
                return np.unique(codes, return_inverse=True)
            """,
            "REP007",
        )
        assert codes(clean) == codes(codec) == []


# ---------------------------------------------------------------------------
# REP008 — the middleware stays backend-agnostic
# ---------------------------------------------------------------------------


class TestRep008BackendAgnostic:
    def test_fires_on_every_spelling_of_an_engine_import(self):
        result = lint_one(
            "src/repro/core/rewriter.py",
            """
            import repro.sqlengine.engine
            from repro.sqlengine import executor, sqlast
            from repro.sqlengine import planner as logical_planner
            from repro.sqlengine.table import Table

            def fold(rows):
                return rows
            """,
            "REP008",
        )
        assert codes(result) == ["REP008"] * 4
        assert {finding.line for finding in result.findings} == {2, 3, 4, 5}

    def test_clean_backend_free_modules_and_out_of_scope_layers(self):
        clean = lint_one(
            "src/repro/core/rewriter.py",
            """
            from repro.sqlengine import sqlast as ast
            from repro.sqlengine.encoding import encode_key, sort_indices
            from repro.sqlengine.expressions import Frame, evaluate
            from repro.sqlengine.functions import aggregate
            from repro.sqlengine.resultset import ResultSet
            import repro.sqlengine.tables_of_contents
            """,
            "REP008",
        )
        session = lint_one(
            "src/repro/api/session.py",
            """
            from repro.sqlengine.engine import Database
            """,
            "REP008",
        )
        assert codes(clean) == codes(session) == []


# ---------------------------------------------------------------------------
# REP009 — sample membership is the rule's decision
# ---------------------------------------------------------------------------


class TestRep009SampleMembership:
    def test_fires_on_a_private_copy_of_the_rule(self):
        # The shape of SampleMaintainer._update_sample before it evaluated
        # creators.membership: its own draws, sids and key hash.
        result = lint_one(
            "src/repro/sampling/maintenance.py",
            """
            import numpy as np
            from repro.sqlengine import functions

            def update(rng, batch, info, size):
                if info.sample_type == "uniform":
                    keep = rng.random(size) < info.ratio
                else:
                    key = functions.concat(*[batch[name] for name in info.columns])
                    keep = functions.hash_unit_interval(key) < info.ratio
                sids = rng.integers(1, info.subsample_count + 1, size=int(keep.sum()))
                return keep, sids, np.random.default_rng(0).choice(sids, 3)
            """,
            "REP009",
        )
        assert codes(result) == ["REP009"] * 5
        assert {finding.line for finding in result.findings} == {7, 9, 10, 11, 12}

    def test_clean_through_the_rule_and_inside_it(self):
        clean = lint_one(
            "src/repro/sampling/maintenance.py",
            """
            from repro.sampling import creators
            from repro.sqlengine.expressions import evaluate

            def update(rng, frame, info, context):
                rule = creators.membership(info.sample_type, info.columns, info.ratio, 10)
                jitter = float(rng.random())
                return evaluate(rule.keep, frame, context), jitter
            """,
            "REP009",
        )
        rule_module = lint_one(
            "src/repro/sampling/creators.py",
            """
            def sids(rng, size, b):
                return rng.integers(1, b + 1, size=size)
            """,
            "REP009",
        )
        engine = lint_one(
            "src/repro/sqlengine/functions.py",
            """
            import zlib

            def crc(value):
                return zlib.crc32(value)
            """,
            "REP009",
        )
        assert codes(clean) == codes(rule_module) == codes(engine) == []


# ---------------------------------------------------------------------------
# REP010 — one string form per hash
# ---------------------------------------------------------------------------


class TestRep010OneHashString:
    def test_fires_on_a_backend_with_its_own_string_form(self):
        # SqliteConnector's registrations before they shared one helper:
        # crc32 read NULL as "None" where vdb_hash read "".
        result = lint_one(
            "src/repro/connectors/sqlite.py",
            """
            import zlib

            def register(connection):
                connection.create_function(
                    "vdb_hash", 1, lambda v: zlib.crc32(("" if v is None else str(v)).encode())
                )
                connection.create_function("crc32", 1, lambda v: zlib.crc32(str(v).encode()))
            """,
            "REP010",
        )
        assert codes(result) == ["REP010"] * 2
        assert {finding.line for finding in result.findings} == {6, 8}

    def test_fires_through_an_alias_or_an_imported_name(self):
        result = lint_one(
            "src/repro/sampling/keys.py",
            """
            import zlib as z
            from zlib import crc32 as checksum

            def key_hash(text):
                return z.crc32(text.encode()) ^ checksum(text.encode())
            """,
            "REP010",
        )
        assert codes(result) == ["REP010"] * 2

    def test_clean_in_the_three_hashing_functions_and_outside_src(self):
        engine = lint_one(
            "src/repro/sqlengine/functions.py",
            """
            import zlib

            def _crc32_strings(values):
                return [zlib.crc32(s.encode()) for s in values]

            def _crc32_tables():
                def raw(message):
                    return zlib.crc32(message, 0xFFFFFFFF) ^ 0xFFFFFFFF
                return [raw(b"%d" % d) for d in range(10)]
            """,
            "REP010",
        )
        sqlite = lint_one(
            "src/repro/connectors/sqlite.py",
            """
            import zlib
            from repro.sqlengine.functions import hash_text

            def _crc32(value):
                return zlib.crc32(hash_text(value).encode("utf-8"))

            def register(connection):
                connection.create_function("crc32", 1, _crc32)
            """,
            "REP010",
        )
        oracle = lint_one(
            "tests/test_hashes.py",
            """
            import zlib

            def reference(values):
                return [zlib.crc32(str(v).encode()) for v in values]
            """,
            "REP010",
        )
        assert codes(engine) == codes(sqlite) == codes(oracle) == []


# ---------------------------------------------------------------------------
# REP011 — one owner for the decision to approximate
# ---------------------------------------------------------------------------


class TestRep011OneDecisionOwner:
    def test_fires_on_the_sessions_old_fallback(self):
        # VerdictSession.execute before analysis and planner owned every refusal.
        result = lint_one(
            "src/repro/api/session.py",
            """
            from repro import errors
            from repro.errors import RewriteError, UnsupportedQueryError

            def execute(self, statement, plan):
                try:
                    return self._execute_approximate(statement, plan)
                except RewriteError as error:
                    return self._execute_exact_select(statement, str(error))

            def other(self, statement):
                try:
                    return self.run(statement)
                except (KeyError, errors.UnsupportedQueryError):
                    return None
            """,
            "REP011",
        )
        assert codes(result) == ["REP011"] * 2
        assert {finding.line for finding in result.findings} == {8, 14}

    def test_fires_on_repro_error_around_a_rewrite(self):
        result = lint_one(
            "src/repro/api/pool.py",
            """
            from repro.errors import ReproError

            def answer(rewriter, statement, analysis, plan):
                try:
                    return rewriter.rewrite(statement, analysis, plan)
                except ReproError:
                    return None
            """,
            "REP011",
        )
        assert codes(result) == ["REP011"]

    def test_clean_elsewhere_and_outside_src(self):
        session = lint_one(
            "src/repro/api/session.py",
            """
            from repro.errors import OperationalError, ReproError

            def execute(self, statement, plan):
                try:
                    return self._execute_approximate(statement, plan)
                except OperationalError:
                    return self._execute_exact_select(statement)

            def cardinality(self, table, column):
                try:
                    return self.connector.column_cardinality(table, column)
                except (ReproError, KeyError):
                    return 1
            """,
            "REP011",
        )
        probe = lint_one(
            "benchmarks/e2e/probe.py",
            """
            from repro.errors import ReproError, RewriteError

            def probe(rewriter, statement, analysis, plan):
                try:
                    return rewriter.rewrite(statement, analysis, plan)
                except (ReproError, RewriteError):
                    return None
            """,
            "REP011",
        )
        assert codes(session) == codes(probe) == []


# ---------------------------------------------------------------------------
# suppression mechanics
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_reasoned_suppression_moves_finding_to_suppressed(self):
        source = textwrap.dedent(
            """
            def probe(connection):
                try:
                    connection.ping()
                except Exception:  {comment}
                    return None
            """
        ).format(comment=suppression("REP004", "probe failure means recycle"))
        result = lint_sources(
            {"src/repro/sqlengine/fixture_sup.py": source}, only={"REP004"}
        )
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["REP004"]

    def test_comment_only_line_covers_next_code_line(self):
        source = textwrap.dedent(
            """
            def probe(connection):
                try:
                    connection.ping()
                {comment}
                except Exception:
                    return None
            """
        ).format(comment=suppression("REP004", "wire boundary serializes"))
        result = lint_sources(
            {"src/repro/sqlengine/fixture_above.py": source}, only={"REP004"}
        )
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_reasonless_suppression_is_itself_reported(self):
        source = textwrap.dedent(
            """
            def probe(connection):
                try:
                    connection.ping()
                except Exception:  {comment}
                    return None
            """
        ).format(comment=suppression("REP004"))
        result = lint_sources(
            {"src/repro/sqlengine/fixture_noreason.py": source}, only={"REP004"}
        )
        rules = {f.rule for f in result.findings}
        # The reasonless comment does not suppress, and is itself a finding.
        assert rules == {META_RULE, "REP004"}

    def test_suppression_for_other_rule_does_not_cover(self):
        source = textwrap.dedent(
            """
            def probe(connection):
                try:
                    connection.ping()
                except Exception:  {comment}
                    return None
            """
        ).format(comment=suppression("REP002", "wrong code on purpose"))
        result = lint_sources(
            {"src/repro/sqlengine/fixture_wrongcode.py": source}, only={"REP004"}
        )
        assert [f.rule for f in result.findings] == ["REP004"]


# ---------------------------------------------------------------------------
# baseline mechanics
# ---------------------------------------------------------------------------


_BASELINE_FIXTURE = """
def probe(connection):
    try:
        connection.ping()
    except Exception:
        return None
"""


class TestBaseline:
    def test_baselined_finding_does_not_fail_the_gate(self):
        first = lint_sources(
            {"src/repro/sqlengine/fixture_bl.py": _BASELINE_FIXTURE},
            only={"REP004"},
        )
        assert len(first.findings) == 1
        fingerprints = {first.findings[0].fingerprint(0)}
        second = lint_sources(
            {"src/repro/sqlengine/fixture_bl.py": _BASELINE_FIXTURE},
            only={"REP004"},
            baseline=fingerprints,
        )
        assert second.findings == []
        assert [f.rule for f in second.baselined] == ["REP004"]

    def test_fingerprint_survives_edits_on_other_lines(self):
        first = lint_sources(
            {"src/repro/sqlengine/fixture_move.py": _BASELINE_FIXTURE},
            only={"REP004"},
        )
        fingerprints = {first.findings[0].fingerprint(0)}
        shifted = "# a new leading comment\n\n" + _BASELINE_FIXTURE
        second = lint_sources(
            {"src/repro/sqlengine/fixture_move.py": shifted},
            only={"REP004"},
            baseline=fingerprints,
        )
        assert second.findings == []
        assert len(second.baselined) == 1

    def test_write_and_load_roundtrip(self, tmp_path):
        finding = Finding(
            rule="REP004",
            path="src/repro/x.py",
            line=3,
            message="m",
            snippet="except Exception:",
        )
        path = tmp_path / "baseline.json"
        write_baseline([finding], path)
        assert load_baseline(path) == {finding.fingerprint(0)}

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == set()


# ---------------------------------------------------------------------------
# CLI behavior
# ---------------------------------------------------------------------------


def run_cli(*args: str, cwd: Path = REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tools.repro_lint", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def violating_tree(tmp_path: Path) -> Path:
    """A miniature repository whose one module breaks REP004.

    Rules are scoped by repo-relative path, so the CLI runs from the tree's
    root and lints its ``src``.
    """
    module = tmp_path / "src" / "repro" / "bad.py"
    module.parent.mkdir(parents=True)
    module.write_text(_BASELINE_FIXTURE)
    return tmp_path


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path):
        (tmp_path / "clean.py").write_text("x = 1\n")
        proc = run_cli(str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "OK:" in proc.stdout

    def test_exit_one_on_new_finding(self, tmp_path):
        proc = run_cli("src", cwd=violating_tree(tmp_path))
        assert proc.returncode == 1
        assert "REP004" in proc.stdout

    def test_json_format_is_parseable(self, tmp_path):
        proc = run_cli("src", "--format", "json", cwd=violating_tree(tmp_path))
        payload = json.loads(proc.stdout)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "REP004"

    def test_rules_subset_and_unknown_rule(self, tmp_path):
        root = violating_tree(tmp_path)
        subset = run_cli("src", "--rules", "REP003", cwd=root)
        assert subset.returncode == 0  # the REP004 violation is filtered out
        unknown = run_cli("src", "--rules", "REP999", cwd=root)
        assert unknown.returncode == 2

    def test_list_rules_names_all_four(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for code in ("REP002", "REP003", "REP004", "REP006", "REP007", "REP008"):
            assert code in proc.stdout

    def test_write_baseline_then_gate_passes(self, tmp_path):
        root = violating_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        accepted = run_cli("src", "--baseline", str(baseline), "--write-baseline", cwd=root)
        assert accepted.returncode == 0
        assert baseline.exists()
        gated = run_cli("src", "--baseline", str(baseline), cwd=root)
        assert gated.returncode == 0
        assert "1 baselined" in gated.stdout
        fresh = run_cli("src", "--baseline", str(baseline), "--no-baseline", cwd=root)
        assert fresh.returncode == 1

    def test_syntax_error_fails_the_gate(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        proc = run_cli(str(tmp_path))
        assert proc.returncode == 1
        assert "syntax error" in proc.stdout


# ---------------------------------------------------------------------------
# the repo gate
# ---------------------------------------------------------------------------


class TestRepoGate:
    def test_all_four_rules_are_registered(self):
        assert [rule.code for rule in active_rules()] == [
            "REP002",
            "REP003",
            "REP004",
            "REP006",
            "REP007",
            "REP008",
            "REP009",
            "REP010",
            "REP011",
        ]

    def test_repository_has_zero_unbaselined_findings(self):
        result = run_lint(
            ["src", "tests", "benchmarks"],
            root=REPO_ROOT,
            baseline=load_baseline(),
        )
        rendered = "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}" for f in result.findings
        )
        assert result.ok, f"repro_lint found new violations:\n{rendered}"
        assert result.files_checked > 100
