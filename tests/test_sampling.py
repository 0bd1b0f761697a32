"""Tests for sample preparation: Lemma 1, builders, policy, metadata, maintenance."""

import math

import numpy as np
import pytest
from scipy import stats

from repro.api.session import VerdictSession
from repro.connectors import BuiltinConnector, SqliteConnector
from repro.errors import ConfigurationError, SamplingError
from repro.sampling import (
    MetadataStore,
    SampleInfo,
    PROBABILITY_COLUMN,
    SID_COLUMN,
    SampleBuilder,
    SampleMaintainer,
    SampleSpec,
    SamplingPolicyConfig,
    default_sample_specs,
    required_sampling_probability,
    staircase_probabilities,
)
from repro.faults import InjectedFault
from repro.sampling import bernoulli, creators
from repro.sqlengine import Database, sqlast as ast
from tests.conftest import build_orders_columns


class TestLemma1:
    def test_probability_exceeds_naive_ratio(self):
        # A naive m/n rate misses the target for ~half the strata; Lemma 1's
        # rate must therefore be strictly larger.
        assert required_sampling_probability(10, 100) > 0.1

    def test_guarantee_holds_empirically(self):
        probability = required_sampling_probability(10, 100, delta=0.001)
        rng = np.random.default_rng(0)
        shortfalls = sum(rng.binomial(100, probability) < 10 for _ in range(2_000))
        assert shortfalls / 2_000 < 0.01

    def test_edge_cases(self):
        assert required_sampling_probability(0, 100) == 0.0
        assert required_sampling_probability(100, 100) == 1.0
        assert required_sampling_probability(150, 100) == 1.0
        assert required_sampling_probability(10, 0) == 1.0

    def test_probability_decreases_with_stratum_size(self):
        probabilities = [
            required_sampling_probability(50, size) for size in (100, 1_000, 10_000, 100_000)
        ]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_guarantee_function_monotone_in_p(self):
        values = [bernoulli.guarantee_function(p, 1_000) for p in (0.1, 0.3, 0.5, 0.9)]
        assert values == sorted(values)

    def test_staircase_probabilities_cover_range(self):
        pairs = staircase_probabilities(100, 100_000)
        thresholds = [threshold for threshold, _ in pairs]
        assert thresholds[0] == 0 and thresholds[-1] >= 100_000 * 0.9
        # Probabilities decrease as strata get larger.
        probabilities = [probability for _, probability in pairs]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_staircase_case_expression_structure(self):
        expr = bernoulli.staircase_case_expression(ast.ColumnRef("n"), 100, 10_000)
        assert isinstance(expr, ast.CaseWhen)
        assert isinstance(expr.else_result, ast.Literal)
        assert expr.else_result.value == 1.0

    def test_staircase_small_table_always_full(self):
        assert staircase_probabilities(100, 50) == [(0, 1.0)]


@pytest.fixture(params=["builtin", "sqlite"])
def any_connector(request):
    if request.param == "builtin":
        connector = BuiltinConnector(seed=2)
    else:
        connector = SqliteConnector(seed=2)
    connector.load_table("orders", build_orders_columns(num_rows=20_000, seed=5))
    yield connector
    connector.close()


class TestSampleBuilder:
    def test_uniform_sample(self, any_connector):
        builder = SampleBuilder(any_connector, subsample_count=100)
        info = builder.create_sample("orders", SampleSpec("uniform", (), 0.05))
        assert 600 < info.sample_rows < 1_400
        assert info.sample_type == "uniform"
        columns = any_connector.column_names(info.sample_table)
        assert PROBABILITY_COLUMN in columns and SID_COLUMN in columns

    def test_uniform_sample_sid_range(self, any_connector):
        builder = SampleBuilder(any_connector, subsample_count=100)
        info = builder.create_sample("orders", SampleSpec("uniform", (), 0.05))
        result = any_connector.execute(
            f"SELECT min({SID_COLUMN}) AS lo, max({SID_COLUMN}) AS hi, "
            f"count(DISTINCT {SID_COLUMN}) AS d FROM {info.sample_table}"
        )
        low, high, distinct = result.fetchall()[0]
        assert float(low) >= 1 and float(high) <= 100
        assert float(distinct) > 50

    def test_hashed_sample_keeps_matching_keys(self, any_connector):
        builder = SampleBuilder(any_connector, subsample_count=100)
        info = builder.create_sample("orders", SampleSpec("hashed", ("order_id",), 0.05))
        # Re-creating with the same ratio keeps exactly the same keys (it is a
        # deterministic function of the hash), which is what makes universe
        # joins possible.
        other = builder.create_sample("orders", SampleSpec("hashed", ("order_id",), 0.05))
        first = set(
            any_connector.execute(f"SELECT order_id FROM {info.sample_table}").column("order_id").tolist()
        )
        second = set(
            any_connector.execute(f"SELECT order_id FROM {other.sample_table}").column("order_id").tolist()
        )
        assert first == second

    def test_stratified_sample_has_minimum_rows_per_group(self, any_connector):
        builder = SampleBuilder(any_connector, subsample_count=100)
        info = builder.create_sample("orders", SampleSpec("stratified", ("city",), 0.01))
        result = any_connector.execute(
            f"SELECT city, count(*) AS c FROM {info.sample_table} GROUP BY city"
        )
        counts = {row[0]: float(row[1]) for row in result.rows()}
        assert len(counts) == 4  # every stratum is represented
        # Equation 1: at least |T| * tau / d = 20000 * 0.01 / 4 = 50 rows each.
        assert all(count >= 40 for count in counts.values())

    def test_stratified_probability_column_reflects_group_size(self, any_connector):
        builder = SampleBuilder(any_connector, subsample_count=100)
        info = builder.create_sample("orders", SampleSpec("stratified", ("city",), 0.01))
        result = any_connector.execute(
            f"SELECT city, max({PROBABILITY_COLUMN}) AS p FROM {info.sample_table} GROUP BY city"
        )
        probabilities = {row[0]: float(row[1]) for row in result.rows()}
        # Small strata are sampled at higher rates than large strata.
        assert probabilities["nyc"] > probabilities["ann arbor"]

    def test_metadata_recorded_and_dropped(self, any_connector):
        builder = SampleBuilder(any_connector, subsample_count=100)
        info = builder.create_sample("orders", SampleSpec("uniform", (), 0.05))
        assert any(
            record.sample_table == info.sample_table
            for record in builder.metadata.samples_for("orders")
        )
        builder.drop_sample(info.sample_table)
        assert not any_connector.has_table(info.sample_table)
        assert all(
            record.sample_table != info.sample_table
            for record in builder.metadata.samples_for("orders")
        )

    @pytest.mark.parametrize(
        "spec",
        [
            SampleSpec("uniform", (), 0.05),
            SampleSpec("hashed", ("order_id",), 0.05),
            SampleSpec("stratified", ("city",), 0.05),
        ],
        ids=["uniform", "hashed", "stratified"],
    )
    def test_build_leaves_only_the_sample_table(self, any_connector, spec):
        # Each sample is written straight into its table: no staging or
        # helper table outlives the build.
        before = set(any_connector.table_names())
        builder = SampleBuilder(any_connector, subsample_count=100)
        info = builder.create_sample("orders", spec)
        created = set(any_connector.table_names()) - before
        assert created == {info.sample_table, builder.metadata.table_name}
        assert any_connector.row_count(info.sample_table) == info.sample_rows > 0

    def test_missing_table_raises(self, any_connector):
        builder = SampleBuilder(any_connector)
        with pytest.raises(SamplingError):
            builder.create_sample("missing", SampleSpec("uniform", (), 0.01))

    def test_sample_spec_validation(self):
        with pytest.raises(ValueError):
            SampleSpec("bogus", (), 0.1)
        with pytest.raises(ValueError):
            SampleSpec("uniform", (), 0.0)
        with pytest.raises(ValueError):
            SampleSpec("hashed", (), 0.1)
        with pytest.raises(ConfigurationError):
            SampleSpec("irregular", ("k",))


def _stratified_tables() -> dict[str, dict[str, np.ndarray]]:
    rng = np.random.default_rng(8)
    rows = 20_000
    return {
        # A NULL stratum among two large ones and a thin one.
        "nulls": {
            "id": np.arange(rows),
            "price": rng.normal(10.0, 2.0, rows),
            "city": rng.choice(
                np.array(["a", "b", None, "d"], dtype=object), rows, p=[0.6, 0.3, 0.07, 0.03]
            ),
        },
        # One stratum of five rows: below Equation 1's minimum, so it is kept
        # with probability 1, the largest probability of the build.
        "skewed": {
            "id": np.arange(rows),
            "price": rng.normal(10.0, 2.0, rows),
            "city": np.where(np.arange(rows) < 5, "tiny", "big").astype(object),
        },
    }


def _connector(backend: str, tables: dict[str, dict[str, np.ndarray]]):
    connector = BuiltinConnector(seed=3) if backend == "builtin" else SqliteConnector(seed=3)
    for name, columns in tables.items():
        connector.load_table(name, columns)
    return connector


def _previous_stratified_build(connector, table: str, spec: SampleSpec, subsample_count: int):
    """The build before strata probabilities had their own table: the
    staircase CASE over every row of the randomized copy joined to the
    strata sizes, in the select list and in the WHERE."""
    sample_table = SampleBuilder.sample_table_name(table, spec)
    sizes_table, randomized_table = f"{sample_table}_sizes", f"{sample_table}_rand"
    connector.execute(creators.strata_size_statement(table, sizes_table, spec.columns))
    connector.execute(creators.randomized_copy_statement(table, randomized_table))
    strata = connector.row_count(sizes_table)
    max_size = int(
        float(connector.execute(f"SELECT max(vdb_strata_size) AS m FROM {sizes_table}").scalar())
    )
    min_rows = max(1, math.ceil(connector.row_count(table) * spec.ratio / strata))
    staircase = bernoulli.staircase_case_expression(
        ast.ColumnRef("vdb_strata_size", table="z"), min_rows, max_size
    )
    select = ast.SelectStatement(
        select_items=[
            *[
                ast.SelectItem(ast.ColumnRef(column, table="r"), alias=column)
                for column in connector.column_names(table)
            ],
            ast.SelectItem(staircase, alias=PROBABILITY_COLUMN),
            ast.SelectItem(creators.sid_expression(subsample_count), alias=SID_COLUMN),
        ],
        from_relation=ast.Join(
            left=ast.TableRef(randomized_table, alias="r"),
            right=ast.TableRef(sizes_table, alias="z"),
            condition=ast.conjunction(
                [
                    ast.null_safe_equal(ast.ColumnRef(c, table="r"), ast.ColumnRef(c, table="z"))
                    for c in spec.columns
                ]
            ),
            join_type="INNER",
        ),
        where=ast.BinaryOp(
            "<", ast.ColumnRef(creators.RANDOM_DRAW_COLUMN, table="r"), staircase
        ),
    )
    connector.execute(ast.CreateTableStatement(table_name=sample_table, as_select=select))
    return sample_table


class TestStratifiedBuild:
    """The staircase is evaluated once per stratum, and the per-row pass
    draws against a bound before it joins; the sample is the same."""

    @pytest.mark.parametrize("table", ["nulls", "skewed"])
    @pytest.mark.parametrize("backend", ["builtin", "sqlite"])
    def test_sample_equals_the_previous_builds(self, backend, table):
        spec = SampleSpec("stratified", ("city",), 0.05)
        tables = _stratified_tables()
        built, previous = _connector(backend, tables), _connector(backend, tables)
        try:
            info = SampleBuilder(built, subsample_count=50).create_sample(table, spec)
            reference = _previous_stratified_build(previous, table, spec, subsample_count=50)
            rows = built.execute(f"SELECT * FROM {info.sample_table}").fetchall()
            expected = previous.execute(f"SELECT * FROM {reference}").fetchall()
            assert len(rows) == info.sample_rows > 0
            assert repr(rows) == repr(expected)
            largest = float(
                built.execute(f"SELECT max({PROBABILITY_COLUMN}) AS p FROM {info.sample_table}")
                .scalar()
            )
            assert (largest == 1.0) == (table == "skewed")
        finally:
            built.close()
            previous.close()

    @pytest.mark.parametrize("backend", ["builtin", "sqlite"])
    def test_every_probability_is_its_strata_staircase_step(self, backend):
        columns = _stratified_tables()["nulls"]
        connector = _connector(backend, {"t": columns})
        try:
            info = SampleBuilder(connector, subsample_count=50).create_sample(
                "t", SampleSpec("stratified", ("city",), 0.05)
            )
            keys, sizes = np.unique(columns["city"].astype(str), return_counts=True)
            size_of = dict(zip(keys.tolist(), sizes.tolist()))
            min_rows = math.ceil(len(columns["id"]) * 0.05 / len(size_of))
            steps = bernoulli.staircase_probabilities(min_rows, int(sizes.max()))

            def staircase(size: int) -> float:
                threshold, probability = max(step for step in steps if step[0] <= size)
                return 1.0 if threshold == 0 else round(probability, 8)

            result = connector.execute(
                f"SELECT city, {PROBABILITY_COLUMN} FROM {info.sample_table}"
            )
            seen = set()
            for city, probability in result.rows():
                key = "None" if _is_null(city) else city
                seen.add(key)
                assert float(probability) == staircase(size_of[key]), key
            assert seen == set(size_of) and "None" in seen
        finally:
            connector.close()

    @pytest.mark.parametrize("backend", ["builtin", "sqlite"])
    def test_no_per_row_statement_evaluates_the_staircase(self, backend, monkeypatch):
        connector = _connector(backend, _stratified_tables())
        issued: list[str] = []
        execute = connector.execute

        def recording(statement, *args, **kwargs):
            if not isinstance(statement, str):
                issued.append(connector.syntax_changer.to_sql(statement))
            return execute(statement, *args, **kwargs)

        monkeypatch.setattr(connector, "execute", recording)
        try:
            info = SampleBuilder(connector, subsample_count=50).create_sample(
                "nulls", SampleSpec("stratified", ("city",), 0.05)
            )
            with_case = [sql for sql in issued if "CASE" in sql.upper()]
            assert len(with_case) == 1
            assert f"FROM {info.sample_table}_sizes" in with_case[0]
            assert any(sql.startswith(f"CREATE TABLE {info.sample_table} AS") for sql in issued)
        finally:
            connector.close()

    @pytest.mark.parametrize("backend", ["builtin", "sqlite"])
    def test_an_empty_table_gives_an_empty_sample(self, backend):
        empty = {
            "id": np.arange(0),
            "city": np.array([], dtype=object),
            "grade": np.array([], dtype=np.float64),
        }
        connector = _connector(backend, {"e": empty})
        try:
            builder = SampleBuilder(connector, subsample_count=50)
            uniform = builder.create_sample("e", SampleSpec("uniform", (), 0.1))
            before = set(connector.table_names())
            for columns in (("city",), ("city", "grade")):
                info = builder.create_sample("e", SampleSpec("stratified", columns, 0.1))
                assert info.sample_rows == 0 == connector.row_count(info.sample_table)
                assert connector.column_names(info.sample_table) == connector.column_names(
                    uniform.sample_table
                )
                before.add(info.sample_table)
            assert set(connector.table_names()) == before
        finally:
            connector.close()

    @pytest.mark.parametrize("failing_suffix", ["", "_probs", "_rand"])
    @pytest.mark.parametrize("backend", ["builtin", "sqlite"])
    def test_a_failed_pass_leaves_no_helper_table(self, backend, failing_suffix, monkeypatch):
        # "" is the final pass, the others are helper tables' CTAS.
        connector = _connector(backend, _stratified_tables())
        spec = SampleSpec("stratified", ("city",), 0.05)
        failing_table = SampleBuilder.sample_table_name("nulls", spec) + failing_suffix
        execute = connector.execute

        def failing(statement, *args, **kwargs):
            if (
                isinstance(statement, ast.CreateTableStatement)
                and statement.table_name == failing_table
            ):
                raise InjectedFault(f"injected fault creating {failing_table}")
            return execute(statement, *args, **kwargs)

        monkeypatch.setattr(connector, "execute", failing)
        try:
            before = set(connector.table_names())
            with pytest.raises(SamplingError):
                SampleBuilder(connector, subsample_count=50).create_sample("nulls", spec)
            assert set(connector.table_names()) == before
        finally:
            connector.close()


class TestDefaultPolicy:
    def test_policy_proposes_uniform_hashed_and_stratified(self):
        connector = BuiltinConnector(seed=0)
        connector.load_table("orders", build_orders_columns(num_rows=20_000, seed=5))
        config = SamplingPolicyConfig(
            min_table_rows=0, target_sample_rows=1_000, cardinality_fraction=0.01
        )
        specs = default_sample_specs(connector, "orders", config)
        types = {(spec.sample_type, spec.columns) for spec in specs}
        assert ("uniform", ()) in types
        assert ("hashed", ("order_id",)) in types
        assert ("stratified", ("city",)) in types
        # tau = target / |T|
        assert all(spec.ratio == pytest.approx(1_000 / 20_000) for spec in specs)

    def test_policy_skips_small_tables(self):
        connector = BuiltinConnector(seed=0)
        connector.load_table("tiny", {"x": np.arange(100)})
        assert default_sample_specs(connector, "tiny") == []


class TestMaintenance:
    def test_append_updates_base_and_samples(self):
        connector = BuiltinConnector(seed=3)
        connector.load_table("orders", build_orders_columns(num_rows=20_000, seed=5))
        metadata = MetadataStore(connector)
        builder = SampleBuilder(connector, metadata, subsample_count=100)
        uniform = builder.create_sample("orders", SampleSpec("uniform", (), 0.05))
        stratified = builder.create_sample("orders", SampleSpec("stratified", ("city",), 0.01))

        maintainer = SampleMaintainer(connector, metadata)
        batch = build_orders_columns(num_rows=5_000, seed=77)
        inserted = maintainer.append("orders", batch)

        assert connector.row_count("orders") == 25_000
        assert inserted[uniform.sample_table] > 100
        assert connector.row_count(uniform.sample_table) == uniform.sample_rows + inserted[uniform.sample_table]
        # Metadata row counts were refreshed.
        updated = {info.sample_table: info for info in metadata.samples_for("orders")}
        assert updated[uniform.sample_table].original_rows == 25_000
        assert updated[stratified.sample_table].original_rows == 25_000

    def test_append_new_stratum_is_kept_in_full(self):
        connector = BuiltinConnector(seed=3)
        connector.load_table("orders", build_orders_columns(num_rows=20_000, seed=5))
        metadata = MetadataStore(connector)
        builder = SampleBuilder(connector, metadata, subsample_count=100)
        stratified = builder.create_sample("orders", SampleSpec("stratified", ("city",), 0.01))
        maintainer = SampleMaintainer(connector, metadata)
        batch = {
            "order_id": np.arange(100) + 1_000_000,
            "price": np.full(100, 5.0),
            "qty": np.full(100, 1),
            "city": np.array(["brand new city"] * 100, dtype=object),
        }
        inserted = maintainer.append("orders", batch)
        assert inserted[stratified.sample_table] == 100

    def test_append_mismatched_lengths_raises(self):
        connector = BuiltinConnector(seed=3)
        connector.load_table("orders", build_orders_columns(num_rows=1_000, seed=5))
        maintainer = SampleMaintainer(connector, MetadataStore(connector))
        with pytest.raises(SamplingError):
            maintainer.append("orders", {"order_id": np.arange(5), "price": np.arange(4)})

    def test_a_type_without_a_rule_changes_nothing(self):
        # The type comes back from the metadata table, where anything may stand.
        connector = BuiltinConnector(seed=3)
        connector.load_table("orders", build_orders_columns(num_rows=1_000, seed=5))
        metadata = MetadataStore(connector)
        metadata.record(SampleInfo("orders", "orders_s", "irregular", ("city",), 0.1, 1_000, 0))
        with pytest.raises(SamplingError, match="irregular"):
            SampleMaintainer(connector, metadata).append(
                "orders", build_orders_columns(num_rows=10, seed=6)
            )
        assert connector.row_count("orders") == 1_000


def _appended_rows(connector, info: SampleInfo, first_id: int) -> dict[str, np.ndarray]:
    """The sample's rows that came from the batch whose ids start at ``first_id``."""
    result = connector.execute(
        f"SELECT city, {PROBABILITY_COLUMN} AS p, {SID_COLUMN} AS sid "
        f"FROM {info.sample_table} WHERE order_id >= {first_id}"
    )
    return {
        "city": result.column("city"),
        "p": result.column("p").astype(np.float64),
        "sid": result.column("sid").astype(np.float64),
    }


class TestAppendedRowsFollowTheRule:
    """Maintenance evaluates the build's rule over the batch (both connectors)."""

    ROWS, BATCH, SUBSAMPLES = 20_000, 20_000, 10

    def _maintained(self, backend: str, spec: SampleSpec, batch: dict[str, np.ndarray]):
        connector = BuiltinConnector(seed=3) if backend == "builtin" else SqliteConnector(seed=3)
        connector.load_table("orders", build_orders_columns(num_rows=self.ROWS, seed=5))
        metadata = MetadataStore(connector)
        builder = SampleBuilder(connector, metadata, subsample_count=self.SUBSAMPLES)
        info = builder.create_sample("orders", spec)
        inserted = SampleMaintainer(connector, metadata).append("orders", batch)
        return connector, info, inserted[info.sample_table]

    def _batch(self) -> dict[str, np.ndarray]:
        batch = build_orders_columns(num_rows=self.BATCH, seed=77)
        batch["order_id"] = batch["order_id"] + self.ROWS
        return batch

    @pytest.mark.parametrize("backend", ["builtin", "sqlite"])
    @pytest.mark.parametrize(
        "spec",
        [
            SampleSpec("uniform", (), 0.2),
            SampleSpec("hashed", ("order_id",), 0.2),
            SampleSpec("stratified", ("city",), 0.1),
        ],
        ids=lambda spec: spec.sample_type,
    )
    def test_appended_sids_are_uniform_on_one_to_b(self, backend, spec):
        connector, info, inserted = self._maintained(backend, spec, self._batch())
        sids = _appended_rows(connector, info, self.ROWS)["sid"]
        assert len(sids) == inserted > 1_000
        assert set(np.unique(sids)) == set(range(1, self.SUBSAMPLES + 1))
        counts = np.bincount(sids.astype(np.int64), minlength=self.SUBSAMPLES + 1)[1:]
        assert stats.chisquare(counts).pvalue > 0.001, counts

    @pytest.mark.parametrize("backend", ["builtin", "sqlite"])
    def test_a_uniform_samples_appended_share_is_binomial_around_tau(self, backend):
        tau = 0.2
        connector, info, inserted = self._maintained(
            backend, SampleSpec("uniform", (), tau), self._batch()
        )
        band = 4 * math.sqrt(self.BATCH * tau * (1 - tau))
        assert abs(inserted - self.BATCH * tau) < band, inserted
        assert set(_appended_rows(connector, info, self.ROWS)["p"].tolist()) == {tau}

    @pytest.mark.parametrize("backend", ["builtin", "sqlite"])
    def test_stratified_appended_rows_carry_their_strata_probability(self, backend):
        batch = self._batch()
        batch["city"][: self.BATCH // 10] = "brand new city"
        connector, info, _ = self._maintained(
            backend, SampleSpec("stratified", ("city",), 0.01), batch
        )
        stored = dict(
            connector.execute(
                f"SELECT city, max({PROBABILITY_COLUMN}) AS p FROM {info.sample_table} "
                f"WHERE order_id < {self.ROWS} GROUP BY city"
            ).fetchall()
        )
        appended = _appended_rows(connector, info, self.ROWS)
        new_city = appended["city"] == "brand new city"
        assert new_city.sum() == self.BATCH // 10
        assert set(appended["p"][new_city].tolist()) == {1.0}
        for city, probability in zip(appended["city"][~new_city], appended["p"][~new_city]):
            assert probability == float(stored[city])
        assert set(appended["city"][~new_city].tolist()) == set(stored)


def _is_null(value) -> bool:
    return value is None or (isinstance(value, float) and np.isnan(value))


class TestNullStratum:
    """``GROUP BY`` keeps a NULL stratum, so the sample and its maintenance do too."""

    @pytest.mark.parametrize("column", ["city", "grade"])  # None / NaN keys
    @pytest.mark.parametrize("backend", ["builtin", "sqlite"])
    def test_null_stratum_is_sampled_answered_and_maintained(self, backend, column):
        rng = np.random.default_rng(4)
        rows = 20_000
        columns = {
            "id": np.arange(rows),
            "price": rng.normal(10.0, 2.0, rows),
            "city": rng.choice(np.array(["a", "b", None], dtype=object), rows),
            "grade": rng.choice([1.0, 2.0, np.nan], rows),
        }
        connector = BuiltinConnector(seed=2) if backend == "builtin" else SqliteConnector(seed=2)
        session = VerdictSession(connector=connector)
        try:
            session.load_table("t", columns)
            info = session.create_sample("t", SampleSpec("stratified", (column,), 0.01))
            strata = connector.execute(
                f"SELECT {column}, count(*) AS c, max({PROBABILITY_COLUMN}) AS p "
                f"FROM {info.sample_table} GROUP BY {column}"
            ).fetchall()
            null_strata = [row for row in strata if _is_null(row[0])]
            assert len(strata) == 3 and len(null_strata) == 1
            # Equation 1: at least 20000 * 0.01 / 3 rows in every stratum.
            assert all(float(row[1]) >= 50 for row in strata)

            answer = session.sql(f"SELECT {column}, count(*) AS c FROM t GROUP BY {column}")
            assert not answer.is_exact
            null_groups = [row for row in answer.fetchall() if _is_null(row[0])]
            true_nulls = int(np.sum([_is_null(value) for value in columns[column]]))
            assert len(null_groups) == 1
            assert float(null_groups[0][1]) == pytest.approx(true_nulls, rel=0.3)

            # Appended NULL rows join the NULL stratum at its stored probability.
            batch = {
                "id": np.arange(rows, rows + 1_000),
                "price": np.ones(1_000),
                "city": np.array([None] * 1_000, dtype=object),
                "grade": np.full(1_000, np.nan),
            }
            inserted = session.append_data("t", batch)[info.sample_table]
            assert inserted == pytest.approx(1_000 * float(null_strata[0][2]), abs=25)
        finally:
            session.close()


class TestMetadataStore:
    def test_round_trip(self):
        connector = BuiltinConnector(seed=0)
        connector.load_table("orders", {"x": np.arange(10)})
        store = MetadataStore(connector)
        from repro.sampling.params import SampleInfo

        info = SampleInfo(
            original_table="orders",
            sample_table="orders_s",
            sample_type="hashed",
            columns=("x",),
            ratio=0.1,
            original_rows=10,
            sample_rows=1,
            subsample_count=4,
        )
        store.record(info)
        loaded = store.samples_for("orders")
        assert loaded == [info]
        store.forget("orders_s")
        assert store.samples_for("orders") == []

    def test_effective_ratio_and_covers(self):
        from repro.sampling.params import SampleInfo

        info = SampleInfo("t", "t_s", "stratified", ("a", "b"), 0.01, 1000, 25, 100)
        assert info.effective_ratio == pytest.approx(0.025)
        assert info.key_ratio == info.effective_ratio
        # 400 rows of a NULL-only key, all kept: tau is 60 of the other 600 rows.
        hashed = SampleInfo("t", "t_h", "hashed", ("a",), 0.1, 1000, 460, 100, 400)
        assert hashed.key_ratio == pytest.approx(60 / 600)
        assert info.covers_columns(("A",))
        assert not info.covers_columns(("c",))
        assert info.matches_columns(("a", "b"))


class TestSampleTables:
    def test_every_sample_type_round_trips_through_metadata(self):
        connector = BuiltinConnector(seed=2)
        connector.load_table("orders", build_orders_columns(num_rows=20_000, seed=5))
        metadata = MetadataStore(connector)
        builder = SampleBuilder(connector, metadata, subsample_count=50)
        infos = [
            builder.create_sample("orders", spec)
            for spec in (
                SampleSpec("uniform", (), 0.1),
                SampleSpec("hashed", ("order_id",), 0.1),
                SampleSpec("stratified", ("city",), 0.1),
            )
        ]
        stored = {
            record.sample_table: record
            for record in MetadataStore(connector).samples_for("orders")
        }
        assert stored == {info.sample_table: info for info in infos}

    def test_outdated_metadata_schema_is_migrated(self):
        # A metadata table that still carries the legacy sid_clustered column
        # is rewritten to the current schema by the next write; its rows
        # survive.
        from repro.sampling import metadata as metadata_module

        connector = BuiltinConnector(seed=2)
        connector.load_table("orders", build_orders_columns(num_rows=20_000, seed=5))
        legacy_columns = [*metadata_module._COLUMNS, ("sid_clustered", "bigint")]
        connector.execute(
            ast.CreateTableStatement(
                table_name=metadata_module.METADATA_TABLE,
                columns=[ast.ColumnDefinition(n, t) for n, t in legacy_columns],
            )
        )
        connector.execute(
            f"INSERT INTO {metadata_module.METADATA_TABLE} VALUES "
            "('orders', 'orders_old_sample', 'uniform', '', 0.1, 20000, 2000, 100, 1)"
        )
        metadata = MetadataStore(connector)
        builder = SampleBuilder(connector, metadata, subsample_count=50)
        info = builder.create_sample("orders", SampleSpec("uniform", (), 0.1))
        assert connector.column_names(metadata_module.METADATA_TABLE) == [
            name for name, _ in metadata_module._COLUMNS
        ]
        stored = {record.sample_table: record for record in metadata.samples_for("orders")}
        assert stored["orders_old_sample"] == SampleInfo(
            original_table="orders",
            sample_table="orders_old_sample",
            sample_type="uniform",
            columns=(),
            ratio=0.1,
            original_rows=20_000,
            sample_rows=2_000,
            subsample_count=100,
        )
        assert stored[info.sample_table] == info

    def test_per_sid_reads_match_across_modes(self):
        results = []
        for optimize in (True, False):
            connector = BuiltinConnector(database=Database(seed=2, optimize=optimize))
            connector.load_table("orders", build_orders_columns(num_rows=20_000, seed=5))
            builder = SampleBuilder(connector, subsample_count=50)
            info = builder.create_sample("orders", SampleSpec("uniform", (), 0.2))
            result = connector.execute(
                f"SELECT count(*) AS n, sum(price) AS s FROM {info.sample_table} "
                "WHERE vdb_sid = 7"
            )
            results.append(result.fetchall())
        assert results[0] == results[1]
        assert results[0][0][0] > 0

    def test_per_sid_reads_find_appended_rows(self):
        connector = BuiltinConnector(seed=3)
        rng = np.random.default_rng(5)

        def batch(start, rows):
            return {
                "order_id": np.arange(start, start + rows),
                "price": rng.normal(10.0, 10.0, rows),
                "city": rng.choice(["a", "b", "c"], rows).astype(object),
            }

        connector.load_table("orders", batch(0, 20_000))
        metadata = MetadataStore(connector)
        builder = SampleBuilder(connector, metadata, subsample_count=100)
        info = builder.create_sample("orders", SampleSpec("uniform", (), 0.05))
        maintainer = SampleMaintainer(connector, metadata)
        inserted = maintainer.append("orders", batch(20_000, 5_000))
        assert inserted[info.sample_table] > 0
        # Appended rows carry random sids; reads by sid must find every row.
        sids = connector.database.table(info.sample_table).column(SID_COLUMN)
        for sid in (1, 37, 100):
            count = connector.execute(
                f"SELECT count(*) AS n FROM {info.sample_table} WHERE vdb_sid = {sid}"
            ).scalar()
            assert count == int(np.sum(sids == sid)), sid
