"""Integration tests: every experiment module runs and produces sane records."""


from repro.experiments import (
    figure4_speedups,
    figure5_scaleup,
    figure6_integrated,
    figure7_estimation_cost,
    figure8_correctness,
    figure10_actual_errors,
    figure11_preparation,
    figure12_14_tradeoffs,
    harness,
    table2_native_approx,
)


class TestHarness:
    def test_workbench_builds_samples(self):
        bench = harness.build_tpch_workbench(scale_factor=0.2, sample_ratio=0.05)
        assert bench.verdict.samples("lineitem")
        assert bench.dataset_rows["lineitem"] == 12_000

    def test_mean_relative_error_alignment(self):
        bench = harness.build_tpch_workbench(scale_factor=0.2, sample_ratio=0.1)
        sql = "SELECT l_returnflag, count(*) AS c FROM lineitem GROUP BY l_returnflag"
        exact = bench.verdict.execute_exact(sql)
        approx = bench.verdict.sql(sql)
        error = harness.mean_relative_error(exact, approx)
        assert 0.0 <= error < 0.5

    def test_format_records(self):
        text = harness.format_records([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        assert "a" in text and "2.500" in text
        assert harness.format_records([]) == "(no records)"


class TestExperimentRuns:
    def test_figure4(self):
        records = figure4_speedups.run(
            engine="redshift", scale_factor=0.3, queries={"tq-1", "tq-6", "iq-1"}
        )
        assert {record["query"] for record in records} == {"tq-1", "tq-6", "iq-1"}
        assert all(record["speedup"] > 0 for record in records)
        summary = figure4_speedups.summarize(records)
        assert summary["average_speedup"] > 0

    def test_figure5_speedup_grows_with_data(self):
        records = figure5_scaleup.run(
            scale_factors=(0.3, 1.5), fixed_sample_rows=900, queries=("tq-6",)
        )
        assert len(records) == 2
        assert records[1]["speedup"] > records[0]["speedup"]

    def test_figure6(self):
        records = figure6_integrated.run(scale_factor=0.3, queries={"tq-6", "iq-1"})
        assert len(records) == 2
        assert all(record["verdictdb_seconds"] > 0 for record in records)

    def test_table2_count_distinct_shape(self):
        records = table2_native_approx.run(scale_factor=0.5)
        by_key = {(record["aggregate"], record["method"]): record for record in records}
        # Sampling-based count-distinct must be faster than the full-scan sketch.
        assert (
            by_key[("count-distinct", "verdictdb")]["seconds"]
            < by_key[("count-distinct", "native")]["seconds"]
        )
        # Both stay reasonably accurate.
        assert all(record["relative_error"] < 0.2 for record in records)

    def test_figure7_variational_is_cheapest_error_estimator(self):
        records = figure7_estimation_cost.run(scale_factor=1.0, sample_ratio=0.1)
        assert {record["query_shape"] for record in records} == {"flat", "join", "nested"}
        for record in records:
            assert (
                record["variational_seconds"]
                < record["consolidated_bootstrap_seconds"]
            )
            assert (
                record["variational_seconds"] < record["traditional_subsampling_seconds"]
            )

    def test_figure8_estimates_track_groundtruth(self):
        records = figure8_correctness.run_selectivity_sweep(
            selectivities=(0.2, 0.8), trials=15, sample_size=5_000
        )
        for record in records:
            ratio = record["estimated_relative_error"] / record["groundtruth_relative_error"]
            assert 0.5 < ratio < 2.0
        # Error decreases as selectivity increases (larger counts).
        assert records[1]["groundtruth_relative_error"] < records[0]["groundtruth_relative_error"]

    def test_figure8_sample_size_sweep_has_all_methods(self):
        records = figure8_correctness.run_sample_size_sweep(
            sample_sizes=(5_000,), trials=3
        )
        assert {record["method"] for record in records} == {
            "clt", "bootstrap", "subsampling", "variational",
        }

    def test_figure10(self):
        records = figure10_actual_errors.run(scale_factor=0.3, queries={"tq-1", "iq-6"})
        assert all(0.0 <= record["relative_error"] < 1.0 for record in records)

    def test_figure11_sampling_cheaper_than_wan_transfer(self):
        records = figure11_preparation.run(scale_factor=0.5)
        by_task = {record["task"]: record["seconds"] for record in records}
        sampling = by_task["verdictdb stratified sampling (measured)"]
        transfer = by_task["data transfer to remote cluster (modelled)"]
        assert sampling > 0 and transfer > 0
        assert by_task["verdictdb hashed sampling (measured)"] > 0

    def test_figure12_14(self):
        records = figure12_14_tradeoffs.run_subsample_size_sweep(
            exponents=(0.25, 0.5, 0.75), sample_size=20_000, trials=3
        )
        assert len(records) == 3
        assert all(record["relative_error_of_bound"] >= 0 for record in records)
