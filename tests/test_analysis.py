"""Tests for the analysis layer: metrics, figure generators, reports, paper data."""

import pytest

from repro.analysis import (
    DEFAULT_ENGINES,
    comparison_table_rows,
    dp_sweep_rows,
    figure3_checkpoint_sizes,
    figure4_iteration_phases,
    figure7_8_model_size_sweep,
    figure7_rows,
    figure8_rows,
    figure9_10_dp_sweep,
    figure11_12_frequency_sweep,
    format_table,
    frequency_sweep_rows,
    headline_speedups,
    ordering_matches,
    paper_data,
    print_rows,
    table1_model_zoo,
)


# ---------------------------------------------------------------------------
# Paper reference data sanity
# ---------------------------------------------------------------------------

def test_paper_data_covers_all_models_and_engines():
    for table in (paper_data.FIGURE7_THROUGHPUT_GBPS, paper_data.FIGURE8_ITERATION_TIME_S):
        assert set(table) == {"3B", "7B", "13B", "30B", "70B"}
        for row in table.values():
            assert set(row) == set(paper_data.ENGINES)


def test_paper_data_datastates_always_wins_figure7():
    for row in paper_data.FIGURE7_THROUGHPUT_GBPS.values():
        assert row["datastates"] == max(row.values())


def test_paper_data_frequency_tables_have_six_intervals():
    for table in (paper_data.FIGURE11_7B, paper_data.FIGURE12_13B):
        for metric in ("throughput_gbps", "iteration_time_s", "end_to_end_s"):
            assert set(table[metric]) == {10, 5, 4, 3, 2, 1}


# ---------------------------------------------------------------------------
# Metrics helpers
# ---------------------------------------------------------------------------

def test_ordering_matches_detects_agreement_and_disagreement():
    reference = {"deepspeed": 4, "async": 7, "torchsnapshot": 9, "datastates": 135}
    measured_good = {"deepspeed": 5, "async": 6, "torchsnapshot": 10, "datastates": 100}
    measured_bad = {"deepspeed": 50, "async": 6, "torchsnapshot": 10, "datastates": 20}
    assert ordering_matches(measured_good, reference, higher_is_better=True)
    assert not ordering_matches(measured_bad, reference, higher_is_better=True)


# ---------------------------------------------------------------------------
# Figure generators (small scales to keep tests fast)
# ---------------------------------------------------------------------------

def test_figure3_rows_include_paper_reference():
    rows = figure3_checkpoint_sizes(sizes=["3B", "7B"])
    assert len(rows) == 2
    assert rows[0]["paper_aggregate_gb"] == 45.0
    assert rows[0]["aggregate_checkpoint_gb"] > 0


def test_figure4_table_matches_paper_reference():
    table = figure4_iteration_phases()
    for size, row in paper_data.FIGURE4_PHASES_S.items():
        assert table[size]["forward_s"] == pytest.approx(row["forward"])


def test_figure7_and_8_rows_structure():
    results = figure7_8_model_size_sweep(sizes=["3B"], engines=["deepspeed", "datastates"],
                                         iterations=3)
    rows7 = figure7_rows(results)
    rows8 = figure8_rows(results)
    assert rows7[0]["model"] == "3B"
    assert rows7[0]["datastates"] > rows7[0]["deepspeed"]
    assert rows7[0]["paper_datastates"] == 135
    assert rows8[0]["datastates"] < rows8[0]["deepspeed"]


def test_dp_sweep_rows_show_shrinking_per_gpu_size():
    results = figure9_10_dp_sweep("13B", dp_degrees=(1, 2), engines=["deepspeed"], iterations=2)
    rows = dp_sweep_rows("13B", results)
    by_dp = {row["data_parallel"]: row for row in rows}
    assert by_dp[2]["ckpt_per_gpu_gb"] < by_dp[1]["ckpt_per_gpu_gb"]
    assert by_dp[2]["num_gpus"] == 2 * by_dp[1]["num_gpus"]
    assert by_dp[1]["paper_deepspeed"] == 16


def test_frequency_sweep_rows_structure():
    results = figure11_12_frequency_sweep("7B", intervals=(5, 1), engines=["datastates"],
                                          iterations=10)
    rows = frequency_sweep_rows("7B", results)
    assert {row["checkpoint_interval"] for row in rows} == {5, 1}
    for row in rows:
        assert "throughput_datastates" in row
        assert "paper_end_to_end_datastates" in row


def test_headline_speedups_meet_paper_lower_bound():
    results = figure7_8_model_size_sweep(sizes=["3B", "7B"], iterations=3)
    claims = headline_speedups(results)
    assert claims["min_checkpoint_speedup"] >= 2.0
    assert claims["max_checkpoint_speedup"] > claims["min_checkpoint_speedup"]
    assert claims["min_end_to_end_speedup"] >= 1.0


def test_default_engines_order_matches_paper_legend():
    assert DEFAULT_ENGINES == ["deepspeed", "async", "torchsnapshot", "datastates"]


# ---------------------------------------------------------------------------
# Report formatting
# ---------------------------------------------------------------------------

def test_format_table_renders_all_rows_and_columns():
    rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": None}]
    text = format_table(rows, title="demo")
    assert "demo" in text
    assert "2.50" in text
    assert "-" in text
    assert len(text.splitlines()) == 5


def test_format_table_empty():
    assert "(no rows)" in format_table([], title="empty")


def test_table1_model_zoo_lists_the_five_models_in_size_order():
    rows = table1_model_zoo()
    assert [row["model"] for row in rows] == ["3B", "7B", "13B", "30B", "70B"]
    billions = [row["parameters_billion"] for row in rows]
    assert billions == sorted(billions)
    for row in rows:
        assert row["hidden_dim"] % row["attention_heads"] == 0


def _engine_row(engine, **extra):
    return {"engine": engine, "label": engine.title(), "checkpoints": 2,
            "blocked_ms_per_iteration": 1.23456, "blocked_ms_per_iteration_mean": 2.34567,
            "blocked_seconds": 0.123456, "compute_seconds": 1.234567,
            "restore_seconds": 0.0123456, **extra}


def test_comparison_table_rows_round_each_measurement():
    (row,) = comparison_table_rows([_engine_row("datastates", restore_seconds=None)])
    assert row == {"engine": "datastates", "label": "Datastates", "ckpts": 2,
                   "blocked_ms_per_iter": 1.235, "blocked_ms_mean": 2.346,
                   "blocked_total_s": 0.1235, "compute_s": 1.2346, "restore_ms": None}


def test_comparison_table_rows_add_drain_and_dedup_columns_for_every_row():
    rows = comparison_table_rows([
        _engine_row("datastates", drain={"drained_checkpoints": 2, "evicted_checkpoints": 1,
                                         "drain_wait_seconds": 0.0015, "drain_wait_ms": 4.0}),
        _engine_row("deepspeed", dedup={"bytes_written": 10, "dedup_ratio": 0.123456}),
    ])
    assert rows[0]["restore_ms"] == 12.346
    assert (rows[0]["drained"], rows[0]["evicted"]) == (2, 1)
    assert (rows[0]["drain_wait_ms"], rows[0]["commit_stall_ms"]) == (1.5, 4.0)
    assert (rows[0]["bytes_written"], rows[0]["dedup_ratio"]) == (None, None)
    assert (rows[1]["drained"], rows[1]["drain_wait_ms"]) == (None, None)
    assert (rows[1]["bytes_written"], rows[1]["dedup_ratio"]) == (10, 0.1235)


def test_print_rows_prints_the_formatted_table(capsys):
    rows = [{"engine": "datastates", "gbps": 4.5}, {"engine": "deepspeed", "gbps": 0.3}]
    print_rows(rows, columns=["engine", "gbps"], title="Figure 7")
    printed = capsys.readouterr().out
    assert printed == format_table(rows, columns=["engine", "gbps"], title="Figure 7") + "\n"
    assert printed.splitlines()[0] == "Figure 7"
