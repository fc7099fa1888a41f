"""Analysis layer: metrics, paper reference data, figure generators, text reports."""

from . import paper_data
from .figures import (
    DEFAULT_ENGINES,
    dp_sweep_rows,
    figure3_checkpoint_sizes,
    figure4_iteration_phases,
    figure7_8_model_size_sweep,
    figure7_rows,
    figure8_rows,
    figure9_10_dp_sweep,
    figure11_12_frequency_sweep,
    frequency_sweep_rows,
    headline_speedups,
    table1_model_zoo,
)
from .metrics import ordering_matches
from .real_compare import compare_real_engines, comparison_table_rows, run_real_engine
from .replay import calibrate_engine, replay_config, replay_table_rows, replay_trace
from .report import format_table, print_rows

__all__ = [
    "paper_data",
    "DEFAULT_ENGINES",
    "table1_model_zoo",
    "figure3_checkpoint_sizes",
    "figure4_iteration_phases",
    "figure7_8_model_size_sweep",
    "figure7_rows",
    "figure8_rows",
    "figure9_10_dp_sweep",
    "dp_sweep_rows",
    "figure11_12_frequency_sweep",
    "frequency_sweep_rows",
    "headline_speedups",
    "ordering_matches",
    "format_table",
    "print_rows",
    "run_real_engine",
    "compare_real_engines",
    "comparison_table_rows",
    "calibrate_engine",
    "replay_config",
    "replay_table_rows",
    "replay_trace",
]
