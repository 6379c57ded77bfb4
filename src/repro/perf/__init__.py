"""Performance reporting: breakdowns, bisection stats, text rendering."""

from .bisection import (
    BisectionStats,
    LinkSeries,
    cell_bisection,
    horizontal_cut,
    utilization_series,
    vertical_cut,
)
from .counters import (
    BREAKDOWN_ORDER,
    HBM_ORDER,
    instructions_per_cycle,
    merge_breakdowns,
    ordered_breakdown,
    speedups,
)
from .report import (
    format_bars,
    format_series,
    format_stacked,
    format_table,
    speedup_table,
)

__all__ = [
    "BisectionStats",
    "vertical_cut",
    "horizontal_cut",
    "cell_bisection",
    "LinkSeries",
    "utilization_series",
    "BREAKDOWN_ORDER",
    "HBM_ORDER",
    "ordered_breakdown",
    "merge_breakdowns",
    "speedups",
    "instructions_per_cycle",
    "format_table",
    "format_bars",
    "format_stacked",
    "format_series",
    "speedup_table",
]
