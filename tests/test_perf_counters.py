"""perf.counters aggregation helpers."""

import pytest

from repro.perf.counters import (
    instructions_per_cycle,
    merge_breakdowns,
    ordered_breakdown,
    speedups,
)
from repro.runtime.result import RunResult


def make_result(cycles=100.0, tiles=4, breakdown=None, instr=50.0):
    breakdown = breakdown or {"int": 0.5, "stall_idle": 0.5}
    return RunResult(
        config_name="c", kernel_name="k", cycles=cycles, num_tiles=tiles,
        instructions=instr, int_instructions=instr, fp_instructions=0.0,
        core_breakdown=breakdown, core_utilization=breakdown.get("int", 0),
        hbm={"read": 0, "write": 0, "busy": 0, "idle": 1},
        cache_hit_rate=None, network={},
    )


class TestOrderedBreakdown:
    def test_orders_and_filters_zeroes(self):
        r = make_result(breakdown={"stall_idle": 0.3, "int": 0.7,
                                   "stall_fdiv": 0.0})
        out = ordered_breakdown(r)
        assert list(out) == ["int", "stall_idle"]

    def test_other_category_kept(self):
        r = make_result(breakdown={"int": 0.9, "other": 0.1})
        assert "other" in ordered_breakdown(r)


class TestMerge:
    def test_weighted_average(self):
        a = make_result(cycles=100, tiles=1, breakdown={"int": 1.0})
        b = make_result(cycles=100, tiles=1, breakdown={"int": 0.0,
                                                        "stall_idle": 1.0})
        merged = merge_breakdowns([a, b])
        assert merged["int"] == pytest.approx(0.5)

    def test_weights_by_tile_cycles(self):
        a = make_result(cycles=100, tiles=3, breakdown={"int": 1.0})
        b = make_result(cycles=100, tiles=1, breakdown={"stall_idle": 1.0})
        merged = merge_breakdowns([a, b])
        assert merged["int"] == pytest.approx(0.75)

    def test_empty(self):
        assert merge_breakdowns([]) == {}


class TestSpeedups:
    def test_basic(self):
        out = speedups({"k": 200.0}, {"k": 100.0})
        assert out["k"] == pytest.approx(2.0)

    def test_missing_kernels_skipped(self):
        out = speedups({"k": 200.0, "j": 100.0}, {"k": 100.0})
        assert set(out) == {"k"}

    def test_zero_cycles_skipped(self):
        assert speedups({"k": 100.0}, {"k": 0.0}) == {}


def test_instructions_per_cycle():
    rs = [make_result(cycles=100, instr=50), make_result(cycles=100, instr=150)]
    assert instructions_per_cycle(rs) == pytest.approx(1.0)
    assert instructions_per_cycle([]) == 0.0
