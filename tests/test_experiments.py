"""Experiment harnesses run end-to-end (tiny sizes) and report sane shapes."""

import pytest

from repro.experiments import (
    common,
    fig03_bisection_transfer,
    fig04_barrier,
    fig10_incremental,
    fig11_utilization,
    fig13_energy,
    tables,
)


class TestCommon:
    def test_suite_args_sizes(self):
        tiny = common.suite_args("AES", "tiny")
        small = common.suite_args("AES", "small")
        assert small["total_blocks"] > tiny["total_blocks"]

    @pytest.mark.parametrize("size", common.SIZES)
    def test_suite_args_fresh_objects_at_every_size(self, size):
        # Args must be rebuilt per call: kernels with functional shared
        # state (BFS) mutate them while running.
        a = common.suite_args("BFS", size)
        b = common.suite_args("BFS", size)
        assert a is not b
        assert a["state"] is not b["state"]

    def test_invalid_size(self):
        with pytest.raises(ValueError, match="size"):
            common.suite_args("AES", "huge")

    @pytest.mark.parametrize("size", common.SIZES)
    def test_unknown_kernel_raises_at_every_size(self, size):
        with pytest.raises(ValueError, match="unknown suite kernel"):
            common.suite_args("NotAKernel", size)

    def test_suite_jobs_declarative(self):
        from repro.arch.config import HB_16x8

        jobs = common.suite_jobs("figX", HB_16x8, size="tiny",
                                 kernels=["AES", "PR"], key_prefix="a/")
        assert [j.key for j in jobs] == ["a/AES", "a/PR"]
        assert all(j.experiment == "figX" for j in jobs)
        assert all(j.config is not None for j in jobs)

    def test_run_suite_subset(self, tiny_config):
        results = common.run_suite(tiny_config, size="tiny",
                                   kernels=["AES", "BS"])
        assert set(results) == {"AES", "BS"}

    def test_geomean_speedup(self, tiny_config):
        results = common.run_suite(tiny_config, size="tiny", kernels=["AES"])
        assert common.geomean_speedup(results, results) == pytest.approx(1.0)


class TestFig03:
    def test_small_transfer(self):
        out = fig03_bisection_transfer.run(
            transfer_bytes=16 * 1024, tiles_x=4, tiles_y=4, bin_width=64)
        assert out["cycles"] > 0
        assert 0 < out["active_utilization"] <= 1
        assert out["wide_channel_efficiency"] == pytest.approx(4 / 128)
        assert out["series"], "utilization series should be recorded"

    def test_vertical_orientation(self):
        out = fig03_bisection_transfer.run(
            transfer_bytes=16 * 1024, orientation="vertical",
            tiles_x=4, tiles_y=4)
        assert out["cut_links"] > 0
        assert out["active_utilization"] > 0

    def test_invalid_orientation(self):
        with pytest.raises(ValueError):
            fig03_bisection_transfer.run(orientation="diagonal")

    def test_word_network_beats_wide_channels(self):
        out = fig03_bisection_transfer.run(
            transfer_bytes=16 * 1024, tiles_x=4, tiles_y=4)
        # The Fig 3 claim: sparse data moves efficiently on HB, terribly
        # on 1024-bit channels.
        assert out["active_utilization"] > 10 * out["wide_channel_efficiency"]

    def test_series_pinned(self):
        # Pins the bisection utilization series bin for bin on the
        # full-size 16x8 Cells, so a change to how the per-link
        # reservations are recorded cannot move Fig 3's y-axis.
        out = fig03_bisection_transfer.run(
            transfer_bytes=64 * 1024, orientation="horizontal", bin_width=64)
        assert out["cycles"] == 896
        assert out["series"] == [
            (0, 0.064453125), (64, 0.3228515625), (128, 0.320703125),
            (192, 0.319921875), (256, 0.3232421875), (320, 0.31640625),
            (384, 0.3232421875), (448, 0.3216796875), (512, 0.3220703125),
            (576, 0.3224609375), (640, 0.211328125), (704, 0.031640625),
        ]


class TestFig04:
    def test_paper_example(self):
        out = fig04_barrier.run()
        assert out["in_sweep_16x8"] == 8

    def test_analytic_matches_simulation(self):
        out = fig04_barrier.run()
        for row in out["rows"]:
            assert row["hw_ruche_sim"] == pytest.approx(row["hw_ruche"])

    def test_sw_grows_much_faster(self):
        out = fig04_barrier.run()
        first, last = out["rows"][0], out["rows"][-1]
        hw_growth = last["hw_ruche"] / first["hw_ruche"]
        sw_growth = last["sw"] / first["sw"]
        assert sw_growth > 2 * hw_growth


class TestFig10:
    def test_tiny_ladder_improves(self):
        out = fig10_incremental.run(size="tiny", kernels=["PR"],
                                    tiles_x=4, tiles_y=4)
        assert out["final_geomean"] > 1.0
        assert len(out["rungs"]) == 10

    def test_speedups_relative_to_first_rung(self):
        out = fig10_incremental.run(size="tiny", kernels=["AES"],
                                    tiles_x=4, tiles_y=4)
        first = out["rungs"][0]
        assert out["speedups"][first]["AES"] == pytest.approx(1.0)


class TestFig11:
    def test_breakdowns_well_formed(self):
        from repro.arch.config import small_config
        from repro.experiments import common as c

        results = c.run_suite(small_config(4, 4), size="tiny",
                              kernels=["AES", "PR"])
        for r in results.values():
            assert sum(r.core_breakdown.values()) == pytest.approx(1.0, abs=0.02)
            assert sum(r.hbm.values()) == pytest.approx(1.0, abs=0.35)

    def test_order_is_fig11(self):
        from repro.kernels.registry import FIG11_ORDER

        assert FIG11_ORDER[0] == "PR"
        assert FIG11_ORDER[-1] == "AES"


class TestFig13:
    def test_band(self):
        out = fig13_energy.run()
        assert out["min_ratio"] == pytest.approx(3.6, abs=0.15)
        assert out["max_ratio"] == pytest.approx(15.1, abs=0.15)
        assert out["kernel_energy_pj"] > 0


class TestTables:
    def test_table1(self):
        out = tables.table1(scale=0.1)
        assert len(out["benchmarks"]) == 10
        assert len(out["graphs"]) == 5

    def test_table2_matches_published(self):
        rows = {r["name"]: r for r in tables.table2()}
        assert rows["HB-16x8"]["cell_cache_mb"] == 1.0
        assert rows["HB-32x8"]["cell_cache_mb"] == 2.0
        assert rows["HB-2x16x8"]["hbm_scale"] == 0.5

    def test_table4_hb_is_reference(self):
        rows = {r["name"]: r for r in tables.table4()}
        assert rows["HammerBlade"]["our_core_x"] == pytest.approx(1.0)
        assert rows["ET-SoC-1"]["our_core_x"] == pytest.approx(41.4, abs=0.5)
