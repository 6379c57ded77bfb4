"""Timing-level invariants of the benchmark kernels."""

import pytest

import repro
from repro.arch.config import FeatureSet, small_config
from repro.kernels import jacobi, sgemm
from repro.kernels.base import Layout, range_split, tile_id
from repro.kernels.registry import FIG11_ORDER, SUITE, fast_args


@pytest.fixture(scope="module")
def cfg():
    return small_config(4, 4)


class TestBaseHelpers:
    def test_layout_non_overlapping(self):
        layout = Layout()
        a = layout.array("a", 100)
        b = layout.array("b", 200)
        c = layout.words("c", 4)
        assert b >= a + 100
        assert c >= b + 200
        assert layout["a"] == a

    def test_layout_alignment(self):
        layout = Layout()
        layout.array("x", 3)
        assert layout.array("y", 8) % 64 == 0

    def test_range_split_covers_exactly(self):
        pieces = [range_split(103, 16, i) for i in range(16)]
        assert pieces[0][0] == 0
        assert pieces[-1][1] == 103
        for (a, b), (c, _d) in zip(pieces, pieces[1:]):
            assert b == c
        sizes = [b - a for a, b in pieces]
        assert max(sizes) - min(sizes) <= 1

    def test_range_split_more_parts_than_work(self):
        pieces = [range_split(3, 8, i) for i in range(8)]
        assert sum(b - a for a, b in pieces) == 3


class TestRegistry:
    def test_ten_kernels(self):
        assert len(SUITE) == 10

    def test_fig11_order_covers_suite(self):
        assert set(FIG11_ORDER) == set(SUITE)

    def test_dwarfs_assigned(self):
        assert all(b.dwarf for b in SUITE.values())

    def test_categories(self):
        cats = {b.category for b in SUITE.values()}
        assert cats == {"compute-low-comm", "compute-sequential",
                        "memory-irregular"}

    def test_fast_args_build(self):
        for name in SUITE:
            args = fast_args(name)
            assert isinstance(args, dict)


class TestKernelCharacter:
    """Each kernel's simulated character matches its Table-I class."""

    def test_compute_kernels_have_high_utilization(self, cfg):
        res = repro.run(cfg, SUITE["SW"].kernel, fast_args("SW"))
        assert res.core_utilization > 0.3

    def test_sw_has_high_branch_misses(self, cfg):
        res = repro.run(cfg, SUITE["SW"].kernel, fast_args("SW"),
                        keep_machine=True)
        cores = res.machine.active_cores()
        rates = [c.branch.miss_rate() for c in cores if c.branch.predictions]
        assert max(rates) > 0.15

    def test_bs_exercises_fdiv(self, cfg):
        res = repro.run(cfg, SUITE["BS"].kernel, fast_args("BS"))
        assert res.core_breakdown.get("stall_fdiv", 0) > 0.01

    def test_bs_is_fp_heavy(self, cfg):
        res = repro.run(cfg, SUITE["BS"].kernel, fast_args("BS"))
        assert res.fp_instructions > res.int_instructions

    def test_pr_stalls_on_memory(self, cfg):
        res = repro.run(cfg, SUITE["PR"].kernel, fast_args("PR"))
        mem_stall = (res.core_breakdown.get("stall_depend_load", 0)
                     + res.core_breakdown.get("stall_fence", 0)
                     + res.core_breakdown.get("stall_amo", 0))
        assert mem_stall > 0.15

    def test_aes_touches_little_dram(self, cfg):
        res = repro.run(cfg, SUITE["AES"].kernel, fast_args("AES"))
        assert res.hbm["read"] + res.hbm["write"] < 0.3

    def test_jacobi_spm_offloads_the_memory_system(self, cfg):
        """Group SPM keeps stencil traffic off the cache banks: fewer
        request packets and far less network queueing (Fig 14's point)."""
        spm = repro.run(cfg, jacobi.KERNEL,
                        jacobi.make_args(z_depth=16, iters=2,
                                         use_spm=True, tiles=16))
        dram = repro.run(cfg, jacobi.KERNEL,
                         jacobi.make_args(z_depth=16, iters=2,
                                          use_spm=False, tiles=16))
        assert spm.network["stall_cycles"] < dram.network["stall_cycles"]
        assert spm.hbm["read"] <= dram.hbm["read"] + 0.05

    def test_sgemm_work_fraction_scales_time(self, cfg):
        full = repro.run(cfg, sgemm.KERNEL, sgemm.make_args(n=16))
        half_args = sgemm.make_args(n=16)
        half_args["work_fraction"] = 0.5
        half = repro.run(cfg, sgemm.KERNEL, half_args)
        assert half.cycles < full.cycles


class TestFeatureSensitivity:
    """Feature toggles move performance the direction the paper claims."""

    def test_nonblocking_loads_help_pr(self):
        on = repro.run(small_config(4, 4), SUITE["PR"].kernel,
                       fast_args("PR"))
        off_cfg = small_config(4, 4, features=FeatureSet(nonblocking_loads=False))
        off = repro.run(off_cfg, SUITE["PR"].kernel, fast_args("PR"))
        assert on.cycles < off.cycles

    def test_write_validate_helps_aes_output(self):
        on = repro.run(small_config(4, 4), SUITE["AES"].kernel,
                       fast_args("AES"))
        off_cfg = small_config(4, 4, features=FeatureSet(write_validate=False))
        off = repro.run(off_cfg, SUITE["AES"].kernel, fast_args("AES"))
        assert on.cycles <= off.cycles

    def test_compression_reduces_request_flits(self):
        on = repro.run(small_config(4, 4), SUITE["SGEMM"].kernel,
                       fast_args("SGEMM"))
        off_cfg = small_config(4, 4, features=FeatureSet(load_compression=False))
        off = repro.run(off_cfg, SUITE["SGEMM"].kernel, fast_args("SGEMM"))
        assert on.network["flits"] < off.network["flits"]

    def test_ipoly_helps_barneshut(self):
        on = repro.run(small_config(4, 4), SUITE["BH"].kernel,
                       fast_args("BH"))
        off_cfg = small_config(4, 4, features=FeatureSet(ipoly_hashing=False))
        off = repro.run(off_cfg, SUITE["BH"].kernel, fast_args("BH"))
        assert on.cycles < off.cycles
