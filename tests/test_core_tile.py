"""Tile-core pipeline timing, driven through a real (tiny) machine."""

import pytest

import repro
from repro.arch.config import FeatureSet, small_config
from repro.core import stall as st
from repro.isa.program import kernel
from repro.runtime.machine import Machine


def run_single(kern, args=None, features=None, tiles=(2, 2)):
    cfg = small_config(*tiles, features=features)
    return repro.run(cfg, kern, args)


def single_core_counters(kern, args=None, features=None):
    cfg = small_config(2, 2, features=features)
    machine = Machine(cfg)
    cell = machine.cell(0, 0)
    cell.load_kernel(kern)
    handle = cell.launch(args)
    machine.run_to_completion([handle])
    return handle.cores[0], machine


class TestComputeTiming:
    def test_int_ops_are_one_per_cycle(self):
        @kernel("ints")
        def ints(t, args):
            r = t.reg()
            for _ in range(100):
                yield t.alu(r)
            yield t.barrier()

        core, _m = single_core_counters(ints)
        assert core.counters.get(st.EXEC_INT) == 101  # +barrier op

    def test_independent_fp_pipeline(self):
        @kernel("fp_indep")
        def fp_indep(t, args):
            regs = t.regs(8)
            for _ in range(10):
                for r in regs:
                    yield t.fma(r, [])
            yield t.barrier()

        core, _m = single_core_counters(fp_indep)
        assert core.counters.get(st.STALL_BYPASS) == 0

    def test_dependent_fma_chain_stalls(self):
        @kernel("fp_chain")
        def fp_chain(t, args):
            acc = t.reg()
            for _ in range(10):
                yield t.fma(acc, [acc])
            yield t.barrier()

        core, _m = single_core_counters(fp_chain)
        # fma latency 3, issue 1 -> up to 2 bypass stalls per dependent
        # fma; icache refills give some instructions free slack.
        assert 10 <= core.counters.get(st.STALL_BYPASS) <= 18

    def test_fdiv_structural_hazard(self):
        @kernel("divs")
        def divs(t, args):
            for _ in range(3):
                yield t.fdiv(t.reg(), [])
            yield t.barrier()

        core, _m = single_core_counters(divs)
        assert core.counters.get(st.STALL_FDIV) > 40  # iterative unit busy

    def test_branch_flush_accounted(self):
        @kernel("branches")
        def branches(t, args):
            for _ in range(10):
                yield t.branch_fwd(taken=True)  # always mispredicts
            yield t.barrier()

        core, _m = single_core_counters(branches)
        assert core.counters.get(st.STALL_BRANCH) == 20
        assert core.branch.mispredictions == 10

    def test_icache_miss_on_cold_code(self):
        @kernel("straightline")
        def straightline(t, args):
            r = t.reg()
            for _ in range(64):
                yield t.alu(r)
            yield t.barrier()

        core, _m = single_core_counters(straightline)
        assert core.counters.get(st.STALL_ICACHE) > 0
        assert core.icache.misses >= 16


class TestMemoryTiming:
    def test_local_spm_load_use(self):
        @kernel("spm_loaduse")
        def spm_loaduse(t, args):
            for i in range(10):
                ld = t.load(t.spm(4 * i))
                yield ld
                yield t.alu(t.reg(), [ld.dst])
            yield t.barrier()

        core, _m = single_core_counters(spm_loaduse)
        assert core.counters.get(st.STALL_DEPEND_LOAD) > 0

    def test_nonblocking_loads_overlap(self):
        @kernel("gather")
        def gather(t, args):
            lds = []
            for i in range(16):
                ld = t.load(t.local_dram(64 * i))
                yield ld
                lds.append(ld.dst)
            acc = t.reg()
            for r in lds:
                yield t.fma(acc, [acc, r])
            yield t.fence()
            yield t.barrier()

        @kernel("gather_blocking")
        def gather_blocking(t, args):
            for i in range(16):
                ld = t.load(t.local_dram(64 * i))
                yield ld
                yield t.fma(t.reg(), [ld.dst])
            yield t.fence()
            yield t.barrier()

        nb = run_single(gather)
        blocking_feats = FeatureSet(nonblocking_loads=False)
        bl = run_single(gather_blocking, features=blocking_feats)
        assert nb.cycles < bl.cycles / 2

    def test_scoreboard_limit_enforced(self):
        @kernel("flood")
        def flood(t, args):
            top = t.loop_top()
            for i in range(200):
                yield t.load(t.local_dram(64 * i))
                yield t.branch_back(top, taken=(i < 199))
            yield t.fence()
            yield t.barrier()

        core, _m = single_core_counters(flood)
        assert core.scoreboard.peak <= 63
        assert core.counters.get(st.STALL_CREDIT) > 0

    def test_fence_waits_for_stores(self):
        @kernel("store_fence")
        def store_fence(t, args):
            r = t.reg()
            yield t.alu(r)
            for i in range(8):
                yield t.store(t.local_dram(4 * i), srcs=[r])
            yield t.fence()
            yield t.barrier()

        core, _m = single_core_counters(store_fence)
        assert core.counters.get(st.STALL_FENCE) > 0

    def test_amo_returns_serialized_values(self):
        got = {}

        @kernel("amo")
        def amo(t, args):
            mine = []
            for _ in range(5):
                old = yield t.amoadd(t.local_dram(0), 1)
                mine.append(old)
            got[t.group_rank] = mine
            yield t.barrier()

        run_single(amo)
        everything = sorted(v for vals in got.values() for v in vals)
        assert everything == list(range(4 * 5))  # 4 tiles x 5 adds, unique

    def test_vecload_with_compression_single_credit(self):
        @kernel("vec")
        def vec(t, args):
            vl = t.vload(t.local_dram(0))
            yield vl
            acc = t.reg()
            for r in vl.dsts:
                yield t.fma(acc, [acc, r])
            yield t.fence()
            yield t.barrier()

        core, _m = single_core_counters(vec)
        assert core.scoreboard.total_issued == 1

    def test_vecload_expands_without_compression(self):
        @kernel("vec2")
        def vec2(t, args):
            yield t.vload(t.local_dram(0))
            yield t.fence()
            yield t.barrier()

        feats = FeatureSet(load_compression=False)
        core, _m = single_core_counters(vec2, features=feats)
        assert core.scoreboard.total_issued == 4


class TestBreakdown:
    def test_breakdown_covers_total(self):
        @kernel("mix")
        def mix(t, args):
            for i in range(20):
                ld = t.load(t.local_dram(64 * i))
                yield ld
                yield t.fma(t.reg(), [ld.dst])
                yield t.branch_back(0, taken=(i < 19))
            yield t.fence()
            yield t.barrier()

        core, _m = single_core_counters(mix)
        bd = core.breakdown()
        total = core.total_cycles()
        assert sum(bd.values()) == pytest.approx(total, rel=0.01)

    def test_sleep_counts_idle(self):
        @kernel("sleepy")
        def sleepy(t, args):
            yield t.sleep(50)
            yield t.barrier()

        core, _m = single_core_counters(sleepy)
        assert core.counters.get(st.STALL_IDLE) == 50
