"""Machine assembly, Cells, tile groups, launches, host helpers."""

import pytest

import repro
from repro.arch.config import FeatureSet, MachineConfig, small_config
from repro.arch.geometry import CellGeometry
from repro.isa.program import kernel
from repro.noc.barrier import HwBarrierGroup, SwBarrierGroup
from repro.runtime.machine import Machine
from repro.runtime.tilegroup import partition_cell


@kernel("noop")
def noop_kernel(t, args):
    yield t.alu(t.reg())
    yield t.barrier()


@kernel("ranks")
def ranks_kernel(t, args):
    args.setdefault("seen", []).append(
        (t.group_index, t.group_rank, t.node, t.tile_x, t.tile_y))
    yield t.barrier()


class TestMachine:
    def test_core_per_tile(self, tiny_machine):
        assert len(tiny_machine.cores) == 16

    def test_cell_lookup(self, tiny_machine):
        assert tiny_machine.cell(0, 0) is tiny_machine.cells[(0, 0)]
        with pytest.raises(KeyError):
            tiny_machine.cell(3, 3)

    def test_multi_cell_machine(self):
        cfg = MachineConfig(name="m", cell=CellGeometry(2, 2),
                            cells_x=2, cells_y=2)
        machine = Machine(cfg)
        assert len(machine.cells) == 4
        assert len(machine.cores) == 16
        assert len(machine.memsys.hbm) == 4

    def test_elapsed_zero_before_launch(self, tiny_machine):
        assert tiny_machine.elapsed() == 0


class TestCellMalloc:
    def test_bump_allocation(self, cell):
        a = cell.malloc(100)
        b = cell.malloc(100)
        assert b >= a + 100
        assert a % 64 == 0 and b % 64 == 0

    def test_custom_alignment(self, cell):
        cell.malloc(5)
        addr = cell.malloc(8, align=256)
        assert addr % 256 == 0

    def test_invalid_malloc(self, cell):
        with pytest.raises(ValueError):
            cell.malloc(0)
        with pytest.raises(ValueError):
            cell.malloc(64, align=3)

    def test_pointer_encoding(self, cell):
        from repro.pgas import spaces

        off = cell.malloc(64)
        assert spaces.space_of(cell.local_dram(off)) is spaces.Space.LOCAL_DRAM
        g = spaces.decode(cell.group_dram(off))
        assert (g.field_a, g.field_b) == cell.cell_xy


class TestPokePeek:
    def test_roundtrip(self, cell):
        cell.poke(256, 42)
        assert cell.peek(256) == 42

    def test_default_zero(self, cell):
        assert cell.peek(0x3000) == 0


class TestLaunch:
    def test_launch_requires_kernel(self, cell):
        with pytest.raises(RuntimeError):
            cell.launch()

    def test_launch_covers_all_tiles(self, tiny_machine, cell):
        cell.load_kernel(ranks_kernel)
        args = {}
        handle = cell.launch(args)
        tiny_machine.run_to_completion([handle])
        assert len(args["seen"]) == 16
        nodes = {s[2] for s in args["seen"]}
        assert len(nodes) == 16

    def test_tile_xy_are_cell_local(self, tiny_machine, cell):
        cell.load_kernel(ranks_kernel)
        args = {}
        handle = cell.launch(args)
        tiny_machine.run_to_completion([handle])
        xs = {s[3] for s in args["seen"]}
        ys = {s[4] for s in args["seen"]}
        assert xs == set(range(4))
        assert ys == set(range(4))

    def test_cycles_requires_completion(self, cell):
        cell.load_kernel(noop_kernel)
        handle = cell.launch()
        with pytest.raises(RuntimeError):
            handle.cycles()

    def test_group_shapes(self, tiny_machine, cell):
        cell.load_kernel(ranks_kernel)
        args = {}
        handle = cell.launch(args, group_shape=(2, 2))
        tiny_machine.run_to_completion([handle])
        groups = {s[0] for s in args["seen"]}
        assert groups == {0, 1, 2, 3}
        assert len(cell.groups) == 4

    def test_invalid_group_shape(self, cell):
        cell.load_kernel(noop_kernel)
        with pytest.raises(ValueError):
            cell.launch(group_shape=(3, 3))


class TestTileGroups:
    def test_partition_shapes(self):
        from repro.arch.params import BarrierTiming
        from repro.engine import Simulator

        groups = partition_cell(Simulator(), CellGeometry(4, 4), (0, 0),
                                (2, 2), FeatureSet(), BarrierTiming())
        assert len(groups) == 4
        assert all(g.size == 4 for g in groups)
        members = [m for g in groups for m in g.members]
        assert len(set(members)) == 16

    def test_hw_barrier_selected(self):
        from repro.arch.params import BarrierTiming
        from repro.engine import Simulator

        groups = partition_cell(Simulator(), CellGeometry(4, 4), (0, 0),
                                (4, 4), FeatureSet(hw_barrier=True),
                                BarrierTiming())
        assert isinstance(groups[0].barrier, HwBarrierGroup)

    def test_sw_barrier_fallback(self):
        from repro.arch.params import BarrierTiming
        from repro.engine import Simulator

        groups = partition_cell(Simulator(), CellGeometry(4, 4), (0, 0),
                                (4, 4), FeatureSet(hw_barrier=False),
                                BarrierTiming())
        assert isinstance(groups[0].barrier, SwBarrierGroup)


class TestHostHelpers:
    def test_run_on_cell_result_fields(self, tiny_config):
        res = repro.run(tiny_config, noop_kernel)
        assert res.cycles > 0
        assert res.num_tiles == 16
        assert res.instructions > 0
        assert 0 <= res.core_utilization <= 1
        assert set(res.hbm) == {"read", "write", "busy", "idle"}
        assert res.machine is None

    def test_keep_machine(self, tiny_config):
        res = repro.run(tiny_config, noop_kernel, keep_machine=True)
        assert res.machine is not None

    def test_breakdown_fractions_sum_to_one(self, tiny_config):
        res = repro.run(tiny_config, noop_kernel)
        assert sum(res.core_breakdown.values()) == pytest.approx(1.0, abs=0.02)

    def test_setup_hook_replaces_args(self, tiny_config):
        @kernel("args_probe")
        def args_probe(t, args):
            args["visited"] = True
            yield t.barrier()

        prepared = {}
        res = repro.run(tiny_config, args_probe,
                        setup=lambda machine: prepared)
        assert res.cycles > 0
        assert prepared.get("visited")

    def test_run_on_cells_concurrent(self):
        cfg = MachineConfig(name="duo", cell=CellGeometry(2, 2), cells_x=2)
        session = repro.Session(cfg)
        session.launch(noop_kernel, cell=(0, 0))
        session.launch(noop_kernel, cell=(1, 0))
        results = session.run()
        assert len(results) == 2
        assert all(r.cycles > 0 for r in results)

    def test_determinism(self, tiny_config):
        from repro.kernels import registry

        a = repro.run(tiny_config, registry.SUITE["PR"].kernel,
                      registry.fast_args("PR"))
        b = repro.run(tiny_config, registry.SUITE["PR"].kernel,
                      registry.fast_args("PR"))
        assert a.cycles == b.cycles
        assert a.instructions == b.instructions
