"""The Session facade: parity with the legacy path, multi-launch, tracing."""

import pytest

import repro
from repro.arch.config import small_config
from repro.kernels import registry
from repro.runtime.machine import Machine
from repro.session import Session, collect, run


def _tiny(name):
    bench = registry.SUITE[name]
    return bench.kernel, registry.fast_args(name)


class TestOneShotRun:
    def test_matches_legacy_run_on_cell(self, tiny_config):
        kernel, args = _tiny("AES")
        new = run(tiny_config, kernel, args)
        # The legacy drive order, spelled out on a bare Machine.
        kernel, args = _tiny("AES")
        machine = Machine(tiny_config)
        cell = machine.cell(0, 0)
        cell.load_kernel(kernel)
        handle = cell.launch(args)
        cycles = machine.run_to_completion([handle])
        old = collect(machine, handle, cycles, kernel.name)
        assert new.cycles == old.cycles
        assert new.instructions == old.instructions
        assert new.core_breakdown == old.core_breakdown

    def test_requires_kernel(self, tiny_config):
        with pytest.raises(TypeError):
            run(tiny_config)

    def test_defaults_to_hb16x8(self):
        kernel, args = _tiny("AES")
        result = run(kernel=kernel, args=args)
        assert result.config_name == "HB-16x8"

    def test_exported_at_top_level(self, tiny_config):
        kernel, args = _tiny("AES")
        result = repro.run(tiny_config, kernel, args)
        assert result.cycles > 0


class TestSession:
    def test_launch_then_run(self, tiny_config):
        session = Session(tiny_config)
        kernel, args = _tiny("PR")
        handle = session.launch(kernel, args)
        batch = session.run()
        assert len(batch) == 1
        assert batch[0].cycles == handle.cycles()
        assert session.results == batch

    def test_run_without_launch_raises(self, tiny_config):
        with pytest.raises(RuntimeError):
            Session(tiny_config).run()

    def test_multi_cell_launches(self):
        config = small_config(2, 2)
        config = config.with_geometry(cells_x=2)
        session = Session(config)
        kernel, args = _tiny("AES")
        session.launch(kernel, args, cell=(0, 0))
        kernel, args = _tiny("AES")
        session.launch(kernel, args, cell=(1, 0))
        batch = session.run()
        assert len(batch) == 2
        assert all(r.cycles > 0 for r in batch)

    def test_setup_return_replaces_args(self, tiny_config):
        session = Session(tiny_config)
        kernel, args = _tiny("AES")
        seen = {}

        def setup(machine):
            seen["machine"] = machine
            return args

        session.launch(kernel, None, setup=setup)
        result, = session.run()
        assert seen["machine"] is session.machine
        assert result.cycles > 0

    def test_keep_machine(self, tiny_config):
        session = Session(tiny_config)
        kernel, args = _tiny("AES")
        session.launch(kernel, args)
        result, = session.run(keep_machine=True)
        assert result.machine is session.machine

    def test_trace_flag_attaches_tracer(self, tiny_config):
        session = Session(tiny_config, trace=True)
        assert session.trace is not None
        assert session.sim.probe.tile_stall == session.trace.tile_stall
        kernel, args = _tiny("AES")
        session.launch(kernel, args)
        result, = session.run()
        assert result.trace is session.trace

    def test_untraced_session_has_no_tracer(self, tiny_config):
        session = Session(tiny_config)
        assert session.trace is None
        assert session.sim.probe is None

