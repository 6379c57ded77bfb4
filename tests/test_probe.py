"""The probe: one observer slot shared by trace, audit and sanitize."""

import itertools

import pytest

from repro.arch.config import HB_16x8
from repro.audit import audit_report
from repro.experiments.common import suite_args
from repro.kernels import registry
from repro.probe import EVENTS, AttachError, Probe, attach
from repro.sanitize import Sanitizer
from repro.session import Session
from repro.trace import Trace

#: Same pins as tests/test_engine_golden.py.
GOLDEN_CYCLES = {"AES": 4743, "PR": 2686}

#: Session flag per subscriber kind.
KINDS = ("trace", "audit", "sanitize")


class _Recorder:
    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def fence(self, node, time):
        self.log.append((self.tag, node, time))


class TestProbe:
    def test_single_handler_is_the_bound_method(self):
        recorder = _Recorder([], "a")
        probe = Probe(recorder)
        assert probe.fence == recorder.fence

    def test_fan_out_calls_every_handler_in_order(self):
        log = []
        probe = Probe(_Recorder(log, "a"), _Recorder(log, "b"))
        probe.fence((1, 1), 7)
        assert log == [("a", (1, 1), 7), ("b", (1, 1), 7)]

    def test_unhandled_events_are_no_ops(self):
        probe = Probe(_Recorder([], "a"))
        for name in EVENTS:
            if name != "fence":
                assert getattr(probe, name)(1, 2, 3) is None

    def test_attach_sets_every_slot(self, tiny_machine):
        probe = attach(tiny_machine, Sanitizer())
        memsys = tiny_machine.memsys
        assert tiny_machine.sim.probe is probe
        for component in (*tiny_machine.cores.values(), memsys,
                          *memsys.banks.values(), *memsys.hbm.values(),
                          *memsys.strips.values(),
                          memsys.req_net, memsys.resp_net):
            assert component._probe is probe


class TestAttachErrors:
    def test_attach_after_launch_raises(self):
        # A sanitizer attached after the launch missed the barrier groups
        # and the launch edge and reported 1047 false races on tiny PR.
        session = Session(HB_16x8)
        session.launch(registry.SUITE["PR"].kernel, suite_args("PR", "tiny"))
        with pytest.raises(AttachError, match="attach before launch"):
            attach(session.machine, Sanitizer())
        assert session.machine.sim.probe is None

    def test_second_attach_raises(self, tiny_machine):
        attach(tiny_machine, Trace())
        with pytest.raises(AttachError, match="already has a probe"):
            attach(tiny_machine, Sanitizer())


def _observed_run(name, flags):
    session = Session(HB_16x8, **{kind: True for kind in flags})
    session.launch(registry.SUITE[name].kernel, suite_args(name, "tiny"))
    result, = session.run()
    reports = {}
    if session.trace is not None:
        trace = session.trace
        reports["trace"] = (trace.report(), trace.tracks, trace.events)
    if session.auditor is not None:
        reports["audit"] = audit_report(session.auditor)
    if session.sanitizer is not None:
        reports["sanitize"] = session.sanitizer.report()
    return result.cycles, reports


@pytest.fixture(scope="module", params=sorted(GOLDEN_CYCLES))
def combos(request):
    """Every on/off combination of the three subscribers on one kernel."""
    name = request.param
    runs = {}
    for n in range(len(KINDS) + 1):
        for flags in itertools.combinations(KINDS, n):
            runs[flags] = _observed_run(name, flags)
    return name, runs


class TestSubscriberParity:
    def test_cycles_identical_in_every_combination(self, combos):
        name, runs = combos
        assert len(runs) == 8
        assert {cycles for cycles, _reports in runs.values()} == {
            GOLDEN_CYCLES[name]}

    def test_each_report_matches_its_solo_run(self, combos):
        _name, runs = combos
        for flags, (_cycles, reports) in runs.items():
            assert sorted(reports) == sorted(flags)
            for kind in flags:
                assert reports[kind] == runs[(kind,)][1][kind], (flags, kind)

    def test_audited_and_sanitized_runs_are_clean(self, combos):
        _name, runs = combos
        _cycles, reports = runs[KINDS]
        assert reports["audit"]["clean"]
        assert reports["sanitize"]["clean"]
