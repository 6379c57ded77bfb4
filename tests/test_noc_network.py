"""The contention-aware network timing model."""

import pytest

from repro.arch.geometry import CellGeometry, ChipGeometry
from repro.arch.params import NocTiming
from repro.noc.network import Network
from repro.perf.bisection import LinkSeries
from repro.probe import Probe


@pytest.fixture
def chip():
    return ChipGeometry(CellGeometry(8, 4), cells_x=1, cells_y=1)


@pytest.fixture
def net(chip):
    return Network(chip, NocTiming(), ruche=False, order="xy")


class TestZeroLoad:
    def test_single_hop_latency(self, net):
        r = net.send((0, 0), (1, 0), flits=1, time=0)
        # inject 1 + hop (router 1 + link 1) + eject 1
        assert r.arrival == 4
        assert r.hops == 1
        assert r.stall_cycles == 0

    def test_latency_linear_in_hops(self, net):
        r1 = net.send((0, 0), (4, 0), flits=1, time=0)
        net.reset()
        r2 = net.send((0, 0), (2, 0), flits=1, time=0)
        assert r1.arrival - r2.arrival == 2 * 2  # 2 extra hops x 2 cycles

    def test_multi_flit_tail_latency(self, net):
        r1 = net.send((0, 0), (3, 0), flits=1, time=0)
        net.reset()
        r4 = net.send((0, 0), (3, 0), flits=4, time=0)
        assert r4.arrival - r1.arrival == 3

    def test_zero_load_latency_helper(self, net):
        predicted = net.zero_load_latency((0, 0), (5, 3))
        measured = net.send((0, 0), (5, 3), flits=1, time=0).arrival
        assert predicted == measured

    def test_rejects_zero_flits(self, net):
        with pytest.raises(ValueError):
            net.send((0, 0), (1, 0), flits=0, time=0)


class TestContention:
    def test_second_packet_stalls_behind_first(self, net):
        net.send((0, 0), (4, 0), flits=4, time=0)
        r = net.send((0, 0), (4, 0), flits=4, time=0)
        assert r.stall_cycles > 0

    def test_disjoint_paths_do_not_interact(self, net):
        net.send((0, 0), (4, 0), flits=4, time=0)
        r = net.send((0, 3), (4, 3), flits=4, time=0)
        assert r.stall_cycles == 0

    def test_link_busy_accounting(self, net):
        net.send((0, 0), (2, 0), flits=3, time=0)
        link = net.topology.link((0, 0), (1, 0))
        assert link.busy_cycles == 3
        assert link.packets == 1

    def test_saturation_throughput(self, net):
        # 100 single-flit packets over one link: last arrives ~100 cycles.
        last = 0.0
        for i in range(100):
            r = net.send((0, 0), (1, 0), flits=1, time=i * 0.0)
            last = r.arrival
        assert 100 <= last <= 110

    def test_counters(self, net):
        net.send((0, 0), (2, 2), flits=2, time=0)
        assert net.counters.get("packets") == 1
        assert net.counters.get("flits") == 2
        assert net.counters.get("hops") == 4

    def test_reset_clears_state(self, net):
        net.send((0, 0), (4, 0), flits=4, time=0)
        net.reset()
        r = net.send((0, 0), (4, 0), flits=4, time=0)
        assert r.stall_cycles == 0


class TestRuchePlane:
    def test_ruche_lowers_latency(self, chip):
        mesh = Network(chip, NocTiming(), ruche=False, order="xy")
        ruche = Network(chip, NocTiming(), ruche=True, order="xy")
        m = mesh.send((0, 2), (7, 2), 1, 0).arrival
        r = ruche.send((0, 2), (7, 2), 1, 0).arrival
        assert r < m

    def test_ruche_raises_cut_throughput(self, chip):
        mesh = Network(chip, NocTiming(), ruche=False, order="xy")
        ruche = Network(chip, NocTiming(), ruche=True, order="xy")
        # Saturate the row: many packets crossing the middle from spread
        # sources (different sources use different ruche lanes).
        for net in (mesh, ruche):
            for i in range(200):
                net.send((i % 4, 1), (7, 1), 1, 0)
        m_stall = mesh.counters.get("stall_cycles")
        r_stall = ruche.counters.get("stall_cycles")
        assert r_stall < m_stall


class TestSeriesRecording:
    def test_series_recorded_when_enabled(self, net):
        link = net.topology.link((0, 0), (1, 0))
        recorder = LinkSeries([link], bin_width=8)
        net._probe = Probe(recorder)
        net.send((0, 0), (3, 0), flits=2, time=0)
        series = recorder.series[link].series()
        assert sum(v for _t, v in series) == pytest.approx(2)

    def test_series_absent_by_default(self, net):
        assert net._probe is None
        assert not hasattr(net.topology.link((0, 0), (1, 0)), "series")
