"""Reporting utilities: breakdown aggregation, bisection stats, rendering."""

import pytest

from repro.arch.geometry import CellGeometry, ChipGeometry
from repro.arch.params import NocTiming
from repro.noc.network import Network
from repro.perf.bisection import (
    BisectionStats,
    LinkSeries,
    cell_bisection,
    utilization_series,
    vertical_cut,
)
from repro.perf.report import (
    format_bars,
    format_series,
    format_stacked,
    format_table,
    speedup_table,
)
from repro.probe import Probe


@pytest.fixture
def net():
    chip = ChipGeometry(CellGeometry(8, 4), 1, 1)
    return Network(chip, NocTiming(), ruche=True, order="xy")


@pytest.fixture
def recorder(net):
    series = LinkSeries(net.topology.cut_links_x(3.5), bin_width=16)
    net._probe = Probe(series)
    return series


class TestBisection:
    def test_stats_after_traffic(self, net):
        for i in range(50):
            net.send((0, 1), (7, 1), 1, i)
        stats = vertical_cut(net, 3.5, elapsed=100)
        assert stats.packets > 0
        assert stats.busy_cycles > 0
        assert 0 <= stats.utilization <= 1

    def test_active_vs_total_utilization(self, net):
        for i in range(50):
            net.send((0, 1), (7, 1), 1, i)
        stats = vertical_cut(net, 3.5, elapsed=100)
        assert stats.active_links < stats.num_links
        assert stats.active_utilization >= stats.utilization

    def test_idle_cut_zeroes(self, net):
        stats = vertical_cut(net, 3.5, elapsed=100)
        assert stats.utilization == 0.0
        assert stats.stall_fraction == 0.0
        assert stats.active_utilization == 0.0

    def test_cell_bisection_counts_mesh_and_ruche(self, net):
        stats = cell_bisection(net, 8, elapsed=1)
        assert stats.num_links == 8 * (4 + 2)  # 6 rows... see below

    def test_utilization_series_mass(self, net, recorder):
        for i in range(10):
            net.send((0, 1), (7, 1), 1, i)
        series = utilization_series(recorder, normalize=False)
        assert sum(v for _t, v in series) > 0

    def test_series_requires_recording(self):
        chip = ChipGeometry(CellGeometry(8, 4), 1, 1)
        bare = Network(chip, NocTiming(), ruche=False, order="xy")
        unattached = LinkSeries(bare.topology.cut_links_x(3.5), bin_width=16)
        bare.send((0, 1), (7, 1), 1, 0)
        assert utilization_series(unattached) == []

    def test_stall_fraction_rises_under_saturation(self, net):
        light = vertical_cut(net, 3.5, elapsed=10)
        # Source at x=2: the crossing link is the first on the path, so
        # back-to-back injections queue right at the cut.
        for _i in range(500):
            net.send((2, 1), (7, 1), 1, 0)
        heavy = vertical_cut(net, 3.5, elapsed=10)
        assert heavy.stall_fraction > light.stall_fraction


class TestRendering:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3.0]])
        assert "a" in text and "x" in text
        assert text.count("\n") == 3

    def test_format_bars(self):
        text = format_bars({"one": 1.0, "two": 2.0}, width=10)
        assert "two" in text
        assert "#" in text

    def test_format_bars_empty(self):
        assert format_bars({}) == "(empty)"

    def test_format_stacked(self):
        text = format_stacked({"k": {"a": 0.5, "b": 0.5}}, ["a", "b"])
        assert "legend" in text
        assert "|" in text

    def test_format_series(self):
        text = format_series([(0, 0.1), (10, 0.9), (20, 0.4)])
        assert "*" in text

    def test_format_series_empty(self):
        assert "empty" in format_series([])

    def test_speedup_table(self):
        text = speedup_table({"k1": 100.0}, {"v": {"k1": 50.0}})
        assert "2" in text


def test_bisection_stats_dataclass():
    s = BisectionStats(num_links=4, busy_cycles=100, stall_cycles=50,
                       packets=10, elapsed=50, per_link_busy=(100, 0, 0, 0))
    assert s.utilization == pytest.approx(0.5)
    assert s.active_links == 1
    assert s.active_utilization == 1.0  # clamped
    assert s.peak_link_utilization == 1.0
    assert s.stall_fraction == pytest.approx(1 / 3)
