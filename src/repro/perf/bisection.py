"""Bisection-link measurement (Figs 3 and 14).

Works on the request/response :class:`~repro.noc.network.Network` pair of
a machine: identifies the links crossing a cut plane and aggregates their
busy/stall accounting into utilization fractions, and records their
busy time series through a probe subscriber (:class:`LinkSeries`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..engine.stats import BinnedSeries
from ..noc.network import Network
from ..noc.topology import Link


@dataclass
class BisectionStats:
    """Aggregated view of one cut through one network plane."""

    num_links: int
    busy_cycles: float
    stall_cycles: float
    packets: int
    elapsed: float
    per_link_busy: Tuple[float, ...] = ()

    @property
    def utilization(self) -> float:
        if self.elapsed <= 0 or self.num_links == 0:
            return 0.0
        return min(1.0, self.busy_cycles / (self.elapsed * self.num_links))

    @property
    def active_links(self) -> int:
        """Links that carried any traffic (the ones Fig 3 plots)."""
        return sum(1 for b in self.per_link_busy if b > 0)

    @property
    def active_utilization(self) -> float:
        """Utilization over the links actually carrying the transfer."""
        active = self.active_links
        if self.elapsed <= 0 or active == 0:
            return 0.0
        return min(1.0, self.busy_cycles / (self.elapsed * active))

    @property
    def peak_link_utilization(self) -> float:
        if self.elapsed <= 0 or not self.per_link_busy:
            return 0.0
        return min(1.0, max(self.per_link_busy) / self.elapsed)

    @property
    def stall_fraction(self) -> float:
        """Fraction of packet-cycles spent stalled at the cut (the Fig 14
        metric: how often bisection packets are blocked)."""
        denom = self.busy_cycles + self.stall_cycles
        if denom <= 0:
            return 0.0
        return self.stall_cycles / denom


def _collect(links: List[Link], elapsed: float) -> BisectionStats:
    return BisectionStats(
        num_links=len(links),
        busy_cycles=sum(l.busy_cycles for l in links),
        stall_cycles=sum(l.stall_cycles for l in links),
        packets=sum(l.packets for l in links),
        elapsed=elapsed,
        per_link_busy=tuple(l.busy_cycles for l in links),
    )


def vertical_cut(net: Network, plane_x: float, elapsed: float) -> BisectionStats:
    """Horizontal traffic crossing the vertical plane ``x = plane_x``."""
    return _collect(net.topology.cut_links_x(plane_x), elapsed)


def horizontal_cut(net: Network, plane_y: float, elapsed: float) -> BisectionStats:
    """Vertical traffic crossing the horizontal plane ``y = plane_y``."""
    return _collect(net.topology.cut_links_y(plane_y), elapsed)


def cell_bisection(net: Network, tiles_x: int, elapsed: float) -> BisectionStats:
    """The canonical Cell bisection: the vertical cut through the middle
    of the first Cell (the Fig 14 measurement point).  The plane sits
    half-way between the two centre columns so both mesh and ruche links
    crossing it are counted."""
    return vertical_cut(net, tiles_x / 2 - 0.5, elapsed)


class LinkSeries:
    """Probe subscriber recording per-link busy time in fixed bins.

    Attach it (:func:`repro.probe.attach`) before the traffic runs;
    every packet reservation on one of ``links`` adds its occupancy
    window to that link's :class:`BinnedSeries`.
    """

    def __init__(self, links: Iterable[Link], bin_width: float) -> None:
        self.links = list(links)
        self.bin_width = bin_width
        self.series: Dict[Link, BinnedSeries] = {
            link: BinnedSeries(bin_width) for link in self.links}

    def link_reserve(self, link: Link, start: float, flits: int) -> None:
        series = self.series.get(link)
        if series is not None:
            series.add_range(start, start + flits)


def utilization_series(recorder: LinkSeries,
                       normalize: bool = True) -> List[Tuple[float, float]]:
    """Summed busy time series across the recorded links (Fig 3's y-axis)."""
    merged: Dict[float, float] = {}
    for link in recorder.links:
        for t, v in recorder.series[link].series():
            merged[t] = merged.get(t, 0.0) + v
    if not merged:
        return []
    capacity = (len(recorder.links) * recorder.bin_width) if normalize else 1.0
    return [(t, v / capacity) for t, v in sorted(merged.items())]
