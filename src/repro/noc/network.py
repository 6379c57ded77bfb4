"""The word-oriented global network: contention-aware packet timing.

Each of the two physical planes (requests, responses) is a
:class:`Network`.  A packet's delivery time is computed by walking its
dimension-ordered path once and reserving ``flits`` cycles on every link
against that link's ``free_at`` horizon.  This reproduces serialization,
head-of-line waiting and bisection saturation at O(hops) per packet --
the fidelity tier appropriate to an architectural (non-RTL) model.

Dimension-ordered paths are static per (src, dst) pair, so ``send``
memoizes them: the routing walk runs once per pair and every later
packet replays the cached tuple of :class:`~repro.noc.topology.Link`
objects.  Timing is unchanged -- the links are the same objects either
way.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..arch.geometry import ChipGeometry, Coord
from ..arch.params import NocTiming
from ..engine.stats import Counter
from .routing import hop_count, route
from .topology import Link, Topology


class DeliveryReport:
    """Timing of one packet's traversal."""

    __slots__ = ("arrival", "hops", "stall_cycles")

    def __init__(self, arrival: float, hops: int, stall_cycles: float) -> None:
        self.arrival = arrival
        self.hops = hops
        self.stall_cycles = stall_cycles

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeliveryReport):
            return NotImplemented
        return (self.arrival == other.arrival and self.hops == other.hops
                and self.stall_cycles == other.stall_cycles)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"DeliveryReport(arrival={self.arrival}, hops={self.hops}, "
                f"stall_cycles={self.stall_cycles})")


class Network:
    """One physical network plane."""

    def __init__(self, chip: ChipGeometry, timing: NocTiming, ruche: bool,
                 order: str, name: str = "net") -> None:
        self.chip = chip
        self.timing = timing
        self.order = order
        self.name = name
        self.topology = Topology(chip, ruche=ruche,
                                 ruche_factor=timing.ruche_factor)
        self.counters = Counter()
        # Hot-path constants and the path memo (see module docstring).
        self._hop_cost = timing.router_latency + timing.link_cycles_per_flit
        self._inject = timing.inject_latency
        self._eject = timing.eject_latency
        self._routes: Dict[Tuple[Coord, Coord], Tuple[Link, ...]] = {}
        self._hops: Dict[Tuple[Coord, Coord], int] = {}
        #: Observer slot (set by :func:`repro.probe.attach`): one event
        #: per link reservation and one per delivered packet.
        self._probe = None

    def send(self, src: Coord, dst: Coord, flits: int, time: float) -> DeliveryReport:
        """Reserve the path for a packet injected at ``time``.

        Returns the cycle at which the last flit is ejected at ``dst``.
        Same-node delivery (e.g. a tile loading from a bank in its own
        column position) still pays inject + eject.
        """
        if flits <= 0:
            raise ValueError("packets carry at least one flit")
        path = self._routes.get((src, dst))
        if path is None:
            path = tuple(route(self.topology, src, dst, order=self.order))
            self._routes[(src, dst)] = path
        hop_cost = self._hop_cost
        stall_total = 0.0
        head = time + self._inject
        probe = self._probe
        for link in path:
            start = link.free_at
            if start < head:
                start = head
            else:
                stall = start - head
                stall_total += stall
                link.stall_cycles += stall
            link.free_at = start + flits
            link.busy_cycles += flits
            link.packets += 1
            if probe is not None:
                probe.link_reserve(link, start, flits)
            head = start + hop_cost
        arrival = head + (flits - 1) + self._eject
        cv = self.counters.raw
        cv["packets"] += 1
        cv["flits"] += flits
        cv["hops"] += len(path)
        cv["stall_cycles"] += stall_total
        report = DeliveryReport(arrival, len(path), stall_total)
        if probe is not None:
            probe.noc_send(self, src, dst, flits, time, report)
        return report

    def send_arrival(self, src: Coord, dst: Coord, flits: int,
                     time: float) -> float:
        """Hot-path variant of :meth:`send` returning only the arrival
        cycle.  Link-state updates and counters are identical; the
        :class:`DeliveryReport` allocation is skipped.  Falls back to
        :meth:`send` whenever a probe is attached.
        """
        if self._probe is not None:
            return self.send(src, dst, flits, time).arrival
        if flits <= 0:
            raise ValueError("packets carry at least one flit")
        path = self._routes.get((src, dst))
        if path is None:
            path = tuple(route(self.topology, src, dst, order=self.order))
            self._routes[(src, dst)] = path
        hop_cost = self._hop_cost
        stall_total = 0.0
        head = time + self._inject
        for link in path:
            start = link.free_at
            if start < head:
                start = head
            else:
                stall = start - head
                stall_total += stall
                link.stall_cycles += stall
            link.free_at = start + flits
            link.busy_cycles += flits
            link.packets += 1
            head = start + hop_cost
        cv = self.counters.raw
        cv["packets"] += 1
        cv["flits"] += flits
        cv["hops"] += len(path)
        cv["stall_cycles"] += stall_total
        return head + (flits - 1) + self._eject

    def reserve_leg(self, src: Coord, dst: Coord, flits: int, time: float,
                    inside: "Callable[[Coord], bool]") -> float:
        """Reserve only part of the ``src -> dst`` path: the links whose
        both endpoints satisfy ``inside``.  Returns the total stall
        accumulated on the reserved links.

        This is the PDES shard's half of a cross-Cell walk: the shard
        owns (and shares with its Cell-local traffic) exactly the links
        inside its own Cell, while the boundary crossing itself is
        priced by the coordinator's edge ledger and foreign Cells' links
        by the shard that owns them.  The head advances through skipped
        links at zero-load cost, so reserved-link start times line up
        with where a full :meth:`send` walk would put them.
        """
        path = self._routes.get((src, dst))
        if path is None:
            path = tuple(route(self.topology, src, dst, order=self.order))
            self._routes[(src, dst)] = path
        hop_cost = self._hop_cost
        stall_total = 0.0
        head = time + self._inject
        for link in path:
            if not (inside(link.src) and inside(link.dst)):
                head += hop_cost
                continue
            start = link.free_at
            if start < head:
                start = head
            else:
                stall = start - head
                stall_total += stall
                link.stall_cycles += stall
            link.free_at = start + flits
            link.busy_cycles += flits
            link.packets += 1
            head = start + hop_cost
        return stall_total

    def zero_load_latency(self, src: Coord, dst: Coord, flits: int = 1) -> float:
        """Latency with no contention (for tests and analytic checks)."""
        hops = len(route(self.topology, src, dst, order=self.order))
        return (self._inject + hops * self._hop_cost
                + (flits - 1) + self._eject)

    def conservative_latency(self, src: Coord, dst: Coord,
                             flits: int = 1) -> float:
        """Zero-load latency with *no state touched*: pure arithmetic on a
        memoized hop count.  Equal to :meth:`zero_load_latency` (dimension-
        ordered paths take exactly ``hop_count`` links), but safe to call
        from the PDES cross-Cell channel, where pricing a packet must not
        mutate link reservations -- shards never share link state, so any
        mutation here would make their histories diverge.
        """
        key = (src, dst)
        hops = self._hops.get(key)
        if hops is None:
            hops = hop_count(self.topology, src, dst)
            self._hops[key] = hops
        return (self._inject + hops * self._hop_cost
                + (flits - 1) + self._eject)

    def reset(self) -> None:
        self.topology.reset_counters()
        self.counters = Counter()
