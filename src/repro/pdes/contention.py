"""Deterministic inter-Cell link contention for PDES mode.

The monolithic machine prices every packet by reserving ``flits`` cycles
on each link of its dimension-ordered path (:class:`repro.noc.network.Network`).
PDES shards cannot share that link state -- mutating it from two shards
would make their histories diverge -- and pricing cross-Cell packets at
the zero-load floor alone would under-charge congested seams.  This
module prices the Cell edges without sharing anything live: the
*coordinator* (the only place every message is visible) replays each
boundary crossing against a deterministic occupancy ledger.

Model
-----
Every directed inter-Cell boundary is a bundle of serializing lanes, one
per grid row (vertical boundaries) or grid column (horizontal
boundaries) -- exactly the physical channels
:meth:`repro.noc.topology.Topology.cell_edge_links` counts.  A packet
crosses a vertical boundary in its X phase at its source row, and a
horizontal boundary in its Y phase at its destination column (the
dimension-ordered route), so the lane each crossing uses is a pure
function of the message.  A crossing reserves ``flits / channels``
cycles on its lane (``channels`` = mesh + ruche links sharing the lane,
:func:`repro.noc.analysis.cell_edge_channels` per row/column); if the
lane is busy the packet stalls until it frees, and the stall is added to
the message's arrival.

Determinism and lookahead safety
--------------------------------
Pricing is pure arithmetic over the message stream in global
``(arrival, src_cell, seq)`` order -- the coordinator feeds the stream
in exactly that order regardless of worker count or window size (see
``run_cells``'s release pool), so shard histories cannot diverge and
1-vs-N-worker fingerprints stay bit-identical.  Contention only *adds*
latency: the priced arrival is ``>=`` the zero-load arrival, so
``intercell_lookahead`` remains a valid conservative bound and the
window protocol (and its free-run shortcut) survive unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from ..arch.config import MachineConfig


class EdgeContention:
    """The per-boundary-lane occupancy ledger (coordinator-owned)."""

    def __init__(self, config: MachineConfig) -> None:
        chip = config.chip
        self._cell_cols = chip.cell.cols
        self._cell_rows = chip.cell.rows
        per_row = 1
        if config.features.ruche_network:
            per_row += config.timings.noc.ruche_factor
        #: Channels sharing one horizontal lane (mesh + ruche per row).
        self.x_channels = per_row
        #: Channels sharing one vertical lane (mesh only).
        self.y_channels = 1
        #: lane key -> cycle at which the lane frees.
        self._free: Dict[Tuple, float] = {}
        #: directed cell-edge "sx,sy->dx,dy" -> counters.
        self._stats: Dict[str, Dict[str, float]] = {}
        self.packets = 0
        self.stalled_packets = 0
        self.stall_cycles = 0.0

    # -- the route: which lanes does this message's path cross? -------------

    def _crossings(self, msg: Any) -> Iterable[Tuple[Tuple, int, str]]:
        """Yield ``(lane_key, channels, edge_label)`` per boundary crossed,
        in path order (X phase then Y phase, dimension-ordered).  The
        lane key includes the physical plane (``msg.plane``): requests
        and responses ride separate networks on the chip and must never
        contend with each other."""
        plane = msg.plane
        (scx, scy) = msg.src_cell
        (dcx, dcy) = msg.dst_cell
        src = msg.src_node
        dst = msg.dst_node
        row = src[1]  # X phase runs at the source row
        band = scy
        step = 1 if dcx > scx else -1
        for c in range(scx, dcx, step):
            boundary = min(c, c + step)
            yield ((plane, "x", boundary, row, step), self.x_channels,
                   f"{c},{band}->{c + step},{band}")
        col = dst[0]  # Y phase runs at the destination column
        step = 1 if dcy > scy else -1
        for r in range(scy, dcy, step):
            boundary = min(r, r + step)
            yield ((plane, "y", boundary, col, step), self.y_channels,
                   f"{dcx},{r}->{dcx},{r + step}")

    # -- pricing -------------------------------------------------------------

    def price(self, messages: List[Any]) -> None:
        """Replay ``messages`` (pre-sorted in the global deterministic
        order) through the ledger, adding each crossing's stall to the
        message's arrival in place."""
        free = self._free
        stats = self._stats
        for msg in messages:
            self.packets += 1
            flits = msg.flits
            t = msg.arrival
            stalled = 0.0
            for key, channels, edge in self._crossings(msg):
                occupancy = flits / channels
                rec = stats.get(edge)
                if rec is None:
                    rec = stats[edge] = {"packets": 0, "flits": 0,
                                         "stall_cycles": 0.0}
                rec["packets"] += 1
                rec["flits"] += flits
                at = free.get(key, 0.0)
                if at > t:
                    rec["stall_cycles"] += at - t
                    stalled += at - t
                    t = at
                free[key] = t + occupancy
            if stalled > 0.0:
                self.stalled_packets += 1
                self.stall_cycles += stalled
                msg.arrival = t

    def summary(self) -> Dict[str, Any]:
        """JSON-able stats: deterministic, so safe to fingerprint."""
        return {
            "packets": self.packets,
            "stalled_packets": self.stalled_packets,
            "stall_cycles": self.stall_cycles,
            "x_channels_per_lane": self.x_channels,
            "edges": {edge: dict(rec)
                      for edge, rec in sorted(self._stats.items())},
        }
