"""One observer slot for the whole machine: the probe.

Trace, audit, sanitize and any small ad-hoc recorder observe a running
machine through one mechanism.  Every component that reports
observations carries a ``_probe`` attribute and the simulator carries
``sim.probe``; both are ``None`` by default, and every hot path guards
its report behind one ``is not None`` test, so an unobserved run
executes the same instruction stream as a machine without
observability.  Observation never schedules events or touches model
state: observed runs are cycle-identical to plain ones.

:func:`attach` sets every slot to one :class:`Probe`, an object with one
attribute per name in :data:`EVENTS`.  A subscriber handles an event by
defining a method of that name.  The probe's attribute is that bound
method when exactly one subscriber handles the event (no wrapper in
between), a fan-out over the handlers in subscriber order when several
do, and a no-op when none does.  A subscriber may also define
``bind(machine)``; :func:`attach` calls it once, before any event, to
build per-component state (tracks, reference shadows, thread tables).

Attach once, before the first launch.  Barrier groups and launch edges
are wired at launch time, so a subscriber attached later would
silently miss them; :func:`attach` raises :class:`AttachError` instead.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

#: Every event a component can report, with its arguments.
EVENTS: Tuple[str, ...] = (
    # Engine.
    "engine_event",      # (now) after each dispatched event
    "process_started",   # (process, now)
    "process_finished",  # (process, now)
    # Host runtime and barriers.
    "launch_started",    # (handle)
    "barrier_created",   # (group, label) at launch-time partitioning
    "barrier_join",      # (group, node, time)
    "barrier_release",   # (group, time) release time of the epoch
    "host_write",        # (addr, node) host poke
    "host_read",         # (addr, node) host peek
    "host_range",        # (cell_xy, offset, nbytes, write) host DMA
    # Tiles.
    "load",              # (node, op, time)
    "vload",             # (node, op, time)
    "store",             # (node, op, time)
    "amo_issue",         # (node, op)
    "fence",             # (node, time)
    "pim_issue",         # (node, op, time)
    "pim_fence",         # (node, time)
    "kernel_end",        # (node, time) after the implicit drain
    "tile_stall",        # (node, category, start, cycles)
    # Memory system.
    "amo_serialized",    # (node, dest, time) at the AMO's cache bank
    "xshard_amo_out",    # (node, dest, kind, seq, time) PDES egress
    "xshard_access_in",  # (dest, words) PDES ingress of a foreign access
    "xshard_amo_in",     # (dest, time, src_cell, seq, kind) PDES ingress
    "cache_access",      # (bank, set_idx, line, hit, time, start,
                         #  port_cycles, retry, is_write, is_amo)
    "cache_evict",       # (bank, set_idx, victim, time)
    "cache_install",     # (bank, set_idx, line, time)
    "mshr_alloc",        # (bank, line, time)
    "mshr_merge",        # (bank, line, time)
    "mshr_release",      # (bank, line, time)
    "mshr_retry",        # (bank, line, time, retry_at) MSHR file full
    "hbm_access",        # (channel, bank_idx, row, time, start, row_state,
                         #  burst_start, burst_cycles, done, ready_before,
                         #  ready_after, is_write)
    "pim_bus",           # (engine, cmd, start, cycles)
    "pim_bank_op",       # (engine, cmd, bank_idx, time, start, ready_before,
                         #  ready_after, row=, row_state=, completion=)
    "pim_grf",           # (engine, cmd, bank_idx, reads=, writes=)
    "pim_command",       # (engine, cmd, start, cycles) one command's span
    "strip_transfer",    # (strip, channel_idx, time, start, burst, done,
                         #  bank_x, nbytes)
    # Network.
    "noc_send",          # (net, src, dst, flits, time, report)
    "link_reserve",      # (link, start, flits) per link of a sent packet
)


class AttachError(RuntimeError):
    """:func:`attach` on a machine that already launched a kernel or
    already has a probe."""


def _ignore(*_args: Any, **_kwargs: Any) -> None:
    """An event no subscriber handles."""


def _fan_out(handlers: Tuple[Callable[..., None], ...]) -> Callable[..., None]:
    def emit(*args: Any, **kwargs: Any) -> None:
        for handler in handlers:
            handler(*args, **kwargs)
    return emit


class Probe:
    """The value of every ``_probe`` slot: one attribute per event."""

    __slots__ = EVENTS

    def __init__(self, *subscribers: Any) -> None:
        for name in EVENTS:
            handlers = tuple(getattr(sub, name) for sub in subscribers
                             if hasattr(sub, name))
            if not handlers:
                handler = _ignore
            elif len(handlers) == 1:
                handler = handlers[0]
            else:
                handler = _fan_out(handlers)
            setattr(self, name, handler)


def attach(machine: Any, *subscribers: Any) -> Probe:
    """Wire ``subscribers`` into every observer slot of ``machine``.

    Call it once per machine, before the first launch, with every
    subscriber the run needs; returns the :class:`Probe`.
    """
    sim = machine.sim
    if sim.probe is not None:
        raise AttachError(
            "machine already has a probe attached; pass every subscriber "
            "to a single attach() call")
    if any(cell._last_handle is not None for cell in machine.cells.values()):
        raise AttachError(
            "attach before launch: barriers and launch edges are wired "
            "when a kernel launches, so a subscriber attached afterwards "
            "would silently miss them; build a fresh machine")
    probe = Probe(*subscribers)
    for sub in subscribers:
        bind = getattr(sub, "bind", None)
        if bind is not None:
            bind(machine)
    sim.probe = probe
    memsys = machine.memsys
    for component in (*machine.cores.values(), memsys,
                      *memsys.banks.values(), *memsys.hbm.values(),
                      *memsys.pim_engines.values(),
                      *memsys.strips.values(),
                      memsys.req_net, memsys.resp_net):
        component._probe = probe
    return probe
