"""The kernel IR: the timed operations a tile core executes.

Kernels are Python generators that *functionally* compute their result
while yielding these ops for timing.  Registers are small integers
allocated by the per-tile kernel context; the core model tracks a ready
time per register to reproduce single-issue in-order RAW/bypass stalls.

Every op carries a ``pc`` (assigned by the kernel context) so the
direct-mapped icache model sees a realistic fetch stream: loop bodies
revisit the same lines, straight-line code streams through new ones.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple


class Op:
    """Base of all IR operations."""

    __slots__ = ("pc",)

    def __init__(self, pc: int = 0) -> None:
        self.pc = pc


class IntOp(Op):
    """Integer ALU op (also covers address arithmetic and integer mul)."""

    __slots__ = ("dst", "srcs", "latency")

    def __init__(self, dst: Optional[int], srcs: Sequence[int] = (),
                 latency: int = 1, pc: int = 0) -> None:
        self.pc = pc
        self.dst = dst
        self.srcs = tuple(srcs)
        self.latency = latency


class FpOp(Op):
    """Floating-point op; ``unit`` picks the latency class."""

    __slots__ = ("dst", "srcs", "unit")
    UNITS = ("fadd", "fmul", "fma", "fdiv", "fsqrt")

    def __init__(self, dst: Optional[int], srcs: Sequence[int] = (),
                 unit: str = "fadd", pc: int = 0) -> None:
        self.pc = pc
        if unit not in self.UNITS:
            raise ValueError(f"unknown FP unit {unit!r}")
        self.dst = dst
        self.srcs = tuple(srcs)
        self.unit = unit


class LoadOp(Op):
    """A word load.  Local-SPM loads complete in the pipeline; remote
    loads (other SPMs, DRAM spaces) become network packets and resolve
    through the non-blocking scoreboard.

    ``racy`` marks an access that is unsynchronized *by design* (e.g. a
    benign stale read that a later atomic claim makes harmless); the
    sanitizer will not report races involving it.  Timing ignores it.
    """

    __slots__ = ("dst", "addr", "srcs", "racy")

    def __init__(self, dst: int, addr: int, srcs: Sequence[int] = (),
                 pc: int = 0, racy: bool = False) -> None:
        self.pc = pc
        self.dst = dst
        self.addr = addr
        self.srcs = tuple(srcs)
        self.racy = racy


class VecLoadOp(Op):
    """Four sequential word loads from one base address.

    This is the idiom Load Packet Compression recognizes: with the
    feature enabled the whole group travels as one compressed request;
    without it the core issues four independent loads.
    """

    __slots__ = ("dsts", "addr", "srcs", "racy")

    def __init__(self, dsts: Sequence[int], addr: int,
                 srcs: Sequence[int] = (), pc: int = 0,
                 racy: bool = False) -> None:
        self.pc = pc
        self.dsts = tuple(dsts)
        self.addr = addr
        self.srcs = tuple(srcs)
        self.racy = racy


class StoreOp(Op):
    """A word store; non-blocking, tracked for fence completion.

    ``racy`` has the same meaning as on :class:`LoadOp`.
    """

    __slots__ = ("addr", "srcs", "racy")

    def __init__(self, addr: int, srcs: Sequence[int] = (), pc: int = 0,
                 racy: bool = False) -> None:
        self.pc = pc
        self.addr = addr
        self.srcs = tuple(srcs)
        self.racy = racy


class AmoOp(Op):
    """Remote atomic on a cache bank (amoadd/amoor/amoswap/...).

    The functional update happens at the cycle the packet reaches the
    owning bank, so work distribution orders exactly as timed.  The old
    value is sent back into the kernel generator.
    """

    __slots__ = ("dst", "addr", "kind", "value", "srcs")
    KINDS = ("add", "or", "and", "xor", "swap", "min", "max")

    def __init__(self, dst: Optional[int], addr: int, kind: str, value: int,
                 srcs: Sequence[int] = (), pc: int = 0) -> None:
        self.pc = pc
        if kind not in self.KINDS:
            raise ValueError(f"unknown AMO kind {kind!r}")
        self.dst = dst
        self.addr = addr
        self.kind = kind
        self.value = value
        self.srcs = tuple(srcs)


class FenceOp(Op):
    """Memory fence: wait until every outstanding request has completed."""

    __slots__ = ()


class BarrierOp(Op):
    """Join this tile's barrier group (HW tree or SW fallback)."""

    __slots__ = ("group",)

    def __init__(self, group: Optional[object] = None, pc: int = 0) -> None:
        self.pc = pc
        self.group = group


class BranchOp(Op):
    """A conditional branch with its actual outcome.

    The static predictor takes backward branches and falls through
    forward ones; a wrong guess costs the 2-cycle flush.
    """

    __slots__ = ("taken", "backward", "srcs")

    def __init__(self, taken: bool, backward: bool,
                 srcs: Sequence[int] = (), pc: int = 0) -> None:
        self.pc = pc
        self.taken = taken
        self.backward = backward
        self.srcs = tuple(srcs)


class SleepOp(Op):
    """Idle for a fixed number of cycles (host-side pacing, test aid)."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int, pc: int = 0) -> None:
        self.pc = pc
        self.cycles = cycles


class PimIssueOp(Op):
    """Fire-and-forget PIM command write to a Cell's PIM window.

    Non-blocking like a store: the core tracks the in-flight command
    until a :class:`PimFenceOp` drains it.  ``addr`` is a
    ``Space.PIM`` address; ``command`` a :class:`repro.pim.PimCommand`.
    """

    __slots__ = ("addr", "command", "srcs")

    def __init__(self, addr: int, command: object,
                 srcs: Sequence[int] = (), pc: int = 0) -> None:
        self.pc = pc
        self.addr = addr
        self.command = command
        self.srcs = tuple(srcs)


class PimReadOp(Op):
    """Blocking PIM command whose payload returns to the kernel.

    Used for ``RD_MAC``: the generator receives the tuple of read
    values, the way an :class:`AmoOp` receives the old word.
    """

    __slots__ = ("addr", "command", "srcs")

    def __init__(self, addr: int, command: object,
                 srcs: Sequence[int] = (), pc: int = 0) -> None:
        self.pc = pc
        self.addr = addr
        self.command = command
        self.srcs = tuple(srcs)


class PimFenceOp(Op):
    """Wait until every PIM command this tile issued has completed.

    PIM completion is *only* observable through this fence (or a
    ``pim_read`` ordered behind the commands at the channel): ordinary
    fences do not cover the PIM window.
    """

    __slots__ = ()


#: Decoded-entry kinds for :class:`BlockOp` bodies.  Every entry is a
#: uniform 6-tuple ``(kind, pc, dst, srcs, a, b)``:
#:
#: * ``K_INT``: ``a`` = latency
#: * ``K_FP``:  ``a`` = unit name, ``b`` = True for the iterative unit
#: * ``K_BR``:  ``a`` = taken (``None`` = taken except final iteration),
#:   ``b`` = backward
#: * ``K_LD``:  ``a`` = address (Local-SPM space only)
K_INT, K_FP, K_BR, K_LD = 0, 1, 2, 3

_FP_ITERATIVE = ("fdiv", "fsqrt")


class BlockOp(Op):
    """A pre-decoded compute-only instruction region, replayed ``iters``
    times as one op.

    This is the memoized-decode/batched form of the IR: the kernel
    context records a loop body (or straight-line region) *once*, each
    instruction decoded down to a flat operand tuple, and the core's
    replay loop executes the whole window without touching the kernel
    generator, without building per-instruction op objects, and -- once
    the iteration reaches a verified steady state -- by advancing whole
    iterations arithmetically.

    Only timing-closed ops may appear in a body: int/fp compute,
    branches with static outcomes, and Local-SPM loads (whose timing
    never leaves the tile).  Anything that can touch shared state --
    remote memory, atomics, fences, barriers -- stays outside so the
    block advances the tile's local clock atomically in host order.

    When a probe (trace/sanitize/audit) is attached, the
    core never sees a ``BlockOp``: :func:`repro.engine.batch.expand_blocks`
    re-materializes the recorded ops one by one, so hook-on runs take
    the classic per-op path (and stay cycle-identical to batched runs).
    """

    __slots__ = ("body", "iters", "end_pc", "writes", "readonly",
                 "branch_count", "load_count", "has_fdiv",
                 "_decoded", "_decoded_width")

    def __init__(self, body, iters: int, end_pc: int) -> None:
        self.pc = body[0][1] if body else end_pc
        self.body = tuple(body)
        self.iters = iters
        self.end_pc = end_pc
        writes = []
        reads = []
        branch_count = 0
        load_count = 0
        has_fdiv = False
        for kind, _pc, dst, srcs, a, b in self.body:
            for s in srcs:
                if s not in reads:
                    reads.append(s)
            if kind == K_BR:
                branch_count += 1
                continue
            if kind == K_LD:
                load_count += 1
            elif kind == K_FP and b:
                has_fdiv = True
            if dst is not None and dst not in writes:
                writes.append(dst)
        self.writes = tuple(writes)
        self.readonly = tuple(r for r in reads if r not in writes)
        self.branch_count = branch_count
        self.load_count = load_count
        self.has_fdiv = has_fdiv
        self._decoded = None
        self._decoded_width = 0

    def decoded_for(self, line_instrs: int):
        """The replay-ready body: entries with the pc pre-divided down to
        its icache line number, memoized per line width.  The replay loop
        iterates these directly -- one tuple unpack per instruction, no
        per-execution division."""
        if self._decoded is None or self._decoded_width != line_instrs:
            self._decoded = tuple(
                (kind, pc // line_instrs, dst, srcs, a, b)
                for kind, pc, dst, srcs, a, b in self.body)
            self._decoded_width = line_instrs
        return self._decoded

    def replayed(self, iters: int) -> "BlockOp":
        """This block with a different iteration count (shared body)."""
        if iters == self.iters:
            return self
        clone = BlockOp.__new__(BlockOp)
        for name in ("pc", "body", "end_pc", "writes", "readonly",
                     "branch_count", "load_count", "has_fdiv",
                     "_decoded", "_decoded_width"):
            setattr(clone, name, getattr(self, name))
        clone.iters = iters
        return clone

    def expand(self):
        """Yield the equivalent per-instruction op stream.

        Used by the exact path (a probe attached): the
        expanded ops carry the same pcs, registers, addresses and branch
        outcomes the recorder saw, so the classic interpreter -- and
        every hook observing it -- sees the identical instruction
        stream a hand-unrolled kernel would have yielded.
        """
        last = self.iters - 1
        for i in range(self.iters):
            for kind, pc, dst, srcs, a, b in self.body:
                if kind == K_INT:
                    yield IntOp(dst, srcs, a, pc)
                elif kind == K_FP:
                    yield FpOp(dst, srcs, a, pc)
                elif kind == K_BR:
                    yield BranchOp(a if a is not None else i < last, b,
                                   srcs, pc)
                else:
                    yield LoadOp(dst, a, srcs, pc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"BlockOp({len(self.body)} ops x {self.iters} iters, "
                f"pc={self.pc}..{self.end_pc})")


AnyOp = Op
MemoryOps: Tuple[type, ...] = (LoadOp, VecLoadOp, StoreOp, AmoOp)
