"""The HB tile core timing model.

Single-issue, in-order, 5-stage: one instruction leaves the issue stage
per cycle unless a hazard holds it.  The model tracks

* a ready time (or pending future) per virtual register, reproducing
  RAW/bypass stalls and the load-use distance of pipelined remote loads;
* the 63-entry remote-request scoreboard (non-blocking loads/stores);
* the iterative FP divide/sqrt unit's structural hazard;
* the BTFN branch predictor and the direct-mapped icache;
* the full stall taxonomy of Table III for Fig 11's breakdown.

The core runs as one generator process; pure compute streams advance a
local clock without touching the event queue, and the process only
synchronizes with the simulator when it interacts with shared state
(network, barriers, waiting on futures).

The issue loop is the hottest Python in the whole model (one iteration
per simulated instruction), so it aggressively localizes attribute
lookups and updates counters through ``Counter.raw`` -- C-level dict
increments instead of method calls.  None of this changes timing.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Union

from ..arch.config import FeatureSet
from ..arch.geometry import Coord
from ..arch.params import Timings
from ..engine import Counter, Future, Process, Simulator
from ..engine.batch import FoldTracker, expand_blocks
from ..isa.ops import (
    AmoOp,
    BarrierOp,
    BlockOp,
    BranchOp,
    FenceOp,
    FpOp,
    IntOp,
    LoadOp,
    PimFenceOp,
    PimIssueOp,
    PimReadOp,
    SleepOp,
    StoreOp,
    VecLoadOp,
)
from ..pgas.spaces import TAG_SHIFT
from . import stall as st
from .branch import BranchPredictor
from .icache import ICache
from .scoreboard import Scoreboard

RegReady = Union[float, Future]

#: Test hook: when True, every core expands recorded compute windows and
#: interprets them op-by-op (the exact path), exactly as if a probe
#: were attached.  Cycle counts are identical either way -- that
#: equivalence is what the batched-path tests pin.
EXACT_MODE = False

#: reg_kind value -> stall category charged while waiting on that producer.
_KIND_STALL = {
    "mem": st.STALL_DEPEND_LOAD,
    "fdiv": st.STALL_FDIV,
    "int": st.STALL_BYPASS,
    "fp": st.STALL_BYPASS,
}


class TileCore:
    """One compute tile's execution engine."""

    def __init__(self, sim: Simulator, node: Coord, timings: Timings,
                 features: FeatureSet, memsys: Any,
                 name: str = "tile") -> None:
        self.sim = sim
        self.node = node
        self.timings = timings
        self.features = features
        self.memsys = memsys
        self.name = name
        self.scoreboard = Scoreboard(sim, timings.core.scoreboard_entries)
        self.icache = ICache(timings.core.icache_miss_penalty)
        self.branch = BranchPredictor(timings.core.branch_miss_penalty)
        self.counters = Counter()
        self.reg_ready: Dict[int, RegReady] = {}
        self.reg_kind: Dict[int, str] = {}
        self._fdiv_free: float = 0
        #: Futures of issued-but-unfenced PIM commands (see PimFenceOp).
        self._pim_pending: list = []
        self.start_time: float = 0
        self.finish_time: float = 0
        self.process: Optional[Process] = None
        #: Last reason this core blocked on the event queue (a Table III
        #: stall category) -- surfaced by deadlock diagnostics.
        self.last_stall: Optional[str] = None
        #: Observer slot (set by :func:`repro.probe.attach`): memory and
        #: sync ops, stall spans, kernel end.  ``None`` keeps every hot
        #: path on the unobserved branch.
        self._probe: Optional[Any] = None
        self._fp_latency = {
            "fadd": timings.core.fadd,
            "fmul": timings.core.fmul,
            "fma": timings.core.fma,
            "fdiv": timings.core.fdiv,
            "fsqrt": timings.core.fsqrt,
        }
        # One closure for the whole core: releases a scoreboard credit
        # when a remote response lands (avoids a lambda per request).
        sb = self.scoreboard
        self._sb_release = lambda _v, _release=sb.release: _release()

    # -- launch ---------------------------------------------------------------

    def start(self, kernel_gen: Generator[Any, Any, Any],
              start_delay: float = 0) -> Process:
        self.process = Process(self.sim, self._run(kernel_gen),
                               name=self.name, start_delay=start_delay)
        return self.process

    @property
    def done(self) -> Future:
        if self.process is None:
            raise RuntimeError("tile was never started")
        return self.process.done

    # -- stat helpers --------------------------------------------------------

    def total_cycles(self) -> float:
        return self.finish_time - self.start_time

    def breakdown(self) -> Dict[str, float]:
        """Cycles per Table III category, plus 'other' residual."""
        total = self.total_cycles()
        out = {cat: self.counters.get(cat) for cat in st.ALL_CATEGORIES}
        accounted = sum(out.values())
        out["other"] = max(0.0, total - accounted)
        return out

    # -- the pipeline ----------------------------------------------------------

    def _run(self, gen: Generator[Any, Any, Any]) -> Generator[Any, Any, float]:
        sim = self.sim
        c = self.counters
        cv = c.raw
        core_t = self.timings.core
        reg_ready = self.reg_ready
        reg_kind = self.reg_kind
        reg_ready_get = reg_ready.get
        reg_kind_get = reg_kind.get
        sb = self.scoreboard
        compression = self.features.load_compression
        nonblocking = self.features.nonblocking_loads
        memsys = self.memsys
        is_own_spm = memsys.is_own_spm
        remote_request = memsys.remote_request
        remote_amo = memsys.remote_amo
        sb_release = self._sb_release
        # The tile's own SPM port, reserved inline (single-cycle claims
        # from the local pipeline are the hottest memory path there is).
        spm_port = memsys.spms[self.node]._port
        icache = self.icache
        icache_access = icache.access
        line_instrs = icache.line_instrs
        branch_resolve = self.branch.predict_and_resolve
        fp_latency = self._fp_latency
        local_load = core_t.local_load

        # Hot names pulled into locals: stall categories and op classes.
        EXEC_INT = st.EXEC_INT
        EXEC_FP = st.EXEC_FP
        S_DEPEND = st.STALL_DEPEND_LOAD
        S_FDIV = st.STALL_FDIV
        S_BYPASS = st.STALL_BYPASS
        S_ICACHE = st.STALL_ICACHE
        S_BRANCH = st.STALL_BRANCH
        S_AMO = st.STALL_AMO
        _IntOp, _FpOp, _BranchOp = IntOp, FpOp, BranchOp
        _LoadOp, _VecLoadOp, _StoreOp = LoadOp, VecLoadOp, StoreOp
        _AmoOp, _FenceOp, _BarrierOp, _SleepOp = AmoOp, FenceOp, BarrierOp, SleepOp
        _PimIssueOp, _PimReadOp, _PimFenceOp = PimIssueOp, PimReadOp, PimFenceOp
        _BlockOp = BlockOp
        # In-flight PIM commands; drained only by an explicit PimFenceOp
        # (ordinary fences and the end-of-kernel drain do not cover the
        # PIM window -- the sanitizer's completion rule).
        pim_pending = self._pim_pending = []
        _Future = Future
        # Observer slot: ``None`` in unobserved runs, so each memory/sync
        # op and stall charge point pays one pointer comparison and
        # nothing else.  ``temit`` is the stall-span event.
        probe = self._probe
        temit = probe.tile_stall if probe is not None else None
        node = self.node

        # Batched windows are only eligible when no probe is attached:
        # with one (or the test hook forcing it), recorded BlockOp
        # windows expand back into the per-op stream so the subscribers
        # observe the classic interpreter.
        if probe is not None or EXACT_MODE:
            gen = expand_blocks(gen)
        gen_send = gen.send

        t = sim._now
        self.start_time = t
        send_val: Any = None

        while True:
            try:
                op = gen_send(send_val)
            except StopIteration:
                break
            send_val = None

            cls = op.__class__

            if cls is _BlockOp:
                # A recorded compute window: replay it without touching
                # the generator (and fold its steady state) -- the fast
                # path's whole point.  Fetch happens inside, per entry.
                t = yield from self._run_block(op, t)
                continue

            # Instruction fetch.  The same-line case (sequential fetch
            # within one icache line, the common case by construction)
            # is inlined; everything else takes the full lookup.
            pc = op.pc
            if pc // line_instrs == icache._last_line:
                icache.hits += 1
            else:
                miss = icache_access(pc)
                if miss:
                    t += miss
                    cv[S_ICACHE] += miss
                    if temit is not None:
                        temit(node, S_ICACHE, t - miss, miss)

            if cls is _IntOp or cls is _FpOp or cls is _BranchOp:
                # Source dependencies (compute fast-path: usually floats).
                for s in op.srcs:
                    r = reg_ready_get(s)
                    if r is None:
                        continue
                    if r.__class__ is _Future:
                        if not r._done:
                            kind = reg_kind_get(s, "int")
                            self.last_stall = _KIND_STALL[kind]
                            if t > sim._now:
                                yield t - sim._now
                            yield r
                        ready = r._value
                        reg_ready[s] = ready
                    else:
                        ready = r
                    if ready > t:
                        gap = ready - t
                        kind = reg_kind_get(s, "int")
                        if kind == "mem":
                            cv[S_DEPEND] += gap
                        elif kind == "fdiv":
                            cv[S_FDIV] += gap
                        else:
                            cv[S_BYPASS] += gap
                        if temit is not None:
                            temit(node, _KIND_STALL[kind], t, gap)
                        t = ready

                if cls is _IntOp:
                    issue = t
                    t += 1
                    cv[EXEC_INT] += 1
                    if op.dst is not None:
                        reg_ready[op.dst] = issue + op.latency
                        reg_kind[op.dst] = "int" if op.latency == 1 else "fp"
                elif cls is _FpOp:
                    lat = fp_latency[op.unit]
                    if op.unit in ("fdiv", "fsqrt"):
                        if self._fdiv_free > t:
                            cv[S_FDIV] += self._fdiv_free - t
                            if temit is not None:
                                temit(node, S_FDIV, t, self._fdiv_free - t)
                            t = self._fdiv_free
                        issue = t
                        self._fdiv_free = issue + lat
                        kind = "fdiv"
                    else:
                        issue = t
                        kind = "fp"
                    t += 1
                    cv[EXEC_FP] += 1
                    if op.dst is not None:
                        reg_ready[op.dst] = issue + lat
                        reg_kind[op.dst] = kind
                else:  # BranchOp
                    t += 1
                    cv[EXEC_INT] += 1
                    flush = branch_resolve(op.backward, op.taken)
                    if flush:
                        t += flush
                        cv[S_BRANCH] += flush
                        if temit is not None:
                            temit(node, S_BRANCH, t - flush, flush)
                continue

            # Memory and synchronization ops.  Source waits and the
            # non-blocking issue sequence are inlined: the generator
            # helpers below are only entered on the slow paths (an
            # unresolved future source, a full scoreboard, a disabled
            # feature) so the common op costs no extra frames.
            srcs = getattr(op, "srcs", ())
            if srcs:
                for s in srcs:
                    r = reg_ready_get(s)
                    if r is None:
                        continue
                    if r.__class__ is _Future:
                        t = yield from self._wait_srcs(srcs, t)
                        break
                    if r > t:
                        gap = r - t
                        kind = reg_kind_get(s, "int")
                        if kind == "mem":
                            cv[S_DEPEND] += gap
                        elif kind == "fdiv":
                            cv[S_FDIV] += gap
                        else:
                            cv[S_BYPASS] += gap
                        if temit is not None:
                            temit(node, _KIND_STALL[kind], t, gap)
                        t = r

            if cls is _LoadOp:
                if probe is not None:
                    probe.load(node, op, t)
                if (op.addr >> TAG_SHIFT) == 0 or is_own_spm(op.addr, self.node):
                    free = spm_port.free_at
                    start = free if free > t else t
                    spm_port.free_at = start + 1
                    spm_port.busy_cycles += 1
                    t += 1
                    cv[EXEC_INT] += 1
                    reg_ready[op.dst] = start + local_load
                    reg_kind[op.dst] = "mem"
                elif nonblocking and sb.outstanding < sb.capacity:
                    sb.outstanding += 1
                    sb.total_issued += 1
                    if sb.outstanding > sb.peak:
                        sb.peak = sb.outstanding
                    if t > sim._now:
                        yield t - sim._now
                    fut = remote_request(node, op.addr, False, t, 1)
                    fut.add_callback(sb_release)
                    t += 1
                    cv[EXEC_INT] += 1
                    reg_ready[op.dst] = fut
                    reg_kind[op.dst] = "mem"
                else:
                    t = yield from self._issue_remote(
                        op.addr, False, t, words=1, dsts=(op.dst,),
                    )
            elif cls is _VecLoadOp:
                if probe is not None:
                    probe.vload(node, op, t)
                if compression:
                    if nonblocking and sb.outstanding < sb.capacity:
                        sb.outstanding += 1
                        sb.total_issued += 1
                        if sb.outstanding > sb.peak:
                            sb.peak = sb.outstanding
                        if t > sim._now:
                            yield t - sim._now
                        fut = remote_request(node, op.addr, False, t,
                                             len(op.dsts))
                        fut.add_callback(sb_release)
                        t += 1
                        cv[EXEC_INT] += 1
                        for dst in op.dsts:
                            reg_ready[dst] = fut
                            reg_kind[dst] = "mem"
                    else:
                        t = yield from self._issue_remote(
                            op.addr, False, t, words=len(op.dsts),
                            dsts=op.dsts,
                        )
                else:
                    # Expanded into independent word loads, one per cycle.
                    for i, dst in enumerate(op.dsts):
                        t = yield from self._issue_remote(
                            op.addr + 4 * i, False, t, words=1, dsts=(dst,),
                        )
            elif cls is _StoreOp:
                if probe is not None:
                    probe.store(node, op, t)
                if (op.addr >> TAG_SHIFT) == 0 or is_own_spm(op.addr, self.node):
                    free = spm_port.free_at
                    spm_port.free_at = (free if free > t else t) + 1
                    spm_port.busy_cycles += 1
                    t += 1
                    cv[EXEC_INT] += 1
                elif sb.outstanding < sb.capacity:
                    sb.outstanding += 1
                    sb.total_issued += 1
                    if sb.outstanding > sb.peak:
                        sb.peak = sb.outstanding
                    if t > sim._now:
                        yield t - sim._now
                    fut = remote_request(node, op.addr, True, t, 1)
                    fut.add_callback(sb_release)
                    t += 1
                    cv[EXEC_INT] += 1
                else:
                    t = yield from self._issue_remote(
                        op.addr, True, t, words=1, dsts=(),
                    )
            elif cls is _AmoOp:
                if probe is not None:
                    # Handoff: the checker processes the AMO when the
                    # packet serializes at its bank (memsys hook).
                    probe.amo_issue(node, op)
                if sb.outstanding < sb.capacity:
                    sb.outstanding += 1
                    sb.total_issued += 1
                    if sb.outstanding > sb.peak:
                        sb.peak = sb.outstanding
                    if t > sim._now:
                        yield t - sim._now
                    fut = remote_amo(node, op.addr, op.kind, op.value, t)
                    fut.add_callback(sb_release)
                    t += 1
                    cv[EXEC_INT] += 1
                    self.last_stall = S_AMO
                    yield fut
                    arrival, old = fut._value
                    if arrival > t:
                        cv[S_AMO] += arrival - t
                        if temit is not None:
                            temit(node, S_AMO, t, arrival - t)
                        t = arrival
                else:
                    t, old = yield from self._issue_amo(op, t)
                send_val = old
                if op.dst is not None:
                    reg_ready[op.dst] = t
                    reg_kind[op.dst] = "mem"
            elif cls is _FenceOp:
                t += 1
                cv[EXEC_INT] += 1
                if probe is not None:
                    probe.fence(node, t)
                if not sb.empty:
                    self.last_stall = st.STALL_FENCE
                    if t > sim._now:
                        yield t - sim._now
                    fut = sb.wait_drain()
                    yield fut
                    drained = max(t, sim._now)
                    cv[st.STALL_FENCE] += drained - t
                    if temit is not None and drained > t:
                        temit(node, st.STALL_FENCE, t, drained - t)
                    t = drained
            elif cls is _BarrierOp:
                t += 1
                cv[EXEC_INT] += 1
                self.last_stall = st.STALL_BARRIER
                if t > sim._now:
                    yield t - sim._now
                fut = op.group.arrive(self.node, t)
                yield fut
                released = max(t, sim._now)
                cv[st.STALL_BARRIER] += released - t
                if temit is not None and released > t:
                    temit(node, st.STALL_BARRIER, t, released - t)
                t = released
            elif cls is _SleepOp:
                t += op.cycles
                cv[st.STALL_IDLE] += op.cycles
                if temit is not None:
                    temit(node, st.STALL_IDLE, t - op.cycles, op.cycles)
            elif cls is _PimIssueOp:
                # Fire-and-forget, like a store -- but tracked in the
                # PIM-pending list instead of the scoreboard so ordinary
                # fences stay PIM-oblivious.
                if probe is not None:
                    probe.pim_issue(node, op, t)
                if t > sim._now:
                    yield t - sim._now
                fut = memsys.pim_request(node, op.addr, op.command, t)
                pim_pending.append(fut)
                t += 1
                cv[EXEC_INT] += 1
            elif cls is _PimReadOp:
                # Blocking: the kernel generator needs the payload (the
                # AMO discipline -- serialized at the channel).
                if t > sim._now:
                    yield t - sim._now
                fut = memsys.pim_request(node, op.addr, op.command, t)
                t += 1
                cv[EXEC_INT] += 1
                self.last_stall = S_AMO
                yield fut
                arrival, payload = fut._value
                if arrival > t:
                    cv[S_AMO] += arrival - t
                    if temit is not None:
                        temit(node, S_AMO, t, arrival - t)
                    t = arrival
                send_val = payload
            elif cls is _PimFenceOp:
                t += 1
                cv[EXEC_INT] += 1
                if probe is not None:
                    probe.pim_fence(node, t)
                if pim_pending:
                    self.last_stall = st.STALL_FENCE
                    # Completion is the max arrival over pending commands
                    # (read off the futures, not the global clock: the
                    # tile's clock may lag other components).
                    drained = t
                    for fut in pim_pending:
                        if not fut._done:
                            if t > sim._now:
                                yield t - sim._now
                            yield fut
                        v = fut._value
                        arrival = v[0] if type(v) is tuple else v
                        if arrival > drained:
                            drained = arrival
                    cv[st.STALL_FENCE] += drained - t
                    if temit is not None and drained > t:
                        temit(node, st.STALL_FENCE, t, drained - t)
                    t = drained
                    del pim_pending[:]
            else:
                raise TypeError(f"core cannot execute {op!r}")

        # Implicit drain: a tile is not finished while requests are in flight.
        if not sb.empty:
            self.last_stall = st.STALL_FENCE
            if t > sim._now:
                yield t - sim._now
            fut = sb.wait_drain()
            yield fut
            drained = max(t, sim._now)
            cv[st.STALL_FENCE] += drained - t
            if temit is not None and drained > t:
                temit(node, st.STALL_FENCE, t, drained - t)
            t = drained
        if probe is not None:
            # The implicit drain releases outstanding requests exactly
            # like an explicit fence would; the whole-launch trace span
            # ends here too.
            probe.kernel_end(node, t)
        self.finish_time = t
        return t

    # -- the batched fast path --------------------------------------------------

    def _run_block(self, op: BlockOp, t: float):
        """Replay a recorded compute window; returns the advanced clock.

        Executes the decoded body ``op.iters`` times without touching
        the kernel generator, then hands the steady state to a
        :class:`FoldTracker` so long windows advance arithmetically.
        This path only runs with no probe attached, so the
        icache state can live in locals for the whole window -- written
        back whenever control can leave the tile (future yields) and at
        the end, keeping any concurrent reader consistent.
        """
        sim = self.sim
        cv = self.counters.raw
        reg_ready = self.reg_ready
        reg_kind = self.reg_kind
        reg_ready_get = reg_ready.get
        reg_kind_get = reg_kind.get
        fp_latency = self._fp_latency
        branch_resolve = self.branch.predict_and_resolve
        local_load = self.timings.core.local_load
        spm_port = self.memsys.spms[self.node]._port
        node = self.node
        _Future = Future

        EXEC_INT = st.EXEC_INT
        EXEC_FP = st.EXEC_FP
        S_DEPEND = st.STALL_DEPEND_LOAD
        S_FDIV = st.STALL_FDIV
        S_BYPASS = st.STALL_BYPASS
        S_ICACHE = st.STALL_ICACHE
        S_BRANCH = st.STALL_BRANCH

        icache = self.icache
        miss_penalty = icache.miss_penalty
        tags = icache._tags
        num_lines = icache.num_lines
        last_line = icache._last_line
        hits = icache.hits
        misses = icache.misses

        body = op.decoded_for(icache.line_instrs)
        nbody = len(body)
        n = op.iters
        last_iter = n - 1
        # Folding needs two matching full iterations plus the final
        # per-op one, so it can only pay off from four iterations up.
        track = FoldTracker(op, self) if n > 3 else None

        i = 0
        while i < n:
            if track is not None:
                track.begin_iter(t)
            dirty = False
            for kind, line, dst, srcs, a, b in body:
                # Instruction fetch (same-line short-circuit inline).
                if line != last_line:
                    last_line = line
                    idx = line % num_lines
                    if tags[idx] == line:
                        hits += 1
                    else:
                        tags[idx] = line
                        misses += 1
                        t += miss_penalty
                        cv[S_ICACHE] += miss_penalty
                        dirty = True
                else:
                    hits += 1

                # Source dependencies.
                for s in srcs:
                    r = reg_ready_get(s)
                    if r is None:
                        continue
                    if r.__class__ is _Future:
                        if not r._done:
                            self.last_stall = _KIND_STALL[
                                reg_kind_get(s, "int")]
                            # Control leaves the tile: publish icache
                            # state, re-localize after the wakeup.
                            icache._last_line = last_line
                            icache.hits = hits
                            icache.misses = misses
                            if t > sim._now:
                                yield t - sim._now
                            yield r
                            last_line = icache._last_line
                            hits = icache.hits
                            misses = icache.misses
                        ready = r._value
                        reg_ready[s] = ready
                        dirty = True
                    else:
                        ready = r
                    if ready > t:
                        gap = ready - t
                        kindc = reg_kind_get(s, "int")
                        if kindc == "mem":
                            cv[S_DEPEND] += gap
                        elif kindc == "fdiv":
                            cv[S_FDIV] += gap
                        else:
                            cv[S_BYPASS] += gap
                        t = ready

                # Execute (kinds: 0=int, 1=fp, 2=branch, 3=load).
                if kind == 0:
                    issue = t
                    t += 1
                    cv[EXEC_INT] += 1
                    if dst is not None:
                        reg_ready[dst] = issue + a
                        reg_kind[dst] = "int" if a == 1 else "fp"
                elif kind == 1:
                    lat = fp_latency[a]
                    if b:
                        fdiv_free = self._fdiv_free
                        if fdiv_free > t:
                            cv[S_FDIV] += fdiv_free - t
                            t = fdiv_free
                        issue = t
                        self._fdiv_free = issue + lat
                        kindc = "fdiv"
                    else:
                        issue = t
                        kindc = "fp"
                    t += 1
                    cv[EXEC_FP] += 1
                    reg_ready[dst] = issue + lat
                    reg_kind[dst] = kindc
                elif kind == 2:
                    t += 1
                    cv[EXEC_INT] += 1
                    flush = branch_resolve(
                        b, a if a is not None else i < last_iter)
                    if flush:
                        t += flush
                        cv[S_BRANCH] += flush
                else:
                    free = spm_port.free_at
                    start = free if free > t else t
                    spm_port.free_at = start + 1
                    spm_port.busy_cycles += 1
                    t += 1
                    cv[EXEC_INT] += 1
                    reg_ready[dst] = start + local_load
                    reg_kind[dst] = "mem"

            if track is not None and i < last_iter - 1:
                if dirty:
                    track.dirty = True
                k = track.end_iter(t, i)
                if k > 0:
                    t = track.fold(t, k)
                    hits += k * nbody
                    i += k
                    track = None
            i += 1

        icache._last_line = last_line
        icache.hits = hits
        icache.misses = misses
        return t

    # -- memory-op helpers -------------------------------------------------------

    def _wait_srcs(self, srcs, t: float):
        """Wait for source registers; returns the advanced clock."""
        sim = self.sim
        cv = self.counters.raw
        reg_ready = self.reg_ready
        reg_kind_get = self.reg_kind.get
        for s in srcs:
            r = reg_ready.get(s)
            if r is None:
                continue
            if r.__class__ is Future:
                if not r._done:
                    self.last_stall = _KIND_STALL[reg_kind_get(s, "int")]
                    if t > sim._now:
                        yield t - sim._now
                    yield r
                ready = r._value
                reg_ready[s] = ready
            else:
                ready = r
            if ready > t:
                kind = reg_kind_get(s, "int")
                gap = ready - t
                if kind == "mem":
                    cv[st.STALL_DEPEND_LOAD] += gap
                elif kind == "fdiv":
                    cv[st.STALL_FDIV] += gap
                else:
                    cv[st.STALL_BYPASS] += gap
                if self._probe is not None:
                    self._probe.tile_stall(self.node, _KIND_STALL[kind], t,
                                           gap)
                t = ready
        return t

    def _acquire_credit(self, t: float):
        """Claim a scoreboard entry, stalling if the bit-vector is full."""
        sim = self.sim
        sb = self.scoreboard
        if sb.full:
            self.last_stall = st.STALL_CREDIT
            if t > sim._now:
                yield t - sim._now
            fut = sb.wait_credit()
            yield fut
            granted = max(t, sim._now)
            self.counters.raw[st.STALL_CREDIT] += granted - t
            if self._probe is not None and granted > t:
                self._probe.tile_stall(self.node, st.STALL_CREDIT, t,
                                       granted - t)
            t = granted
        sb.acquire()
        return t

    def _issue_remote(self, addr: int, is_write: bool, t: float,
                      words: int, dsts):
        """Inject a remote load/store; non-blocking unless the feature is off."""
        sim = self.sim
        cv = self.counters.raw
        t = yield from self._acquire_credit(t)
        if t > sim._now:
            yield t - sim._now
        fut = self.memsys.remote_request(
            self.node, addr, is_write=is_write, time=t, words=words,
        )
        fut.add_callback(self._sb_release)
        t += 1
        cv[st.EXEC_INT] += 1
        reg_ready = self.reg_ready
        reg_kind = self.reg_kind
        for dst in dsts:
            reg_ready[dst] = fut
            reg_kind[dst] = "mem"
        if not self.features.nonblocking_loads and not is_write:
            self.last_stall = st.STALL_DEPEND_LOAD
            yield fut
            arrival = fut._value
            cv[st.STALL_DEPEND_LOAD] += max(0.0, arrival - t)
            if self._probe is not None and arrival > t:
                self._probe.tile_stall(self.node, st.STALL_DEPEND_LOAD, t,
                                       arrival - t)
            t = max(t, arrival)
            for dst in dsts:
                reg_ready[dst] = arrival
        return t

    def _issue_amo(self, op: AmoOp, t: float):
        """Atomics block the kernel generator: it needs the old value."""
        sim = self.sim
        cv = self.counters.raw
        t = yield from self._acquire_credit(t)
        if t > sim._now:
            yield t - sim._now
        fut = self.memsys.remote_amo(self.node, op.addr, op.kind, op.value, t)
        fut.add_callback(self._sb_release)
        t += 1
        cv[st.EXEC_INT] += 1
        self.last_stall = st.STALL_AMO
        yield fut
        arrival, old = fut._value
        cv[st.STALL_AMO] += max(0.0, arrival - t)
        if self._probe is not None and arrival > t:
            self._probe.tile_stall(self.node, st.STALL_AMO, t, arrival - t)
        t = max(t, arrival)
        return t, old
