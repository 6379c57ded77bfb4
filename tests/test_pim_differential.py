"""Differential validation of the PIM engine against a naive reference.

Random interleavings of ordinary HBM reads/writes and PIM commands on
one pseudo-channel drive both the production
:class:`~repro.mem.hbm.PseudoChannel` + :class:`~repro.pim.PimEngine`
pair and the explicit-state :class:`~repro.pim.RefPimBank` (plain
dicts, linear scans, no pruning), then compare completion times,
payloads, final functional state, bank-ready monotonicity and bus
serialization.  Follows tests/test_audit_differential.py.

Rows stay far below 64 per bank: the production model prunes per-bank
row timestamps past that count, the reference keeps them all.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.params import HBMTiming
from repro.audit import Auditor
from repro.mem.hbm import PseudoChannel
from repro.pim import PimConfig, PimEngine, RefPimBank
from repro.pim.commands import (MacAbk, MicroOp, RdMac, WrBias, WrCrf,
                                WrGb, WrSbk)
from repro.probe import Probe

BANKS = 4
GRF, CRF, W = 4, 4, 4

_bank = st.integers(0, BANKS - 1)
_row = st.integers(0, 7)
_grf = st.integers(0, GRF - 1)
_slot = st.integers(0, CRF - 1)
_vals = st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=W)

#: Tagged op tuples; ``access`` is ordinary HBM traffic, the rest are
#: PIM commands.  Every op carries an inter-arrival gap.
_op = st.one_of(
    st.tuples(st.just("access"), st.integers(0, 63), st.booleans()),
    st.tuples(st.just("wr_gb"), _vals),
    st.tuples(st.just("wr_crf"), _slot,
              st.sampled_from(MicroOp.KINDS), _grf, _grf,
              st.integers(-3, 3).map(float)),
    st.tuples(st.just("wr_bias"), _grf, st.integers(-3, 3).map(float)),
    st.tuples(st.just("wr_sbk"), _bank, _row, _vals),
    st.tuples(st.just("mac_abk"), _row, _slot,
              st.one_of(st.none(),
                        st.lists(_bank, min_size=1, max_size=BANKS,
                                 unique=True))),
    st.tuples(st.just("rd_mac"), _bank, st.integers(0, GRF - 1),
              st.booleans()),
)
_ops = st.lists(st.tuples(_op, st.integers(0, 40)),
                min_size=1, max_size=40)


def _command(op):
    tag = op[0]
    if tag == "wr_gb":
        return WrGb(op[1])
    if tag == "wr_crf":
        return WrCrf(op[1], MicroOp(op[2], dst=op[3], src=op[4],
                                    imm=op[5]))
    if tag == "wr_bias":
        return WrBias(op[1], op[2])
    if tag == "wr_sbk":
        return WrSbk(op[1], op[2], op[3])
    if tag == "mac_abk":
        return MacAbk(row=op[1], slot=op[2], banks=op[3])
    assert tag == "rd_mac"
    grf0 = op[2]
    return RdMac(bank=op[1], grf0=grf0, count=GRF - grf0, reduce=op[3])


def _build():
    timing = HBMTiming(banks=BANKS)
    config = PimConfig(grf_entries=GRF, crf_entries=CRF, simd_width=W,
                       t_mac=3)
    channel = PseudoChannel(timing)
    engine = PimEngine(config, channel)
    ref = RefPimBank(timing, config)
    auditor = Auditor()
    probe = Probe(auditor)
    channel._probe = probe
    auditor.watch_channel(channel)
    engine._probe = probe
    auditor.watch_pim(engine)
    # Program every CRF slot and preset every accumulator so any
    # MAC_ABK / RD_MAC the stream draws is well-defined in both models.
    t = 0.0
    for slot in range(CRF):
        for model in (engine, ref):
            model.execute(WrCrf(slot, MicroOp("mac", dst=slot % GRF)), t)
        t += 1.0
    for g in range(GRF):
        for model in (engine, ref):
            model.execute(WrBias(g, 0.0), t)
        t += 1.0
    return engine, channel, ref, auditor, t + 10.0


@given(ops=_ops)
@settings(max_examples=60, deadline=None)
def test_interleavings_match_reference(ops):
    engine, channel, ref, auditor, t = _build()
    ready_low = [b.ready_at for b in channel._banks]
    for op, gap in ops:
        t += gap
        if op[0] == "access":
            addr = op[1] * 64
            done = channel.access(addr, op[2], t)
            ref_done = ref.access(addr, op[2], t)
        else:
            cmd = _command(op)
            done, payload = engine.execute(cmd, t)
            ref_done, ref_payload = ref.execute(_command(op), t)
            assert payload == ref_payload, op
        assert done == ref_done, op
        # Bank readiness only ever moves forward.
        for b, bank in enumerate(channel._banks):
            assert bank.ready_at >= ready_low[b], op
            ready_low[b] = bank.ready_at
    # Final functional state agrees lane for lane.
    assert engine.gb == ref.gb
    for b, unit in enumerate(engine.units):
        assert unit.grf == ref.grf[b], f"bank {b}"
    # The production side kept its own invariants while doing it.
    auditor.finalize(t)
    assert auditor.clean, auditor.summary()


@given(ops=_ops)
@settings(max_examples=30, deadline=None)
def test_bus_serialization_floor(ops):
    """Total bus occupancy is conserved: the channel can never finish
    before the sum of every op's bus cycles."""
    engine, channel, ref, _auditor, t = _build()
    bus_cycles = channel._bus.free_at  # prologue occupancy
    for op, gap in ops:
        t += gap
        if op[0] == "access":
            channel.access(op[1] * 64, op[2], t)
            bus_cycles += channel.burst_cycles
        else:
            cmd = _command(op)
            engine.execute(cmd, t)
            if isinstance(cmd, (WrGb, WrSbk)):
                bus_cycles += channel.burst_cycles
            elif isinstance(cmd, RdMac):
                words = cmd.payload_words(W)
                bus_cycles += 1 + -(-words // 16) * channel.burst_cycles
            else:
                bus_cycles += 1
    assert channel.last_completion >= bus_cycles or not ops
