"""Differential validation: fast timing models vs naive references.

Randomized traffic (hypothesis) drives both the optimized implementation
and the first-principles reference from :mod:`repro.audit.reference`,
then compares observable behaviour.  The references are deliberately
dumb -- linear scans, explicit flags -- so a shared bug is implausible.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.geometry import CellGeometry, ChipGeometry
from repro.arch.params import CacheTiming, HBMTiming, NocTiming
from repro.audit import (
    Auditor,
    RefLruCache,
    hbm_min_latency,
    hbm_serialization_floor,
    min_hops,
    noc_store_and_forward_floor,
)
from repro.engine import Simulator
from repro.mem.cache import CacheBank
from repro.mem.hbm import PseudoChannel
from repro.noc.network import Network
from repro.noc.wormhole import WormholeStrip
from repro.probe import Probe

# -- cache bank vs O(ways)-scan LRU reference --------------------------------

#: (line index, kind) pairs: a small line pool over few sets/ways keeps
#: the traffic conflict-heavy, which is where replacement bugs live.
cache_ops = st.lists(
    st.tuples(st.integers(0, 11),
              st.sampled_from(["load", "store", "amo"])),
    min_size=1, max_size=40)


def drive_bank(sim, bank, ops):
    """Sequential driving: each access completes before the next issues,
    the regime where the functional reference is exact."""
    for line, kind in ops:
        fut = bank.access(line * 0x40, kind == "store", sim.now,
                          is_amo=(kind == "amo"))
        done = []
        fut.add_callback(lambda _v: done.append(True))
        sim.run()
        assert done, "access never completed"


@given(ops=cache_ops, write_validate=st.booleans())
@settings(max_examples=60, deadline=None)
def test_cache_counters_match_reference(ops, write_validate):
    sim = Simulator()
    timing = CacheTiming(sets=2, ways=2, mshr_entries=4)
    bank = CacheBank(sim, timing, PseudoChannel(HBMTiming()),
                     WormholeStrip(num_banks=4), bank_x=0,
                     write_validate=write_validate)
    auditor = Auditor()
    bank._probe = Probe(auditor)
    auditor.watch_bank(bank)
    ref = RefLruCache(sets=2, ways=2, block_bytes=timing.block_bytes,
                      write_validate=write_validate)

    drive_bank(sim, bank, ops)
    for line, kind in ops:
        ref.access(line * 0x40, kind == "store", is_amo=(kind == "amo"))

    for key in ("accesses", "amos", "load_hits", "store_hits",
                "load_misses", "store_misses", "evictions", "writebacks"):
        assert bank.counters.get(key) == ref.counters[key], key
    assert bank.hbm.counters.get("reads") == ref.counters["hbm_reads"]
    assert bank.hbm.counters.get("writes") == ref.counters["hbm_writes"]
    auditor.finalize(sim.now)
    assert auditor.clean, auditor.summary()


@given(ops=cache_ops)
@settings(max_examples=30, deadline=None)
def test_cache_occupancy_never_exceeds_ways(ops):
    sim = Simulator()
    timing = CacheTiming(sets=2, ways=2, mshr_entries=4)
    bank = CacheBank(sim, timing, PseudoChannel(HBMTiming()),
                     WormholeStrip(num_banks=4), bank_x=0)
    drive_bank(sim, bank, ops)
    assert all(len(ways) <= 2 for ways in bank._sets)
    assert bank.occupancy() <= 4


# -- HBM pseudo-channel vs analytic bounds -----------------------------------

hbm_ops = st.lists(
    st.tuples(st.integers(0, 255),  # line index (16 KiB footprint)
              st.booleans(),  # is_write
              st.integers(0, 30)),  # inter-arrival gap
    min_size=1, max_size=50)


@given(ops=hbm_ops)
@settings(max_examples=60, deadline=None)
def test_hbm_latency_and_serialization_floors(ops):
    timing = HBMTiming()
    channel = PseudoChannel(timing)
    auditor = Auditor()
    channel._probe = Probe(auditor)
    auditor.watch_channel(channel)
    floor = hbm_min_latency(timing, channel.burst_cycles)
    t = 0.0
    for line, is_write, gap in ops:
        t += gap
        done = channel.access(line * 64, is_write, t)
        assert done - t >= floor
    # The shared bus serializes bursts: total elapsed bus time can never
    # be shorter than n * tBL.
    assert (channel.last_completion
            >= hbm_serialization_floor(len(ops), channel.burst_cycles))
    assert auditor.clean, auditor.summary()


@given(ops=hbm_ops, elapsed_pad=st.integers(0, 500))
@settings(max_examples=60, deadline=None)
def test_hbm_utilization_partitions_time(ops, elapsed_pad):
    channel = PseudoChannel(HBMTiming())
    t = 0.0
    for line, is_write, gap in ops:
        t += gap
        channel.access(line * 64, is_write, t)
    util = channel.utilization(channel.last_completion + elapsed_pad)
    assert all(0.0 <= v <= 1.0 for v in util.values())
    assert abs(sum(util.values()) - 1.0) < 1e-9


@given(ops=hbm_ops)
@settings(max_examples=40, deadline=None)
def test_hbm_bank_ready_monotone(ops):
    channel = PseudoChannel(HBMTiming())
    t = 0.0
    lows = {}
    for line, is_write, gap in ops:
        t += gap
        bank_idx, _row = channel._bank_and_row(line * 64)
        channel.access(line * 64, is_write, t)
        ready = channel._banks[bank_idx].ready_at
        assert ready >= lows.get(bank_idx, 0.0)
        lows[bank_idx] = ready


# -- global NoC vs store-and-forward bound -----------------------------------

coords = st.tuples(st.integers(0, 7), st.integers(0, 3))
packets = st.lists(
    st.tuples(coords, coords, st.integers(1, 8), st.integers(0, 10)),
    min_size=1, max_size=30)


@given(packets=packets, ruche=st.booleans())
@settings(max_examples=60, deadline=None)
def test_noc_latency_decomposes_and_hops_bounded(packets, ruche):
    chip = ChipGeometry(CellGeometry(8, 4), cells_x=1, cells_y=1)
    timing = NocTiming()
    net = Network(chip, timing, ruche=ruche, order="xy")
    auditor = Auditor()
    net._probe = Probe(auditor)
    t = 0.0
    for src, dst, flits, gap in packets:
        t += gap
        report = net.send(src, dst, flits, t)
        hops_floor = min_hops(src, dst, timing.ruche_factor, ruche)
        assert report.hops >= hops_floor
        # Contention only ever adds: arrival minus accumulated stalls is
        # exactly the store-and-forward zero-load bound for the route
        # actually taken.
        zero_load = noc_store_and_forward_floor(report.hops, flits, timing)
        assert report.arrival - report.stall_cycles == t + zero_load
        assert report.arrival >= t + noc_store_and_forward_floor(
            hops_floor, flits, timing)
    assert auditor.clean, auditor.summary()


@given(src=coords, dst=coords, flits=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_noc_zero_load_matches_uncontended_send(src, dst, flits):
    chip = ChipGeometry(CellGeometry(8, 4), cells_x=1, cells_y=1)
    net = Network(chip, NocTiming(), ruche=False, order="xy")
    report = net.send(src, dst, flits, time=0)
    assert report.arrival == net.zero_load_latency(src, dst, flits)
    assert report.stall_cycles == 0
