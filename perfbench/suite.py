"""The benchmark's four workloads: seeded inputs, timed passes, gates.

A workload runs in *passes*.  A pass is the workload's whole set of
operations once; every simulation in it gets a freshly built machine, so
the modelled caches start cold.  Each operation is timed in two parts:

* ``setup_s`` -- input generation, ``Session``/machine construction and
  launch (or, for the sweep, fingerprint + plan + store open);
* ``wall_s`` -- the run itself (``Session.run`` / ``run_jobs``).

Every operation is also checked (cycle pins, host references, PIM
matches, 1-vs-2-worker PDES fingerprints, job outcomes); a failed check,
an exception or a run longer than ``OP_TIMEOUT_S`` counts it as failed.
The workloads only *call* ``repro``'s public functions; nothing in the
simulator is patched.
"""

from __future__ import annotations

import cProfile
import gc
import math
import os
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from layers import LayerProfile
from repro.arch.config import HB_16x8
from repro.experiments import HARNESSES
from repro.kernels import (aes, barneshut, bfs, blackscholes, fft, jacobi,
                           pagerank, sgemm, smithwaterman, spgemm)
from repro.kernels.registry import SUITE
from repro.orch import (ResultStore, RunJournal, Sweep, build_plan,
                        code_fingerprint, run_jobs)
from repro.pdes import fixture as xfix
from repro.pim.kernels import OFFLOADS
from repro.session import Session
from repro.workloads.graphs import hollywood_like, roadnet_like, wiki_vote_like

REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))

#: The seed whose inputs are exactly today's ``small`` suite inputs.
DEFAULT_SEED = 0
#: Worker processes of the untimed reference runs (PDES shards, sweep
#: pre-cache); the host has 2 CPUs.
WORKERS = 2
#: Worker processes of the timed runs.  On a 2-vCPU host, timed
#: 2-process runs were bimodal: the same exchange pass took 1.8 s or
#: 4.0 s, the same sweep pass 6.7 s or 8.6 s, depending on how much of
#: the second vCPU the host granted (wall_s spreads of 0.63 and 0.17 over
#: ten seeds, against 0.04 for kernels-memory in the same runs).  One
#: worker keeps the code paths: the PDES window loop, pricing and
#: transport protocol through the serial transport (bit-identical to any
#: worker count), and the sweep pool with one worker process.
TIMED_WORKERS = 1
#: A single simulation or job slower than this counts as failed.
OP_TIMEOUT_S = 60.0

#: Small-size cycle pins on HB-16x8 (tests/test_engine_batch.py,
#: GOLDEN_CYCLES_SMALL); checked at the default seed.
PINS = {"AES": 9027, "BS": 3642, "SW": 3290, "SGEMM": 4753, "FFT": 5204,
        "Jacobi": 3978, "SpGEMM": 11569, "PR": 3211, "BFS": 46757,
        "BH": 12044}


@dataclass
class Op:
    """One timed unit: a simulation, or a whole sweep of ``units`` jobs."""

    kind: str
    units: int = 1
    setup_s: float = 0.0
    wall_s: float = 0.0
    #: Simulated cycles the timed part delivered (the rate numerator).
    cycles: float = 0.0
    failures: List[str] = field(default_factory=list)
    #: Deterministic layer counters (events, instructions, packets ...).
    counts: Dict[str, float] = field(default_factory=dict)
    #: ``perf_counter()`` when set-up began and when the run ended.
    start: float = 0.0
    end: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def timed(fn: Callable[[], Any], profiler: Any = None) -> Tuple[Any, float]:
    """``(fn(), seconds)``; with a profiler, profile exactly this call."""
    if profiler is not None:
        profiler.enable()
    t0 = time.perf_counter()
    try:
        return fn(), time.perf_counter() - t0
    finally:
        if profiler is not None:
            profiler.disable()


def run_op(kind: str, setup: Callable[[], Any],
           run: Callable[[Any], Any],
           finish: Callable[[Op, Any, Any], Optional[str]],
           profiler: Any = None) -> Op:
    """Time ``setup`` then ``run``; ``finish`` records counts and returns
    an error string when the outputs are wrong."""
    op = Op(kind)
    # Free the previous operation's machine first, so its cyclic garbage
    # is not collected inside this one's timed set-up or run.
    gc.collect()
    op.start = time.perf_counter()
    try:
        state, op.setup_s = timed(setup, profiler)
        result, op.wall_s = timed(lambda: run(state), profiler)
        op.end = time.perf_counter()
        error = finish(op, state, result)
    except Exception as exc:  # a crashed simulation is a counted failure
        error = f"{type(exc).__name__}: {exc}"
    if error is None and op.wall_s > OP_TIMEOUT_S:
        error = f"timeout: {op.wall_s:.1f}s > {OP_TIMEOUT_S:.0f}s"
    if error is not None:
        op.failures.append(f"{kind}: {error}")
    return op


def sim_counts(session: Session, result: Any) -> Dict[str, float]:
    """Layer counters of one monolithic simulation."""
    net = result.network
    return {"events": session.sim.events_executed,
            "instructions": result.instructions,
            "packets": net.get("packets", 0.0), "hops": net.get("hops", 0.0),
            "noc_stall_cycles": net.get("stall_cycles", 0.0),
            "cache_hit_rate": result.cache_hit_rate or 0.0,
            "hbm_busy": result.hbm.get("busy", 0.0)}


# ---------------------------------------------------------------------------
# kernels-compute / kernels-memory

def kernel_args(name: str, seed: int) -> Dict[str, Any]:
    """Small-tier launch args; ``DEFAULT_SEED`` reproduces
    ``repro.experiments.common.suite_args(name, "small")`` exactly."""
    s = seed
    makers: Dict[str, Callable[[], Dict[str, Any]]] = {
        "AES": lambda: aes.make_args(blocks_per_tile=6, seed=s),
        "BS": lambda: blackscholes.make_args(options_per_tile=8, seed=s),
        "SW": lambda: smithwaterman.make_args(query_len=12, ref_len=16,
                                              seed=s),
        "SGEMM": lambda: sgemm.make_args(n=56, seed=s),
        "FFT": lambda: fft.make_args(n=1024, seed=s),
        "Jacobi": lambda: jacobi.make_args(z_depth=32, iters=1),
        # Graph generators keep their own default seeds at seed 0.
        "SpGEMM": lambda: spgemm.make_args(
            matrix=wiki_vote_like(scale=0.15, seed=1 + s)),
        "PR": lambda: pagerank.make_args(
            graph=hollywood_like(scale=0.12, seed=2 + s), iters=1),
        "BFS": lambda: bfs.make_args(
            graph=roadnet_like(width=16, height=16, seed=3 + s)),
        "BH": lambda: barneshut.make_args(num_bodies=64, seed=s),
    }
    return makers[name]()


def check_kernel(name: str, seed: int, args: Dict[str, Any],
                 session: Session, result: Any) -> Optional[str]:
    """Cycle pin (default seed) and host-reference checks."""
    if seed == DEFAULT_SEED and result.cycles != PINS[name]:
        return f"cycles {result.cycles} != pin {PINS[name]}"
    if name == "BFS":
        want = bfs.reference_bfs(args["graph"], args["source"])
        if not np.array_equal(args["state"]["distance"], want):
            return "distances differ from reference_bfs"
    elif name == "SW":
        scores = args.get("computed_scores", {})
        if len(scores) != len(args["query_data"]):
            return f"{len(scores)} scores for {len(args['query_data'])} pairs"
        for pair, score in scores.items():
            want = smithwaterman.reference_score(args["query_data"][pair],
                                                 args["ref_data"][pair])
            if score != want:
                return f"pair {pair}: score {score} != reference {want}"
    elif name == "PR":
        # PR is timing-only in the model (ranks are not computed), so the
        # check is the reference itself plus the simulated AMO work
        # counters: each phase's counter ends at exactly one chunk grab per
        # chunk of nodes plus one overshooting grab per tile.
        graph, iters = args["graph"], args["iters"]
        ranks = pagerank.reference_pagerank(graph, iters)
        if not (np.all(np.isfinite(ranks)) and np.all(ranks > 0)):
            return "reference_pagerank not finite/positive"
        cell = session.cell(0, 0)
        chunk = pagerank.CHUNK
        want = chunk * (-(-graph.num_rows // chunk) + result.num_tiles)
        for phase in range(2 * iters):
            claimed = cell.peek(args["counters"] + 64 * phase)
            if claimed != want:
                return f"phase {phase} work counter {claimed} != {want}"
    elif name == "BS":
        # BS is timing-only too: check the reference prices against the
        # no-arbitrage bounds max(0, S - K e^-rT) <= C <= S.
        batch = args["batch"]
        prices = blackscholes.reference_prices(batch)
        spot = batch.spot.astype(np.float64)
        floor = np.maximum(0.0, spot - batch.strike * np.exp(
            -batch.rate.astype(np.float64) * batch.expiry))
        if not (np.all(np.isfinite(prices))
                and np.all(prices >= floor - 1e-6)
                and np.all(prices <= spot + 1e-6)):
            return "reference_prices outside no-arbitrage bounds"
    return None


class Kernels:
    """Suite kernels (and PIM offload pairs) on HB-16x8, one machine each."""

    rate = "geomean"

    def __init__(self, seed: int, kernels: Sequence[str],
                 offloads: Sequence[str] = ()) -> None:
        self.seed = seed
        self.kernels = list(kernels)
        self.offloads = list(offloads)
        self.pim_config = (HB_16x8 if HB_16x8.pim is not None
                           else HB_16x8.with_pim())

    def prepare(self) -> List[Op]:
        return []

    def run_pass(self, profiler: Any = None,
                 tick: Callable[[], None] = lambda: None) -> List[Op]:
        ops = []
        for name in self.kernels:
            ops.append(self._kernel_op(name, profiler))
            tick()
        for name in self.offloads:
            ops.extend(self._offload_ops(name, profiler))
            tick()
        return ops

    def _kernel_op(self, name: str, profiler: Any) -> Op:
        def setup() -> Tuple[Dict[str, Any], Session]:
            args = kernel_args(name, self.seed)
            session = Session(HB_16x8)
            session.launch(SUITE[name].kernel, args)
            return args, session

        def finish(op: Op, state: Any, result: Any) -> Optional[str]:
            args, session = state
            op.cycles = result.cycles
            op.counts = sim_counts(session, result)
            return check_kernel(name, self.seed, args, session, result)

        return run_op(name, setup, lambda st: st[1].run()[0], finish,
                      profiler)

    def _offload_ops(self, name: str, profiler: Any) -> List[Op]:
        """Tile-side then memory-side run; the outputs must match."""
        off = OFFLOADS[name]
        pim = self.pim_config.pim
        outputs: Dict[str, Any] = {}

        def make_args() -> Dict[str, Any]:
            return off.make_args(nbanks=self.pim_config.timings.hbm.banks,
                                 simd_width=pim.simd_width,
                                 grf_entries=pim.grf_entries,
                                 seed=self.seed, **off.sizes["small"])

        def tile_setup() -> Tuple[Dict[str, Any], Session]:
            args = make_args()
            session = Session(HB_16x8)
            session.launch(off.tile, args)
            return args, session

        def pim_setup() -> Tuple[Dict[str, Any], Session]:
            args = make_args()
            session = Session(self.pim_config)
            session.launch(off.pim, args, setup=lambda machine: off.preload(
                machine.memsys.pim_engines[(0, 0)], args))
            return args, session

        def finish(side: str) -> Callable[[Op, Any, Any], Optional[str]]:
            def check(op: Op, state: Any, result: Any) -> Optional[str]:
                args, session = state
                op.cycles = result.cycles
                op.counts = sim_counts(session, result)
                outputs[side] = args["out"]
                if side == "pim" and outputs.get("tile") != args["out"]:
                    return "PIM output does not match the tile-side output"
                return None
            return check

        return [run_op(f"{name}-{side}", setup, lambda st: st[1].run()[0],
                       finish(side), profiler)
                for side, setup in (("tile", tile_setup),
                                    ("pim", pim_setup))]

    def trace_extras(self) -> List[Op]:
        return []

    def layer_metrics(self, passes: List[List[Op]], traced: List[List[Op]],
                      layers: LayerProfile, wall_s: float) -> Dict[str, float]:
        return {}


# ---------------------------------------------------------------------------
# cells-exchange

CELLS = (2, 1)
#: Exchange problems per pass; each draws its per-Cell block sizes.
PROBLEMS = 16


class CellsExchange:
    """The PDES exchange fixture on 2x1 Cells, windowed, contention on."""

    rate = "aggregate"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = HB_16x8.with_geometry(cells_x=CELLS[0],
                                            cells_y=CELLS[1])
        rng = random.Random(seed)
        ncells = CELLS[0] * CELLS[1]
        #: Words each Cell pushes to its ring neighbour, per problem.
        self.problems = [tuple(rng.randrange(64, 257, 16)
                               for _ in range(ncells))
                         for _ in range(PROBLEMS)]
        self.mono_cycles: List[List[float]] = []
        #: Per problem: the 2-worker fingerprint and |PDES - mono| cycles.
        self.fingerprints: List[str] = []
        self.gaps: List[float] = []
        self.mono_wall = 0.0
        self.workers2_wall = 0.0
        self.coord_profile = cProfile.Profile()

    def session(self, words: Sequence[int],
                workers: Optional[int]) -> Session:
        """PDES session (``workers``) or monolithic (``None``), launched."""
        if workers is None:
            session = Session(self.config)
        else:
            session = Session(HB_16x8, cells=CELLS, workers=workers)
        for spec, count in zip(xfix.exchange_launches(self.config), words):
            session.launch(xfix.EXCHANGE, dict(spec.args, words=count),
                           cell=spec.cell)
        return session

    def _pdes_op(self, idx: int, workers: int, profiler: Any = None) -> Op:
        words = self.problems[idx]

        def finish(op: Op, _session: Any, res: Any) -> Optional[str]:
            op.cycles = res.aggregate_cycles
            results = [r for s in res.shards for r in s["results"]]
            op.counts = {
                "rounds": res.rounds, "messages": res.messages,
                "pdes_stall_cycles": (res.contention or {}).get(
                    "stall_cycles", 0),
                "events": res.total_events,
                "instructions": sum(r["instructions"] for r in results),
                "packets": sum(r["network"]["packets"] for r in results),
                "hops": sum(r["network"]["hops"] for r in results),
                "noc_stall_cycles": sum(r["network"]["stall_cycles"]
                                        for r in results)}
            if idx < len(self.fingerprints):
                if res.fingerprint() != self.fingerprints[idx]:
                    return (f"fingerprint at {workers} worker(s) differs "
                            f"from {WORKERS} workers")
            else:  # the 2-worker reference being built in prepare()
                self.fingerprints.append(res.fingerprint())
                self.gaps.append(sum(abs(m - c) for m, c in zip(
                    self.mono_cycles[idx], res.cycles)))
            return None

        return run_op(f"exchange-{idx}", lambda: self.session(words, workers),
                      lambda s: s.run(), finish, profiler)

    def _mono_op(self, idx: int) -> Op:
        def finish(op: Op, _session: Any, results: Any) -> Optional[str]:
            op.cycles = sum(r.cycles for r in results)
            if len(self.mono_cycles) <= idx:
                self.mono_cycles.append([r.cycles for r in results])
            return None

        return run_op(f"mono-{idx}",
                      lambda: self.session(self.problems[idx], None),
                      lambda s: s.run(), finish)

    def prepare(self) -> List[Op]:
        """Untimed: monolithic references and 2-worker fingerprints (the
        first 2-worker run also pays the fork/import warm-up)."""
        ops = [self._mono_op(i) for i in range(PROBLEMS)]
        if all(op.ok for op in ops):
            ops += [self._pdes_op(i, WORKERS) for i in range(PROBLEMS)]
        return ops

    def run_pass(self, profiler: Any = None,
                 tick: Callable[[], None] = lambda: None) -> List[Op]:
        ops = []
        for i in range(PROBLEMS):
            ops.append(self._pdes_op(i, TIMED_WORKERS, profiler))
            tick()
        return ops

    def trace_extras(self) -> List[Op]:
        """Traced runs only: time the (now warm) monolithic runs, and the
        2-worker runs with their coordinator process profiled."""
        mono = [self._mono_op(i) for i in range(PROBLEMS)]
        self.mono_wall = sum(op.wall_s for op in mono)
        pdes = [self._pdes_op(i, WORKERS, self.coord_profile)
                for i in range(PROBLEMS)]
        self.workers2_wall = sum(op.wall_s for op in pdes)
        return mono + pdes

    def layer_metrics(self, passes: List[List[Op]], traced: List[List[Op]],
                      layers: LayerProfile, wall_s: float) -> Dict[str, float]:
        """Window-loop split of the in-process run, the 2-worker
        coordinator's wait and send time, and the monolithic comparison."""
        n = len(traced)
        coord = LayerProfile([self.coord_profile], REPRO_DIR)
        counts = traced[0]
        rounds = sum(op.counts["rounds"] for op in counts)
        return {
            "pdes.rounds": rounds,
            "pdes.messages": sum(op.counts["messages"] for op in counts),
            "pdes.stall_cycles": sum(op.counts["pdes_stall_cycles"]
                                     for op in counts),
            "pdes.ms_per_round": 1e3 * wall_s / rounds,
            "pdes.pricing_s": layers.module_seconds("pdes/contention.py") / n,
            "pdes.coord_s": layers.module_seconds("pdes/coordinator.py") / n,
            "pdes.recv_wait_s": coord.cumulative("pdes/coordinator.py",
                                                 "_recv")[1],
            "pdes.send_s": coord.cumulative("multiprocessing/connection.py",
                                            "send")[1],
            "pdes.workers2_wall_s": self.workers2_wall,
            "pdes.mono_wall_s": self.mono_wall,
            "pdes.speedup_vs_mono": self.mono_wall / self.workers2_wall,
            "pdes.seam_gap_cycles": sum(self.gaps),
        }


# ---------------------------------------------------------------------------
# sweep-mixed

#: Harness -> ``jobs()`` arguments: fig10's feature ladder for three
#: kernels plus fig4's barrier jobs, 46 jobs.  Their short jobs keep a
#: sweep near one second, so the yardstick samples around it track the
#: host's speed while it ran (2-4 s sweeps with BFS and AES in the plan
#: spread 0.08-0.10 over ten seeds).
SWEEP_PLAN = {"fig10": {"kernels": ["SGEMM", "SW", "BS"]},
              "fig4": {}}
SWEEP_SIZE = "tiny"


class SweepMixed:
    """fig10 + fig4 jobs at tiny through ``run_jobs``, half pre-cached.

    A pass runs the plan twice: once with the seed's half of the jobs
    pre-cached, once with the other half.  Every job is thus executed
    fresh exactly once per pass, so a pass does the same work for every
    seed (which half is cached changes the fresh work of a single sweep
    by a spread of 0.1)."""

    rate = "aggregate"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        #: Every job's payload from the untimed 2-worker run: what the
        #: store is seeded with and what every fresh run must reproduce.
        self.master: Dict[str, Any] = {}
        #: The pre-cached key set of each of the pass's two sweeps.
        self.halves: List[set] = []

    def _plan(self) -> Tuple[str, Any]:
        """Fingerprint (its cache cleared, as in a fresh process) and plan."""
        code_fingerprint.cache_clear()
        fingerprint = code_fingerprint()
        sweeps = [Sweep(name, HARNESSES[name].jobs(size=SWEEP_SIZE, **extra),
                        HARNESSES[name].reduce)
                  for name, extra in SWEEP_PLAN.items()]
        return fingerprint, build_plan(sweeps, fingerprint)

    def _open(self) -> Tuple[str, Any, ResultStore]:
        """Set-up users pay per sweep: fingerprint, plan, a fresh store."""
        store = ResultStore(tempfile.mkdtemp(prefix="store-",
                                             dir=self.workdir))
        return (*self._plan(), store)

    def _choose_cached(self, plan: Any) -> set:
        """Keys of a seed-chosen half of the jobs, stratified by kernel."""
        groups: Dict[str, List[Tuple[str, Any]]] = {}
        for job in plan.unique_jobs:
            group = str(job.params.get("kernel", job.experiment))
            groups.setdefault(group, []).append((plan.key_of[id(job)], job))
        rng = random.Random(self.seed)
        chosen: set = set()
        for i, group in enumerate(sorted(groups)):
            members = sorted(groups[group], key=lambda kj: kj[1].key)
            rng.shuffle(members)
            chosen.update(key for key, _job in
                          members[:(len(members) + i % 2) // 2])
        return chosen

    def prepare(self) -> List[Op]:
        """Untimed: run every job once."""
        fingerprint, plan = self._plan()
        jobs = plan.unique_jobs
        keys = [plan.key_of[id(job)] for job in jobs]
        chosen = self._choose_cached(plan)
        self.halves = [chosen, set(keys) - chosen]
        outcomes = run_jobs(jobs, workers=WORKERS, fingerprint=fingerprint,
                            keys=keys, default_timeout=OP_TIMEOUT_S)
        op = Op("precache", units=len(outcomes))
        for outcome in outcomes:
            if outcome.status == "ok":
                self.master[outcome.key] = outcome.payload
            else:
                op.failures.append(f"{outcome.job.experiment}/"
                                   f"{outcome.job.key}: {outcome.status}")
        return [op]

    def run_pass(self, profiler: Any = None,
                 tick: Callable[[], None] = lambda: None) -> List[Op]:
        ops = []
        for kind, cached in zip(("sweep-a", "sweep-b"), self.halves):
            ops.append(self._sweep(kind, cached, profiler))
            tick()
        return ops

    def _sweep(self, kind: str, cached: set, profiler: Any) -> Op:
        gc.collect()
        start = time.perf_counter()
        (fingerprint, plan, store), setup_s = timed(self._open, profiler)
        jobs = plan.unique_jobs
        keys = [plan.key_of[id(job)] for job in jobs]
        op = Op(kind, units=len(jobs), setup_s=setup_s, start=start)
        try:
            for key, job in zip(keys, jobs):
                if key in cached:
                    store.put(key, job, self.master[key],
                              meta={"fingerprint": fingerprint})
            journal_path = os.path.join(store.root, "journal.jsonl")
            with RunJournal(journal_path) as journal:
                journal.write_header(fingerprint=fingerprint,
                                     sweeps=list(SWEEP_PLAN),
                                     size=SWEEP_SIZE, jobs=len(jobs),
                                     workers=TIMED_WORKERS, cache=True)
                outcomes, op.wall_s = timed(lambda: run_jobs(
                    jobs, workers=TIMED_WORKERS, store=store,
                    fingerprint=fingerprint, keys=keys, journal=journal,
                    default_timeout=OP_TIMEOUT_S), profiler)
                op.end = time.perf_counter()
                journal.write_footer(wall_s=round(op.wall_s, 3))
        except Exception as exc:  # a crashed sweep fails all its jobs
            op.failures += [f"{kind}: {type(exc).__name__}: {exc}"] * op.units
            return op
        finally:
            shutil.rmtree(store.root, ignore_errors=True)
        self._check(op, outcomes, cached)
        return op

    def _check(self, op: Op, outcomes: List[Any], cached: set) -> None:
        fresh = [o for o in outcomes if o.status == "ok"]
        for outcome in outcomes:
            name = f"{outcome.job.experiment}/{outcome.job.key}"
            expect = "cached" if outcome.key in cached else "ok"
            if outcome.status != expect:
                op.failures.append(f"{name}: {outcome.status} "
                                   f"(expected {expect})")
            elif outcome.payload != self.master[outcome.key]:
                op.failures.append(f"{name}: payload differs from the "
                                   "2-worker run")
        # Cycles the sweep delivers, cached or fresh: the same total for
        # every seed, whichever half was pre-cached.
        op.cycles = sum(float((o.payload or {}).get("cycles") or 0.0)
                        for o in outcomes)
        op.counts = {
            "hits": sum(o.status == "cached" for o in outcomes),
            "exec_s": sum(o.wall_s for o in fresh),
            "retries": sum(max(0, o.attempts - 1) for o in fresh)}

    def trace_extras(self) -> List[Op]:
        return []

    def layer_metrics(self, passes: List[List[Op]], traced: List[List[Op]],
                      layers: LayerProfile, wall_s: float) -> Dict[str, float]:
        n = len(traced)
        lookups, get_s = layers.cumulative("orch/cache.py", "get")
        _puts, put_s = layers.cumulative("orch/cache.py", "put")

        def per_pass(key: str) -> float:
            return statistics.fmean(sum(op.counts[key] for op in ops)
                                    for ops in passes)

        exec_s = per_pass("exec_s")
        hits = sum(op.counts["hits"] for op in traced[0])
        return {
            "orch.lookups": lookups / n,
            "orch.hits": hits,
            "orch.hit_ratio": hits * n / lookups if lookups else 0.0,
            "orch.get_s": get_s / n,
            "orch.put_s": put_s / n,
            "orch.exec_s": exec_s,
            "orch.busy_ratio": exec_s / (TIMED_WORKERS * wall_s),
            "orch.retries": per_pass("retries"),
        }


def make(name: str, seed: int, workdir: str) -> Any:
    """The workload called ``name`` (one of ``run.WORKLOADS``)."""
    factories: Dict[str, Callable[[], Any]] = {
        "kernels-compute": lambda: Kernels(seed, ["SW", "AES", "BS"]),
        "kernels-memory": lambda: Kernels(
            seed, ["PR", "BFS", "SpGEMM", "BH", "FFT", "Jacobi", "SGEMM"],
            offloads=["GEMV", "DOT", "AXPY"]),
        "cells-exchange": lambda: CellsExchange(seed),
        "sweep-mixed": lambda: SweepMixed(seed, workdir),
    }
    return factories[name]()


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
