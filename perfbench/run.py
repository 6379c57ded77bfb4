"""The repo benchmark: host speed of the HammerBlade simulator, end to end
and layer by layer.

One workload per run::

    python3 perfbench/run.py --workload kernels-compute --seed 0 \
        --seconds 25 --trace 0 [--out results.jsonl]

``--trace 0`` times untraced passes and reports the end-to-end metrics;
``--trace 1`` alternates untraced and cProfile-traced passes and reports
the per-layer split instead.  Times are scaled to reference-host seconds
by the host-speed yardstick (yardstick.py).  The last line of standard output is the
JSON result (``correct``, ``attempted``, ``failed``, ``metrics``).

All four workloads, untraced and traced, each in a fresh process::

    python3 perfbench/run.py --workload all --out results.jsonl

Compare two result sets with ``python3 perfbench/compare.py A B``.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for result stores and journals, inside the checkout.
WORK = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("kernels-compute", "kernels-memory", "cells-exchange",
             "sweep-mixed")
#: Untraced passes to take at least, so every median has three samples.
MIN_PASSES = 3
#: A run that has not finished by then stops with an error.
HARD_LIMIT_S = 170

END_TO_END = {"sim_cycles_per_s": "cycles/s", "jobs_per_s": "1/s",
              "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit."""
    from layers import CALL_LAYERS, SELF_LAYERS

    units = {f"{layer}.self_s": "s" for layer in SELF_LAYERS}
    units["other.self_s"] = "s"
    units.update({f"{layer}.calls": "count" for layer in CALL_LAYERS})
    units.update({
        "core.instructions": "count", "core.ns_per_instr": "ns",
        "engine.events": "count", "engine.ns_per_event": "ns",
        "noc.packets": "count", "noc.hops": "count",
        "noc.stall_cycles": "cycles", "noc.ns_per_hop": "ns",
        "mem.cache_hit_rate": "ratio", "mem.hbm_busy": "ratio",
        "pdes.rounds": "count", "pdes.messages": "count",
        "pdes.ms_per_round": "ms", "pdes.recv_wait_s": "s",
        "pdes.send_s": "s", "pdes.pricing_s": "s", "pdes.coord_s": "s",
        "pdes.stall_cycles": "cycles", "pdes.workers2_wall_s": "s",
        "pdes.mono_wall_s": "s",
        "pdes.speedup_vs_mono": "ratio", "pdes.seam_gap_cycles": "cycles",
    })
    units.update({
        "orch.lookups": "count", "orch.hits": "count",
        "orch.hit_ratio": "ratio", "orch.get_s": "s", "orch.put_s": "s",
        "orch.exec_s": "s", "orch.busy_ratio": "ratio",
        "orch.retries": "count",
        "trace.overhead": "ratio", "trace.coverage": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# Metrics from passes


def end_to_end(passes: Sequence[Sequence[Any]], rate: str,
               scale: Callable[[Any], float] = lambda op: 1.0
               ) -> Dict[str, float]:
    """Per kind of operation take the median over passes, then sum (times)
    or combine (rates) over kinds.  Each operation's timings are first
    multiplied by ``scale(op)`` (the yardstick's reference-host seconds
    per host second while it ran)."""
    from suite import geomean

    by_kind: Dict[str, List[Tuple[Any, float]]] = {}
    for ops in passes:
        for op in ops:
            if op.ok:
                by_kind.setdefault(op.kind, []).append((op, scale(op)))
    if not by_kind:
        return {}
    med = statistics.median
    wall = sum(med(op.wall_s * f for op, f in ops)
               for ops in by_kind.values())
    setup = sum(med(op.setup_s * f for op, f in ops)
                for ops in by_kind.values())
    units = sum(ops[0][0].units for ops in by_kind.values())
    if rate == "geomean":
        sim = geomean([med(op.cycles / (op.wall_s * f) for op, f in ops)
                       for ops in by_kind.values()])
    else:
        sim = sum(med(op.cycles for op, _f in ops)
                  for ops in by_kind.values()) / wall
    return {"sim_cycles_per_s": sim, "jobs_per_s": units / wall,
            "wall_s": wall, "setup_s": setup}


def per_layer(workload: Any, passes: List[List[Any]],
              traced: List[List[Any]],
              profiles: List[Any]) -> Dict[str, float]:
    from layers import CALL_LAYERS, SELF_LAYERS, UNATTRIBUTED, LayerProfile
    from suite import REPRO_DIR

    prof = LayerProfile(profiles, REPRO_DIR)
    n = len(profiles)
    layer_self = {k: v / n for k, v in prof.layer_self().items()}
    out: Dict[str, float] = {f"{layer}.self_s": layer_self.get(layer, 0.0)
                             for layer in SELF_LAYERS}
    out["other.self_s"] = sum(v for k, v in layer_self.items()
                              if k not in SELF_LAYERS and k != UNATTRIBUTED)
    calls = prof.calls_into()
    out.update({f"{layer}.calls": calls.get(layer, 0) / n
                for layer in CALL_LAYERS})
    ops = [op for pass_ops in traced for op in pass_ops if op.ok]

    def total(key: str) -> float:
        return sum(op.counts.get(key, 0.0) for op in ops) / n

    def per(seconds: float, count: float) -> float:
        return 1e9 * seconds / count if count else 0.0

    instr, events, hops = (total("instructions"), total("events"),
                           total("hops"))
    out["core.instructions"] = instr
    out["core.ns_per_instr"] = per(out["core.self_s"] + out["isa.self_s"],
                                   instr)
    out["engine.events"] = events
    out["engine.ns_per_event"] = per(out["engine.self_s"], events)
    out["noc.packets"] = total("packets")
    out["noc.hops"] = hops
    out["noc.stall_cycles"] = total("noc_stall_cycles")
    out["noc.ns_per_hop"] = per(out["noc.self_s"], hops)
    for key, name in (("cache_hit_rate", "mem.cache_hit_rate"),
                      ("hbm_busy", "mem.hbm_busy")):
        values = [op.counts[key] for op in ops if key in op.counts]
        out[name] = statistics.fmean(values) if values else 0.0
    plain = end_to_end(passes, workload.rate)
    out["trace.overhead"] = (end_to_end(traced, workload.rate)["wall_s"]
                             / plain["wall_s"])
    out["trace.coverage"] = prof.coverage
    out.update(workload.layer_metrics(passes, traced, prof, plain["wall_s"]))
    shares = sorted(layer_self.items(), key=lambda kv: -kv[1])
    total_s = prof.total_s / n
    print(f"traced host time per pass {total_s:.3f}s; layer shares:")
    for layer, secs in shares:
        print(f"  {layer:<16} {secs:9.4f}s {100 * secs / total_s:6.1f}%")
    return {name: float(out.get(name, 0.0)) for name in per_layer_units()}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (Linux
    reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def host_info() -> Dict[str, Any]:
    """The host's usable CPUs and Python; its speed is the run's
    ``yardstick_factor``."""
    return {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


# ---------------------------------------------------------------------------
# One workload


def measure(args: argparse.Namespace, workdir: str) -> Dict[str, Any]:
    import suite
    from yardstick import Yardstick

    workload = suite.make(args.workload, args.seed, workdir)
    prepared = workload.prepare()
    passes: List[List[Any]] = []
    traced: List[List[Any]] = []
    profiles: List[Any] = []
    yardstick = Yardstick()
    if all(op.ok for op in prepared):
        # Timed passes run on one CPU, with any worker process they fork,
        # so the yardstick times the CPU the work runs on.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            start = time.perf_counter()
            yardstick.sample()
            while True:
                t0 = time.perf_counter()
                passes.append(workload.run_pass(tick=yardstick.tick))
                if args.trace:
                    profile = cProfile.Profile()
                    traced.append(workload.run_pass(profile))
                    profiles.append(profile)
                now = time.perf_counter()
                if (len(passes) >= (1 if args.trace else MIN_PASSES)
                        and now - start + (now - t0) > args.seconds):
                    break
            yardstick.sample()
        finally:
            os.sched_setaffinity(0, cpus)
        if args.trace:
            prepared += workload.trace_extras()
    ops = prepared + [op for p in passes + traced for op in p]

    def scale(op: Any) -> float:
        return yardstick.factor(op.start, op.end)

    factors = [scale(op) for p in passes for op in p if op.ok]
    attempted = sum(op.units for op in ops)
    failures = [f for op in ops for f in op.failures]
    failed = sum(min(op.units, len(op.failures)) for op in ops)
    metrics: Dict[str, float] = {}
    raw: Dict[str, float] = {}
    if passes and not failed:
        if args.trace:
            factor = statistics.median(factors)
            units = per_layer_units()
            metrics = {name: value * factor
                       if units[name] in ("s", "ms", "ns") else value
                       for name, value in per_layer(
                           workload, passes, traced, profiles).items()}
        else:
            raw = end_to_end(passes, workload.rate)
            metrics = end_to_end(passes, workload.rate, scale)
            metrics["peak_rss_mb"] = peak_rss_mb()
    return {"correct": bool(ops) and not failed and bool(metrics),
            "attempted": max(1, attempted), "failed": failed,
            "metrics": metrics, "raw": raw, "failures": failures,
            "passes": len(passes),
            "yardstick_factor": statistics.median(factors) if factors
            else None}


def _expired(_signum: int, _frame: Any) -> None:
    raise TimeoutError(f"run exceeded {HARD_LIMIT_S}s")


def _terminated(signum: int, _frame: Any) -> None:
    # Unwind, so worker pools and PDES shards are stopped and the
    # scratch directory is removed on the way out.
    raise SystemExit(128 + signum)


def run_one(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a repro checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if os.path.realpath(os.path.dirname(repro.__file__)) != \
            os.path.realpath(os.path.join(SRC, "repro")):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    host = host_info()
    print(f"host: {json.dumps(host)}  workload {args.workload} seed "
          f"{args.seed} seconds {args.seconds} trace {args.trace}")
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    signal.signal(signal.SIGALRM, _expired)
    signal.signal(signal.SIGTERM, _terminated)
    # A process forked while a profiler runs (PDES shard workers, sweep
    # pool workers) would inherit the profile hook and run slowed down for
    # nothing: its profile is never read.  Only this process is traced.
    os.register_at_fork(after_in_child=lambda: sys.setprofile(None))
    signal.alarm(HARD_LIMIT_S)
    try:
        record = measure(args, workdir)
    except TimeoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run's scratch is still there
    for failure in record["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    units = END_TO_END if not args.trace else per_layer_units()
    print(f"{record['passes']} untraced pass(es); {record['attempted']} "
          f"operation(s), {record['failed']} failed")
    if record["yardstick_factor"] is not None:
        print(f"yardstick: {record['yardstick_factor']:.4f} reference-host "
              "seconds per host second (median over operations)")
    for name, value in record["metrics"].items():
        raw = record["raw"].get(name)
        note = f"  (host: {raw:.6g})" if raw is not None else ""
        print(f"  {name:<24} {value:>16.6g} {units[name]}{note}")
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"],
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in record["metrics"].items()}}
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": args.workload,
                                 "seed": args.seed, "seconds": args.seconds,
                                 "trace": args.trace, "host": host,
                                 "yardstick_factor":
                                 record["yardstick_factor"],
                                 "raw_metrics": record["raw"],
                                 **result}) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, each in a fresh process (so
    ``peak_rss_mb`` is per workload)."""
    out = args.out or os.path.join(ROOT, "perfbench-results.jsonl")
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--out", out]
            proc = subprocess.run(cmd, cwd=ROOT, timeout=4 * HARD_LIMIT_S,
                                  stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            last = json.loads(lines[-1]) if proc.returncode == 0 else {}
            if not last.get("correct"):
                status = 1
            print(f"== {workload} trace={trace}: exit {proc.returncode}, "
                  f"correct={last.get('correct')}", flush=True)
    print(f"results appended to {out}")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-speed benchmark of the repro simulator.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result record (JSONL)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
