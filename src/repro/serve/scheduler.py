"""The asyncio job scheduler: one executor for sweeps and the daemon.

Every job the repository runs -- ``repro serve``'s submissions, ``repro
sweep`` without ``--server`` and every :func:`repro.orch.run_jobs`
caller -- goes through one :class:`Scheduler`.  It is handed the
content-addressed :class:`~repro.orch.cache.ResultStore` and the JSONL
:class:`~repro.orch.journal.RunJournal` by its front end (``run_jobs``
passes the caller's; the daemon's come from :class:`ServeConfig`)
and adds:

* **streaming intake** -- clients submit job plans at any time; jobs
  enter one priority queue (client priority, then submission order);
* **cross-client dedup** -- jobs are identified by the same cache key
  the sweep orchestrator uses (spec + arch config + code fingerprint).
  A job identical to a cached artifact is served from the store; one
  identical to an in-flight or completed job of *any* client attaches
  as a waiter and shares the single execution's result bit-for-bit;
* **quotas** -- per-client in-flight budgets (:mod:`.quotas`);
* **a slot ledger** -- a job holds ``min(max(procs, 1), workers)``
  worker slots while it runs (a multi-Cell PDES job forks ``procs``
  shard workers of its own), and an idle scheduler always admits the
  head job, so nothing starves;
* **one retry loop** -- per-job timeout, bounded retry (``retries`` + 1
  attempts) and crash replacement, implemented once in :meth:`_run`;
* **events** -- every run event is journaled and fanned out live to
  ``watch``-ing connections (the stream *is* the journal format; see
  :mod:`.protocol`).  The front end writes the ``header``/``footer``.

Execution backends: ``workers >= 1`` runs each attempt in a
:class:`~repro.orch.worker.Worker` process (job assignment over pipes,
``loop.add_reader`` on the result end); ``workers <= 0`` runs jobs in
this process one at a time (no timeout enforcement) -- on a helper
thread, so the daemon's loop stays responsive, or with ``inline=True``
on the loop's own thread, where Ctrl-C reaches the job itself.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..orch.cache import ResultStore, cache_key, default_cache_dir
from ..orch.fingerprint import code_fingerprint
from ..orch.job import CACHED, CANCELLED, FAILED, OK, TIMEOUT, Job
from ..orch.journal import RunJournal, cycles_of
from ..orch.worker import Worker, job_cost, mp_context, run_budgeted
from .quotas import ClientState, QuotaError, QuotaPolicy

#: Additional entry states next to the terminal job states.
QUEUED, RUNNING = "queued", "running"

_TERMINAL = (OK, CACHED, FAILED, TIMEOUT, CANCELLED)


@dataclass
class ServeConfig:
    """Knobs of the scheduler daemon (``repro serve``).

    ``cache_dir=None`` resolves through
    :func:`repro.orch.default_cache_dir` (``$REPRO_CACHE_DIR`` or
    ``.repro-cache``) so daemon and clients agree on one store.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (the bound port is printed/returned)
    workers: int = 0  # >=1: worker processes; <=0: in-process, one job
    cache_dir: Optional[str] = None
    journal: Optional[str] = None
    use_cache: bool = True
    default_timeout: Optional[float] = None  # per-job, process backend only
    quota: Optional[int] = None  # max in-flight originated jobs per client
    max_priority: int = 9
    stats_interval: float = 0.0  # seconds between stats events (0 = off)
    fingerprint: Optional[str] = None  # override for tests

    def resolved_cache_dir(self) -> str:
        return self.cache_dir if self.cache_dir is not None \
            else default_cache_dir()


class _Entry:
    """One unique job spec known to the scheduler (any number of
    submissions may wait on it)."""

    __slots__ = ("key", "job", "priority", "seq", "status", "payload",
                 "error", "wall_s", "attempts", "worker", "origin",
                 "waiters", "done", "counted")

    def __init__(self, key: str, job: Job, priority: int, seq: int,
                 origin: str) -> None:
        self.key = key
        self.job = job
        self.priority = priority
        self.seq = seq
        self.status = QUEUED
        self.payload: Any = None
        self.error: Optional[str] = None
        self.wall_s = 0.0
        self.attempts = 0
        self.worker: Optional[int] = None
        self.origin = origin
        self.waiters: List[Tuple[str, str]] = []  # (client_id, sub_id)
        self.done = asyncio.Event()
        self.counted = False  # charged against origin's in-flight quota


@dataclass
class _Submission:
    """One client's submitted plan: its view onto shared entries."""

    sub_id: str
    client: str
    keys: List[str]  # cache keys aligned with the submitted jobs
    modes: List[str]  # per-job cache mode: "miss" | "hit" | "dedup"
    remaining: set = field(default_factory=set)
    done: asyncio.Event = field(default_factory=asyncio.Event)


class Scheduler:
    """See the module docstring.  All methods must run on the event
    loop's thread (the daemon guarantees this); ``start`` first.

    ``store`` defaults to the one under ``config``'s cache directory
    (none when ``config.use_cache`` is off); ``journal=None`` journals
    nowhere.
    """

    def __init__(self, config: Optional[ServeConfig] = None,
                 store: Optional[ResultStore] = None,
                 journal: Optional[RunJournal] = None, *,
                 inline: bool = False) -> None:
        self.config = config or ServeConfig()
        self.run_id = os.urandom(6).hex()
        self.fingerprint = self.config.fingerprint or code_fingerprint()
        if store is not None:
            self.store: Optional[ResultStore] = store
            self.cache_dir = store.root
        else:
            self.cache_dir = self.config.resolved_cache_dir()
            self.store = (ResultStore(self.cache_dir)
                          if self.config.use_cache else None)
        self.journal = journal
        self.quotas = QuotaPolicy(self.config.quota,
                                  self.config.max_priority)
        self._entries: Dict[str, _Entry] = {}
        self._queue: List[Tuple[int, int, str]] = []  # (-prio, seq, key)
        self._subs: Dict[str, _Submission] = {}
        self._listeners: Dict[int, Callable[[Dict[str, Any]], None]] = {}
        self._seq = itertools.count()
        self._sub_ids = itertools.count(1)
        self._listener_ids = itertools.count(1)
        self.dedup_hits = 0
        self.cache_hits = 0
        self.executed = 0
        self._stopping = False
        self._tasks: List[asyncio.Task] = []
        self._kick: Optional[asyncio.Event] = None
        if self.config.workers >= 1:
            self._backend: Any = _ProcessBackend(
                self.config.workers, self.config.default_timeout)
        else:
            self._backend = _InProcessBackend(inline)
        self._held = 0  # worker slots charged to running jobs

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._kick = asyncio.Event()
        self._tasks.append(self._loop.create_task(self._dispatch()))
        if self.config.stats_interval > 0:
            self._tasks.append(
                self._loop.create_task(self._stats_loop()))

    async def shutdown(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        self._kick.set()
        for task in self._tasks:
            task.cancel()
        # return_exceptions: a task Ctrl-C stopped holds its interrupt.
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._backend.stop()

    def cancel_unfinished(self) -> None:
        """Settle every queued or running job as cancelled (Ctrl-C of a
        local run; :meth:`shutdown` then stops the workers)."""
        for entry in list(self._entries.values()):
            if entry.status in (QUEUED, RUNNING):
                self._settle(entry, CANCELLED, None, "interrupted", 0.0,
                             None)

    def counts(self) -> Dict[str, int]:
        """Entries per status (the daemon's footer)."""
        return _tally(e.status for e in self._entries.values())

    # -- event fan-out ------------------------------------------------------

    def add_listener(self, callback: Callable[[Dict[str, Any]], None]
                     ) -> int:
        token = next(self._listener_ids)
        self._listeners[token] = callback
        return token

    def remove_listener(self, token: int) -> None:
        self._listeners.pop(token, None)

    def _emit(self, event: str, *, journal: bool = True,
              **fields: Any) -> Dict[str, Any]:
        """Journal one record and push it to every live listener."""
        record = {"event": event, **fields}
        if journal and self.journal is not None:
            self.journal.write_event(event, **fields)
        for callback in list(self._listeners.values()):
            try:
                callback(record)
            except Exception:  # noqa: BLE001 -- one dead client, not all
                pass
        return record

    # -- intake -------------------------------------------------------------

    def register_client(self, name: Optional[str] = None,
                        priority: int = 0) -> ClientState:
        state = self.quotas.register(name, priority)
        self._emit("client", client=state.client_id, name=state.name,
                   priority=state.priority)
        return state

    def submit(self, client_id: str, wire_jobs: List[Dict[str, Any]],
               use_cache: bool = True) -> Dict[str, Any]:
        """Admit one plan of wire-form jobs (see :meth:`submit_jobs`)."""
        return self.submit_jobs(client_id,
                                [Job.from_wire(w) for w in wire_jobs],
                                use_cache=use_cache)

    def submit_jobs(self, client_id: str, jobs: List[Job],
                    keys: Optional[List[str]] = None,
                    use_cache: bool = True) -> Dict[str, Any]:
        """Admit one plan; returns per-job keys/statuses (atomic: a
        quota rejection admits nothing).  ``keys`` are the jobs' cache
        keys when the caller already has them.  ``use_cache=False``
        skips the store lookup only: a queued, running or completed
        entry of the same spec is still shared."""
        state = self.quotas.get(client_id)
        if keys is None:
            keys = [cache_key(job, self.fingerprint) for job in jobs]
        lookup = use_cache and self.config.use_cache

        # Classification pass -- no state mutated yet.
        planned: List[Tuple[Job, str, str, Optional[Dict[str, Any]]]] = []
        seen_new: set = set()
        new_jobs = 0
        for job, key in zip(jobs, keys):
            entry = self._entries.get(key)
            if key in seen_new:
                action, record = "dedup-sub", None
            elif entry is not None and entry.status in (OK, CACHED):
                action, record = "dedup-done", None
            elif entry is not None and entry.status in (QUEUED, RUNNING):
                action, record = "dedup-inflight", None
            else:
                # No live entry (or a failed/cancelled one): (re)compute.
                record = self.store.get(key) if (lookup and
                                                 self.store) else None
                if record is not None:
                    action = "cache-hit"
                else:
                    action = "new"
                    seen_new.add(key)
                    new_jobs += 1
            planned.append((job, key, action, record))

        try:
            self.quotas.admit(client_id, new_jobs)
        except QuotaError:
            self._emit("quota", client=client_id,
                       limit=self.quotas.quota, inflight=state.inflight,
                       denied=new_jobs)
            raise

        sub = _Submission(sub_id=f"s{next(self._sub_ids)}",
                          client=client_id, keys=keys, modes=[])
        counts = {"queued": 0, "cached": 0, "deduped": 0}
        for job, key, action, record in planned:
            if action == "new":
                entry = _Entry(key, job, state.priority,
                               next(self._seq), client_id)
                entry.counted = True
                state.inflight += 1
                self._entries[key] = entry
                heapq.heappush(self._queue,
                               (-entry.priority, entry.seq, key))
                sub.modes.append("miss")
                sub.remaining.add(key)
                counts["queued"] += 1
            elif action == "cache-hit":
                entry = _Entry(key, job, state.priority,
                               next(self._seq), client_id)
                self._entries[key] = entry
                entry.status = CACHED
                entry.payload = record["payload"]
                entry.done.set()
                state.cache_hits += 1
                self.cache_hits += 1
                self._emit("job", cache_key=key,
                           experiment=job.experiment, key=job.key,
                           outcome=CACHED, wall_s=0.0, attempts=0,
                           worker=None, error=None,
                           cycles=cycles_of(entry.payload),
                           client=client_id)
                sub.modes.append("hit")
                counts["cached"] += 1
            else:  # dedup-sub / dedup-done / dedup-inflight
                entry = self._entries[key]
                source = {"dedup-sub": "submission",
                          "dedup-done": "done",
                          "dedup-inflight": "inflight"}[action]
                state.dedup_hits += 1
                self.dedup_hits += 1
                self._emit("dedup", cache_key=key, client=client_id,
                           source=source)
                sub.modes.append("dedup")
                if entry.status not in _TERMINAL:
                    sub.remaining.add(key)
                counts["deduped"] += 1
            if entry.status not in _TERMINAL:
                entry.waiters.append((client_id, sub.sub_id))
        state.submitted += len(jobs)
        self._subs[sub.sub_id] = sub
        self._emit("submit", client=client_id, sub=sub.sub_id,
                   jobs=len(jobs), keys=keys, **counts)
        if not sub.remaining:
            self._finish_submission(sub)
        self._kick.set()
        return {
            "sub": sub.sub_id,
            "jobs": [{"key": job.key, "cache_key": key,
                      "status": self._entries[key].status, "cache": mode}
                     for (job, key, _a, _r), mode
                     in zip(planned, sub.modes)],
            **counts,
        }

    # -- progress and results ----------------------------------------------

    def status(self, sub_id: str) -> Dict[str, Any]:
        sub = self._require_sub(sub_id)
        statuses = [self._entries[k].status for k in sub.keys]
        return {"sub": sub.sub_id, "done": sub.done.is_set(),
                "statuses": statuses, "counts": _tally(statuses)}

    def results(self, sub_id: str) -> List[Dict[str, Any]]:
        """Per-job result envelopes, aligned with the submitted order.

        Payloads are delivered verbatim (bit-identical to what the
        in-process pool computes); provenance rides in the envelope.
        """
        sub = self._require_sub(sub_id)
        out = []
        for key, mode in zip(sub.keys, sub.modes):
            entry = self._entries[key]
            out.append(self._envelope(entry, mode))
        return out

    def result_of(self, key: str) -> Dict[str, Any]:
        entry = self._entries.get(key)
        if entry is None:
            raise KeyError(f"unknown job {key!r}")
        mode = "hit" if entry.status == CACHED else "miss"
        return self._envelope(entry, mode)

    def _envelope(self, entry: _Entry, mode: str) -> Dict[str, Any]:
        return {
            "key": entry.job.key,
            "experiment": entry.job.experiment,
            "cache_key": entry.key,
            "status": entry.status,
            "payload": entry.payload,
            "error": entry.error,
            "wall_s": entry.wall_s,
            "attempts": entry.attempts,
            "worker": entry.worker,
            "provenance": {
                "job": entry.job.name,
                "cache_key": entry.key,
                "cache": mode,
                "fingerprint": self.fingerprint,
                "run_id": self.run_id,
            },
        }

    async def wait_submission(self, sub_id: str,
                              timeout: Optional[float] = None) -> None:
        sub = self._require_sub(sub_id)
        await asyncio.wait_for(sub.done.wait(), timeout)

    def cancel(self, client_id: str, sub_id: str) -> Dict[str, Any]:
        """Withdraw a client from a submission; queued jobs nobody else
        waits on are cancelled (running jobs finish and warm the cache)."""
        sub = self._require_sub(sub_id)
        if sub.client != client_id:
            raise QuotaError(f"submission {sub_id} belongs to another "
                             "client")
        dropped = 0
        for key in sorted(sub.remaining):
            entry = self._entries[key]
            entry.waiters = [w for w in entry.waiters
                             if w != (client_id, sub_id)]
            if not entry.waiters and entry.status == QUEUED:
                dropped += 1
                self._settle(entry, CANCELLED, None, "cancelled", 0.0,
                             None)
        sub.remaining.clear()
        record = self._emit("cancel", client=client_id, sub=sub_id,
                            dropped=dropped)
        sub.done.set()
        return record

    def stats(self) -> Dict[str, Any]:
        queued = sum(1 for e in self._entries.values()
                     if e.status == QUEUED)
        running = sum(1 for e in self._entries.values()
                      if e.status == RUNNING)
        done = sum(1 for e in self._entries.values()
                   if e.status in _TERMINAL)
        return {
            "run_id": self.run_id, "fingerprint": self.fingerprint,
            "cache_dir": self.cache_dir, "queued": queued,
            "running": running, "done": done, "executed": self.executed,
            "dedup_hits": self.dedup_hits, "cache_hits": self.cache_hits,
            "clients": {
                c.client_id: {"name": c.name, "priority": c.priority,
                              "inflight": c.inflight,
                              "submitted": c.submitted,
                              "dedup_hits": c.dedup_hits,
                              "cache_hits": c.cache_hits,
                              "denied": c.denied}
                for c in self.quotas.clients.values()},
        }

    def queue_snapshot(self) -> List[str]:
        """Cache keys in dispatch order (tests pin priority ordering)."""
        return [key for _p, _s, key in sorted(self._queue)
                if self._entries[key].status == QUEUED]

    def _require_sub(self, sub_id: str) -> _Submission:
        try:
            return self._subs[sub_id]
        except KeyError:
            raise KeyError(f"unknown submission {sub_id!r}") from None

    # -- execution ----------------------------------------------------------

    async def _dispatch(self) -> None:
        slots = self._backend.slots
        while not self._stopping:
            await self._kick.wait()
            self._kick.clear()
            while self._queue:
                entry = self._entries.get(self._queue[0][2])
                if entry is None or entry.status != QUEUED:
                    heapq.heappop(self._queue)  # cancelled or re-keyed
                    continue
                cost = job_cost(entry.job, slots)
                if self._held and self._held + cost > slots:
                    break  # wait for slots to free before admitting
                heapq.heappop(self._queue)
                self._held += cost
                entry.status = RUNNING
                self._tasks.append(
                    self._loop.create_task(self._run(entry, cost)))

    async def _run(self, entry: _Entry, cost: int) -> None:
        """Attempts of one job until it succeeds or its budget
        (``retries`` + 1 attempts) is spent; failures, timeouts and
        worker crashes all retry the same way."""

        def started(worker: Optional[int]) -> None:
            self._emit("start", cache_key=entry.key,
                       experiment=entry.job.experiment, key=entry.job.key,
                       client=entry.origin, attempt=entry.attempts,
                       worker=worker)

        try:
            while True:
                entry.attempts += 1
                status, result, wall, worker = await self._backend.attempt(
                    entry.job, started)
                if status == OK:
                    self._settle(entry, OK, result, None, wall, worker)
                    return
                if entry.attempts > entry.job.retries:
                    self._settle(entry, status, None, result, wall, worker)
                    return
        finally:
            self._held -= cost
            self._kick.set()

    async def _stats_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.config.stats_interval)
            snap = self.stats()
            # Listener-only: periodic gauges would drown the journal.
            self._emit("stats", journal=False, queued=snap["queued"],
                       running=snap["running"], done=snap["done"],
                       dedup_hits=snap["dedup_hits"],
                       cache_hits=snap["cache_hits"],
                       clients=len(snap["clients"]))

    def _settle(self, entry: _Entry, status: str, payload: Any,
                error: Optional[str], wall: float,
                worker: Optional[int]) -> None:
        entry.status = status
        entry.payload = payload
        entry.error = error
        entry.wall_s = wall
        entry.worker = worker
        entry.done.set()
        if entry.counted:
            entry.counted = False
            origin = self.quotas.clients.get(entry.origin)
            if origin is not None:
                origin.inflight = max(0, origin.inflight - 1)
        if status == OK:
            self.executed += 1
            if self.store is not None:
                self.store.put(entry.key, entry.job, payload,
                               meta={"wall_s": wall,
                                     "fingerprint": self.fingerprint,
                                     "attempts": entry.attempts,
                                     "run_id": self.run_id})
        self._emit("job", cache_key=entry.key,
                   experiment=entry.job.experiment, key=entry.job.key,
                   outcome=status, wall_s=round(wall, 6), worker=worker,
                   attempts=entry.attempts, error=error,
                   cycles=cycles_of(payload), client=entry.origin)
        for client_id, sub_id in entry.waiters:
            sub = self._subs.get(sub_id)
            if sub is None or entry.key not in sub.remaining:
                continue
            sub.remaining.discard(entry.key)
            if not sub.remaining:
                self._finish_submission(sub)
        entry.waiters = []
        if self._kick is not None:
            self._kick.set()

    def _finish_submission(self, sub: _Submission) -> None:
        if sub.done.is_set():
            return
        sub.done.set()
        self._emit("sub-done", sub=sub.sub_id, client=sub.client,
                   counts=_tally(self._entries[k].status for k in sub.keys))


def _tally(statuses: Iterable[str]) -> Dict[str, int]:
    return dict(Counter(statuses))


# ---------------------------------------------------------------------------
# Execution backends: ``attempt`` runs one attempt of a job and returns
# ``(status, payload-or-error, wall_s, worker id)``; ``slots`` is the
# capacity the slot ledger charges against.

Attempt = Tuple[str, Any, float, Optional[int]]


class _InProcessBackend:
    """Jobs in this process, one at a time (``workers <= 0``): no
    process boundary, so no timeout enforcement."""

    slots = 1

    def __init__(self, inline: bool) -> None:
        self._inline = inline

    async def attempt(self, job: Job,
                      started: Callable[[Optional[int]], None]) -> Attempt:
        started(None)
        t0 = time.perf_counter()
        try:
            if self._inline:
                payload = run_budgeted(job)
            else:
                payload = await asyncio.get_running_loop().run_in_executor(
                    None, run_budgeted, job)
        except Exception as exc:  # noqa: BLE001 -- retried/reported
            return (FAILED, f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - t0, None)
        return OK, payload, time.perf_counter() - t0, None

    def stop(self) -> None:
        pass


class _ProcessBackend:
    """Worker processes driven by the event loop (``loop.add_reader``
    on each worker's result pipe).  A worker that dies or runs past its
    job's deadline is killed; the next attempt spawns a fresh one."""

    def __init__(self, workers: int,
                 default_timeout: Optional[float]) -> None:
        self.slots = max(1, workers)
        self._default_timeout = default_timeout
        self._ctx = mp_context()
        self._idle: List[Worker] = []
        self._all: List[Worker] = []
        self._next_wid = 0

    async def attempt(self, job: Job,
                      started: Callable[[Optional[int]], None]) -> Attempt:
        if self._idle:
            worker = self._idle.pop()
        else:
            worker = Worker(self._ctx, self._next_wid)
            self._next_wid += 1
            self._all.append(worker)
        started(worker.wid)
        loop = asyncio.get_running_loop()
        done: asyncio.Future = loop.create_future()
        fd = worker.conn.fileno()
        loop.add_reader(fd, _on_reply, worker, done)
        worker.assign(job)
        limit = (job.timeout_s if job.timeout_s is not None
                 else self._default_timeout)
        timer = (loop.call_later(limit, _resolve, done, "timeout")
                 if limit else None)
        try:
            reply = await done
        finally:
            loop.remove_reader(fd)
            if timer is not None:
                timer.cancel()
        if isinstance(reply, tuple):
            worker.busy = False
            self._idle.append(worker)
            return reply
        worker.kill()
        self._all.remove(worker)
        if reply == "died":
            return FAILED, "worker process died", 0.0, worker.wid
        return TIMEOUT, f"timed out after {limit:g}s", limit, worker.wid

    def stop(self) -> None:
        for worker in self._all:
            worker.stop()
        self._all = []
        self._idle = []


def _resolve(done: asyncio.Future, value: Any) -> None:
    if not done.done():
        done.set_result(value)


def _on_reply(worker: Worker, done: asyncio.Future) -> None:
    if done.done():
        return
    try:
        reply = worker.conn.recv()
    except (EOFError, OSError):  # the worker crashed outright
        reply = "died"
    done.set_result(reply)
