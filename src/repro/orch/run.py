"""Running a list of jobs: :func:`run_jobs` and its outcomes.

:func:`run_jobs` is a synchronous front end over an in-process
:class:`repro.serve.Scheduler` with no listener, so a local sweep
shares the daemon's cache lookup/put, its retry/timeout/crash-replacement
loop, its slot ledger and its journal events.  ``workers <= 0`` runs the
jobs one at a time in this process (timeouts need a process boundary
and are not enforced there).

Ctrl-C settles every unfinished job as ``cancelled`` -- journaled like
any other outcome -- stops the workers, and still returns aligned
outcomes.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from .cache import ResultStore, cache_key
from .fingerprint import code_fingerprint
from .job import CACHED, CANCELLED, OK, Job, execute
from .journal import RunJournal

ProgressFn = Callable[["JobOutcome", int, int, Optional[float]], None]


@dataclass
class JobOutcome:
    """What happened to one job of a sweep."""

    job: Job
    key: str
    status: str
    payload: Optional[Any] = None
    error: Optional[str] = None
    wall_s: float = 0.0
    worker: Optional[int] = None
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.status in (OK, CACHED)

    @classmethod
    def from_envelope(cls, job: Job, key: str,
                      envelope: Dict[str, Any]) -> "JobOutcome":
        """The outcome a scheduler result envelope describes."""
        return cls(job, key, envelope["status"],
                   payload=envelope["payload"], error=envelope["error"],
                   wall_s=envelope.get("wall_s") or 0.0,
                   worker=envelope.get("worker"),
                   attempts=envelope.get("attempts") or 0)


def execute_serial(jobs: List[Job]) -> Dict[str, Any]:
    """Run jobs in-process with no cache; returns ``{job.key: payload}``.

    This is what every experiment's ``run()`` uses, so the figure
    harnesses stay importable, debuggable functions while sharing the
    exact execution path (:func:`repro.orch.job.execute`) with the
    scheduler.
    """
    return {job.key: execute(job) for job in jobs}


def run_jobs(jobs: List[Job], *, workers: int = 1,
             store: Optional[ResultStore] = None,
             fingerprint: Optional[str] = None,
             keys: Optional[List[str]] = None,
             journal: Optional[RunJournal] = None,
             default_timeout: Optional[float] = None,
             use_cache: bool = True,
             progress: Optional[ProgressFn] = None) -> List[JobOutcome]:
    """Execute jobs through the cache + scheduler; outcomes align with
    ``jobs``.  The scheduler journals its run events to ``journal``;
    the ``header``/``footer`` are the caller's to write."""
    # serve builds on orch, so the scheduler is imported at call time.
    from ..serve.scheduler import Scheduler, ServeConfig

    fingerprint = fingerprint or code_fingerprint()
    keys = list(keys) if keys is not None else [
        cache_key(job, fingerprint) for job in jobs]
    if len(keys) != len(jobs):
        raise ValueError("keys must align with jobs")
    if not jobs:
        return []
    config = ServeConfig(workers=workers, use_cache=store is not None,
                         default_timeout=default_timeout,
                         fingerprint=fingerprint)
    tracker = _Progress(progress, total=len(jobs))
    outcomes = [JobOutcome(job, key, CANCELLED)
                for job, key in zip(jobs, keys)]
    # A scheduler runs each cache key at most once, so a job repeating
    # an earlier job's key (one spec at two ``procs`` grants, which
    # export different worker budgets) runs in a later pass on a
    # scheduler of its own; only the first pass reads the cache.
    passes: List[Dict[str, int]] = []  # per pass: cache key -> job index
    for i, key in enumerate(keys):
        free = next((p for p in passes if key not in p), None)
        if free is None:
            free = {}
            passes.append(free)
        free[key] = i

    loop = asyncio.new_event_loop()
    interrupted = False
    try:
        for n, pending in enumerate(passes):
            run = _Pass(Scheduler(config, store, journal, inline=True),
                        pending, outcomes, tracker)
            try:
                # After Ctrl-C the remaining passes are submitted and
                # cancelled at once, so every job is journaled.
                loop.run_until_complete(run.drive(
                    use_cache and n == 0, cancel=interrupted))
            except KeyboardInterrupt:
                interrupted = True
                run.scheduler.cancel_unfinished()
                run.settle()
            finally:
                loop.run_until_complete(run.scheduler.shutdown())
    finally:
        loop.close()
    return outcomes


def collect_payloads(outcomes: List[JobOutcome]) -> Dict[str, Any]:
    """``{cache_key: payload}`` with ``None`` for unfinished jobs."""
    return {o.key: (o.payload if o.ok else None) for o in outcomes}


class _Pass:
    """One scheduler run of jobs with distinct cache keys.  Outcomes and
    progress are settled in ``run_jobs``' own frames, not inside the
    scheduler's listener call, so an error in the progress callback
    propagates to the caller."""

    def __init__(self, scheduler: Any, pending: Dict[str, int],
                 outcomes: List[JobOutcome], tracker: "_Progress") -> None:
        self.scheduler = scheduler
        self.pending = pending
        self.outcomes = outcomes
        self.tracker = tracker
        self.settled: List[str] = []  # cache keys not yet taken
        self.wake: Optional[asyncio.Event] = None
        scheduler.add_listener(self._on_event)

    def _on_event(self, record: Dict[str, Any]) -> None:
        if record["event"] == "job":
            self.settled.append(record["cache_key"])
            if self.wake is not None:
                self.wake.set()

    async def drive(self, use_cache: bool, cancel: bool) -> None:
        self.wake = asyncio.Event()
        await self.scheduler.start()
        client = self.scheduler.register_client("local")
        indices = list(self.pending.values())
        self.scheduler.submit_jobs(
            client.client_id, [self.outcomes[i].job for i in indices],
            [self.outcomes[i].key for i in indices], use_cache=use_cache)
        if cancel:
            self.scheduler.cancel_unfinished()
        while True:
            self.settle()
            if not self.pending:
                return
            await self.wake.wait()
            self.wake.clear()

    def settle(self) -> None:
        while self.settled:
            key = self.settled.pop(0)
            i = self.pending.pop(key, None)
            if i is not None:
                self.outcomes[i] = JobOutcome.from_envelope(
                    self.outcomes[i].job, key,
                    self.scheduler.result_of(key))
                self.tracker.report(self.outcomes[i])


class _Progress:
    def __init__(self, fn: Optional[ProgressFn], total: int) -> None:
        self.fn = fn
        self.total = total
        self.done = 0
        self.computed_wall = 0.0
        self.computed = 0

    def report(self, outcome: JobOutcome) -> None:
        self.done += 1
        if outcome.status == OK:
            self.computed += 1
            self.computed_wall += outcome.wall_s
        if self.fn is not None:
            eta = None
            if self.computed:
                mean = self.computed_wall / self.computed
                eta = mean * (self.total - self.done)
            self.fn(outcome, self.done, self.total, eta)
