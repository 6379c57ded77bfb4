"""Where one job attempt runs: in this process or in a worker process.

These are the primitives the job scheduler
(:class:`repro.serve.Scheduler`, which :func:`repro.orch.run_jobs`
drives) and the PDES shard pool build on:

* :func:`run_budgeted` -- run a job in this process with its
  :data:`WORKER_BUDGET_ENV` grant exported (and the caller's restored);
* :class:`Worker` -- one worker process on its own duplex pipe, so the
  scheduler always knows which job a worker holds.  Workers ignore
  SIGINT: the scheduler owns Ctrl-C;
* :func:`job_cost` -- the slot ledger's charge for one job;
* :func:`mp_context` -- the ``multiprocessing`` start method (fork
  where the platform has it).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from multiprocessing import connection
from typing import Any

from .job import FAILED, OK, Job, execute

#: Process budget exported to every job's environment: how many worker
#: processes the job itself may spawn (``Job.procs``, the slot grant the
#: scheduler charged for it).  ``repro.pdes.resolve_workers`` clamps
#: shard-worker requests to it, so a multi-Cell job inside a pool never
#: nests a second full-width pool on the same host.
WORKER_BUDGET_ENV = "REPRO_WORKER_BUDGET"


def job_cost(job: Job, workers: int) -> int:
    """Scheduler slots a job occupies (its process budget, capped)."""
    return min(max(job.procs, 1), max(workers, 1))


def run_budgeted(job: Job) -> Any:
    """Execute ``job`` here with its slot grant visible to anything it
    spawns (nested PDES shard pools size themselves from it)."""
    previous = os.environ.get(WORKER_BUDGET_ENV)
    os.environ[WORKER_BUDGET_ENV] = str(max(job.procs, 1))
    try:
        return execute(job)
    finally:
        if previous is None:
            os.environ.pop(WORKER_BUDGET_ENV, None)
        else:
            os.environ[WORKER_BUDGET_ENV] = previous


def _worker_main(conn: connection.Connection, worker_id: int) -> None:
    """Child loop: receive a job, execute it, send the result back."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns Ctrl-C
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            break
        if job is None:
            break
        t0 = time.perf_counter()
        try:
            payload = run_budgeted(job)
        except BaseException as exc:  # noqa: BLE001 -- serialized to parent
            conn.send((FAILED, f"{type(exc).__name__}: {exc}",
                       time.perf_counter() - t0, worker_id))
        else:
            conn.send((OK, payload, time.perf_counter() - t0, worker_id))
    conn.close()


class Worker:
    """One worker process and the parent's end of its pipe."""

    __slots__ = ("proc", "conn", "wid", "busy")

    def __init__(self, ctx: Any, wid: int) -> None:
        parent, child = ctx.Pipe(duplex=True)
        # Non-daemonic on purpose: a daemonic process may not fork
        # children, which would bar multi-Cell PDES jobs (procs > 1)
        # from spawning their shard workers.  Cleanup still converges:
        # the worker loop exits on pipe EOF, so workers never outlive a
        # parent that died without the explicit shutdown handshake.
        self.proc = ctx.Process(target=_worker_main, args=(child, wid),
                                daemon=False)
        self.proc.start()
        child.close()  # parent keeps only its end
        self.conn = parent
        self.wid = wid
        self.busy = False

    def assign(self, job: Job) -> None:
        self.busy = True
        self.conn.send(job)

    def stop(self) -> None:
        """Ask an idle worker to exit, then make sure it is gone."""
        if not self.busy:
            try:
                self.conn.send(None)  # polite shutdown
            except OSError:
                pass
        self.kill()

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5.0)


def mp_context() -> Any:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
