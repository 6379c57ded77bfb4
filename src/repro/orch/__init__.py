"""repro.orch: the parallel sweep orchestrator.

The paper's evaluation is a grid of independent simulations (kernels x
feature rungs x topologies x machine scales).  This package turns that
grid into a first-class subsystem:

* :mod:`job` -- the declarative :class:`Job` spec each experiment
  harness enumerates, plus the worker-side executor;
* :mod:`fingerprint` -- a content hash of the simulator's source, so
  cached results are invalidated when the model changes;
* :mod:`cache` -- the content-addressed result store under
  ``.repro-cache/`` (JSON artifacts keyed by job spec + arch config +
  code fingerprint);
* :mod:`journal` -- the JSONL run journal (per-job wall time, cycles,
  worker id, retries, outcome);
* :mod:`graph` -- sweeps (jobs + a pure reduce step) and the deduplicated
  execution plan across several sweeps;
* :mod:`_pool` -- the multiprocessing scheduler: worker pool, per-job
  timeout, bounded retry, Ctrl-C cancellation, progress/ETA (the
  long-lived service front end over this pool is :mod:`repro.serve`).
"""

from .cache import ResultStore, cache_key, default_cache_dir
from .fingerprint import code_fingerprint
from .graph import Plan, Sweep, build_plan, reduce_all
from .job import Job, execute, jsonable
from .journal import RunJournal, read_journal
from ._pool import (
    WORKER_BUDGET_ENV,
    JobOutcome,
    collect_payloads,
    execute_serial,
    run_jobs,
)

__all__ = [
    "Job",
    "JobOutcome",
    "WORKER_BUDGET_ENV",
    "Plan",
    "ResultStore",
    "RunJournal",
    "Sweep",
    "build_plan",
    "cache_key",
    "code_fingerprint",
    "collect_payloads",
    "default_cache_dir",
    "execute",
    "execute_serial",
    "jsonable",
    "read_journal",
    "reduce_all",
    "run_jobs",
]
