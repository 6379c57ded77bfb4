"""repro.serve: the job scheduler and simulation-as-a-service.

:class:`Scheduler` is the repository's one job executor: worker slots,
per-job timeout, bounded retry, crash replacement, cache lookup/put
and the journal's run events.  :func:`repro.orch.run_jobs` -- and so
``repro sweep`` without ``--server`` -- drives an in-process instance
with no listener; this package also keeps one alive behind a small
daemon, so many clients share one warm backend:

* :mod:`scheduler` -- the asyncio scheduler: priority queue, per-client
  quotas, cross-client dedup, slot ledger, the retry loop and its two
  execution backends (:class:`Scheduler`, :class:`ServeConfig`);
* :mod:`daemon` -- the NDJSON-over-TCP front end, which opens the
  journal named by :class:`ServeConfig`, writes its header/footer and
  journals restart recovery (:class:`Daemon`,
  :class:`BackgroundDaemon`, :func:`run_daemon`);
* :mod:`client` -- the synchronous :class:`Client` (and the
  :class:`AsyncClient` transport) the ``repro sweep``/``repro
  submit`` thin clients use;
* :mod:`protocol` -- the wire format and the machine-checkable event
  schema (:func:`validate_event`);
* :mod:`quotas` -- per-client identity, priority and in-flight budget.

``repro serve`` starts the daemon; ``repro sweep --server HOST:PORT``
and ``repro submit`` talk to it.  ``Client`` and ``ServeConfig`` are
re-exported from the package root.
"""

from .client import AsyncClient, Client, ConnectionLost, ServerError
from .daemon import BackgroundDaemon, Daemon, run_daemon
from .protocol import (
    EVENT_SCHEMA,
    PROTOCOL_VERSION,
    parse_address,
    validate_event,
    validate_events,
)
from .quotas import ClientState, QuotaError, QuotaPolicy
from .scheduler import Scheduler, ServeConfig

__all__ = [
    "AsyncClient",
    "BackgroundDaemon",
    "Client",
    "ClientState",
    "ConnectionLost",
    "Daemon",
    "EVENT_SCHEMA",
    "PROTOCOL_VERSION",
    "QuotaError",
    "QuotaPolicy",
    "Scheduler",
    "ServeConfig",
    "ServerError",
    "parse_address",
    "run_daemon",
    "validate_event",
    "validate_events",
]
