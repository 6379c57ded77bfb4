"""The declarative job model.

A :class:`Job` is one simulation of the evaluation grid, described by
data only: the dotted path of a worker-side run function, JSON-able
parameters, and (optionally) the serialized machine configuration it
runs on.  Jobs are what the scheduler distributes, what the cache keys,
and what the journal records -- so everything in a spec must survive a
round-trip through JSON unchanged.

The run function contract::

    def my_job(params: dict, config: Optional[MachineConfig]) -> dict:
        ...  # run the simulation, return a JSON-able payload

``config`` arrives deserialized (via :mod:`repro.arch.serialize`) when
the spec carries one, else ``None``.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

#: Terminal job states, shared by :func:`repro.orch.run_jobs`, the
#: serve scheduler and the journal's ``job`` records.
OK, CACHED, FAILED, TIMEOUT, CANCELLED = (
    "ok", "cached", "failed", "timeout", "cancelled")


def jsonable(value: Any) -> Any:
    """Recursively coerce ``value`` into plain JSON-able python data.

    Numpy scalars become python scalars, arrays become lists, tuples
    become lists, dict keys become strings.  Anything else that json
    cannot represent raises ``TypeError`` -- better to fail at spec
    construction than at cache-write time.
    """
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError(f"not JSON-able: {value!r} ({type(value).__name__})")


def canonical_json(value: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace."""
    return json.dumps(jsonable(value), sort_keys=True,
                      separators=(",", ":"))


@dataclass(frozen=True)
class Job:
    """One unit of the evaluation grid, described declaratively.

    ``experiment``/``key`` identify the job to humans (and to the reduce
    step); ``fn``/``params``/``config``/``seed`` identify it to the
    cache.  ``key`` must be unique within its experiment's job list.
    """

    experiment: str
    key: str
    fn: str  # dotted "package.module:function" path of the run function
    params: Dict[str, Any] = field(default_factory=dict)
    config: Optional[Dict[str, Any]] = None  # arch.serialize.to_dict output
    seed: int = 0
    timeout_s: Optional[float] = None  # per-job wall-clock limit
    retries: int = 1  # attempts after the first failure/timeout
    #: Worker processes the job itself spawns (a multi-Cell PDES job
    #: sets this to its shard-worker count).  The scheduler charges the
    #: job that many worker slots so nested pools never oversubscribe the
    #: host, and exports the grant as ``REPRO_WORKER_BUDGET`` in the
    #: worker's environment (:func:`repro.pdes.resolve_workers` obeys
    #: it).  Scheduling metadata only -- excluded from :meth:`spec`, so
    #: cache identity is untouched.
    procs: int = 1

    def __post_init__(self) -> None:
        if ":" not in self.fn:
            raise ValueError(
                f"fn must be a 'module:function' path, got {self.fn!r}")
        # Normalize params/config to plain data now so equal jobs are
        # equal specs and the cache key never sees numpy leftovers.
        object.__setattr__(self, "params", jsonable(self.params))
        if self.config is not None:
            object.__setattr__(self, "config", jsonable(self.config))

    def spec(self) -> Dict[str, Any]:
        """The identity of this job's *result* (what the cache hashes).

        ``experiment`` and ``key`` are presentation, not identity: two
        sweeps asking for the same simulation share one cache entry.
        """
        return {
            "fn": self.fn,
            "params": self.params,
            "config": self.config,
            "seed": self.seed,
        }

    @property
    def name(self) -> str:
        return f"{self.experiment}/{self.key}"

    def to_wire(self) -> Dict[str, Any]:
        """The JSON form a :class:`repro.Client` submits to the daemon.

        Everything, not just :meth:`spec`: the server journals
        ``experiment``/``key`` for humans and honors ``timeout_s``/
        ``retries``/``procs`` as scheduling hints.
        """
        return {
            "experiment": self.experiment,
            "key": self.key,
            "fn": self.fn,
            "params": self.params,
            "config": self.config,
            "seed": self.seed,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "procs": self.procs,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "Job":
        """Rebuild a job from :meth:`to_wire` output (unknown keys are
        rejected: a typo'd field silently dropped would corrupt cache
        identity)."""
        known = {"experiment", "key", "fn", "params", "config", "seed",
                 "timeout_s", "retries", "procs"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown job fields: {sorted(extra)}")
        missing = {"experiment", "key", "fn"} - set(data)
        if missing:
            raise ValueError(f"job missing fields: {sorted(missing)}")
        return cls(
            experiment=str(data["experiment"]),
            key=str(data["key"]),
            fn=str(data["fn"]),
            params=dict(data.get("params") or {}),
            config=data.get("config"),
            seed=int(data.get("seed", 0)),
            timeout_s=data.get("timeout_s"),
            retries=int(data.get("retries", 1)),
            procs=int(data.get("procs", 1)),
        )


def resolve(path: str) -> Callable[..., Any]:
    """Import the run function named by a ``module:function`` path."""
    module_name, _, fn_name = path.partition(":")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, fn_name)
    except AttributeError as exc:
        raise ImportError(f"no function {fn_name!r} in {module_name}") from exc


def execute(job: Job) -> Dict[str, Any]:
    """Run one job in this process and return its JSON-able payload.

    This is the single entry point workers use; keeping it trivial makes
    in-process and pooled execution bit-identical (the determinism
    regression test pins exactly that).
    """
    from ..arch import serialize

    fn = resolve(job.fn)
    config = serialize.from_dict(job.config) if job.config is not None else None
    payload = fn(dict(job.params), config)
    return jsonable(payload)
