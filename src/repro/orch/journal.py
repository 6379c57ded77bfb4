"""The JSONL run journal.

One line per event, appended as the run goes, so a killed run still
leaves a usable record.  The front end (``repro sweep``, ``repro
serve``, any :func:`repro.orch.run_jobs` caller) writes the ``header``
carrying provenance (package version, code fingerprint, argv, job
count) and the closing ``footer``.  In between, the job scheduler
journals its run events: every job completion -- cached, computed,
failed, timed out, or cancelled -- adds a ``job`` line with wall time,
cycles (when the payload reports them), worker id, and retry count,
next to the intake and attempt records (``client``, ``submit``,
``start``, ``sub-done``, ...).  Every record type is listed in
:data:`repro.serve.EVENT_SCHEMA`.  ``repro journal <path>`` renders a
post-hoc summary.
"""

from __future__ import annotations

import datetime
import json
import sys
from typing import Any, Dict, IO, Iterator, List, Mapping, Optional


class RunJournal:
    """Append-only JSONL writer; ``path=None`` journals nowhere.

    ``append=True`` keeps whatever the file already holds -- the serve
    daemon uses it so a journal survives daemon restarts and the
    recovery pass can read what the previous run left behind.
    """

    def __init__(self, path: Optional[str], *, append: bool = False) -> None:
        self.path = path
        mode = "a" if append else "w"
        self._fh: Optional[IO[str]] = open(path, mode) if path else None

    def write_header(self, **fields: Any) -> None:
        self._write({
            "event": "header",
            "started": _utcnow(),
            **fields,
        })

    def write_job(self, **fields: Any) -> None:
        self._write({"event": "job", **fields})

    def write_event(self, event: str, **fields: Any) -> None:
        """One record of any event type (the scheduler's run events:
        client registrations, submissions, attempts, dedup hits, quota
        denials)."""
        self._write({"event": event, **fields})

    def write_footer(self, **fields: Any) -> None:
        self._write({"event": "footer", "finished": _utcnow(), **fields})

    def _write(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            return
        json.dump(record, self._fh, sort_keys=True)
        self._fh.write("\n")
        self._fh.flush()  # one line per event survives a kill -9

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


def cycles_of(payload: Any) -> Optional[float]:
    """The simulated cycles a job payload reports, if any."""
    if isinstance(payload, Mapping) and isinstance(
            payload.get("cycles"), (int, float)):
        return payload["cycles"]
    return None


def read_journal(path: str) -> List[Dict[str, Any]]:
    """All records of a journal file; tolerant of a torn last line."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                print(f"journal: skipping torn line in {path}",
                      file=sys.stderr)
    return records


def iter_jobs(records: Iterator[Dict[str, Any]]) -> Iterator[Dict[str, Any]]:
    for rec in records:
        if rec.get("event") == "job":
            yield rec
