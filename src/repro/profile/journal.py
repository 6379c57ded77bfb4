"""Post-hoc summary of a sweep's (or serve daemon's) JSONL run journal.

``repro journal <path>`` renders what a finished (or killed) sweep did:
outcome counts, cache-hit rate, wall-time totals, per-experiment
aggregates and the slowest computed jobs.  A journal written by the
``repro serve`` scheduler daemon (its header carries ``server: true``)
additionally gets a server section: per-client quota usage (submitted
/ in-flight denials), the dedup-hit ratio across clients, and any
restart recoveries.  A local sweep's journal holds the same scheduler
intake records but renders without that section.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..orch.journal import iter_jobs, read_journal


def summarize(path: str) -> Dict[str, Any]:
    """Structured summary of one journal file."""
    records = read_journal(path)
    header = next((r for r in records if r.get("event") == "header"), {})
    footer = next((r for r in records if r.get("event") == "footer"), {})
    jobs = list(iter_jobs(iter(records)))

    outcomes: Dict[str, int] = {}
    experiments: Dict[str, Dict[str, Any]] = {}
    computed_wall = 0.0
    retried = 0
    for job in jobs:
        outcome = job.get("outcome", "unknown")
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        exp = experiments.setdefault(
            job.get("experiment", "?"),
            {"jobs": 0, "cached": 0, "failed": 0, "wall_s": 0.0})
        exp["jobs"] += 1
        exp["wall_s"] += job.get("wall_s") or 0.0
        if outcome == "cached":
            exp["cached"] += 1
        elif outcome in ("failed", "timeout", "cancelled"):
            exp["failed"] += 1
        if outcome == "ok":
            computed_wall += job.get("wall_s") or 0.0
        if (job.get("attempts") or 0) > 1:
            retried += 1

    done = outcomes.get("ok", 0) + outcomes.get("cached", 0)
    total = len(jobs)
    slowest = sorted(
        (j for j in jobs if j.get("outcome") == "ok"),
        key=lambda j: j.get("wall_s") or 0.0, reverse=True)[:5]
    return {
        "header": header,
        "footer": footer,
        "total": total,
        "outcomes": outcomes,
        "cache_hit_rate": (outcomes.get("cached", 0) / total) if total else 0.0,
        "success_rate": (done / total) if total else 0.0,
        "computed_wall_s": computed_wall,
        "retried": retried,
        "experiments": experiments,
        "slowest": slowest,
        "server": _summarize_server(records) if header.get("server")
        else {},
    }


def _summarize_server(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The serve-daemon view of a journal.

    Aggregates the daemon's intake events: per-client submissions and
    quota denials, the cross-client dedup-hit ratio, restart
    recoveries.  Keyed by client *name* (ids restart at c1 after every
    daemon restart; names are the stable identity).
    """
    clients: Dict[str, Dict[str, Any]] = {}
    dedup_hits = quota_denials = recoveries = submitted = 0
    interrupted = 0

    def client_row(cid: str) -> Dict[str, Any]:
        return clients.setdefault(cid, {
            "priority": 0, "submitted": 0, "queued": 0, "cached": 0,
            "deduped": 0, "denied": 0})

    names: Dict[str, str] = {}
    for rec in records:
        event = rec.get("event")
        if event == "client":
            names[rec.get("client")] = rec.get("name") or rec.get("client")
            row = client_row(names[rec.get("client")])
            row["priority"] = rec.get("priority", 0)
        elif event == "submit":
            row = client_row(names.get(rec.get("client"),
                                       rec.get("client")))
            row["submitted"] += rec.get("jobs") or 0
            row["queued"] += rec.get("queued") or 0
            row["cached"] += rec.get("cached") or 0
            row["deduped"] += rec.get("deduped") or 0
            submitted += rec.get("jobs") or 0
        elif event == "dedup":
            dedup_hits += 1
        elif event == "quota":
            row = client_row(names.get(rec.get("client"),
                                       rec.get("client")))
            row["denied"] += rec.get("denied") or 0
            quota_denials += rec.get("denied") or 0
        elif event == "recover":
            recoveries += 1
            interrupted += rec.get("interrupted") or 0
    return {
        "clients": clients,
        "submitted": submitted,
        "dedup_hits": dedup_hits,
        "dedup_hit_ratio": (dedup_hits / submitted) if submitted else 0.0,
        "quota_denials": quota_denials,
        "recoveries": recoveries,
        "interrupted": interrupted,
    }


def render(summary: Dict[str, Any]) -> str:
    """Human-readable journal report."""
    from ..perf.report import format_table

    lines: List[str] = []
    header = summary["header"]
    if header:
        lines.append(
            f"sweep of {header.get('jobs', '?')} job(s), repro "
            f"{header.get('version', '?')}, fingerprint "
            f"{header.get('fingerprint', '?')}, started "
            f"{header.get('started', '?')}")
    counts = ", ".join(f"{k}={v}"
                       for k, v in sorted(summary["outcomes"].items()))
    lines.append(
        f"jobs: {summary['total']} ({counts}); cache hits "
        f"{summary['cache_hit_rate']:.0%}; retried {summary['retried']}; "
        f"computed wall {summary['computed_wall_s']:.2f}s")
    if summary["experiments"]:
        rows = [[name, e["jobs"], e["cached"], e["failed"],
                 round(e["wall_s"], 3)]
                for name, e in summary["experiments"].items()]
        lines.append(format_table(
            ["experiment", "jobs", "cached", "failed", "wall s"], rows))
    if summary["slowest"]:
        rows = [[j.get("experiment"), j.get("key"),
                 round(j.get("wall_s") or 0.0, 3), j.get("worker"),
                 j.get("cycles")]
                for j in summary["slowest"]]
        lines.append("slowest computed jobs:")
        lines.append(format_table(
            ["experiment", "key", "wall s", "worker", "cycles"], rows))
    server = summary.get("server") or {}
    if server:
        lines.append(
            f"server: {server['submitted']} job(s) submitted across "
            f"{len(server['clients'])} client(s); dedup hits "
            f"{server['dedup_hits']} ({server['dedup_hit_ratio']:.0%} of "
            f"submissions); quota denials {server['quota_denials']}; "
            f"restarts recovered {server['recoveries']} "
            f"({server['interrupted']} interrupted job(s))")
        if server["clients"]:
            rows = [[name, c["priority"], c["submitted"], c["queued"],
                     c["cached"], c["deduped"], c["denied"]]
                    for name, c in sorted(server["clients"].items())]
            lines.append(format_table(
                ["client", "prio", "submitted", "queued", "cached",
                 "deduped", "denied"], rows))
    footer = summary["footer"]
    if footer:
        lines.append(f"finished {footer.get('finished', '?')} in "
                     f"{footer.get('wall_s', '?')}s")
    return "\n".join(lines)


def main(path: str) -> int:
    print(render(summarize(path)))
    return 0
