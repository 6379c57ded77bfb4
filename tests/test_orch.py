"""The sweep orchestrator: job model, cache, graph, pool, journal."""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from repro.orch import (
    Job,
    ResultStore,
    RunJournal,
    Sweep,
    build_plan,
    cache_key,
    code_fingerprint,
    collect_payloads,
    execute,
    execute_serial,
    jsonable,
    read_journal,
    reduce_all,
    run_jobs,
)

HERE = "tests.test_orch"


# --- worker-side run functions (importable by dotted path) ----------------

def add_job(params, config):
    return {"sum": params["a"] + params["b"], "cycles": params["a"]}


def config_probe_job(params, config):
    return {"tiles_x": config.cell.tiles_x, "name": config.name}


def boom_job(params, config):
    raise ValueError("boom")


def flaky_job(params, config):
    """Fails on the first attempt (per marker file), succeeds after."""
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("cold start")
    return {"warmed": True}


def sleep_job(params, config):
    time.sleep(params["seconds"])
    return {"slept": params["seconds"]}


def crash_once_job(params, config):
    """Kills its worker process on the first attempt (per marker file)."""
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(1)
    return {"survived": True}


def interrupt_job(params, config):
    """Stands in for Ctrl-C landing while an in-process job runs."""
    raise KeyboardInterrupt


def _add(a, b, key=None, **kw):
    return Job("t", key or f"{a}+{b}", f"{HERE}:add_job",
               params={"a": a, "b": b}, **kw)


class TestJobModel:
    def test_fn_must_be_dotted_path(self):
        with pytest.raises(ValueError):
            Job("t", "k", "no_colon_here")

    def test_params_normalized_to_plain_data(self):
        job = Job("t", "k", f"{HERE}:add_job",
                  params={"a": np.int64(3), "b": (1, 2),
                          "c": np.array([1.0, 2.0])})
        assert job.params == {"a": 3, "b": [1, 2], "c": [1.0, 2.0]}
        json.dumps(job.params)  # round-trips

    def test_unjsonable_params_rejected_at_construction(self):
        with pytest.raises(TypeError):
            Job("t", "k", f"{HERE}:add_job", params={"fh": object()})

    def test_spec_excludes_presentation_fields(self):
        job = _add(1, 2)
        assert set(job.spec()) == {"fn", "params", "config", "seed"}

    def test_execute_runs_the_function(self):
        assert execute(_add(2, 3))["sum"] == 5

    def test_execute_deserializes_config(self):
        from repro.arch.config import small_config
        from repro.arch.serialize import to_dict

        job = Job("t", "k", f"{HERE}:config_probe_job",
                  config=to_dict(small_config(4, 4)))
        out = execute(job)
        assert out["tiles_x"] == 4

    def test_execute_serial_keys_payloads_by_job_key(self):
        out = execute_serial([_add(1, 1, key="a"), _add(2, 2, key="b")])
        assert out["a"]["sum"] == 2
        assert out["b"]["sum"] == 4


class TestCacheKey:
    def test_identity_ignores_experiment_and_key(self):
        a = Job("fig11", "PR", f"{HERE}:add_job", params={"a": 1, "b": 2})
        b = Job("fig15", "16x8/PR", f"{HERE}:add_job",
                params={"a": 1, "b": 2})
        assert cache_key(a, "fp") == cache_key(b, "fp")

    def test_param_order_does_not_matter(self):
        a = Job("t", "k", f"{HERE}:add_job", params={"a": 1, "b": 2})
        b = Job("t", "k", f"{HERE}:add_job", params={"b": 2, "a": 1})
        assert cache_key(a, "fp") == cache_key(b, "fp")

    def test_params_config_seed_fingerprint_all_distinguish(self):
        base = _add(1, 2)
        fp = "fp"
        assert cache_key(_add(1, 3), fp) != cache_key(base, fp)
        assert cache_key(dataclasses.replace(base, seed=1), fp) \
            != cache_key(base, fp)
        assert cache_key(base, "other-fp") != cache_key(base, fp)

    def test_config_change_invalidates(self):
        from repro.arch.config import small_config
        from repro.arch.serialize import to_dict

        a = dataclasses.replace(_add(1, 2),
                                config=to_dict(small_config(4, 4)))
        b = dataclasses.replace(_add(1, 2),
                                config=to_dict(small_config(8, 4)))
        assert cache_key(a, "fp") != cache_key(b, "fp")

    def test_timeout_and_retries_are_not_identity(self):
        a = _add(1, 2)
        b = dataclasses.replace(a, timeout_s=5.0, retries=3)
        assert cache_key(a, "fp") == cache_key(b, "fp")


class TestFingerprint:
    def test_stable_and_sensitive(self, tmp_path):
        pkg = tmp_path / "pkg"
        (pkg / "engine").mkdir(parents=True)
        (pkg / "engine" / "sim.py").write_text("x = 1\n")
        first = code_fingerprint(str(pkg))
        code_fingerprint.cache_clear()
        assert code_fingerprint(str(pkg)) == first
        (pkg / "engine" / "sim.py").write_text("x = 2\n")
        code_fingerprint.cache_clear()
        assert code_fingerprint(str(pkg)) != first

    def test_presentation_modules_excluded(self, tmp_path):
        pkg = tmp_path / "pkg"
        (pkg / "engine").mkdir(parents=True)
        (pkg / "engine" / "sim.py").write_text("x = 1\n")
        code_fingerprint.cache_clear()
        first = code_fingerprint(str(pkg))
        (pkg / "orch").mkdir()
        (pkg / "orch" / "pool.py").write_text("y = 1\n")
        (pkg / "cli.py").write_text("z = 1\n")
        code_fingerprint.cache_clear()
        assert code_fingerprint(str(pkg)) == first
        code_fingerprint.cache_clear()


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        job = _add(1, 2)
        key = cache_key(job, "fp")
        assert store.get(key) is None
        store.put(key, job, {"sum": 3}, meta={"wall_s": 0.1})
        record = store.get(key)
        assert record["payload"] == {"sum": 3}
        assert record["job"]["experiment"] == "t"
        assert key in store

    def test_corrupt_artifact_is_a_miss_and_removed(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        job = _add(1, 2)
        key = cache_key(job, "fp")
        path = store.put(key, job, {"sum": 3})
        with open(path, "w") as fh:
            fh.write('{"torn":')
        assert store.get(key) is None
        assert not os.path.exists(path)

    def test_stats_counts_artifacts(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        for i in range(3):
            job = _add(i, i)
            store.put(cache_key(job, "fp"), job, {"sum": 2 * i})
        stats = store.stats()
        assert stats["artifacts"] == 3
        assert stats["bytes"] > 0


class TestGraph:
    def test_build_plan_dedupes_identical_jobs(self):
        shared = {"a": 1, "b": 2}
        s1 = Sweep("one", [Job("one", "x", f"{HERE}:add_job",
                               params=shared)], dict)
        s2 = Sweep("two", [Job("two", "y", f"{HERE}:add_job",
                               params=shared),
                           _add(5, 5)], dict)
        plan = build_plan([s1, s2], "fp")
        assert plan.total_jobs == 3
        assert len(plan.unique_jobs) == 2

    def test_duplicate_keys_within_a_sweep_rejected(self):
        with pytest.raises(ValueError):
            Sweep("s", [_add(1, 2, key="k"), _add(3, 4, key="k")], dict)

    @staticmethod
    def _run(plan):
        keys = [plan.key_of[id(job)] for job in plan.unique_jobs]
        return run_jobs(plan.unique_jobs, workers=0, keys=keys,
                        fingerprint="fp", use_cache=False)

    def test_reduce_all_routes_payloads_by_job_key(self):
        s = Sweep("s", [_add(1, 1, key="a"), _add(2, 2, key="b")],
                  lambda p: p["a"]["sum"] + p["b"]["sum"])
        plan = build_plan([s], "fp")
        out = reduce_all(plan, collect_payloads(self._run(plan)))
        assert out["s"] == 6

    def test_reduce_isolation_one_broken_sweep(self):
        good = Sweep("good", [_add(1, 1, key="a")],
                     lambda p: p["a"]["sum"])
        bad = Sweep("bad", [_add(2, 2, key="b")],
                    lambda p: 1 / 0)
        plan = build_plan([good, bad], "fp")
        errors = []
        out = reduce_all(plan, collect_payloads(self._run(plan)),
                         on_error=lambda s, e: errors.append(s.name))
        assert out == {"good": 2}
        assert errors == ["bad"]

    def test_missing_payload_reported_not_raised(self):
        s = Sweep("s", [Job("s", "k", f"{HERE}:boom_job", retries=0)],
                  dict)
        plan = build_plan([s], "fp")
        outcomes = self._run(plan)
        errors = []
        out = reduce_all(plan, collect_payloads(outcomes),
                         on_error=lambda s, e: errors.append(str(e)))
        assert out == {}
        assert "did not complete" in errors[0]


class TestPool:
    def test_parallel_matches_serial(self):
        jobs = [_add(i, i) for i in range(6)]
        serial = execute_serial(jobs)
        outcomes = run_jobs(jobs, workers=2, use_cache=False)
        assert all(o.status == "ok" for o in outcomes)
        pooled = {o.job.key: o.payload for o in outcomes}
        assert pooled == serial

    def test_retry_bounded(self, tmp_path):
        job = Job("t", "flaky", f"{HERE}:flaky_job",
                  params={"marker": str(tmp_path / "marker")}, retries=2)
        (outcome,) = run_jobs([job], workers=1, use_cache=False)
        assert outcome.status == "ok"
        assert outcome.attempts == 2

    def test_failure_after_budget_spent(self):
        job = Job("t", "boom", f"{HERE}:boom_job", retries=1)
        (outcome,) = run_jobs([job], workers=1, use_cache=False)
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert "boom" in outcome.error

    def test_timeout_kills_the_job(self):
        job = Job("t", "slow", f"{HERE}:sleep_job",
                  params={"seconds": 30.0}, timeout_s=0.5, retries=0)
        t0 = time.perf_counter()
        (outcome,) = run_jobs([job], workers=1, use_cache=False)
        assert outcome.status == "timeout"
        assert time.perf_counter() - t0 < 10.0

    def test_worker_crash_is_replaced_and_retried(self, tmp_path):
        job = Job("t", "crash", f"{HERE}:crash_once_job",
                  params={"marker": str(tmp_path / "marker")}, retries=1)
        (outcome,) = run_jobs([job], workers=1, use_cache=False)
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        assert outcome.payload == {"survived": True}

    def test_progress_callback_errors_propagate(self):
        def progress(outcome, done, total, eta):
            raise RuntimeError("progress sink closed")

        with pytest.raises(RuntimeError, match="progress sink closed"):
            run_jobs([_add(1, 2)], workers=0, use_cache=False,
                     progress=progress)

    def test_interrupt_cancels_and_journals_every_job(self, tmp_path):
        """Jobs repeating a cache key run in a later pass; Ctrl-C in
        the first pass still journals them as cancelled."""
        path = str(tmp_path / "run.jsonl")
        stop = Job("t", "stop", f"{HERE}:interrupt_job")
        jobs = [stop, _add(1, 2),
                Job("t", "stop-wide", f"{HERE}:interrupt_job", procs=2)]
        seen = []
        with RunJournal(path) as journal:
            outcomes = run_jobs(jobs, workers=0, journal=journal,
                                use_cache=False,
                                progress=lambda o, *_: seen.append(o.job.key))
        assert [o.status for o in outcomes] == ["cancelled"] * 3
        assert sorted(seen) == ["1+2", "stop", "stop-wide"]
        job_records = [r for r in read_journal(path) if r["event"] == "job"]
        assert sorted((r["key"], r["outcome"]) for r in job_records) == [
            ("1+2", "cancelled"), ("stop", "cancelled"),
            ("stop-wide", "cancelled")]

    def test_cache_hits_on_identical_rerun(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        jobs = [_add(i, i) for i in range(4)]
        first = run_jobs(jobs, workers=0, store=store, fingerprint="fp")
        assert all(o.status == "ok" for o in first)
        second = run_jobs(jobs, workers=0, store=store, fingerprint="fp")
        assert all(o.status == "cached" for o in second)
        assert [o.payload for o in second] == [o.payload for o in first]

    def test_fingerprint_change_invalidates(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        jobs = [_add(1, 2)]
        run_jobs(jobs, workers=0, store=store, fingerprint="fp1")
        (again,) = run_jobs(jobs, workers=0, store=store, fingerprint="fp2")
        assert again.status == "ok"  # not cached

    def test_no_cache_flag_recomputes(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        jobs = [_add(1, 2)]
        run_jobs(jobs, workers=0, store=store, fingerprint="fp")
        (again,) = run_jobs(jobs, workers=0, store=store, fingerprint="fp",
                            use_cache=False)
        assert again.status == "ok"


class TestJournal:
    def test_header_jobs_footer_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunJournal(path) as journal:
            journal.write_header(version="1.2.3", fingerprint="fp")
            run_jobs([_add(1, 2)], workers=0, journal=journal,
                     use_cache=False)
            journal.write_footer(ok=1)
        records = read_journal(path)
        assert records[0]["event"] == "header"
        assert records[0]["version"] == "1.2.3"
        job_lines = [r for r in records if r["event"] == "job"]
        assert len(job_lines) == 1
        assert job_lines[0]["outcome"] == "ok"
        assert job_lines[0]["cycles"] == 1  # payload reports cycles
        assert records[-1]["event"] == "footer"

    def test_run_jobs_journal_is_a_valid_event_stream(self, tmp_path):
        """run_jobs journals the scheduler's run events; the caller's
        header has no ``server`` flag, so the summary has no server
        section."""
        from repro.profile.journal import render, summarize
        from repro.serve import validate_events

        path = str(tmp_path / "run.jsonl")
        job = Job("t", "flaky", f"{HERE}:flaky_job",
                  params={"marker": str(tmp_path / "marker")}, retries=1)
        with RunJournal(path) as journal:
            journal.write_header(jobs=2)
            run_jobs([_add(1, 2), job], workers=0, journal=journal,
                     use_cache=False)
            journal.write_footer(ok=2)
        records = read_journal(path)
        assert validate_events(records) == []
        kinds = [r["event"] for r in records]
        assert kinds[0] == "header" and kinds[-1] == "footer"
        for kind in ("client", "submit", "sub-done"):
            assert kinds.count(kind) == 1
        assert kinds.count("start") == 3  # the flaky job ran twice
        assert kinds.count("job") == 2
        summary = summarize(path)
        assert summary["server"] == {}
        assert summary["outcomes"] == {"ok": 2}
        assert summary["retried"] == 1
        assert "server:" not in render(summary)

    def test_torn_last_line_tolerated(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as fh:
            fh.write('{"event": "header"}\n{"event": "jo')
        records = read_journal(path)
        assert len(records) == 1

    def test_none_path_journals_nowhere(self):
        with RunJournal(None) as journal:
            journal.write_header(version="x")
            journal.write_job(outcome="ok")


class TestDeterminism:
    """Same Job -> same payload and same cache key, however executed."""

    def test_simulation_identical_inprocess_and_pooled(self):
        from repro.arch.config import small_config
        from repro.arch.serialize import to_dict

        job = Job("t", "AES", "repro.experiments.common:suite_job",
                  params={"kernel": "AES", "size": "tiny"},
                  config=to_dict(small_config(4, 4)))
        twin = Job("t2", "AES-again",
                   "repro.experiments.common:suite_job",
                   params={"kernel": "AES", "size": "tiny"},
                   config=to_dict(small_config(4, 4)))
        fp = code_fingerprint()
        assert cache_key(job, fp) == cache_key(twin, fp)

        inproc = execute(job)
        (pooled,) = run_jobs([job], workers=1, use_cache=False)
        assert pooled.status == "ok"
        assert pooled.payload["cycles"] == inproc["cycles"]
        assert pooled.payload == inproc

        again = execute(twin)
        assert again["cycles"] == inproc["cycles"]


# --- worker-budget composability (PDES jobs inside the pool) ---------------

def budget_probe_job(params, config):
    return {"budget": os.environ.get("REPRO_WORKER_BUDGET")}


def pdes_probe_job(params, config):
    """A multi-Cell PDES run nested inside a pool worker."""
    from repro.pdes import fixture as xfix
    from repro.pdes import run_cells

    res = run_cells(config, xfix.exchange_launches(config, words=8),
                    workers=params["workers"])
    return {"workers": res.workers, "cycles": res.cycles,
            "fingerprint": res.fingerprint()}


class TestWorkerBudget:
    """Job.procs: scheduler slots + REPRO_WORKER_BUDGET, not identity."""

    def test_procs_is_scheduling_metadata_not_identity(self):
        plain = _add(1, 2)
        wide = _add(1, 2, procs=4)
        assert plain.spec() == wide.spec()
        assert cache_key(plain, "fp") == cache_key(wide, "fp")
        assert "procs" not in plain.spec()

    def test_budget_exported_to_pool_workers(self):
        jobs = [Job("t", f"p{n}", f"{HERE}:budget_probe_job", procs=n)
                for n in (1, 3)]
        outcomes = run_jobs(jobs, workers=2, use_cache=False)
        got = {o.job.key: o.payload["budget"] for o in outcomes}
        assert got == {"p1": "1", "p3": "3"}

    def test_budget_exported_and_restored_inprocess(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_BUDGET", "9")
        job = Job("t", "probe", f"{HERE}:budget_probe_job", procs=2)
        (outcome,) = run_jobs([job], workers=0, use_cache=False)
        assert outcome.payload["budget"] == "2"
        # the caller's own budget is restored afterwards
        assert os.environ["REPRO_WORKER_BUDGET"] == "9"

    def test_wide_jobs_serialize_on_narrow_pool(self):
        """Two procs=2 jobs on a 2-slot pool must not co-run: the slot
        ledger admits the second only after the first releases."""
        jobs = [Job("t", f"wide{i}", f"{HERE}:sleep_job",
                    params={"seconds": 0.25, "i": i}, procs=2)
                for i in range(2)]
        t0 = time.perf_counter()
        outcomes = run_jobs(jobs, workers=2, use_cache=False)
        wall = time.perf_counter() - t0
        assert all(o.status == "ok" for o in outcomes)
        assert wall >= 0.45

    def test_idle_pool_always_admits_oversized_jobs(self):
        """procs > workers is capped at the pool size, not starved."""
        job = Job("t", "big", f"{HERE}:add_job",
                  params={"a": 1, "b": 1}, procs=16)
        (outcome,) = run_jobs([job], workers=2, use_cache=False)
        assert outcome.status == "ok"

    def test_nested_pdes_job_fans_out_within_budget(self):
        """The whole contract end to end: a PDES job under the pool gets
        procs worth of shard workers (not its larger request), and its
        result is bit-identical to the serial reference."""
        from repro.arch.config import small_config
        from repro.arch.serialize import to_dict
        from repro.pdes import fixture as xfix
        from repro.pdes import run_cells

        cfg = small_config(4, 4).with_geometry(cells_x=2, cells_y=1)
        job = Job("t", "pdes", f"{HERE}:pdes_probe_job",
                  params={"workers": 4}, config=to_dict(cfg), procs=2)
        (outcome,) = run_jobs([job], workers=1, use_cache=False)
        assert outcome.status == "ok"
        assert outcome.payload["workers"] == 2  # budget clamps 4 -> procs
        ref = run_cells(cfg, xfix.exchange_launches(cfg, words=8), workers=1)
        assert outcome.payload["fingerprint"] == ref.fingerprint()
