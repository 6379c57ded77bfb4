"""CLI: --version, --size threading, repro sweep, repro journal."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.cli import main
from repro.orch import read_journal


class TestVersion:
    def test_dunder_version(self):
        assert repro.__version__
        parts = repro.__version__.split(".")
        assert len(parts) >= 2 and parts[0].isdigit()

    def test_cli_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestSizeThreading:
    def test_fig11_tiny(self, capsys):
        assert main(["fig11", "--size", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Fig 11" in out

    def test_default_size_is_per_experiment(self, capsys):
        # fig13 defaults to its own tiny tier when --size is not given.
        assert main(["fig13"]) == 0
        assert "3.6" in capsys.readouterr().out


class TestSweep:
    def test_unknown_target(self, capsys):
        assert main(["sweep", "fig99"]) == 2
        assert "unknown sweep target" in capsys.readouterr().err

    def test_journal_missing_path(self, capsys):
        assert main(["journal"]) == 2

    def test_sweep_fig4_journaled_then_cached(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        journal = str(tmp_path / "run.jsonl")
        argv = ["sweep", "fig4", "--jobs", "0", "--size", "tiny",
                "--cache-dir", cache, "--journal", journal]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Fig 4" in out

        records = read_journal(journal)
        header = records[0]
        assert header["event"] == "header"
        assert header["version"] == repro.__version__
        assert header["fingerprint"]
        jobs = [r for r in records if r["event"] == "job"]
        assert jobs and all(j["outcome"] == "ok" for j in jobs)
        assert records[-1]["event"] == "footer"

        # An identical re-run is pure cache hits.
        assert main(argv) == 0
        capsys.readouterr()
        jobs = [r for r in read_journal(journal) if r["event"] == "job"]
        assert all(j["outcome"] == "cached" for j in jobs)

        # ... and the journal summarizer reads it back.
        assert main(["journal", journal]) == 0
        out = capsys.readouterr().out
        assert "cache hits 100%" in out

    def test_sweep_exit_code_reflects_failures(self, tmp_path, monkeypatch):
        import repro.experiments as experiments

        class BrokenHarness:
            @staticmethod
            def jobs(size="small"):
                from repro.orch import Job
                return [Job("broken", "k", "tests.test_orch:boom_job",
                            retries=0)]

            reduce = staticmethod(dict)

            @staticmethod
            def render(out):
                pass

        monkeypatch.setitem(experiments.HARNESSES, "broken",
                            BrokenHarness)
        assert main(["sweep", "broken", "--jobs", "0", "--no-cache"]) == 1


class TestAllRoutesThroughOrchestrator:
    def test_all_uses_the_plan(self, tmp_path, monkeypatch, capsys):
        # "repro all" must enter the sweep path (dedup + cache), not the
        # old serial main() loop: run it with a stub harness registry.
        import repro.experiments as experiments

        class TinyHarness:
            @staticmethod
            def jobs(size="small"):
                from repro.orch import Job
                return [Job("tiny", "k", "tests.test_orch:add_job",
                            params={"a": 1, "b": 2})]

            reduce = staticmethod(dict)

            @staticmethod
            def render(out):
                print("tiny-rendered", out["k"]["sum"])

        monkeypatch.setattr(experiments, "HARNESSES",
                            {"tiny": TinyHarness})
        assert main(["all", "--jobs", "0", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "sweep all" in out
        assert "tiny-rendered 3" in out


#: ``repro sweep`` on a harness of one short job and three long ones.
SLOW_SWEEP = """
import sys

import repro.experiments as experiments
from repro.cli import main
from repro.orch import Job


class Slow:
    @staticmethod
    def jobs(size="small"):
        return [Job("slow", f"s{i}", "tests.test_orch:sleep_job",
                    params={"seconds": 0.2 if i == 0 else 30.0, "i": i})
                for i in range(4)]

    reduce = staticmethod(dict)

    @staticmethod
    def render(out):
        pass


experiments.HARNESSES["slow"] = Slow
sys.exit(main(sys.argv[1:]))
"""


class TestSweepInterrupt:
    def test_ctrl_c_cancels_unfinished_jobs_and_journals_them(self,
                                                              tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src"), root]))
        journal = str(tmp_path / "run.jsonl")
        proc = subprocess.Popen(
            [sys.executable, "-c", SLOW_SWEEP, "sweep", "slow", "--jobs",
             "1", "--no-cache", "--journal", journal],
            cwd=root, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if os.path.exists(journal) and any(
                        r["event"] == "job" for r in read_journal(journal)):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("no job record within 60s")
            proc.send_signal(signal.SIGINT)
            returncode = proc.wait(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert returncode == 1
        records = read_journal(journal)
        outcomes = {r["key"]: r["outcome"] for r in records
                    if r["event"] == "job"}
        assert outcomes == {"s0": "ok", "s1": "cancelled",
                            "s2": "cancelled", "s3": "cancelled"}
        assert records[-1]["event"] == "footer"
