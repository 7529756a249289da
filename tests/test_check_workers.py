"""Determinism of the differential self-check under process fan-out.

``repro check`` must produce a byte-identical report (failure set,
tallies, corpus of shrunk counterexamples) for a fixed seed regardless
of ``--workers`` — the worker partitioning is a pure scheduling choice.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check.harness import check_main, run_check
from repro.exceptions import ReproError


def _strip_duration(report: dict) -> dict:
    out = dict(report)
    out.pop("duration_s", None)
    return out


class TestWorkerDeterminism:
    def test_50_cases_workers_1_vs_4(self):
        r1 = run_check(cases=50, seed=0)
        r4 = run_check(cases=50, seed=0, workers=4)
        assert json.dumps(_strip_duration(r1), sort_keys=True) == (
            json.dumps(_strip_duration(r4), sort_keys=True)
        )

    def test_corpus_and_generated_merge_order(self, tmp_path):
        # Corpus replay rides ahead of generated cases in both modes.
        corpus = tmp_path / "corpus.json"
        from repro.check.corpus import save_corpus, spec_to_dict
        from repro.check.generator import generate_case

        save_corpus(
            corpus,
            [
                {"spec": spec_to_dict(generate_case(3, seed=11)), "note": "a"},
                {"spec": spec_to_dict(generate_case(7, seed=11)), "note": "b"},
            ],
        )
        r1 = run_check(cases=6, seed=5, corpus_path=corpus)
        r3 = run_check(cases=6, seed=5, corpus_path=corpus, workers=3)
        assert _strip_duration(r1) == _strip_duration(r3)
        assert r1["cases"] == 8  # 2 corpus + 6 generated

    def test_injected_fault_detected_with_workers(self):
        r = run_check(cases=8, seed=0, fault="exact-count", workers=2)
        assert r["failures"], "fault injection must surface failures"
        serial = run_check(cases=8, seed=0, fault="exact-count")
        assert _strip_duration(serial) == _strip_duration(r)

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            run_check(cases=2, seed=0, workers=0)


class TestCheckCli:
    def test_workers_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            check_main(["--cases", "2", "--workers", "0"])
        assert exc.value.code == 2

    def test_cli_workers_smoke(self, tmp_path, capsys):
        rc = check_main(
            ["--cases", "4", "--seed", "0", "--workers", "2",
             "--json-report", str(tmp_path / "r.json")]
        )
        assert rc == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["cases"] == 4
        assert "workers" not in report  # scheduling must not leak into the report

    def test_cli_cache_dir_persists(self, tmp_path):
        cache_dir = tmp_path / "cache"
        rc = check_main(
            ["--cases", "4", "--seed", "0", "--cache-dir", str(cache_dir)]
        )
        assert rc == 0
        assert (cache_dir / "analytic_cache.json").exists()

    def test_cli_cache_dir_same_entries_any_workers(self, tmp_path):
        """Pool children ship what they computed: a ``--workers 2`` run
        persists exactly the analytic-cache entries of ``--workers 1``.
        Each run gets a fresh interpreter, whose default caches start
        empty."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("REPRO_CACHE_DIR", None)
        written = {}
        for workers in (1, 2):
            cache_dir = tmp_path / f"workers{workers}"
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "check", "--cases", "10",
                 "--seed", "0", "--workers", str(workers),
                 "--cache-dir", str(cache_dir)],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            doc = json.loads((cache_dir / "analytic_cache.json").read_text())
            written[workers] = doc["caches"]
        assert all(written[1][name] for name in written[1]), written[1]
        assert written[2] == written[1]

    def test_cli_faulted_run_never_persists(self, tmp_path):
        cache_dir = tmp_path / "cache"
        check_main(
            ["--cases", "4", "--seed", "0", "--cache-dir", str(cache_dir),
             "--inject-fault", "exact-count"]
        )
        # A faulted run must not poison the warm-start file.
        assert not (cache_dir / "analytic_cache.json").exists()


class TestWorkerDeath:
    """A dying pool worker must surface as a clear error, not a bare
    BrokenProcessPool traceback.

    The ``REPRO_CHECK_KILL_WORKER`` hook makes a pool child
    ``os._exit(3)`` at the top of its batch — the abrupt-death shape of
    a segfault or OOM kill.  The driver process is not a pool child, so
    the hook is inert there.
    """

    def test_run_check_reports_worker_death(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_KILL_WORKER", "1")
        with pytest.raises(ReproError, match="worker process died mid-batch"):
            run_check(cases=6, seed=0, workers=2)

    def test_check_main_clear_error_not_traceback(self, monkeypatch):
        import io

        monkeypatch.setenv("REPRO_CHECK_KILL_WORKER", "1")
        out = io.StringIO()
        rc = check_main(["--cases", "6", "--workers", "2"], out=out)
        text = out.getvalue()
        assert rc == 1
        assert "worker process died mid-batch" in text
        assert "--workers 1" in text  # actionable hint
        assert "Traceback" not in text
        assert "BrokenProcessPool" not in text

    def test_kill_hook_inert_in_driver(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_KILL_WORKER", "1")
        report = run_check(cases=2, seed=0, workers=1)
        assert report["cases"] == 2
        assert report["failed"] == 0
