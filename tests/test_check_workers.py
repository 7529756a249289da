"""Determinism of the differential self-check under process fan-out.

``repro check`` must produce a byte-identical report (failure set,
tallies, corpus of shrunk counterexamples) for a fixed seed regardless
of ``--workers`` — the worker partitioning is a pure scheduling choice.
"""

from __future__ import annotations

import json

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

    def test_pool_broken_during_submission(self, monkeypatch):
        """A worker can die while batches are still being submitted; then
        ``submit`` itself raises ``BrokenProcessPool``, which must become
        the same clear error."""
        import io
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        real_submit = ProcessPoolExecutor.submit
        calls = []

        def submit(self, *args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise BrokenProcessPool("a child process terminated abruptly")
            return real_submit(self, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        out = io.StringIO()
        rc = check_main(["--workers", "2", "--cases", "6"], out=out)
        assert rc == 1
        assert "worker process died mid-batch" in out.getvalue()

    def test_kill_hook_inert_in_driver(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_KILL_WORKER", "1")
        report = run_check(cases=2, seed=0, workers=1)
        assert report["cases"] == 2
        assert report["failed"] == 0
