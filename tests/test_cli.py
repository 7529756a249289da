"""Tests for the ``python -m repro`` command-line driver."""

import io

import pytest

from repro.cli import build_parser, main

EX8 = """
Doall (i, 1, N)
  Doall (j, 1, N)
    Doall (k, 1, N)
      A(i,j,k) = B(i-1,j,k+1) + B(i,j+1,k) + B(i+1,j-2,k-3)
    EndDoall
  EndDoall
EndDoall
"""


@pytest.fixture
def ex8_file(tmp_path):
    f = tmp_path / "ex8.doall"
    f.write_text(EX8)
    return str(f)


def run_cli(args):
    buf = io.StringIO()
    code = main(args, out=buf)
    return code, buf.getvalue()


class TestCLI:
    def test_basic_report(self, ex8_file):
        code, out = run_cli([ex8_file, "-p", "8", "-D", "N=24"])
        assert code == 0
        assert "tile sides: [12, 12, 12]" in out
        assert "grid: (2, 2, 2)" in out
        assert "spread=[2, 3, 4]" in out

    def test_simulate(self, ex8_file):
        code, out = run_cli([ex8_file, "-p", "8", "-D", "N=12", "--simulate"])
        assert code == 0
        assert "mean misses/processor" in out

    def test_simulate_engine_flags_agree(self, ex8_file):
        """--engine fast and --engine exact print identical simulation
        tables (differential parity through the CLI)."""
        outputs = {}
        for engine in ("fast", "exact"):
            code, out = run_cli(
                [ex8_file, "-p", "8", "-D", "N=12", "--simulate",
                 "--engine", engine]
            )
            assert code == 0
            outputs[engine] = out[out.index("mean misses/processor"):]
        assert outputs["fast"] == outputs["exact"]

    def test_engine_fast_with_trace_is_error(self, ex8_file, tmp_path):
        """An observer (event trace) breaks the fast path's preconditions:
        the CLI must report the error, not crash."""
        trace = tmp_path / "t.jsonl"
        code, out = run_cli(
            [ex8_file, "-p", "8", "-D", "N=12", "--simulate",
             "--engine", "fast", "--trace-out", str(trace)]
        )
        assert code == 1
        assert "engine='fast'" in out

    def test_pseudocode(self, ex8_file):
        code, out = run_cli(
            [ex8_file, "-p", "8", "-D", "N=12", "--pseudocode", "0"]
        )
        assert code == 0
        assert "// processor 0" in out
        assert "for i = 1 to 6" in out

    def test_data_flag(self, ex8_file):
        code, out = run_cli([ex8_file, "-p", "8", "-D", "N=24", "--data"])
        assert code == 0
        assert "data-partitioning (a+) tile" in out

    def test_unbound_symbol_is_error(self, ex8_file):
        code, out = run_cli([ex8_file, "-p", "8"])
        assert code == 1
        assert "error:" in out

    def test_bad_define(self, ex8_file):
        with pytest.raises(SystemExit):
            run_cli([ex8_file, "-D", "N"])
        with pytest.raises(SystemExit):
            run_cli([ex8_file, "-D", "N=abc"])

    def test_parse_error_reported(self, tmp_path):
        f = tmp_path / "bad.doall"
        f.write_text("Doall (i, 1, 4)\n A[i] =\n")
        code, out = run_cli([str(f)])
        assert code == 1
        assert "error:" in out

    def test_comm_free_reported(self, tmp_path):
        f = tmp_path / "ex2.doall"
        f.write_text(
            "Doall (i, 101, 200)\n"
            " Doall (j, 1, 100)\n"
            "  A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3]\n"
            " EndDoall\n"
            "EndDoall\n"
        )
        code, out = run_cli([str(f), "-p", "100"])
        assert code == 0
        assert "communication-free hyperplane normals: [[0, 1]]" in out
        assert "communication-free: True" in out

    def test_parser_builds(self):
        p = build_parser()
        ns = p.parse_args(["x.doall", "-p", "2"])
        assert ns.processors == 2

    def test_multiple_nests_note(self, tmp_path):
        f = tmp_path / "two.doall"
        f.write_text(
            "Doall (i, 1, 8)\n A[i] = B[i]\nEndDoall\n"
            "Doall (j, 1, 8)\n C[j] = D[j]\nEndDoall\n"
        )
        code, out = run_cli([str(f), "-p", "2"])
        assert code == 0
        assert "2 nests found" in out


class TestObservabilityFlags:
    def test_json_report_matches_simulator(self, ex8_file, tmp_path):
        from repro.core.partitioner import LoopPartitioner
        from repro.lang import compile_nest
        from repro.obs import load_report
        from repro.sim import simulate_nest

        path = tmp_path / "report.json"
        code, out = run_cli(
            [ex8_file, "-p", "8", "-D", "N=12", "--simulate",
             "--json-report", str(path)]
        )
        assert code == 0
        assert path.exists()
        report = load_report(str(path))  # validates schema + version
        # The simulator is deterministic: an independent run must agree.
        nest = compile_nest(EX8, {"N": 12})
        result = LoopPartitioner(nest, 8).partition()
        sim = simulate_nest(nest, result.tile, 8)
        assert report["measured"]["total_misses"] == sim.total_misses
        assert report["program"]["processors"] == 8
        assert report["program"]["bindings"] == {"N": 12}
        span_names = {s["name"] for s in report["spans"]}
        assert {"lang.parse", "lang.lower", "optimize.rectangular",
                "sim.execute"} <= span_names

    def test_json_report_without_simulate(self, ex8_file, tmp_path):
        from repro.obs import load_report

        path = tmp_path / "report.json"
        code, _ = run_cli(
            [ex8_file, "-p", "8", "-D", "N=12", "--json-report", str(path)]
        )
        assert code == 0
        report = load_report(str(path))
        assert "measured" not in report
        assert report["predicted"]["cold_misses_per_tile"] > 0

    def test_json_report_caches_section(self, tmp_path):
        """The report's ``caches`` section counts this process's analytic
        caches: one entry per default cache, three counters each."""
        from repro.obs import load_report

        # B's reference matrix collapses iterations (dependent rows), the
        # path that consults the memoised DEFAULT_FOOTPRINT_TABLE.
        src = tmp_path / "prog.doall"
        src.write_text(
            "Doall (i, 1, 16)\n  Doall (j, 1, 16)\n"
            "    A(i,j) = B(i+j) + B(i+j+2)\n  EndDoall\nEndDoall\n"
        )
        path = tmp_path / "report.json"
        code, _ = run_cli([str(src), "-p", "4", "--json-report", str(path)])
        assert code == 0
        caches = load_report(str(path))["caches"]
        assert set(caches) == {"footprint_table", "lattice_cache"}
        for section in caches.values():
            assert set(section) == {"entries", "hits", "misses"}

    def test_trace_out(self, ex8_file, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        code, out = run_cli(
            [ex8_file, "-p", "8", "-D", "N=12", "--simulate",
             "--trace-out", str(path), "--trace-sample", "5"]
        )
        assert code == 0
        assert "event trace:" in out
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert lines, "trace file is empty"
        assert all(e["seq"] % 5 == 0 for e in lines)

    def test_trace_out_requires_simulate_note(self, ex8_file, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, out = run_cli(
            [ex8_file, "-p", "8", "-D", "N=12", "--trace-out", str(path)]
        )
        assert code == 0
        assert "no effect without --simulate" in out
        assert not path.exists()

    def test_profile_table(self, ex8_file):
        code, out = run_cli(
            [ex8_file, "-p", "8", "-D", "N=12", "--simulate", "--profile"]
        )
        assert code == 0
        assert "phase" in out
        assert "optimize.rectangular" in out
        assert "sim.execute" in out


def test_partition_run_rejects_workers_flag(ex8_file, capsys):
    """A partition run is serial; only ``check``/``serve`` take --workers."""
    with pytest.raises(SystemExit) as exc:
        run_cli([ex8_file, "-D", "N=12", "--simulate", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


class TestBadInputs:
    """Bad sizes are usage or input errors, never raw tracebacks."""

    @pytest.fixture(params=["nest", "flow"])
    def program_args(self, request, ex8_file, tmp_path):
        if request.param == "nest":
            return [ex8_file]
        f = tmp_path / "pipe.flow"
        f.write_text(FLOW_SRC)
        return [str(f), "--flow"]

    @pytest.mark.parametrize("p", ["0", "-3"])
    def test_nonpositive_processors_rejected(self, program_args, capsys, p):
        with pytest.raises(SystemExit) as exc:
            run_cli(program_args + ["-p", p, "-D", "N=12"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--processors must be >= 1" in err
        assert "Traceback" not in err

    def test_empty_loop_is_typed_error(self, program_args):
        code, out = run_cli(program_args + ["-p", "4", "-D", "N=-1"])
        assert code == 1
        assert out.startswith("error: loop i is empty: upper bound -1 < lower ")


class TestErrorPaths:
    """Exit codes and messages on the CLI's failure edges."""

    def test_bad_engine_rejected(self, ex8_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([ex8_file, "-D", "N=12", "--simulate", "--engine", "warp"])
        assert exc.value.code == 2
        assert "invalid choice: 'warp'" in capsys.readouterr().err

    def test_stdin_empty_input(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code, out = run_cli(["-", "-p", "4"])
        assert code == 1
        assert out.startswith("error:")
        assert "empty program" in out

    def test_stdin_whitespace_only_input(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n\n  \n"))
        code, out = run_cli(["-", "-p", "4"])
        assert code == 1
        assert out.startswith("error:")

    def test_trace_out_without_simulate_is_note_not_error(
        self, ex8_file, tmp_path
    ):
        path = tmp_path / "t.jsonl"
        code, out = run_cli(
            [ex8_file, "-p", "8", "-D", "N=12", "--trace-out", str(path)]
        )
        assert code == 0
        assert "note: --trace-out has no effect without --simulate" in out
        assert not path.exists()

    def test_serve_rejects_zero_workers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["serve", "--workers", "0"])
        assert exc.value.code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_serve_rejects_zero_queue_depth(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["serve", "--queue-depth", "0"])
        assert exc.value.code == 2
        assert "--queue-depth must be >= 1" in capsys.readouterr().err

    def test_loadgen_rejects_zero_clients(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["loadgen", "--clients", "0"])
        assert exc.value.code == 2
        assert "--clients must be >= 1" in capsys.readouterr().err


class TestCheckSubcommand:
    def test_check_dispatch(self):
        code, out = run_cli(["check", "--cases", "2", "--seed", "0"])
        assert code == 0
        assert "2 passed, 0 failed" in out

    def test_check_writes_report(self, tmp_path):
        from repro.obs.report import load_report

        path = tmp_path / "check.json"
        code, _ = run_cli(
            ["check", "--cases", "1", "--seed", "0", "--json-report", str(path)]
        )
        assert code == 0
        report = load_report(path)
        assert report["schema"] == "repro.check-report"
        assert report["failed"] == 0


FLOW_SRC = """\
Doall (i, 0, N)
  T[i] = A[i] + A[i + 1]
EndDoall
Doall (i, 0, N)
  B[i] = T[i] + T[i - 1]
EndDoall
"""


class TestFlowFlag:
    @pytest.fixture
    def flow_file(self, tmp_path):
        f = tmp_path / "pipe.flow"
        f.write_text(FLOW_SRC)
        return str(f)

    def test_flow_summary(self, flow_file):
        code, out = run_cli([flow_file, "--flow", "-p", "4", "-D", "N=15"])
        assert code == 0
        assert "flow program: 2 statements" in out
        assert "S1 -> S2 on T (flow)" in out
        assert "communication schedule:" in out

    def test_flow_simulate_reports_parity(self, flow_file):
        code, out = run_cli(
            [flow_file, "--flow", "-p", "4", "-D", "N=15", "--simulate"]
        )
        assert code == 0
        assert "parity OK" in out

    def test_flow_json_report(self, flow_file, tmp_path):
        from repro.obs.report import load_report

        path = tmp_path / "flow.json"
        code, _ = run_cli(
            [flow_file, "--flow", "-p", "4", "-D", "N=15",
             "--json-report", str(path)]
        )
        assert code == 0
        report = load_report(path)
        assert report["program"]["program"] == "flow"
        assert report["flow"]["schedule"]["digest"]

    def test_flow_strategy_flag(self, flow_file):
        code, out = run_cli(
            [flow_file, "--flow", "--flow-strategy", "independent",
             "-p", "4", "-D", "N=15"]
        )
        assert code == 0
        assert "strategy = independent" in out

    def test_flow_rejection_is_reported(self, tmp_path):
        f = tmp_path / "bad.flow"
        f.write_text(
            "Doall (i, 0, 7)\n  T[i] = 1\nEndDoall\n"
            "Doall (i, 0, 3)\n  B[i] = T[2i]\nEndDoall\n"
        )
        code, out = run_cli([str(f), "--flow", "-p", "2"])
        assert code == 1
        assert "error:" in out
        assert "not uniformly generated" in out

    def test_check_flow_dispatch(self):
        code, out = run_cli(["check", "--flow", "--cases", "2", "--seed", "0"])
        assert code == 0
        assert "2 passed, 0 failed" in out
