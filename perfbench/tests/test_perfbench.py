"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import common  # noqa: E402
import run  # noqa: E402

POOL = common.load_pool()


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_seed_fixes_the_op_list(workload):
    count = common.op_count(workload, 10, POOL)
    first = common.ops_digest(common.build_ops(workload, 7, POOL, count))
    again = common.ops_digest(common.build_ops(workload, 7, POOL, count))
    other = common.ops_digest(common.build_ops(workload, 8, POOL, count))
    assert first == again
    assert first != other


def test_op_lists_hold_their_fixed_parts():
    compile_ops = common.build_ops("compile-rect", 3, POOL, 500)
    assert len({op["id"] for op in compile_ops}) == 500  # each nest once per run
    assert sum(not op["id"].startswith("gen") for op in compile_ops) == 21
    n = common.max_ops("serve-mix", POOL)
    mix = common.build_ops("serve-mix", 3, POOL, n)
    shares = {cls: sum(op["cls"] == cls for op in mix) / n for cls in common.SERVE_SHARES}
    assert shares == pytest.approx(common.SERVE_SHARES, abs=0.01)
    sim = common.build_ops("simulate", 3, POOL, common.op_count("simulate", 10, POOL))
    assert len(sim) % 21 == 0


def test_tail_leaves_ten_ops_beyond_it():
    assert common.tail(list(range(1000)))[1:] == ("p99", 10)
    assert common.tail(list(range(100)))[1:] == ("p90", 10)
    assert common.tail(list(range(40)))[1:] == ("p75", 10)
    assert common.tail(list(range(39)))[1:] == ("max", 0)


def test_benchmark_json_matches_run_py():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOADS)


def _run(workload: str, trace: int, ops: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--trace", str(trace), "--ops", str(ops)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", common.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    ops = 24 if workload == "serve-mix" else 3
    proc = _run(workload, trace, ops)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == ops
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        for name, unit in run.END_TO_END:
            line = rf"^{workload}  {re.escape(name)} = \S+ {re.escape(unit)}$"
            assert re.search(line, proc.stdout, re.M)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("compile-rect", 0, 3, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# The output checks catch an injected wrong answer.


@pytest.fixture(scope="module")
def reports():
    from repro.serve.pipeline import execute_request
    from repro.serve.protocol import validate_partition_request

    paper = POOL["paper"]

    def one(name, processors, **extra):
        payload = {"source": paper[name]["source"], "processors": processors,
                   "bindings": paper[name]["bindings"], **extra}
        return payload, execute_request(validate_partition_request(payload))

    return {
        "rect": one("example9", 16),
        "pepiped": one("example3", 16, method="auto"),
        "sim": one("figure9", 4, simulate=True),
    }


def test_checks_pass_on_true_answers(reports):
    import checks

    for key in ("rect", "pepiped"):
        assert checks.check_partition(*reports[key]) is None
    assert checks.check_simulation(*reports["sim"]) is None
    assert checks.check_served(reports["rect"][1], reports["rect"][1]) is None


def test_footprint_check_catches_an_off_by_one(reports):
    import checks

    payload, report = reports["rect"]
    wrong = json.loads(json.dumps(report))
    wrong["predicted"]["cold_misses_per_tile"] += 1
    assert "walking the tile" in checks.check_partition(payload, wrong)
    wrong = json.loads(json.dumps(report))
    wrong["partition"]["grid"][0] *= 2
    assert "does not multiply" in checks.check_partition(payload, wrong)


def test_volume_check_catches_a_wrong_parallelepiped(reports):
    import checks

    payload, report = reports["pepiped"]
    assert report["partition"]["method"] == "parallelepiped"
    wrong = json.loads(json.dumps(report))
    l_matrix = report["partition"]["l_matrix"]
    wrong["partition"]["l_matrix"] = [[2 * x for x in row] for row in l_matrix]
    assert "|det L|" in checks.check_partition(payload, wrong)


def test_simulation_check_catches_a_wrong_count(reports):
    import checks

    payload, report = reports["sim"]
    wrong = json.loads(json.dumps(report))
    wrong["measured"]["total_misses"] += 1
    assert "exact engine" in checks.check_simulation(payload, wrong)


def test_served_check_catches_a_changed_tile(reports):
    import checks

    _, report = reports["rect"]
    wrong = json.loads(json.dumps(report))
    wrong["predicted"]["cold_misses_per_tile"] -= 1
    assert "predicted" in checks.check_served(wrong, report)


def test_an_injected_wrong_answer_fails_the_run(monkeypatch, tmp_path):
    import repro.serve.pipeline as pipeline
    import worker

    real = pipeline.execute_request

    def off_by_one(request):
        report = real(request)
        report["predicted"]["cold_misses_per_tile"] += 1
        return report

    monkeypatch.setattr(pipeline, "execute_request", off_by_one)
    args = argparse.Namespace(workload="compile-rect", seed=1, mode="run", out=str(tmp_path / "r"))
    result = worker.run(args, common.build_ops("compile-rect", 1, POOL, 3))
    assert result["failed"] == 3
    assert len(result["check_failed"]) == 3
    assert result["deterministic"]["failures"] == {"check": 3}
