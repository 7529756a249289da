"""``repro loadgen`` end to end, and the ``/metrics`` dump reader it uses.

The driver tests run ``loadgen_main`` with ``--json`` and assert what
CI's serve-smoke steps assert on that file.  The reader tests run on a
synthetic server dump.
"""

from __future__ import annotations

import io
import json
import sys

from repro.serve import EmbeddedServer, ServeClient, ServeConfig
from repro.serve.client import latency
from repro.serve.loadgen import (
    Phase,
    build_phases,
    family_corpus,
    loadgen_main,
    run_loadgen,
)


def _histogram(count: int, p99: float, **labels) -> dict:
    return {
        "name": labels.pop("name"), "type": "histogram", "labels": labels,
        "count": count, "mean": p99 / 2, "p50": p99 / 2, "p95": p99, "p99": p99,
        "max": p99,
    }


class TestDumpReader:
    def test_server_latency_is_the_partition_series(self):
        dump = {
            "server": {},
            "metrics": [
                _histogram(9, 2.0, name="serve.latency_ms", endpoint="/healthz"),
                _histogram(7, 9.0, name="serve.latency_ms", endpoint="/v1/partition"),
            ],
        }
        assert latency(dump)["count"] == 7
        assert latency(dump)["p99"] == 9.0
        assert latency({"server": {}, "metrics": []}) is None
        assert latency(None) is None


class TestPhases:
    def test_paper_corpus_is_one_phase(self):
        (phase,) = build_phases(7, generated=2, seed=3)
        assert phase.requests == 7 and phase.tags is None
        assert len(phase.corpus) == 5 + 2

    def test_one_phase_per_family(self):
        phases = build_phases(families=2, sweep=(2, 3))
        assert [p.tags for p in phases] == [
            {"family": 0, "program": "doall"}, {"family": 1, "program": "doall"},
        ]
        assert phases[1].corpus == family_corpus(1, 2, 3)
        assert phases[1].requests == 6


def test_clients_share_one_request_sequence():
    """More client threads than cores, switching often, draw from one
    shared request sequence: each request goes out exactly once."""
    corpus = [(f"tiny{n}", f"Doall (i, 1, {n})\n  A[i] = B[i]\nEndDoall\n", {}, 2)
              for n in (4, 5)]
    interval = sys.getswitchinterval()
    with EmbeddedServer(ServeConfig(port=0, workers=1)) as emb:
        with ServeClient("127.0.0.1", emb.port) as c:
            before = (latency(c.metrics()) or {}).get("count", 0)
        sys.setswitchinterval(1e-6)
        try:
            stats = run_loadgen(host="127.0.0.1", port=emb.port, clients=8,
                                phases=[Phase(corpus, 150), Phase(corpus, 50)])
        finally:
            sys.setswitchinterval(interval)
    assert stats["error_count"] == 0, stats["errors"]
    assert stats["completed"] == stats["requests"] == 200
    assert stats["server_latency_ms"]["count"] - before == 200


def _run(argv: list[str], tmp_path) -> tuple[int, dict]:
    path = tmp_path / "stats.json"
    rc = loadgen_main(argv + ["--json", str(path)], out=io.StringIO())
    return rc, json.loads(path.read_text())


def test_plain_loadgen_against_a_server(tmp_path):
    with EmbeddedServer(ServeConfig(port=0, workers=1)) as emb:
        rc, stats = _run(
            ["--port", str(emb.port), "--clients", "4", "--requests", "20"], tmp_path
        )
    assert rc == 0
    # CI serve-smoke's "Assert zero errors, well-formed /metrics ...".
    assert stats["error_count"] == 0, stats["errors"]
    assert stats["completed"] == stats["requests"], stats
    assert stats.get("server_latency_ms"), stats
    assert "families" not in stats
