"""Differential test: the service must return byte-identical reports to
the CLI's ``--json-report`` (timings aside) for every ``examples/*.doall``
program, and the same message when the pipeline rejects a program.

Both front ends run one function, ``repro.serve.pipeline.run_request``:
the CLI calls it in-process, a service worker through
``execute_request``.  What this test guards is everything around that
call — how each side builds the request (``-D`` order, labels, caches)
and how each side reports a failure (the CLI's
``error: <message>`` and exit 1, the service's 422 ``pipeline-error``
with the same message).  Normalisation strips
exactly the run-dependent parts: per-span wall times (``duration_s``)
and the analytic-cache statistics (hit/miss counts depend on process
history).  Everything else — partition choice, predictions, simulator
counts, span *structure* — must match to the byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.serve import EmbeddedServer, ServeClient, ServeConfig, ServeError

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: (file, bindings, processors) — sizes follow benchmarks/paper_programs.py.
EXAMPLES = [
    ("example2.doall", {}, 100),
    ("example3.doall", {"N": 36}, 9),
    ("example6.doall", {}, 25),
    ("example8.doall", {"N": 24}, 8),
    ("matmul.doall", {"N": 32}, 16),
]

#: Examples small enough to also validate with the machine simulator.
SIMULATED = {"example3.doall", "matmul.doall"}


def _normalize(report: dict) -> str:
    def strip_spans(spans):
        out = []
        for s in spans:
            s = dict(s)
            s.pop("duration_s", None)
            s.pop("peak_rss_kb", None)
            if "children" in s:
                s["children"] = strip_spans(s["children"])
            out.append(s)
        return out

    doc = dict(report)
    doc.pop("caches", None)
    doc["spans"] = strip_spans(doc.get("spans", []))
    return json.dumps(doc, sort_keys=True)


@pytest.fixture(scope="module")
def server():
    with EmbeddedServer(ServeConfig(port=0, workers=1)) as emb:
        yield emb


def _assert_example_matches(server, tmp_path, filename, bindings, processors):
    path = EXAMPLES_DIR / filename
    assert path.exists(), f"missing example program {path}"
    simulate = filename in SIMULATED

    report_path = tmp_path / "cli.json"
    argv = [str(path), "-p", str(processors)]
    for name, value in bindings.items():
        argv += ["-D", f"{name}={value}"]
    if simulate:
        argv += ["--simulate"]
    argv += ["--json-report", str(report_path)]
    import io

    assert cli_main(argv, out=io.StringIO()) == 0
    cli_report = json.loads(report_path.read_text())

    with ServeClient("127.0.0.1", server.port) as client:
        serve_report = client.partition(
            path.read_text(),
            processors,
            bindings=bindings or None,
            simulate=simulate or None,
            label=str(path),  # the CLI records argv's source path
        )

    assert _normalize(serve_report) == _normalize(cli_report)


@pytest.mark.parametrize("filename,bindings,processors", EXAMPLES)
def test_serve_matches_cli_json_report(
    server, tmp_path, filename, bindings, processors
):
    _assert_example_matches(server, tmp_path, filename, bindings, processors)


#: (strategy, simulate) — the flow contract holds for both tile-selection
#: strategies, with and without the end-to-end replay.
FLOW_CASES = [("co", True), ("independent", True), ("co", False)]


@pytest.mark.parametrize("strategy,simulate", FLOW_CASES)
def test_serve_flow_matches_cli_json_report(server, tmp_path, strategy, simulate):
    """``"program": "flow"`` responses are the CLI ``--flow`` pipeline
    behind a socket — byte-identical reports, flow section included."""
    path = EXAMPLES_DIR / "pipeline.flow"
    assert path.exists(), f"missing example program {path}"

    report_path = tmp_path / "cli.json"
    argv = [
        str(path), "--flow", "-p", "4", "-D", "N=12",
        "--flow-strategy", strategy,
        "--json-report", str(report_path),
    ]
    if simulate:
        argv += ["--simulate"]
    import io

    assert cli_main(argv, out=io.StringIO()) == 0
    cli_report = json.loads(report_path.read_text())

    with ServeClient("127.0.0.1", server.port) as client:
        serve_report = client.partition(
            path.read_text(),
            4,
            bindings={"N": 12},
            simulate=simulate or None,
            program="flow",
            strategy=strategy,
            label=str(path),
        )

    assert _normalize(serve_report) == _normalize(cli_report)
    flow = serve_report["flow"]
    assert flow["strategy"] == strategy
    assert flow["schedule"]["digest"]
    if simulate:
        assert flow["parity"]["match"] is True


def test_normalization_is_not_vacuous(server):
    """Guard the guard: _normalize must keep the load-bearing sections."""
    path = EXAMPLES_DIR / "example3.doall"
    with ServeClient("127.0.0.1", server.port) as client:
        report = client.partition(
            path.read_text(), 9, bindings={"N": 36}, label="x"
        )
    doc = json.loads(_normalize(report))
    assert doc["partition"]["tile_sides"]
    assert doc["predicted"]
    assert doc["spans"], "span structure must survive normalisation"
    assert all("duration_s" not in s for s in doc["spans"])


#: (case, source, bindings) — programs the pipeline rejects: an unbound
#: symbol (no ``-D N``), an empty loop (``N = -1``) and a parse error.
FAILING = [
    ("unbound-symbol", (EXAMPLES_DIR / "example8.doall").read_text(), {}),
    ("empty-loop", (EXAMPLES_DIR / "example3.doall").read_text(), {"N": -1}),
    ("parse-error", "Doall (i, 1, 4)\n A[i] =\n", {}),
]


@pytest.mark.parametrize(
    "case,source,bindings", FAILING, ids=[case for case, _, _ in FAILING]
)
def test_serve_matches_cli_on_pipeline_errors(server, tmp_path, case, source, bindings):
    """The CLI prints only ``error: <message>`` and exits 1; the service
    answers 422 ``pipeline-error`` carrying the same message."""
    import io

    path = tmp_path / "prog.doall"
    path.write_text(source)
    argv = [str(path), "-p", "4"]
    for name, value in bindings.items():
        argv += ["-D", f"{name}={value}"]
    out = io.StringIO()
    assert cli_main(argv, out=out) == 1
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    message = lines[0][len("error: "):]

    with ServeClient("127.0.0.1", server.port) as client:
        with pytest.raises(ServeError) as exc:
            client.partition(
                source, 4, bindings=bindings or None, label=str(path)
            )
    assert exc.value.status == 422
    assert exc.value.payload == {
        "error": {"code": "pipeline-error", "message": message}
    }
