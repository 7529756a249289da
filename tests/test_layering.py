"""One level of parallelism: only ``serve/`` and ``check/`` hold process pools.

The partitioner is a compile-time pass run once per loop nest; the
service and the self-check parallelise across requests and cases.  A
single request (optimizer, simulator, flow pipeline, lattice kernels,
frontend, code generator) runs serially, so none of those packages may
import a process or thread pool module.

Within ``core/`` one module owns each mechanism: processor grids are
enumerated and selected only by ``optimize.py``'s grid search.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

SERIAL_PACKAGES = ("core", "sim", "flow", "lattice", "lang", "codegen")
POOL_MODULES = ("multiprocessing", "concurrent.futures")


def _imported_modules(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _is_pool_module(name: str) -> bool:
    return any(name == m or name.startswith(m + ".") for m in POOL_MODULES)


def _serial_modules() -> list[Path]:
    root = Path(repro.__file__).parent
    return sorted(
        path for pkg in SERIAL_PACKAGES for path in (root / pkg).rglob("*.py")
    )


def test_serial_packages_exist():
    root = Path(repro.__file__).parent
    for pkg in SERIAL_PACKAGES:
        assert (root / pkg / "__init__.py").is_file(), pkg


@pytest.mark.parametrize(
    "path", _serial_modules(), ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_no_pool_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = sorted(n for n in _imported_modules(tree) if _is_pool_module(n))
    assert not offending, f"{path.name} imports {offending}"



def _calls(tree: ast.AST, name: str) -> bool:
    return any(
        isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == name)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == name)
        )
        for node in ast.walk(tree)
    )


def test_one_grid_search():
    """Within ``core/``, only ``optimize.py`` enumerates processor grids:
    the data-partition optimizer goes through its feasible-grid helper
    instead of calling ``factorizations`` itself."""
    core = Path(repro.__file__).parent / "core"
    callers = sorted(
        path.name
        for path in core.rglob("*.py")
        if _calls(ast.parse(path.read_text(), filename=str(path)), "factorizations")
    )
    assert callers == ["optimize.py"]


def _absolute_imports(tree: ast.AST, package: str) -> set[str]:
    """Every module a file imports, relative imports resolved against
    ``package`` (the dotted package the file lives in)."""
    parts = package.split(".")
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = parts[: len(parts) + 1 - node.level] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_one_sim_metrics_owner():
    """Counts stay with the components that increment them.  No module
    under ``sim/`` imports the metrics registry (the run report reads the
    simulator's ints), nor do the analytic caches (``lattice/memo.py``).
    Their ints reach a registry through one
    publisher: ``lattice/memo.py``'s ``publish_cache_metrics``, the only
    caller of ``MetricsRegistry.publish``."""
    root = Path(repro.__file__).parent
    counters = sorted((root / "sim").rglob("*.py")) + [
        root / "lattice" / "memo.py",
    ]
    importers = sorted(
        f"{path.parent.name}/{path.name}"
        for path in counters
        if "repro.obs.metrics"
        in _absolute_imports(
            ast.parse(path.read_text(), filename=str(path)),
            f"repro.{path.parent.name}",
        )
    )
    assert importers == []
    publishers = sorted(
        f"{path.parent.name}/{path.name}"
        for path in root.rglob("*.py")
        if path.name != "metrics.py"
        and _calls(ast.parse(path.read_text(), filename=str(path)), "publish")
    )
    assert publishers == ["lattice/memo.py"]


def test_one_request_pipeline():
    """The CLI and the service run one request pipeline,
    ``serve/pipeline.run_request``.  ``cli.py`` imports none of the
    pipeline's stages, and among ``cli.py`` and ``serve/*.py`` only
    ``serve/pipeline.py`` builds a run report."""
    root = Path(repro.__file__).parent
    cli = root / "cli.py"
    stages = (
        "parse_program", "lower_nest", "LoopPartitioner",
        "simulate_nest", "build_report", "run_flow",
    )
    imported = _absolute_imports(ast.parse(cli.read_text(), filename=str(cli)), "repro")
    offending = sorted(
        name for name in imported for stage in stages if name.rsplit(".", 1)[-1] == stage
    )
    assert offending == []
    builders = sorted(
        path.relative_to(root).as_posix()
        for path in [cli, *sorted((root / "serve").glob("*.py"))]
        if _calls(ast.parse(path.read_text(), filename=str(path)), "build_report")
    )
    assert builders == ["serve/pipeline.py"]


def test_one_serve_worker_mechanism():
    """The service reaches its compute workers one way: a duplex pipe per
    worker, owned by ``serve/workers.py``.  No module under ``serve/``
    imports ``concurrent.futures``, so no executor pool grows beside it."""
    root = Path(repro.__file__).parent
    offenders = sorted(
        f"serve/{path.name}: {name}"
        for path in sorted((root / "serve").glob("*.py"))
        for name in _imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if name == "concurrent.futures" or name.startswith("concurrent.futures.")
    )
    assert offenders == []


def _dump_keys_read(tree: ast.AST) -> set[str]:
    """The ``/metrics`` dump keys a file reads itself: ``"metrics"``,
    ``"caches"`` or ``"labels"`` as a subscript or a ``.get`` key."""
    keys = {"metrics", "caches", "labels"}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            key = node.slice
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
        ):
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and key.value in keys:
            read.add(key.value)
    return read


def test_one_metrics_dump_reader():
    """One module knows the shape of a ``/metrics`` dump: the reader
    beside ``ServeClient.metrics()`` in ``serve/client.py``.  The load
    generator, ``repro top`` and the E22 benchmark import it and read
    no entry list, label or cache section themselves."""
    root = Path(repro.__file__).parent
    readers = {"cache_stats", "counter_total", "gauge", "latency", "latency_rows"}
    files = {
        "cli_top.py": (root / "cli_top.py", "repro"),
        "serve/loadgen.py": (root / "serve" / "loadgen.py", "repro.serve"),
        "benchmarks/test_e22_serve.py": (
            Path(__file__).resolve().parents[1] / "benchmarks" / "test_e22_serve.py",
            "benchmarks",
        ),
    }
    for label, (path, package) in files.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        assert _dump_keys_read(tree) == set(), label
        imported = {
            name.rsplit(".", 1)[-1]
            for name in _absolute_imports(tree, package)
            if name.startswith("repro.serve.client.")
        }
        assert imported & readers, f"{label} does not import the dump reader"


def test_lattice_exports_no_scalar_oracles():
    """The scalar kernel oracles are test-side code
    (``tests/lattice_oracles.py``): the runtime lattice package exports
    no ``*_scalar`` name, and ``repro.lattice.points`` defines none,
    private ones included."""
    import repro.lattice
    import repro.lattice.points

    exported = set(repro.lattice.__all__) | set(repro.lattice.points.__all__)
    exported |= {n for n in dir(repro.lattice) if not n.startswith("_")}
    exported |= set(dir(repro.lattice.points))
    assert sorted(n for n in exported if n.endswith("_scalar")) == []


def test_one_service_class():
    """The service is one class, ``serve/server.PartitionServer``: only
    ``serve/server.py`` opens a listener, and no class under ``serve/``
    extends another class defined there (no hook protocol between a
    service core and its handlers)."""
    serve = Path(repro.__file__).parent / "serve"
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(serve.glob("*.py"))
    }
    listeners = sorted(name for name, tree in trees.items() if _calls(tree, "start_server"))
    assert listeners == ["server.py"]
    classes = [
        node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    defined = {node.name for node in classes}
    subclassed = sorted(
        f"{node.name}({base.id})"
        for node in classes
        for base in node.bases
        if isinstance(base, ast.Name) and base.id in defined
    )
    assert subclassed == []


def test_runtime_imports_no_test_helpers():
    """Runtime code imports nothing test-side, and ``repro.obs`` exports
    no Prometheus text codec (``/metrics`` speaks JSON only)."""
    import repro.obs

    root = Path(repro.__file__).parent
    test_side = {"tests", "lattice_oracles", "conftest", "pytest"}
    offending = sorted(
        f"{path.relative_to(root).as_posix()}: {name}"
        for path in sorted(root.rglob("*.py"))
        for name in _absolute_imports(
            ast.parse(path.read_text(), filename=str(path)),
            ".".join(("repro", *path.relative_to(root).parent.parts)),
        )
        if name.split(".", 1)[0] in test_side
    )
    assert offending == []
    exported = set(repro.obs.__all__) | set(dir(repro.obs))
    assert sorted(n for n in exported if "prometheus" in n.lower()) == []
