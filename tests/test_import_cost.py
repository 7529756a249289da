"""Importing the package must not load networkx or ``scipy.optimize``.

The package does not depend on networkx.  No process (the CLI, the
server, a plain ``import repro``) may pay its import time and memory.
``scipy.optimize`` (about 0.5 s to import) is needed only by the SLSQP
portfolio member, which imports it on first use.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports ``repro`` from
    ``SRC``; fail with its stderr if it exits nonzero."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_package_import_does_not_load_networkx():
    code = (
        "import sys\n"
        "import repro, repro.serve.pipeline, repro.cli\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    _run_fresh(code)


def test_package_import_does_not_load_scipy_optimize():
    code = (
        "import sys\n"
        "import repro, repro.serve.pipeline, repro.cli\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
    )
    _run_fresh(code)


def test_rectangular_partition_does_not_load_numpy_ma():
    """Partitioning ``examples/example2.doall`` rectangularly never needs
    ``numpy.ma`` (about 12 ms to import): the union-of-boxes cuts are
    computed without ``np.unique``, whose first call imports it."""
    example = Path(__file__).resolve().parents[1] / "examples" / "example2.doall"
    code = (
        "import sys\n"
        "from repro import LoopPartitioner, compile_nest\n"
        f"nest = compile_nest(open({str(example)!r}).read())\n"
        "LoopPartitioner(nest, 4).partition(method='rectangular')\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    _run_fresh(code)
