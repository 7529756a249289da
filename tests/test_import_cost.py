"""Importing the package must not load networkx.

The package does not depend on networkx.  No process (the CLI, the
server, a plain ``import repro``) may pay its import time and memory.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def test_package_import_does_not_load_networkx():
    code = (
        "import sys\n"
        "import repro, repro.serve.pipeline, repro.cli\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
