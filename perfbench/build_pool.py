"""Rebuild ``perfbench/pool.json``, the benchmark's frozen input pool.

Run from the repository root::

    PYTHONPATH=src python perfbench/build_pool.py

The pool is committed so that a later change to ``repro.check.generator``,
``repro.serve.loadgen`` or the paper programs in ``benchmarks/`` cannot
change what the benchmark measures.  Rebuilding it is a benchmark change
and resets the baseline.
"""

from __future__ import annotations

import json
import os
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from benchmarks import paper_programs  # noqa: E402
from repro.check.generator import generate_case  # noqa: E402
from repro.serve.loadgen import family_corpus  # noqa: E402

PAPER = ("example2", "example3", "example6", "example8", "example9", "example10", "figure9")

#: Generator seeds, one per pool section, so the sections share no nests.
COMPILE_SEED = 5
TILE_AUTO_SEED = 11
SERVE_COLD_SEED = 2002

#: Pool sizes.  Each in-process pool is what one run at the benchmark's
#: ``run_seconds`` visits, so a seed orders the inputs rather than
#: choosing them; serve-mix's pools hold exactly its 40% family and 30%
#: cold share of a run.
COMPILE_NESTS = 979  # + 21 paper ops = 1000
TILE_AUTO_NESTS = 96
SERVE_COLD_NESTS = 60
SERVE_FAMILIES, SERVE_SIZES, SERVE_PROCS = 10, 2, 4  # 80 variants


def paper_sources() -> dict:
    """Each paper program's source text and default bindings.

    ``benchmarks/paper_programs.py`` hands its literal sources to
    ``compile_nest``; capturing the call keeps one copy of the programs.
    """
    captured: dict = {}
    real = paper_programs.compile_nest
    try:
        for name in PAPER:
            paper_programs.compile_nest = lambda src, b=None, _n=name: captured.setdefault(
                _n, {"source": textwrap.dedent(src).strip() + "\n", "bindings": dict(b or {})}
            )
            getattr(paper_programs, name)()
    finally:
        paper_programs.compile_nest = real
    return captured


def generated(seed: int, count: int, depth: int | None = None) -> list:
    """``count`` distinct ``[source, processors]`` nests in generator order."""
    out, seen, case_id = [], set(), 0
    while len(out) < count:
        case = generate_case(case_id, seed)
        case_id += 1
        if depth is not None and case.depth != depth:
            continue
        item = (case.source(), case.processors)
        if item not in seen:
            seen.add(item)
            out.append(list(item))
    return out


def main() -> None:
    families = []
    for family in range(SERVE_FAMILIES):
        for _label, source, bindings, procs in family_corpus(family, SERVE_SIZES, SERVE_PROCS):
            families.append([source, bindings, procs])
    pool = {
        "schema": "perfbench.pool",
        "version": 1,
        "paper": paper_sources(),
        "compile_rect": generated(COMPILE_SEED, COMPILE_NESTS),
        "tile_auto": generated(TILE_AUTO_SEED, TILE_AUTO_NESTS, depth=2),
        "serve_family": families,
        "serve_cold": generated(SERVE_COLD_SEED, SERVE_COLD_NESTS),
    }
    path = os.path.join(ROOT, "perfbench", "pool.json")
    with open(path, "w") as fh:
        json.dump(pool, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
