"""Standard-library helpers shared by ``run.py`` and its worker processes.

Nothing here imports ``repro`` or numpy: ``run.py`` and the ``serve-mix``
load generator use only the standard library, so a change to the
program cannot change how inputs are drawn or statistics computed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
POOL_PATH = os.path.join(HERE, "pool.json")
#: Logs, per-run results and span dumps; listed in the root .gitignore.
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("compile-rect", "tile-auto", "simulate", "serve-mix")

#: Planning rates (ops per second of ``--seconds``) that fix each
#: workload's op count, capped at what its pool holds.  Runs are bounded
#: by op count, never by time, so every run of one seed covers the same
#: inputs; the rates only size the list so a run lasts about ``--seconds``
#: on a 2-core x86 container at the commit that added the benchmark.
#: ``tile-auto`` always runs its whole pool: it needs at least 40
#: successful ops for a p75 tail, which takes about a minute.
PLAN_RATE = {"compile-rect": 100.0, "simulate": 7.0, "serve-mix": 20.0}

PAPER_P = (4, 16, 64)
TILE_AUTO_PAPER = ("example2", "example3", "example6", "example9")
TILE_AUTO_P = (16, 64)
#: Relative spread of the sizes ``simulate`` draws around each paper
#: program's benchmark size (programs with a symbolic ``N`` only).  Round
#: ``r`` of ``R`` draws from the ``r``-th of ``R`` equal slices of that
#: range, so every seed has small, middle and large sizes of every program.
SIM_SIZE_SPREAD = 0.10
#: serve-mix class shares: response-cache repeats, plan-family variants,
#: cold nests.  The fast hot class ends 20 points below p50, so the median
#: never jumps between modes; the p90 tail falls in the cold class.
SERVE_SHARES = {"hot": 0.3, "family": 0.4, "cold": 0.3}
#: The hot set: paper programs whose repeats the response cache serves.
SERVE_HOT = (("example3", 16), ("example9", 16), ("example10", 4), ("figure9", 4))

#: Mean ``host.probe_ms`` on the 2-core x86 container the benchmark was
#: built on.  In-process timings are scaled by ``REF_PROBE_MS / mean probe``
#: of their run, so they read as milliseconds at that host speed.
REF_PROBE_MS = 1.5

#: Environment pinned for every process the benchmark starts: one BLAS
#: and OpenMP thread (the portfolio's float path depends on the thread
#: count) and no hash randomisation.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """A run that cannot produce a trustworthy result."""


def child_env() -> dict:
    """Environment for every child process: pinned threads, ``src`` on the path."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_CACHE_DIR", None)
    return env


def layout_problem() -> str | None:
    """Why this checkout cannot run the benchmark, or ``None`` if it can."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return f"no program source at {SRC}/repro"
    if not os.path.isfile(POOL_PATH):
        return f"no input pool at {POOL_PATH}"
    return None


def load_pool() -> dict:
    with open(POOL_PATH) as fh:
        pool = json.load(fh)
    if pool.get("schema") != "perfbench.pool" or pool.get("version") != 1:
        raise ValueError(f"{POOL_PATH}: unknown pool schema")
    return pool


# ----------------------------------------------------------------------
# Op lists


def _op(op_id: str, source: str, processors: int, bindings=None, **extra) -> dict:
    payload = {"source": source, "processors": int(processors), "bindings": dict(bindings or {})}
    payload.update(extra)
    return {"id": op_id, "payload": payload}


def _paper_op(pool: dict, name: str, processors: int, prefix: str = "") -> dict:
    program = pool["paper"][name]
    return _op(f"{prefix}{name}-P{processors}", program["source"], processors, program["bindings"])


def max_ops(workload: str, pool: dict) -> int | None:
    """The most ops a run can draw without repeating an input."""
    if workload == "compile-rect":
        return len(pool["compile_rect"]) + len(pool["paper"]) * len(PAPER_P)
    if workload == "tile-auto":
        return len(pool["tile_auto"]) + len(TILE_AUTO_PAPER) * len(TILE_AUTO_P)
    if workload == "serve-mix":
        return min(
            math.floor(len(pool["serve_family"]) / SERVE_SHARES["family"]),
            math.floor(len(pool["serve_cold"]) / SERVE_SHARES["cold"]),
        )
    return None  # simulate draws fresh sizes every round


def op_count(workload: str, seconds: float, pool: dict) -> int:
    """The op count ``--seconds`` fixes for a workload."""
    cap = max_ops(workload, pool)
    if workload == "tile-auto":
        return cap
    n = max(1, math.ceil(seconds * PLAN_RATE[workload]))
    if workload == "simulate":
        # Whole rounds over the (program, P) strata keep the mix fixed.
        strata = len(pool["paper"]) * len(PAPER_P)
        n = strata * max(1, round(n / strata))
    return min(n, cap) if cap else n


def build_ops(workload: str, seed: int, pool: dict, count: int) -> list[dict]:
    """The op list of one run: a pure function of workload, seed and count.

    Each op is ``{"id", "payload"}`` plus, on ``serve-mix``, its request
    class; ``payload`` is the JSON body of a ``/v1/partition`` request.
    """
    rng = random.Random(f"{workload}:{seed}")
    paper = pool["paper"]
    if workload == "compile-rect":
        fixed = [_paper_op(pool, name, p) for name in sorted(paper) for p in PAPER_P][:count]
        generated = pool["compile_rect"]
        picks = rng.sample(range(len(generated)), min(count - len(fixed), len(generated)))
        ops = fixed + [_op(f"gen{i}", *generated[i]) for i in picks]
        for op in ops:
            op["payload"]["method"] = "rectangular"
    elif workload == "tile-auto":
        ops = [_paper_op(pool, name, p) for name in TILE_AUTO_PAPER for p in TILE_AUTO_P]
        ops += [_op(f"gen{i}", src, p) for i, (src, p) in enumerate(pool["tile_auto"])]
        rng.shuffle(ops)  # a shorter (test) list takes a seeded subset
        ops = ops[:count]
        for op in ops:
            op["payload"]["method"] = "auto"
    elif workload == "simulate":
        strata = [(name, p) for name in sorted(paper) for p in PAPER_P]
        rounds = max(1, count // len(strata))
        ops = []
        for rnd in range(rounds):
            for name, p in strata:
                bindings = dict(paper[name]["bindings"])
                if "N" in bindings:
                    lo = bindings["N"] * (1 - SIM_SIZE_SPREAD)
                    width = 2 * SIM_SIZE_SPREAD * bindings["N"] / rounds
                    bindings["N"] = round(lo + width * (rnd + rng.random()))
                ops.append(
                    _op(f"{name}-P{p}-r{rnd}", paper[name]["source"], p, bindings, simulate=True)
                )
        ops = ops[:count]
    elif workload == "serve-mix":
        counts = {k: round(count * share) for k, share in SERVE_SHARES.items()}
        counts["cold"] = count - counts["hot"] - counts["family"]
        family = rng.sample(range(len(pool["serve_family"])), counts["family"])
        cold = rng.sample(range(len(pool["serve_cold"])), counts["cold"])
        hot = [_paper_op(pool, name, p, prefix="hot-") for name, p in SERVE_HOT]
        ops = [dict(hot[k % len(hot)], cls="hot") for k in range(counts["hot"])]
        for i in family:
            source, bindings, processors = pool["serve_family"][i]
            ops.append(dict(_op(f"fam{i}", source, processors, bindings), cls="family"))
        for i in cold:
            source, processors = pool["serve_cold"][i]
            ops.append(dict(_op(f"cold{i}", source, processors), cls="cold"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def simulated_sample(workload: str, op_id: str) -> bool:
    """Whether an op's chosen tile is simulated, untimed, for
    ``simulated_misses`` on a workload whose timed phase does not simulate.

    These are paper-program ops that every seed's list contains, so the
    count is the same for every seed and moves only when their tiles do.
    """
    if workload == "compile-rect":
        return op_id.endswith("-P16") and not op_id.startswith("gen")
    if workload == "tile-auto":
        return not op_id.startswith("gen")
    return workload == "serve-mix" and op_id.startswith("hot-")


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def ops_digest(ops: list[dict]) -> str:
    return sha16(json.dumps([[op["id"], op["payload"]] for op in ops], sort_keys=True))


# ----------------------------------------------------------------------
# Statistics


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (the ``inclusive`` method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


#: Tail percentiles, highest first; the first that leaves ``TAIL_BEYOND``
#: ops above it is reported.
TAIL_QS = (0.99, 0.90, 0.75)
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, str, int]:
    """``(value, percentile label, ops beyond it)`` of the reported tail.

    A list too short for any percentile (only ``--ops`` test runs) reports
    its maximum, labelled ``max``.
    """
    n = len(values)
    for q in TAIL_QS:
        beyond = n - math.ceil(q * n)
        if beyond >= TAIL_BEYOND:
            return quantile(values, q), f"p{round(q * 100)}", beyond
    return (max(values) if values else 0.0), "max", 0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
