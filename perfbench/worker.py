"""One fresh process of an in-process workload, or the serve-mix verifier.

``run.py`` starts this script with pinned thread counts and
measures set-up time until it prints ``READY``.  The worker then drains
``gc``, runs the op list once, closed-loop on one thread, through the
same entry points the server's workers use
(``validate_partition_request`` then ``execute_request``, which resets
the process-global tracer on every op), runs the output checks untimed,
and writes its result as JSON to ``--out``.

Modes: ``setup`` (stop after READY), ``run`` (untraced), ``traced``
(layer wrappers installed), ``verify-serve`` (check served responses
against in-process runs) and ``probe`` (probe the host's speed around the
``serve-mix`` load).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


#: Op time between two host-speed probes in the timed loop.
PROBE_EVERY_S = 0.1


def host_probe() -> float:
    """Milliseconds for a fixed pure-Python + numpy loop of about 1.5 ms."""
    import numpy as np

    a = np.arange(2_500, dtype=np.float64).reshape(50, 50) / 7.0
    t0 = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc += i * i % 7
    for _ in range(4):
        a = (a @ a.T) / (1.0 + np.abs(a).max())
    return (time.perf_counter() - t0) * 1000.0


def probe_loop(count: int) -> list[float]:
    """``count`` probes, ``PROBE_EVERY_S`` apart: the host's speed around
    a ``serve-mix`` load, which runs in other processes."""
    probes = []
    for _ in range(count):
        probes.append(host_probe())
        time.sleep(PROBE_EVERY_S)
    return probes


def _summary(report: dict) -> dict:
    """The parts of a run report the checks and counts read."""
    out = {
        "partition": report["partition"],
        "predicted": report["predicted"],
        "program": {k: report["program"][k] for k in ("iterations", "sweeps")},
    }
    if "measured" in report:
        m = report["measured"]
        out["measured"] = {
            "total_misses": m["total_misses"],
            "total_accesses": m["total_accesses"],
            "miss_breakdown": m["miss_breakdown"],
            "invalidations": m["invalidations"],
            "engine": m["engine"]["used"],
        }
        out["prediction_error"] = report["prediction_error"]["total_misses"]
    return out


def _error_type(exc: BaseException) -> str:
    cause = exc.__cause__ or exc
    return type(cause).__name__


def _tile_digest(records: list[dict]) -> str:
    tiles = [[r["id"], r["summary"]["partition"]] for r in records if r["ok"]]
    return common.sha16(json.dumps(tiles, sort_keys=True))


#: Ops the exact engine re-simulates on ``simulate``.
EXACT_SAMPLE = 5


def run(args, ops: list[dict]) -> dict:
    from repro.lattice import analytic_cache_stats
    from repro.serve.pipeline import execute_request
    from repro.serve.protocol import validate_partition_request

    import checks
    import layers

    recorder = None
    if args.mode == "traced":
        recorder = layers.Recorder()
        layers.install(recorder)
    cache_before = analytic_cache_stats()
    gc.collect()

    # The host's speed drifts by up to 1.5x for minutes at a time; the probe
    # runs between ops so the run's timings can be scaled to a reference
    # host speed.  Probe time is not op time.
    probes = [host_probe()]
    probe_s = 0.0
    next_probe = time.perf_counter() + PROBE_EVERY_S
    records = []
    t_start = time.perf_counter()
    for k, op in enumerate(ops):
        if recorder is not None:
            recorder.op = k
        t_probe = time.perf_counter()
        if t_probe >= next_probe:
            probes.append(host_probe())
            now = time.perf_counter()
            probe_s += now - t_probe
            next_probe = now + PROBE_EVERY_S
        t0 = time.perf_counter()
        try:
            report = execute_request(validate_partition_request(op["payload"]))
        except Exception as exc:  # every failure is counted, never fatal
            records.append(
                {"id": op["id"], "ok": False, "ms": (time.perf_counter() - t0) * 1000.0,
                 "error": _error_type(exc)}
            )
            continue
        ms = (time.perf_counter() - t0) * 1000.0
        records.append({"id": op["id"], "ok": True, "ms": ms, "summary": _summary(report)})
    wall_s = time.perf_counter() - t_start - probe_s
    probes.append(host_probe())
    if recorder is not None:
        recorder.op = -1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache_after = analytic_cache_stats()

    # ---- untimed: output checks and deterministic counts -------------
    payloads = {op["id"]: op["payload"] for op in ops}
    rng = random.Random(f"check:{args.workload}:{args.seed}")
    failures: dict[str, int] = {}
    check_failed: list[str] = []
    predicted = 0.0
    simulated = 0
    ok_records = [r for r in records if r["ok"]]
    for r in records:
        if not r["ok"]:
            failures[r["error"]] = failures.get(r["error"], 0) + 1
            if args.workload == "tile-auto":
                # The rectangular partition of a failed op counts toward
                # predicted_misses, so a fix that falls back to it leaves
                # the metric unchanged.
                fallback = dict(payloads[r["id"]], method="rectangular")
                rep = execute_request(validate_partition_request(fallback))
                predicted += rep["predicted"]["cold_misses_per_tile"]
            continue
        s = r["summary"]
        predicted += s["predicted"]["cold_misses_per_tile"]
        if args.workload in ("compile-rect", "tile-auto"):
            why = checks.check_partition(payloads[r["id"]], s)
            if why:
                r["ok"], r["check"] = False, why
                check_failed.append(f"{r['id']}: {why}")
        if "measured" in s:
            simulated += s["measured"]["total_misses"]
    if args.workload == "simulate":
        for r in rng.sample(ok_records, min(EXACT_SAMPLE, len(ok_records))):
            why = checks.check_simulation(payloads[r["id"]], r["summary"])
            if why:
                r["ok"], r["check"] = False, why
                check_failed.append(f"{r['id']}: {why}")
    else:
        for r in ok_records:
            if common.simulated_sample(args.workload, r["id"]):
                sim = checks.simulate_chosen(payloads[r["id"]], r["summary"], "auto")
                simulated += checks.total_misses(sim)
    if check_failed:
        failures["check"] = len(check_failed)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "ops_digest": common.ops_digest(ops),
        "wall_s": wall_s,
        "latencies_ms": [r["ms"] for r in records if r["ok"]],
        "op_ms": {r["id"]: r["ms"] for r in records},
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "peak_rss_mb": peak_rss_mb,
        "probe_ms": probes,
        "host_scale": common.REF_PROBE_MS / (sum(probes) / len(probes)),
        "check_failed": check_failed,
        "deterministic": {
            "predicted_misses": predicted,
            "simulated_misses": simulated,
            "failures": dict(sorted(failures.items())),
            "tile_digest": _tile_digest(records),
        },
    }
    if recorder is not None:
        result["layers"] = layer_metrics(recorder, records, cache_before, cache_after)
        result["missing_layers"] = layers.missing(recorder, args.workload)
        with open(args.out + ".spans.json", "w") as fh:
            json.dump(recorder.to_dicts(), fh)
    return result


def _hit_rate(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(recorder, records, cache_before, cache_after) -> dict:
    """Per-layer metrics of one traced pass (medians over ops)."""
    import layers

    ok_ops = {k for k, r in enumerate(records) if r["ok"]}

    def self_ms(name):
        return common.median(layers.self_ms_per_op(recorder, name, ok_ops))

    med = common.median
    out = {
        "lang.parse_ms": self_ms("lang.parse"),
        "lang.lower_ms": self_ms("lang.lower"),
        "core.classify_ms": self_ms("core.classify"),
        "core.comm_free_ms": self_ms("core.comm_free"),
        "core.optimize_rect_ms": self_ms("core.optimize_rect"),
        "core.estimate_ms": self_ms("core.estimate"),
        "core.estimate_calls": med(layers.calls_per_op(recorder, "core.estimate", ok_ops)),
        "obs.report_ms": self_ms("obs.report"),
        "lattice.count_hit_rate": _hit_rate(
            cache_before["lattice_cache"], cache_after["lattice_cache"]
        ),
        "lattice.table_hit_rate": _hit_rate(
            cache_before["footprint_table"], cache_after["footprint_table"]
        ),
    }
    out["core.grid_candidates"] = med(
        [s.note for s in recorder.calls("core.optimize_rect") if s.op in ok_ops]
    )

    # (winner, member_seconds) of every portfolio call that returned.
    portfolio = [s.note for s in recorder.calls("core.portfolio") if s.note is not None]
    out["core.portfolio_ms"] = self_ms("core.portfolio")
    for member in ("slsqp", "anneal"):
        out[f"core.portfolio.{member}_ms"] = med(
            [secs[member] * 1000.0 for _, secs in portfolio if member in secs]
        )
    for member in ("rectangular", "slsqp", "anneal"):
        wins = sum(1 for winner, _ in portfolio if winner == member)
        out[f"core.portfolio.win.{member}"] = wins / len(portfolio) if portfolio else 0.0
    singular = sum(1 for r in records if r.get("error") == "SingularMatrixError")
    out["core.fail.singular"] = singular / len(records)

    sim_ops = [r for r in records if r["ok"] and "measured" in r["summary"]]
    out["sim.simulate_ms"] = self_ms("sim.simulate")
    out["sim.streams_ms"] = self_ms("sim.streams")
    out["sim.footprints_ms"] = self_ms("sim.footprints")
    out["sim.execute_ms"] = self_ms("sim.execute")
    sim_total = {}
    for s in recorder.calls("sim.simulate"):
        sim_total[s.op] = sim_total.get(s.op, 0.0) + (s.end - s.start)
    by_id = {r["id"]: k for k, r in enumerate(records)}
    ns = [
        sim_total[by_id[r["id"]]] * 1e9 / r["summary"]["measured"]["total_accesses"]
        for r in sim_ops
        if by_id[r["id"]] in sim_total
    ]
    out["sim.ns_per_access"] = med(ns)
    out["sim.fast_share"] = (
        sum(1 for r in sim_ops if r["summary"]["measured"]["engine"] == "fast") / len(sim_ops)
        if sim_ops
        else 0.0
    )
    errors = [r["summary"]["prediction_error"] for r in sim_ops]
    measured = sum(e["measured"] for e in errors)
    abs_err = sum(abs(e["predicted"] - e["measured"]) for e in errors)
    out["sim.model_error"] = abs_err / measured if measured else 0.0
    return out


def verify_serve(args) -> dict:
    """Check sampled served responses against in-process runs."""
    from repro.serve.pipeline import execute_request, init_worker
    from repro.serve.protocol import validate_partition_request

    import checks

    init_worker(plan_cache=True)  # the server runs with --plan-cache
    with open(args.input) as fh:
        sample = json.load(fh)
    mismatches = []
    for item in sample["compare"]:
        local = execute_request(validate_partition_request(item["payload"]))
        why = checks.check_served(item["served"], local)
        if why:
            mismatches.append(f"{item['id']}: {why}")
    simulated = 0
    for item in sample["simulate"]:
        sim = checks.simulate_chosen(item["payload"], item["served"], "auto")
        simulated += checks.total_misses(sim)
    return {"check_failed": mismatches, "simulated_misses": simulated}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--mode", choices=("setup", "run", "traced", "verify-serve", "probe"), required=True
    )
    ap.add_argument("--workload", choices=common.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--input", help="verify-serve: the sample file")
    ap.add_argument("--out", required=True, help="result JSON path")
    ap.add_argument("--log", required=True, help="file for repro's log records")
    args = ap.parse_args(argv)

    # Set-up covers every import the timed ops need, not just ``repro``.
    import repro.serve.pipeline  # noqa: F401
    from repro.obs.log import configure_logging

    with open(args.log, "a") as log_fh:
        configure_logging("warning", stream=log_fh)
        if args.mode == "probe":
            import numpy  # noqa: F401  (loaded before READY, like the ops' imports)

            print("READY", flush=True)
            result = {"probe_ms": probe_loop(args.count)}
        elif args.mode == "verify-serve":
            result = verify_serve(args)
        else:
            pool = common.load_pool()
            ops = common.build_ops(args.workload, args.seed, pool, args.count)
            print("READY", flush=True)
            if args.mode == "setup":
                return 0
            result = run(args, ops)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
