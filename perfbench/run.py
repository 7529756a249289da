"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload compile-rect --seed 1 --seconds 15 --trace 0

``--workload`` is one of ``compile-rect``, ``tile-auto``, ``simulate``,
``serve-mix`` or ``all``.  Every end-to-end metric is printed by name and
unit, then the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  See ``perfbench/README.md``.

This script uses the standard library only.  In-process workloads run in
fresh ``worker.py`` processes; ``serve-mix`` runs ``repro serve`` in a
child process and drives it from here.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import servemix  # noqa: E402

#: Fresh processes whose set-up time is measured per run; ``setup_s`` is
#: their median.
SETUP_RUNS = 3
#: Every run must finish well inside the 180 s a run is allowed.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops", "op/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("success_rate", "fraction"),
    ("peak_rss_mb", "MiB"),
    ("predicted_misses", "count"),
    ("simulated_misses", "count"),
)

PER_LAYER = (
    ("lang.parse_ms", "ms"),
    ("lang.lower_ms", "ms"),
    ("core.classify_ms", "ms"),
    ("core.comm_free_ms", "ms"),
    ("core.optimize_rect_ms", "ms"),
    ("core.grid_candidates", "count"),
    ("core.estimate_ms", "ms"),
    ("core.estimate_calls", "count"),
    ("lattice.count_hit_rate", "fraction"),
    ("lattice.table_hit_rate", "fraction"),
    ("obs.report_ms", "ms"),
    ("core.portfolio_ms", "ms"),
    ("core.portfolio.slsqp_ms", "ms"),
    ("core.portfolio.anneal_ms", "ms"),
    ("core.portfolio.win.rectangular", "fraction"),
    ("core.portfolio.win.slsqp", "fraction"),
    ("core.portfolio.win.anneal", "fraction"),
    ("core.fail.singular", "fraction"),
    ("sim.simulate_ms", "ms"),
    ("sim.streams_ms", "ms"),
    ("sim.footprints_ms", "ms"),
    ("sim.execute_ms", "ms"),
    ("sim.ns_per_access", "ns"),
    ("sim.fast_share", "fraction"),
    ("sim.model_error", "fraction"),
    ("serve.server_p50_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.compute_ms", "ms"),
    ("serve.response_cache_hit_rate", "fraction"),
    ("serve.plan_hit_rate", "fraction"),
    ("serve.plan_fallbacks", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.rejected", "count"),
    ("serve.coalesced", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("host.probe_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


BenchError = common.BenchError


class Worker:
    """One ``worker.py`` child process."""

    def __init__(self, runner: "Runner", mode: str, count: int = 0, data=None):
        self.runner, self.mode = runner, mode
        self.out, self.logfile = runner.paths(mode)
        argv = [
            sys.executable, os.path.join(common.HERE, "worker.py"),
            "--mode", mode, "--out", self.out, "--log", self.logfile,
            "--seed", str(runner.args.seed), "--count", str(count),
        ]
        if runner.args.workload in common.WORKLOADS:
            argv += ["--workload", runner.args.workload]
        if data is not None:
            argv += ["--input", self.out + ".in"]
            with open(self.out + ".in", "w") as fh:
                json.dump(data, fh)
        self.err = open(self.logfile, "a")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, stderr=self.err, text=True,
        )

    def wait_ready(self) -> float:
        """Seconds from launch until the worker printed READY."""
        line = self.proc.stdout.readline()
        ready_s = time.perf_counter() - self.t0
        if line.strip() != "READY":
            self.finish()
            raise BenchError(f"worker {self.mode} failed to start; see {self.logfile}")
        return ready_s

    def finish(self) -> dict:
        try:
            self.proc.stdout.read()
            self.proc.wait(timeout=self.runner.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {self.mode} ran past the run budget; see {self.logfile}")
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise BenchError(
                f"worker {self.mode} exited with {self.proc.returncode}; see {self.logfile}"
            )
        if self.mode == "setup":
            return {}
        with open(self.out) as fh:
            return json.load(fh)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


class Runner:
    """Starts worker processes against one deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.n = 0

    def paths(self, mode: str) -> tuple[str, str]:
        self.n += 1
        name = f"{self.args.workload}-{self.args.seed}-{mode}-{self.n}"
        stem = os.path.join(common.OUT_DIR, name)
        return stem + ".json", stem + ".log"

    def remaining(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise BenchError(f"run exceeded its {RUN_BUDGET_S:.0f} s budget")
        return left

    def worker(self, mode: str, count: int = 0, data=None) -> dict:
        """Run one worker to completion and return its result."""
        return Worker(self, mode, count, data).finish()


def run_in_process(runner: Runner, count: int) -> tuple[dict, dict | None]:
    if runner.args.trace:
        # The untraced and traced passes run at once, one per core: the
        # overhead is then measured under the same host speed, and the
        # invocation stays inside its time budget.
        workers = [Worker(runner, "run", count), Worker(runner, "traced", count)]
        try:
            ready_s = [w.wait_ready() for w in workers]
            result, traced = [w.finish() for w in workers]
        finally:
            for w in workers:
                w.close()
        result["setup_s"], traced["setup_s"] = ready_s[:1], ready_s[1:]
        return result, traced
    setup_s = []
    for mode in ["setup"] * (SETUP_RUNS - 1) + ["run"]:
        w = Worker(runner, mode, count)
        try:
            setup_s.append(w.wait_ready())
            result = w.finish()
        finally:
            w.close()
    result["setup_s"] = setup_s
    return result, None


def run_serve(runner: Runner, count: int) -> tuple[dict, dict | None]:
    result = servemix.run(runner, count, SETUP_RUNS)
    return result, (result if runner.args.trace else None)


def end_to_end(result: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, and which percentile the tail is."""
    scale = result["host_scale"]
    lat = [ms * scale for ms in result["latencies_ms"]]
    tail_value, tail_label, beyond = common.tail(lat)
    ok = len(lat)
    det = result["deterministic"]
    # An open loop's throughput is its offered rate, which host speed
    # does not change.
    wall_s = result["wall_s"] * (1.0 if result.get("open_loop") else scale)
    metrics = {
        "setup_s": common.median(result["setup_s"]),
        "throughput_ops": ok / wall_s,
        "latency_p50_ms": common.median(lat),
        "latency_tail_ms": tail_value,
        "success_rate": ok / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
        "predicted_misses": det["predicted_misses"],
        "simulated_misses": det["simulated_misses"],
    }
    return metrics, {"percentile": tail_label, "samples": ok, "beyond": beyond}


def per_layer(workload: str, result: dict, traced: dict) -> dict:
    missing = traced.get("missing_layers", [])
    if missing:
        raise BenchError(
            f"traced {workload} recorded no calls to {', '.join(missing)}; "
            "a call site moved away from the wrapped name"
        )
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(traced["layers"])
    metrics["host.probe_ms"] = sum(traced["probe_ms"]) / len(traced["probe_ms"])
    if traced is not result:
        # The passes ran at once on different cores, whose speeds differ;
        # each is scaled by its own probes.
        untraced_tp = end_to_end(result)[0]["throughput_ops"]
        traced_tp = end_to_end(traced)[0]["throughput_ops"]
        if untraced_tp:
            metrics["trace.overhead_pct"] = (1.0 - traced_tp / untraced_tp) * 100.0
    return metrics


def run_workload(args) -> tuple[dict, dict, str]:
    """One workload: (result, chosen metrics, human-readable summary)."""
    pool = common.load_pool()
    count = args.ops or common.op_count(args.workload, args.seconds, pool)
    cap = common.max_ops(args.workload, pool)
    if cap and count > cap:
        raise BenchError(f"{count} ops requested; the {args.workload} pool holds {cap}")
    runner = Runner(args)
    if args.workload == "serve-mix":
        result, traced = run_serve(runner, count)
    else:
        result, traced = run_in_process(runner, count)
    if traced is not None and traced is not result:
        if traced["deterministic"] != result["deterministic"]:
            raise BenchError(
                "deterministic counts differ between the untraced and traced passes: "
                f"{result['deterministic']} vs {traced['deterministic']}"
            )
    lines = [
        f"== {args.workload} seed={args.seed} ops={result['attempted']} "
        f"digest={result['ops_digest']}"
    ]
    if args.trace:
        # The untraced pass shared the machine with the traced one, so
        # only the per-layer metrics are reported.
        chosen, units = per_layer(args.workload, result, traced), dict(PER_LAYER)
    else:
        chosen, tail = end_to_end(result)
        result["latency_tail"] = tail
        units = dict(END_TO_END)
    for name, value in chosen.items():
        lines.append(f"{args.workload}  {name} = {value:.6g} {units[name]}")
    if not args.trace:
        lines.append(f"{args.workload}  error_rate = {1.0 - chosen['success_rate']:.6g} fraction")
        lines.append(
            f"{args.workload}  latency_tail_ms is {tail['percentile']} over "
            f"{tail['samples']} successful ops ({tail['beyond']} beyond it)"
        )
    lines.append(f"{args.workload}  failures = {result['deterministic']['failures']}")
    probes = result["probe_ms"]
    lines.append(
        f"{args.workload}  host.probe_ms mean {sum(probes) / len(probes):.4g} over "
        f"{len(probes)} probes; timings scaled by {result['host_scale']:.4g}"
    )
    for cls, stats in result.get("classes", {}).items():
        lines.append(f"{args.workload}  class {cls}: {stats}")
    lines.append(f"{args.workload}  outputs correct: {not result['check_failed']}")
    for why in result["check_failed"][:10]:
        lines.append(f"{args.workload}  check failed: {why}")
    stored = dict(result, metrics=chosen)
    out = os.path.join(common.OUT_DIR, f"result-{args.workload}-{args.seed}-{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(stored, fh)
    return result, chosen, "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload (or all).")
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0, help="sizes the op list")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0, help="override the op count (tests)")
    args = ap.parse_args(argv)

    problem = common.layout_problem()
    if problem:
        common.log(f"perfbench: cannot run here: {problem}")
        return 2
    os.makedirs(common.OUT_DIR, exist_ok=True)

    workloads = common.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for workload in workloads:
        one = argparse.Namespace(**dict(vars(args), workload=workload))
        try:
            result, chosen, text = run_workload(one)
        except BenchError as e:
            common.log(f"perfbench: {workload}: {e}")
            return 3
        print(text, flush=True)
        summary["correct"] &= not result["check_failed"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        for name, value in chosen.items():
            summary["metrics"][prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
