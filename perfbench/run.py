"""CloudMonatt benchmark: one command, three workloads, per-layer tracing.

Run from the repository root::

    python3 perfbench/run.py --workload ondemand --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload's fixed prefix twice on fresh deployments, untraced then traced,
and prints the per-layer metrics with the tracing overhead. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the host facts.
See ``perfbench/README.md`` for the metric and layer definitions.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: where traced runs write their spans
OUT = HERE / "out"


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method; exact for small samples)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _digest(material) -> str:
    blob = json.dumps(material, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _digest_material(workload, calls) -> object:
    """What the known-answer digest covers: reports, or policy state."""
    if workload.name == "monitor":
        return workload.status()
    return [call.reports for call in calls]


def host_facts(workload=None) -> dict:
    from repro.crypto import accel, fastpath

    config = fastpath.config()
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "gmp_accel_loaded": accel.AVAILABLE,
        "fastpath": {name: getattr(config, name) for name in sorted(vars(config))},
    }
    if workload is not None and workload.name == "monitor":
        facts["executor"] = workload.executor
    return facts


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of its (joined) forked workers, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_phase(workload, steps: int, on_step=None):
    """Run ``steps`` timed steps.

    Returns the calls, the reference-speed host seconds of each step, the
    raw host seconds and the simulated ms advanced. Each step's call
    times are scaled by the host speed read around it.
    ``on_step(i, calls)`` runs untimed after each step (digest capture).
    """
    speed = workload.speed
    calls = []
    step_s = []
    raw_s = 0.0
    sim_ms = 0.0
    for _ in range(steps):
        sim0 = workload.clock()
        first = speed.last
        workload.in_step = True
        t0 = time.perf_counter()
        new = workload.step(len(step_s))
        elapsed = time.perf_counter() - t0
        workload.in_step = False
        sim_ms += workload.clock() - sim0
        scale = speed.scale(first, workload.end_section())
        for call in new:
            call.host_ms *= scale
        calls.extend(new)
        step_s.append(elapsed * scale)
        raw_s += elapsed
        if on_step is not None:
            on_step(len(step_s), calls)
    return calls, step_s, raw_s, sim_ms


class Rep:
    """One repetition: a fresh set-up and its timed phase."""

    def __init__(self, workload_cls, seed: int, tiny: bool):
        from repro.crypto import fastpath
        from repro.crypto.signatures import clear_verify_memo

        gc.collect()
        clear_verify_memo()  # process-global: every rep starts cold
        workload = self.workload = workload_cls(seed, tiny)
        first = workload.speed.last
        t0 = time.perf_counter()
        workload.setup()
        self.raw_setup_s = time.perf_counter() - t0
        self.setup_s = self.raw_setup_s * workload.speed.scale(first, workload.end_section())
        self.stats0 = fastpath.stats()

    def run(self, steps: int):
        workload = self.workload
        captured = {}

        def on_step(i, calls):
            if i == workload.min_steps:
                prefix = list(calls)
                captured["digest"] = _digest(_digest_material(workload, prefix))
                captured["prefix"] = prefix
                captured["horizon"] = (workload.advanced_ms, workload.requested_ms)

        self.calls, self.step_s, self.raw_s, self.sim_ms = run_phase(
            workload, steps, on_step)
        self.host_s = sum(self.step_s)
        self.digest = captured["digest"]
        self.prefix = captured["prefix"]
        self.horizon = captured["horizon"]
        self.rounds = workload.timed_rounds(self.calls)
        self.failed = sum(call.failed for call in self.calls) + workload.check()
        self.pool_misses = self._pool_misses()
        return self

    def _pool_misses(self) -> int:
        from repro.crypto import fastpath

        now = fastpath.stats()
        return now.get("keypool.miss", 0) - self.stats0.get("keypool.miss", 0)

    def close(self):
        self.workload.close()


def end_to_end(workload_cls, seed: int, seconds: float, tiny: bool) -> tuple:
    """Repetitions of set-up plus an identical timed phase.

    Each repetition makes the same deterministic calls: as many steps as
    fill its share of ``seconds`` at the workload's nominal step cost.
    Latency percentiles pool the calls of every repetition.
    """
    steps = workload_cls(seed, tiny).steps_for(seconds / workload_cls.reps)
    reps = []
    for _ in range(workload_cls.reps):
        rep = Rep(workload_cls, seed, tiny).run(steps)
        facts = host_facts(rep.workload)
        rep.close()
        reps.append(rep)
    first = reps[0]
    main = workload_cls.main_kind
    latencies = [c.host_ms for rep in reps for c in rep.calls if c.kind == main]
    launches = [ms for rep in reps for ms in rep.workload.launch_ms]
    host_s = sum(rep.host_s for rep in reps)
    advanced, requested = first.horizon
    attempted = sum(rep.rounds for rep in reps)
    failed = sum(rep.failed for rep in reps)
    digests = sorted({rep.digest for rep in reps})
    pool_ok = not workload_cls.require_pool_hits or all(
        rep.pool_misses == 0 for rep in reps)
    metrics = {
        "setup_s": (statistics.median(rep.setup_s for rep in reps), "s"),
        "rounds_per_s": ((attempted - failed) / host_s, "1/s"),
        "call_p50_ms": (statistics.median(latencies), "ms"),
        "call_p90_ms": (_quantile(latencies, 90), "ms"),
        "launch_p50_ms": (statistics.median(launches), "ms"),
        "sim_s_per_host_s": (sum(r.sim_ms for r in reps) / 1000.0 / host_s, "ratio"),
        "sim_call_p50_ms": (statistics.median(
            c.sim_ms for c in first.prefix if c.kind == main), "sim-ms"),
        "horizon_ratio": (advanced / requested, "ratio"),
        "peak_rss_mb": (_peak_rss_mb(), "MiB"),
    }
    info = {
        "workload": workload_cls.name,
        "seed": seed,
        "host": facts,
        "digests": digests,
        "calls": len(latencies),
        "launches": len(launches),
        "setup_s": [round(rep.setup_s, 4) for rep in reps],
        "raw_setup_s": [round(rep.raw_setup_s, 4) for rep in reps],
        "timed_s": [round(rep.host_s, 4) for rep in reps],
        "raw_timed_s": [round(rep.raw_s, 4) for rep in reps],
        "kernel_ms": [round(statistics.median(rep.workload.speed.readings), 4)
                      for rep in reps],
        "keypool_misses_timed": [rep.pool_misses for rep in reps],
        "failed_share": failed / max(1, attempted),
    }
    correct = len(digests) == 1 and failed == 0 and pool_ok
    return correct, attempted, failed, metrics, info


def traced(workload_cls, seed: int, seconds: float, tiny: bool) -> tuple:
    """Untraced then traced run of the fixed prefix; per-layer metrics."""
    import layertrace

    reference = Rep(workload_cls, seed, tiny)
    reference.run(reference.workload.min_steps)
    reference.close()

    layertrace.install()
    rep = Rep(workload_cls, seed, tiny)
    workload = rep.workload
    is_monitor = workload.name == "monitor"
    shards = sorted(workload.deployment.shards) if is_monitor else []
    executor = workload.deployment.executor if is_monitor else None
    if is_monitor:
        policy0 = workload.policy_counts()
        retained0 = workload.retained_records()
        for name in shards:
            executor.call(name, ("apply", layertrace.start_worker, ()))
    workload.in_step = True  # no host-speed readings inside traced steps
    layertrace.start()
    wall0 = time.perf_counter()
    calls = []
    for i in range(workload.min_steps):
        with layertrace.root("step"):
            calls.extend(workload.step(i))
    wall = time.perf_counter() - wall0
    coordinator = layertrace.stop()
    workers = {}
    for name in shards:
        snapshot = executor.call(name, ("apply", layertrace.collect_worker, ()))
        workers[snapshot["pid"]] = snapshot
    rounds = workload.timed_rounds(calls)
    failed = sum(call.failed for call in calls) + workload.check()
    digest = _digest(_digest_material(workload, calls))
    extra = {"policy.fired": 0, "policy.shed": 0, "policy.stale_entries": 0,
             "telemetry.retained_records": 0, "telemetry.retained_delta": 0}
    if is_monitor:
        counts = workload.policy_counts()
        retained = workload.retained_records()
        extra.update({
            "policy.fired": counts["policy.fired"] - policy0["policy.fired"],
            "policy.shed": counts["policy.shed"] - policy0["policy.shed"],
            "policy.stale_entries": counts["policy.stale_entries"],
            "telemetry.retained_records": retained,
            "telemetry.retained_delta": retained - retained0,
        })
    facts = host_facts(workload)
    rep.close()
    metrics = layer_metrics(coordinator, list(workers.values()), rounds, wall,
                            reference.raw_s, extra)
    trace_file = write_trace(workload_cls.name, seed, coordinator, list(workers.values()))
    info = {
        "workload": workload_cls.name,
        "seed": seed,
        "host": facts,
        "digests": sorted({digest, reference.digest}),
        "steps": workload.min_steps,
        "worker_pids": len(workers),
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    correct = digest == reference.digest and failed == 0 and reference.failed == 0
    if workload.require_pool_hits:
        correct = correct and metrics["crypto.keypool_hit_ratio"][0] == 1.0
    return correct, rounds, failed, metrics, info


def write_trace(workload: str, seed: int, coordinator: dict, workers: list) -> Path:
    """Write every recorded span once, at the end, as gzipped JSON.

    One entry per process (the benchmark process first, then each shard
    worker): the span name table and one ``[name, start_s, end_s,
    parent, call]`` row per span, indices into the process's own rows.
    """
    processes = []
    for role, snapshot in [("benchmark", coordinator)] + [("worker", w) for w in workers]:
        rows = [
            [snapshot["names"][n], s, e, p, c]
            for n, s, e, p, c in zip(snapshot["name"], snapshot["start"],
                                     snapshot["end"], snapshot["parent"],
                                     snapshot["call"])
        ]
        processes.append({"role": role, "pid": snapshot["pid"], "spans": rows})
    path = OUT / f"{workload}-seed{seed}.trace.json.gz"
    OUT.mkdir(exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "columns": ["name", "start_s", "end_s", "parent", "call"],
                   "processes": processes}, fh)
    return path


def layer_metrics(coordinator: dict, workers: list, rounds: int, wall: float,
                  untraced_s: float, extra: dict) -> dict:
    """Per-layer metrics from the coordinator's and workers' spans."""
    import layertrace

    snapshots = [coordinator] + workers
    summaries = [layertrace.summarize(s) for s in snapshots]
    by_name: dict[str, list] = {}
    by_layer = {layer: 0.0 for layer in layertrace.LAYERS}
    counts: dict[str, float] = {}
    fast: dict[str, int] = {}
    for snapshot, summary in zip(snapshots, summaries):
        for label, (n, inclusive, own) in summary["by_name"].items():
            entry = by_name.setdefault(label, [0, 0.0, 0.0])
            entry[0] += n
            entry[1] += inclusive
            entry[2] += own
        for layer, own in summary["by_layer"].items():
            by_layer[layer] += own
        for key, value in snapshot["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in snapshot["fastpath"].items():
            fast[key] = fast.get(key, 0) + value

    def n(label):
        return by_name.get(label, [0, 0.0, 0.0])[0]

    def inclusive(label):
        return by_name.get(label, [0, 0.0, 0.0])[1]

    def own(label):
        return by_name.get(label, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    events = sum(entry[0] for label, entry in by_name.items()
                 if label.startswith("event:"))
    hits = counts.get("crypto.keypool_hits", 0)
    misses = counts.get("crypto.keypool_misses", 0)
    memo_hits = fast.get("verify_memo.hit", 0)
    memo_misses = fast.get("verify_memo.miss", 0)
    batches = n("controller.attest_many")
    worker_s = sum(s["root_s"] for s in summaries[1:])
    metrics = {
        "sim.events": (events, "count"),
        "sim.events_per_round": (ratio(events, rounds), "count"),
        "sim.self_s": (by_layer["sim"], "s"),
        "sim.max_nesting": (max(s["max_nesting"] for s in snapshots), "count"),
        "xen.events": (n("event:xen"), "count"),
        "xen.event_share": (ratio(n("event:xen"), events), "ratio"),
        "xen.self_s": (by_layer["xen"], "s"),
        "crypto.self_s": (by_layer["crypto"], "s"),
        "crypto.keygen_calls": (n("crypto.keygen"), "count"),
        "crypto.keygen_s": (inclusive("crypto.keygen"), "s"),
        "crypto.sign_calls": (n("crypto.sign"), "count"),
        "crypto.sign_s": (inclusive("crypto.sign"), "s"),
        "crypto.verify_calls": (n("crypto.verify"), "count"),
        "crypto.verify_s": (inclusive("crypto.verify"), "s"),
        "crypto.seal_open_s": (inclusive("crypto.seal_open"), "s"),
        "crypto.encode_s": (inclusive("crypto.encode"), "s"),
        "crypto.encode_bytes": (counts.get("crypto.encode_bytes", 0), "bytes"),
        "crypto.keypool_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "crypto.verify_memo_hit_ratio": (ratio(memo_hits, memo_hits + memo_misses), "ratio"),
        "network.self_s": (by_layer["network"], "s"),
        "network.messages": (n("network.rpc"), "count"),
        "network.bytes": (counts.get("network.bytes", 0), "bytes"),
        "network.handshakes": (n("network.handshake"), "count"),
        "network.call_s": (own("network.call"), "s"),
        "controller.self_s": (by_layer["controller"], "s"),
        "controller.batches": (batches, "count"),
        "controller.mean_batch_size": (
            ratio(counts.get("controller.batch_entries", 0), batches), "count"),
        "attest_server.batches": (n("attest_server.attest_batch"), "count"),
        "attest_server.appraise_s": (by_layer["attest_server"], "s"),
        "server.self_s": (by_layer["server"], "s"),
        "server.measure_s": (inclusive("server.measure"), "s"),
        "monitors.windows": (counts.get("monitors.windows", 0), "count"),
        "monitors.collect_s": (inclusive("monitors.collect"), "s"),
        "monitors.self_s": (by_layer["monitors"], "s"),
        "tpm.quote_s": (inclusive("tpm.quote"), "s"),
        "tpm.self_s": (by_layer["tpm"], "s"),
        "policy.fired": (extra["policy.fired"], "count"),
        "policy.shed": (extra["policy.shed"], "count"),
        "policy.stale_entries": (extra["policy.stale_entries"], "count"),
        "policy.self_s": (by_layer["policy"], "s"),
        "telemetry.events": (n("telemetry.event"), "count"),
        "telemetry.spans": (n("telemetry.span_finish"), "count"),
        "telemetry.self_s": (by_layer["telemetry"], "s"),
        "telemetry.retained_records": (extra["telemetry.retained_records"], "count"),
        "telemetry.retained_records_per_round": (
            ratio(extra["telemetry.retained_delta"], rounds), "count"),
        "shard.commands": (n("shard.submit"), "count"),
        "shard.ipc_wait_s": (inclusive("shard.ipc_wait"), "s"),
        "shard.replay_s": (inclusive("shard.replay"), "s"),
        "shard.reply_bytes": (coordinator["counts"].get("shard.recv_bytes", 0), "bytes"),
        "shard.self_s": (by_layer["shard"], "s"),
        "cloud.self_s": (by_layer["cloud"], "s"),
        "other.self_s": (by_layer["other"], "s"),
        "trace.rounds": (rounds, "count"),
        "trace.spans": (sum(s["spans"] for s in summaries), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (wall - summaries[0]["root_s"], "s"),
        "trace.worker_s": (worker_s, "s"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.overhead": (ratio(wall, untraced_s) - 1.0, "ratio"),
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (not for measurement)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no CloudMonatt sources under {ROOT / 'src'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    correct, attempted, failed, metrics, info = run(cls, args.seed, args.seconds, args.tiny)
    print(json.dumps({"info": info}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
