"""Observatory overhead on the instrumented Fig. 9 launch path.

PR 1 bounded the telemetry *producer* cost against an uninstrumented
baseline; this benchmark bounds the *consumer* layer — the alert
engine, fleet scoreboard, and trace store the Observatory hangs off
the hub — against the telemetry-enabled baseline (observatory off).

Claims checked:
  * the observatory costs <2% on top of the instrumented launch path
    (one ``observe_event`` dispatch per producer event plus one
    finished-span listener call per span);
  * consuming the stream never perturbs the simulation: both arms
    produce identical launch outcomes, stage breakdowns, and final
    clocks.

Same method as bench_telemetry_overhead: the asserted bound is built
bottom-up from tight-loop per-operation costs × the enabled arm's own
operation counts × a 2x safety factor against the baseline arm's best
wall time, because an end-to-end A/B on a shared host is noise-bound.
"""

import gc
import statistics
import time

from _tables import launch_seed, print_table

from repro import CloudMonatt, SecurityProperty
from repro.telemetry import Observatory, Telemetry

IMAGES = ["cirros", "fedora", "ubuntu"]
FLAVORS = ["small", "medium", "large"]
TIMED_CELLS = list(zip(IMAGES, FLAVORS))
ROUNDS = 5
MICRO_OPS = 5000
SAFETY_FACTOR = 2.0
OVERHEAD_BUDGET = 0.02


def run_matrix(observatory_enabled: bool, cells=TIMED_CELLS):
    """Launch + runtime-attest each cell with telemetry always on.

    Returns the simulated outcomes and each cell's cloud (the enabled
    arm's observatories feed the op counts).
    """
    outcomes = []
    clouds = []
    for image, flavor in cells:
        cloud = CloudMonatt(
            num_servers=3,
            seed=launch_seed(image, flavor),
            telemetry_enabled=True,
            observatory_enabled=observatory_enabled,
        )
        customer = cloud.register_customer("alice")
        launch = customer.launch_vm(
            flavor, image, properties=[SecurityProperty.STARTUP_INTEGRITY]
        )
        assert launch.accepted
        attested = customer.attest(
            launch.vid, SecurityProperty.RUNTIME_INTEGRITY
        )
        outcomes.append(
            (
                image,
                flavor,
                launch.accepted,
                tuple(sorted(launch.stage_times_ms.items())),
                attested.report.healthy,
                attested.attest_ms,
                cloud.now,
            )
        )
        clouds.append(cloud)
    return outcomes, clouds


def _timed_round(observatory_enabled: bool) -> tuple[float, float]:
    """One timed round: (wall seconds, cpu seconds)."""
    gc.collect()
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    run_matrix(observatory_enabled)
    return time.perf_counter() - wall0, time.process_time() - cpu0


def _per_op_costs() -> dict[str, float]:
    """Best-of-3 per-operation observatory cost in seconds."""
    costs = {"event": float("inf"), "span": float("inf")}
    event_fields = {
        "vid": "vm-0001", "server": "server-0001",
        "property": "runtime_integrity", "healthy": True,
        "attest_ms": 1000.0, "explanation": "ok",
    }
    for _ in range(3):
        hub = Telemetry(clock=lambda: 0.0, enabled=True)
        observatory = Observatory(clock=lambda: 0.0)
        hub.attach_observatory(observatory)
        start = time.perf_counter()
        for _ in range(MICRO_OPS):
            hub.observe_event("attestation", **event_fields)
        costs["event"] = min(
            costs["event"], (time.perf_counter() - start) / MICRO_OPS
        )
        # one finished span per iteration exercises the trace-store
        # append plus the SLO rule's span hook (the tracer listener)
        with hub.span("protocol.q2.controller_as", vid="vm-0001"):
            pass
        span = hub.tracer.finished[-1]
        start = time.perf_counter()
        for _ in range(MICRO_OPS):
            observatory.ingest_span(span)
        costs["span"] = min(
            costs["span"], (time.perf_counter() - start) / MICRO_OPS
        )
    return costs


def _op_counts(clouds) -> dict[str, float]:
    """Observatory operations actually executed on the launch path."""
    counts = {"event": 0.0, "span": 0.0}
    for cloud in clouds:
        counts["event"] += len(cloud.observatory.events)
        counts["span"] += len(cloud.telemetry.tracer.finished)
    return counts


def test_observatory_overhead_on_instrumented_path(benchmark):
    # warmup both arms and pin down that consuming the stream cannot
    # change any simulated result
    plain_outcomes, _ = run_matrix(False)
    observed_outcomes, observed_clouds = benchmark.pedantic(
        run_matrix, args=(True,), rounds=1, iterations=1
    )
    assert plain_outcomes == observed_outcomes

    # paired A/B rounds, back to back — informational on a shared host
    wall_ratios, cpu_ratios = [], []
    best_off_wall = float("inf")
    for _ in range(ROUNDS):
        off_wall, off_cpu = _timed_round(False)
        on_wall, on_cpu = _timed_round(True)
        wall_ratios.append((on_wall - off_wall) / off_wall)
        cpu_ratios.append((on_cpu - off_cpu) / off_cpu)
        best_off_wall = min(best_off_wall, off_wall)

    costs = _per_op_costs()
    counts = _op_counts(observed_clouds)
    observatory_s = sum(costs[op] * counts[op] for op in costs)
    bound = SAFETY_FACTOR * observatory_s / best_off_wall

    print_table(
        f"Observatory overhead: instrumented launch diagonal"
        f" ({ROUNDS} paired rounds)",
        ["estimate", "value"],
        [
            ["baseline best wall (s)", f"{best_off_wall:.3f}"],
            ["event dispatch cost (µs) × count",
             f"{costs['event'] * 1e6:.1f} × {counts['event']:.0f}"],
            ["span listener cost (µs) × count",
             f"{costs['span'] * 1e6:.1f} × {counts['span']:.0f}"],
            ["bounded overhead (2x safety)", f"{bound:.3%}"],
            ["paired A/B wall median (noisy)",
             f"{statistics.median(wall_ratios):+.2%}"],
            ["paired A/B cpu median (noisy)",
             f"{statistics.median(cpu_ratios):+.2%}"],
        ],
    )

    # the enabled arm really consumed the stream
    last = observed_clouds[-1].observatory
    assert last.events and len(last.traces) > 0
    assert counts["event"] > 0 and counts["span"] > 0
    assert bound < OVERHEAD_BUDGET, (
        f"observatory overhead bound {bound:.3%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} budget"
    )
