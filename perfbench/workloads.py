"""The benchmark's three workloads, driven through the customer API.

Every workload is a closed loop: one customer, one call in flight, the
next call issued when the previous one returns. Everything simulated is
deterministic under the workload seed, so two runs of one seed do
identical work.

- ``ondemand``: 8 VMs on 3 servers, 1024-bit keys, key pool not
  pre-warmed. Sequential ``attest(runtime_integrity)`` calls, with a
  ``launch_vm`` (startup + runtime properties) and ``terminate_vm`` pair
  every 8 calls. Crypto (session keygen, signing) dominates.
- ``fleet``: 256 VMs on 16 servers, 512-bit keys, telemetry off, session
  keys pre-warmed. Repeated ``attest_fleet`` passes over the whole fleet
  after one untimed warm-up pass. Idle scheduler ticks dominate.
- ``monitor``: continuous monitoring on a 2-shard plane with the forked
  executor, telemetry on, a runtime-integrity plus windowed
  CPU-availability policy, advanced by ``run_for`` in fixed simulated
  slices. The only workload running the policy scheduler, the telemetry
  write path, executor IPC and nested (windowed) ``run_until``.

The workload seed generates the inputs a customer controls: which VMs are
infected and which VM each on-demand call targets. The deployment itself
(its internal DRBG seed, hence keys, ring placement and policy phases) is
fixed at :data:`DEPLOYMENT_SEED`, so runs with different workload seeds
measure the same system on different inputs instead of a differently
shaped system each time (ring skew alone moved the monitor workload's
slice latency by 2x between deployment seeds).

A workload builds its deployment in ``setup()``; ``step(i)`` makes one
timed customer call (plus think time) and returns the :class:`Call`
records; ``check()`` counts final known-answer failures.
"""

from __future__ import annotations

import heapq
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field

from repro import CloudMonatt, SecurityProperty
from repro.guest.malware import HiddenServiceMalware, Rootkit
from repro.protocol import messages as msg
from repro.shard import ShardPlane

#: seed of every deployment's internal randomness (see module notes)
DEPLOYMENT_SEED = 7

RUNTIME = SecurityProperty.RUNTIME_INTEGRITY
STARTUP = SecurityProperty.STARTUP_INTEGRITY
AVAILABILITY = SecurityProperty.CPU_AVAILABILITY

#: CostModel operations of the launch pipeline; zeroed while the fleet
#: is provisioned so 256 launches do not simulate 15 minutes of ticks
LAUNCH_OPS = (
    "db_access", "scheduling_base", "scheduling_property_filter",
    "networking", "block_device_mapping", "spawn_base",
    "boot_per_flavor_vcpu", "image_fetch_per_mb", "tpm_extend",
)


def kernel_ms(*_) -> float:
    """Best of three runs of a fixed pure-Python calibration kernel, ms.

    The mix (heap and dict churn, one 1024-bit modexp) mirrors the event
    engine and the crypto layer the workloads spend their time in. The
    ignored argument lets the shard executor's ``apply`` run it.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        heap: list = []
        table: dict = {}
        for i in range(2000):
            heapq.heappush(heap, ((i * 7919) % 10007, i))
            table[i & 255] = i
        while heap:
            heapq.heappop(heap)
        pow(3, (1 << 1023) + 5, (1 << 1024) - 105)
        best = min(best, (time.perf_counter() - t0) * 1000.0)
    return best


#: host times are reported at a reference host speed: scaled so that the
#: calibration kernel, timed around each timed section, takes this long
KERNEL_REF_MS = 5.0


class HostSpeed:
    """Readings of the calibration kernel, taken around timed sections.

    A shared host drifts: the kernel's 10-second medians moved between
    12.1 and 15.5 ms within two minutes, and identical benchmark work by
    up to 30%. A section timed between readings ``first`` and ``last``
    is scaled by :meth:`scale` to what it would take on a host where the
    kernel takes :data:`KERNEL_REF_MS`.
    """

    def __init__(self, kernel):
        self._kernel = kernel
        self.readings = [kernel()]

    @property
    def last(self) -> int:
        """Index of the latest reading."""
        return len(self.readings) - 1

    def read(self) -> int:
        """Take a reading; returns its index."""
        self.readings.append(self._kernel())
        return self.last

    def scale(self, first: int, last: int) -> float:
        """Reference-speed scale for a section between two readings."""
        return KERNEL_REF_MS / statistics.mean(self.readings[first:last + 1])


@dataclass
class Call:
    """One timed customer call and what it yielded."""

    kind: str
    host_ms: float
    sim_ms: float
    rounds: int = 0
    failed: int = 0
    reports: list = field(default_factory=list)


def _verdict_failures(results, expected_healthy) -> int:
    """Count degraded reports and wrong verdicts in a result list."""
    return sum(
        1 for result, healthy in zip(results, expected_healthy)
        if result.degraded or result.report.healthy != healthy
    )


class Workload:
    """Shared bookkeeping: call timing, ``run_for`` horizon, launches."""

    name = ""
    #: the call kind whose latency is the workload's headline
    main_kind = ""
    #: set-ups (each with its timed phase) per end-to-end run; set-up
    #: time is their median
    reps = 3
    #: steps every repetition makes at least; the digest, the traced run
    #: and the deterministic metrics cover exactly these
    min_steps = 1
    #: cap on steps per repetition (None: no cap)
    max_steps = None
    #: steps per repetition are a multiple of this
    quantum = 1
    #: nominal host seconds per step at the reference host speed, which
    #: turns a time budget into a fixed step count
    step_cost_s = 1.0
    #: whether every timed session key must come from a pre-warmed pool
    require_pool_hits = False
    #: launches timed between two host-speed readings
    launches_per_reading = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.rng = random.Random(seed)
        #: reference-speed host ms of every ``launch_vm`` (set-up included)
        self.launch_ms: list[float] = []
        self._pending_launches: list[float] = []
        #: set while a timed step runs: no readings inside a timed step
        self.in_step = False
        self.setup_failed = 0
        #: simulated ms requested from / advanced by ``run_for``
        self.requested_ms = 0.0
        self.advanced_ms = 0.0
        self.speed = HostSpeed(self.kernel_ms)

    def clock(self) -> float:
        raise NotImplementedError

    def kernel_ms(self) -> float:
        """The calibration kernel, timed where this workload's work runs."""
        return kernel_ms()

    def end_section(self) -> int:
        """Close a timed section: read the host speed, scale pending launches.

        Returns the index of the reading that ends the section.
        """
        last = self.speed.read()
        if self._pending_launches:
            scale = self.speed.scale(self._launches_from, last)
            self.launch_ms += [ms * scale for ms in self._pending_launches]
            self._pending_launches = []
        return last

    def timed(self, fn):
        """Run ``fn()``; return its result, host ms and simulated ms."""
        sim0 = self.clock()
        t0 = time.perf_counter()
        result = fn()
        host_ms = (time.perf_counter() - t0) * 1000.0
        return result, host_ms, self.clock() - sim0

    def launch(self, **kwargs):
        """Timed ``launch_vm``; a launch with properties must attest healthy."""
        if not self._pending_launches:
            self._launches_from = self.speed.last
        result, host_ms, sim_ms = self.timed(
            lambda: self.customer.launch_vm("small", self.image, **kwargs))
        self._pending_launches.append(host_ms)
        if not self.in_step and len(self._pending_launches) >= self.launches_per_reading:
            self.end_section()
        ok = result.accepted and (
            not kwargs.get("properties")
            or (result.report is not None and result.report.healthy))
        return result, host_ms, sim_ms, ok

    def run_for(self, duration_ms: float) -> None:
        before = self.clock()
        self.deployment.run_for(duration_ms)
        self.requested_ms += duration_ms
        self.advanced_ms += self.clock() - before

    def steps_for(self, seconds: float) -> int:
        """Steps that fill ``seconds`` at the nominal step cost.

        A fixed count, not a deadline: every run with the same budget
        does the same work, however fast the host happens to be.
        """
        steps = max(self.min_steps, math.ceil(seconds / self.step_cost_s))
        steps = -(-steps // self.quantum) * self.quantum
        return steps if self.max_steps is None else min(steps, self.max_steps)

    def timed_rounds(self, calls: list[Call]) -> int:
        """Attestation rounds attempted by the given calls."""
        return sum(call.rounds for call in calls)

    def check(self) -> int:
        return self.setup_failed


class Ondemand(Workload):
    """On-demand attestation in a small cloud; crypto-bound."""

    name = "ondemand"
    main_kind = "attest"
    image = "ubuntu"
    think_ms = 100.0
    step_cost_s = 0.16

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.servers, self.vms, self.key_bits = (2, 2, 512) if tiny else (3, 8, 1024)
        # calls go round the tenant's VMs in a fresh seeded order each
        # round, with a launch/terminate pair closing every round: each
        # server then serves the same number of sessions per round under
        # every seed, so the seed reorders the keygen work but does not
        # change how much of it there is
        self.quantum = self.vms
        self.min_steps = 4 * self.vms

    def clock(self) -> float:
        return self.deployment.now

    def setup(self) -> None:
        self.deployment = CloudMonatt(
            num_servers=self.servers, seed=DEPLOYMENT_SEED, key_bits=self.key_bits)
        self.customer = self.deployment.register_customer("tenant")
        self.vids = []
        for _ in range(self.vms):
            result, _, _, ok = self.launch(properties=[STARTUP, RUNTIME])
            self.setup_failed += not ok
            self.vids.append(result.vid)
        self.infected = self.vids[self.rng.randrange(self.vms)]
        hosted = self.deployment.server_of(self.infected).hosted[self.infected]
        Rootkit().infect(hosted.guest)

    def step(self, i: int) -> list[Call]:
        calls = []
        if i % self.vms == 0:
            self.order = self.rng.sample(self.vids, self.vms)
        vid = self.order[i % self.vms]
        try:
            result, host_ms, sim_ms = self.timed(
                lambda: self.customer.attest(vid, RUNTIME))
        except Exception as exc:  # a raised round is a failed round
            calls.append(Call("attest", 0.0, 0.0, rounds=1, failed=1,
                              reports=[repr(exc)]))
        else:
            failed = _verdict_failures([result], [vid != self.infected])
            calls.append(Call("attest", host_ms, sim_ms, rounds=1,
                              failed=failed, reports=[result.report.to_dict()]))
        if i % self.vms == self.vms - 1:
            result, host_ms, sim_ms, ok = self.launch(properties=[STARTUP, RUNTIME])
            report = result.report.to_dict() if result.report else None
            calls.append(Call("launch", host_ms, sim_ms, rounds=1,
                              failed=int(not ok), reports=[report]))
            self.customer.terminate_vm(result.vid)
        self.run_for(self.think_ms)
        return calls

    def close(self) -> None:
        self.deployment = self.customer = None


class Fleet(Workload):
    """Repeated full-fleet attestation passes; idle-tick-bound."""

    name = "fleet"
    main_kind = "pass"
    image = "cirros"
    #: two 13 s set-ups, not three, keep a run near 45 s
    reps = 2
    min_steps = 1
    max_steps = 4
    step_cost_s = 2.2
    require_pool_hits = True
    launches_per_reading = 32
    think_ms = 1000.0
    #: sessions one pass draws from each server's key pool (64-entry
    #: chunks over 256 VMs reach every server up to four times)
    sessions_per_pass = 4

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.servers, self.vms, self.infected_count = (2, 8, 2) if tiny else (16, 256, 8)

    def clock(self) -> float:
        return self.deployment.now

    def setup(self) -> None:
        cloud = self.deployment = CloudMonatt(
            num_servers=self.servers, seed=DEPLOYMENT_SEED, key_bits=512)
        self.customer = cloud.register_customer("operator")
        saved = {op: cloud.cost.costs_ms[op] for op in LAUNCH_OPS}
        for op in LAUNCH_OPS:
            cloud.cost.set_cost(op, 0.0)
        self.vids = []
        for _ in range(self.vms):
            result, _, _, ok = self.launch(workload={"name": "idle"})
            self.setup_failed += not ok
            self.vids.append(result.vid)
        # launched without properties (no startup attestation, no
        # keygen), so register the runtime-integrity references directly
        controller = cloud.controller
        for vid in self.vids:
            server = controller.database.vm(vid).server
            controller.endpoint.call(
                controller.database.server(server).attestation_server,
                {msg.KEY_TYPE: "register_vm", msg.KEY_VID: str(vid),
                 "image_name": self.image},
            )
        for op, base_ms in saved.items():
            cloud.cost.set_cost(op, base_ms)
        self.infected = set(self.rng.sample(self.vids, self.infected_count))
        for vid in self.vids:
            if vid in self.infected:
                HiddenServiceMalware().infect(cloud.server_of(vid).hosted[vid].guest)
        self.expected = [vid not in self.infected for vid in self.vids]
        cloud.prewarm_for_fleet(self.sessions_per_pass * (1 + self.max_steps))
        self.setup_failed += self._pass().failed  # untimed warm-up pass

    def _pass(self) -> Call:
        requests = [(vid, RUNTIME) for vid in self.vids]
        try:
            results, host_ms, sim_ms = self.timed(
                lambda: self.customer.attest_fleet(requests))
        except Exception as exc:  # a raised pass fails every round in it
            return Call("pass", 0.0, 0.0, rounds=len(requests),
                        failed=len(requests), reports=[repr(exc)])
        return Call("pass", host_ms, sim_ms, rounds=len(requests),
                    failed=_verdict_failures(results, self.expected),
                    reports=[r.report.to_dict() for r in results])

    def step(self, i: int) -> list[Call]:
        call = self._pass()
        self.run_for(self.think_ms)
        return [call]

    def close(self) -> None:
        self.deployment = self.customer = None


def _policy_status(shard) -> dict:
    """Executor ``apply`` body: a shard's policy scheduler snapshot.

    Read in place rather than through ``Customer.policy_status``: that
    call is a network round trip, which advances the simulated clock and
    would shift every later firing of the workload being observed.
    """
    return shard.cloud.controller.policy_scheduler.status()


def _infect_hidden_service(shard, vid) -> str:
    """Executor ``apply`` body: infect a VM inside the process owning it."""
    guest = shard.cloud.server_of(vid).hosted[vid].guest
    HiddenServiceMalware().infect(guest)
    return str(vid)


class Monitor(Workload):
    """Continuous policy-driven monitoring on a forked 2-shard plane."""

    name = "monitor"
    main_kind = "slice"
    image = "cirros"
    min_steps = 8
    step_cost_s = 0.75
    slice_ms = 16_000.0
    runtime_period_ms = 16_000.0
    #: every 32 s the nested windows drive run_for into the runaway
    #: within a few minutes of simulated time; every 64 s the overshoot
    #: stays visible but bounded
    availability_period_ms = 64_000.0
    window_ms = 200.0

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.servers_per_shard, self.vms, self.infected_count = (
            (2, 4, 1) if tiny else (4, 16, 2))
        if tiny:
            self.min_steps = 3
        self.workers = min(2, os.cpu_count() or 1)

    def clock(self) -> float:
        return max(shard.now for shard in self.deployment.shards.values())

    def kernel_ms(self) -> float:
        """The kernel run in every shard worker at once; their mean.

        The slices run in the workers, on every CPU at once, so the
        benchmark process timing the kernel alone would miss a CPU that
        another tenant is slowing down. Before set-up there is no plane
        yet, and the kernel runs in this process.
        """
        plane = getattr(self, "deployment", None)
        if plane is None:
            return kernel_ms()
        executor = plane.executor
        handles = [executor.submit(name, ("apply", kernel_ms, ()))
                   for name in sorted(plane.shards)]
        return statistics.mean(executor.result(handle) for handle in handles)

    def policy(self) -> dict:
        return {
            "name": "perfbench",
            "version": 1,
            "entities": [str(vid) for vid in self.vids],
            "checks": [
                {"name": "runtime", "property": "runtime_integrity",
                 "period_ms": self.runtime_period_ms,
                 "staleness_budget_ms": 4 * self.runtime_period_ms,
                 "warning_after": 1, "critical_after": 2, "clear_after": 2},
                {"name": "availability", "property": "cpu_availability",
                 "period_ms": self.availability_period_ms,
                 "staleness_budget_ms": 4 * self.availability_period_ms,
                 "window_ms": self.window_ms},
            ],
            "notifications": {"observatory": True, "audit": True},
        }

    def setup(self) -> None:
        plane = self.deployment = ShardPlane(
            num_shards=2, seed=DEPLOYMENT_SEED, num_servers=self.servers_per_shard,
            telemetry_enabled=True, parallel=True, parallel_workers=self.workers,
        )
        self.customer = plane.register_customer("operator")
        self.vids = []
        for _ in range(self.vms):
            result, _, _, ok = self.launch(
                properties=[RUNTIME, AVAILABILITY], workload={"name": "idle"})
            self.setup_failed += not ok
            self.vids.append(result.vid)
        self.infected = {str(vid) for vid in self.rng.sample(self.vids, self.infected_count)}
        for vid in self.vids:
            if str(vid) in self.infected:
                plane.executor.call(plane.placement[str(vid)],
                                    ("apply", _infect_hidden_service, (vid,)))
        self.customer.register_policy(self.policy())
        #: the executor mode actually reached (``parallel`` or a fallback)
        self.executor = plane.executor.describe()
        self.fired_at_start = self.policy_counts()["policy.fired"]

    def step(self, i: int) -> list[Call]:
        _, host_ms, sim_ms = self.timed(lambda: self.run_for(self.slice_ms))
        return [Call("slice", host_ms, sim_ms)]

    def status(self) -> dict:
        """Merged policy entries and alarm transitions of every shard."""
        plane = self.deployment
        status = {"entries": [], "transitions": []}
        for name in sorted(plane.shards):
            shard_status = plane.executor.call(name, ("apply", _policy_status, ()))
            status["entries"] += shard_status["entries"]
            status["transitions"] += shard_status["transitions"]
        return status

    def timed_rounds(self, calls: list[Call]) -> int:
        """Policy rounds fired since set-up (rounds are not per call)."""
        return self.policy_counts()["policy.fired"] - self.fired_at_start

    def check(self) -> int:
        """Entries in the wrong final state, plus set-up failures.

        Infected VMs' runtime checks must be CRITICAL; every other entry
        must be OK and none may be stale.
        """
        wrong = 0
        for entry in self.status()["entries"]:
            if entry["check"] == "runtime" and entry["vid"] in self.infected:
                wrong += entry["state"] != "CRITICAL"
            else:
                wrong += entry["state"] != "OK" or entry["stale"]
        return wrong + self.setup_failed

    def policy_counts(self) -> dict:
        entries = self.status()["entries"]
        return {
            "policy.fired": sum(e["fired"] for e in entries),
            "policy.shed": sum(e["shed"] for e in entries),
            "policy.stale_entries": sum(1 for e in entries if e["stale"]),
        }

    def retained_records(self) -> int:
        """Telemetry records the coordinator's hubs hold.

        The mirrors replay every worker span and event, so this equals
        what the workers retain, plus the plane hub's own spans.
        """
        total = len(self.deployment.telemetry.tracer.finished)
        for shard in self.deployment.shards.values():
            hub = shard.cloud.telemetry
            total += len(hub.tracer.finished)
            if hub.observatory is not None:
                total += len(hub.observatory.events) + len(hub.observatory.traces._spans)
        return total

    def close(self) -> None:
        self.deployment.close()
        self.deployment = self.customer = None


WORKLOADS = {cls.name: cls for cls in (Ondemand, Fleet, Monitor)}
