"""Differential test: tickless idle must not change the credit scheduler.

An idle pCPU's tick chain parks until a vCPU starts there (DESIGN.md
§13). The reference for every scenario is the same scenario with a
no-op ``on_tick`` listener attached, which keeps every tick live.
Both runs must agree on every switch, run interval and wake (each with
the vCPU's credits and boost flag at that moment) and on each vCPU's
final credits, runtime and wait time.
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks.availability import AvailabilityAttackWorkload
from repro.common.identifiers import VmId
from repro.common.rng import DeterministicRng
from repro.xen import Hypervisor
from repro.xen.scheduler import TICK_MS
from repro.xen.workload import (
    BlockSpec,
    Burst,
    CpuBoundWorkload,
    FiniteCpuBoundWorkload,
    IdleWorkload,
    IoBoundWorkload,
    PhasedWorkload,
    Workload,
)

#: examples per property; CI's perfbench job raises it
EXAMPLES = int(os.environ.get("TICKLESS_EXAMPLES", "150"))

ALIGNED_MS = (5.0, 10.0, 20.0, 30.0)


class AlignedWorkload(Workload):
    """Bursts and sleeps of whole tick fractions, cycled in a fixed order.

    Started at a tick instant, its run and wake instants land on ticks,
    which is where a resumed tick chain and other events tie. A vCPU
    other than 0 waits for vCPU 0's IPI after each burst when
    ``ipi`` is set.
    """

    def __init__(self, pattern: list[tuple[float, float]], ipi: bool):
        super().__init__()
        self._pattern = pattern
        self._ipi = ipi
        self._step: dict[int, int] = {}

    def next_burst(self, vcpu) -> Burst:
        step = self._step.get(vcpu.index, 0)
        self._step[vcpu.index] = step + 1
        cpu, sleep = self._pattern[(step + vcpu.index) % len(self._pattern)]
        if self._ipi and vcpu.index > 0:
            return Burst(cpu_ms=cpu, block=BlockSpec.wait_ipi())
        targets = tuple(range(1, len(vcpu.domain.vcpus))) if self._ipi else ()
        return Burst(cpu_ms=cpu, block=BlockSpec.sleep(sleep), ipi_targets=targets)


def _workload(kind: str, seed: int, pattern, ipi: bool) -> Workload:
    rng = DeterministicRng(seed)
    if kind == "idle":
        return IdleWorkload(heartbeat_ms=37.0 + seed % 50)
    if kind == "io":
        return IoBoundWorkload(rng, burst_ms=1.0 + seed % 3, wait_ms=9.0)
    if kind == "cpu":
        return CpuBoundWorkload()
    if kind == "finite":
        return FiniteCpuBoundWorkload(total_cpu_ms=50.0 + seed % 200)
    if kind == "phased":
        return PhasedWorkload(rng, cpu_fraction=0.2 + (seed % 7) / 10.0)
    if kind == "attack":
        return AvailabilityAttackWorkload()
    return AlignedWorkload(pattern, ipi)


class Recorder:
    """Listener recording every hook with the vCPU's scheduler state."""

    def __init__(self):
        self.log: list[tuple] = []

    def on_switch(self, time_ms, pcpu_index, prev, nxt):
        self.log.append(("switch", time_ms, pcpu_index, _state(prev), _state(nxt)))

    def on_run_interval(self, vcpu, start_ms, end_ms):
        self.log.append(("run", start_ms, end_ms, _state(vcpu)))

    def on_wake(self, time_ms, vcpu, boosted):
        self.log.append(("wake", time_ms, boosted, _state(vcpu)))


class TickKeeper:
    """A no-op ``on_tick`` listener: keeps every tick chain live."""

    def on_tick(self, time_ms, pcpu_index, vcpu):
        pass


def _state(vcpu):
    if vcpu is None:
        return None
    return (vcpu.name, vcpu.credits, vcpu.boosted)


def tick_instants(epoch: float, count: int) -> list[float]:
    """The tick instants a scheduler started at ``epoch`` fires at."""
    out, t = [], epoch
    for _ in range(count):
        t = t + TICK_MS
        out.append(t)
    return out


def run(scenario: dict, keep_ticks: bool):
    """Run ``scenario``; return the hook log, final vCPU state and event count."""
    hv = Hypervisor(
        num_pcpus=scenario["pcpus"],
        precise_accounting=scenario["precise"],
        boost_enabled=scenario["boost"],
    )
    recorder = Recorder()
    hv.add_monitor(recorder)
    if keep_ticks:
        hv.add_monitor(TickKeeper())
    engine = hv.engine
    epoch = scenario["epoch"]
    if epoch > 0:
        engine.run_until(epoch)
    ticks = tick_instants(epoch, 61)
    vcpus = []

    def at(slot):
        tick, offset = slot
        return ticks[tick] + offset if offset is not None else ticks[tick]

    def create(index, spec):
        kind, seed, nvcpus, pins, weight, pattern, ipi = spec
        pcpus = [pin % scenario["pcpus"] for pin in pins[:nvcpus]]
        domain = hv.create_domain(
            VmId(f"vm-{index}"), _workload(kind, seed, pattern, ipi),
            num_vcpus=nvcpus, pcpus=pcpus, weight=weight,
        )
        vcpus.extend(domain.vcpus)

    def act(op):
        kind, target = op[0], VmId(f"vm-{op[1]}")
        if kind == "create":
            if target not in hv.domains:
                create(op[1], op[2])
        elif target in hv.domains:
            if kind == "ipi":
                hv.send_ipi(target, op[2] % len(hv.domains[target].vcpus))
            elif kind == "pause":
                hv.pause_domain(target, op[2])
            elif kind == "destroy":
                hv.destroy_domain(target)

    for index, spec in enumerate(scenario["domains"]):
        create(index, spec)
    for slot, op, in_callback in sorted(scenario["ops"], key=lambda o: at(o[0])):
        when = at(slot)
        if in_callback:
            engine.schedule_at(max(when, engine.now), act, op)
        else:
            if when > engine.now:
                engine.run_until(when)
            act(op)
    engine.run_until(max(engine.now, ticks[0]) + scenario["horizon"])
    final = [
        (v.name, v.credits, v.cumulative_runtime, v.cumulative_wait, v.state.value)
        for v in vcpus
    ]
    return recorder.log, final, engine.events_fired


def assert_same_as_live(scenario: dict) -> int:
    """Compare the tickless run with the live-tick reference; return events saved."""
    log, final, fired = run(scenario, keep_ticks=False)
    ref_log, ref_final, ref_fired = run(scenario, keep_ticks=True)
    assert final == ref_final
    assert len(log) == len(ref_log)
    for got, want in zip(log, ref_log):
        assert got == want
    assert fired <= ref_fired
    return ref_fired - fired


KINDS = ["idle", "io", "cpu", "finite", "phased", "attack", "aligned"]

aligned_pattern = st.lists(
    st.tuples(st.sampled_from(ALIGNED_MS), st.sampled_from(ALIGNED_MS)),
    min_size=1, max_size=4,
)
domain_spec = st.tuples(
    st.sampled_from(KINDS),
    st.integers(0, 10_000),
    st.integers(1, 3),
    st.lists(st.integers(0, 2), min_size=3, max_size=3),
    st.sampled_from([128, 256, 512]),
    aligned_pattern,
    st.booleans(),
)
# an instant: a tick instant, or a tick instant plus an offset
slot = st.tuples(
    st.integers(0, 60),
    st.one_of(st.none(), st.floats(0.01, 9.99, allow_nan=False)),
)
operation = st.one_of(
    st.tuples(st.just("create"), st.integers(10, 14), domain_spec),
    st.tuples(st.just("ipi"), st.integers(0, 14), st.integers(0, 2)),
    st.tuples(st.just("pause"), st.integers(0, 14), st.sampled_from([5.0, 10.0, 15.0, 30.0])),
    st.tuples(st.just("destroy"), st.integers(0, 14)),
)
scenarios = st.fixed_dictionaries({
    "pcpus": st.integers(1, 3),
    "precise": st.booleans(),
    "boost": st.booleans(),
    "epoch": st.one_of(
        st.just(0.0),
        st.sampled_from([0.1, 1.0 / 3.0, 2.5, 7.3, 0.30000000000000004]),
        st.floats(0.0, 50.0, allow_nan=False),
    ),
    "domains": st.lists(domain_spec, min_size=1, max_size=4),
    "ops": st.lists(st.tuples(slot, operation, st.booleans()), max_size=6),
    "horizon": st.sampled_from([300.0, 700.0]),
})


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenarios)
def test_tickless_matches_live_ticks(scenario):
    assert_same_as_live(scenario)


def _aligned(pattern, nvcpus=1, pins=(0, 0, 0), ipi=False):
    return ("aligned", 0, nvcpus, list(pins), 256, pattern, ipi)


def _scenario(domains, ops=(), pcpus=1, precise=False, epoch=0.0, horizon=300.0):
    return {
        "pcpus": pcpus, "precise": precise, "boost": True, "epoch": epoch,
        "domains": list(domains), "ops": list(ops), "horizon": horizon,
    }


class TestPinnedTies:
    """The tie shapes between a resumed tick and another event."""

    def test_wake_at_tick_instant_on_idle_pcpu(self):
        # run 5 ms, sleep 25 ms: the timer (born at 5) wakes the vCPU at
        # the 30 ms tick, two periods after the chain parked at 10 ms;
        # the live tick sorts after the timer and debits the new runner
        saved = assert_same_as_live(_scenario([_aligned([(5.0, 5.0), (5.0, 20.0)])]))
        assert saved > 0

    def test_wake_scheduled_at_parking_instant_lands_on_next_tick(self):
        # a 20 ms burst from 0 ends at the 20 ms tick before that tick
        # fires (it was born at 0); the 10 ms sleep it starts is scheduled
        # ahead of the slot the parking tick reserves, so the wake at 30
        # precedes the resumed tick
        assert_same_as_live(_scenario([_aligned([(20.0, 10.0)])]))

    def test_accounting_and_timeslice_expiry_at_same_instant(self):
        # a CPU-bound vCPU started at the epoch rotates at 30 ms, the
        # instant of the first accounting sweep; an idle co-runner on a
        # second pCPU keeps one chain parked throughout
        assert_same_as_live(_scenario(
            [("cpu", 0, 1, [0, 0, 0], 256, [(5.0, 5.0)], False),
             ("cpu", 1, 1, [0, 0, 0], 256, [(5.0, 5.0)], False),
             ("idle", 2, 1, [1, 0, 0], 256, [(5.0, 5.0)], False)],
            pcpus=2,
        ))

    def test_non_integer_epoch(self):
        assert_same_as_live(_scenario(
            [_aligned([(10.0, 20.0), (5.0, 30.0)]), ("io", 3, 1, [0, 0, 0], 256, [], False)],
            epoch=0.30000000000000004,
        ))

    def test_on_tick_listener_added_while_parked(self):
        hv = Hypervisor(num_pcpus=2)
        hv.create_domain(VmId("vm-0"), IdleWorkload(heartbeat_ms=1000.0))
        hv.run_for(100.0)
        scheduler = hv.scheduler
        assert all(pcpu.ticker.parked for pcpu in scheduler.pcpus)
        seen = []

        class Probe:
            def on_tick(self, time_ms, pcpu_index, vcpu):
                seen.append((time_ms, pcpu_index))

        hv.add_monitor(Probe())
        hv.run_for(30.0)
        assert seen == [(t, i) for t in (110.0, 120.0, 130.0) for i in (0, 1)]


class TestAccountingFastPath:
    def test_capped_sweep_is_skipped_and_debits_reenable_it(self):
        hv = Hypervisor(num_pcpus=1)
        dom = hv.create_domain(VmId("vm-0"), IdleWorkload(heartbeat_ms=1000.0))
        hv.run_for(200.0)
        scheduler = hv.scheduler
        assert dom.vcpus[0].credits == 300.0
        assert scheduler._credits_capped
        hv.create_domain(VmId("vm-1"), CpuBoundWorkload())
        assert not scheduler._credits_capped
