"""Fault delivery and recovery through the runtime manager.

The synthetic library's first plan is fully deterministic — ``SI0``'s
big molecule rotates Syn0/Syn1/Syn2/Syn2 into containers 0..3 — so the
tests schedule faults at hand-picked cycles and assert the exact
detection, quarantine, repair and retry behaviour, plus the two
satellite bugfixes (``fail_container`` validation/idempotence and the
port's mid-write drop/abort resequencing).
"""

import pytest

from repro.bench.suites import build_synthetic_library, run_si_stream
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultSchedule
from repro.faults.injector import _Episode
from repro.hardware import Fabric, ReconfigurationPort
from repro.runtime import RisppRuntime
from repro.sim import EventKind


@pytest.fixture()
def library():
    return build_synthetic_library()


def make_runtime(library, events, **injector_kwargs):
    injector = FaultInjector(FaultSchedule(events), **injector_kwargs)
    rt = RisppRuntime(library, 5, core_mhz=100.0, faults=injector)
    return rt, injector


def prime(rt):
    """Fire the SI0 forecast and land its four rotations (finish 260093)."""
    rt.forecast("SI0", 0, expected=64.0)
    finish = max(j.finish_at for j in rt.port.jobs)
    rt.advance(finish)
    return finish


class TestTransientLifecycle:
    """Inject at 300000 into container 0 (Syn0); scrub period 10000."""

    SCHEDULE = [FaultEvent(300_000, FaultKind.TRANSIENT, container=0)]

    def test_silent_window_then_detect_quarantine_repair(self, library):
        rt, injector = make_runtime(
            library, self.SCHEDULE, scrub_period=10_000
        )
        finish = prime(rt)
        assert rt.execute_si("SI0", finish + 1) == 12  # hardware

        # Inside the silent window the corrupted container still serves:
        # the planner and the execution path have no idea (timing-wise the
        # functional model stays correct by construction).
        assert rt.execute_si("SI0", 305_000) == 12
        container = rt.fabric.container(0)
        assert container.corrupted and container.is_available()
        injected = rt.trace.of_kind(EventKind.FAULT_INJECTED)
        assert injected and injected[0].detail["effect"] == "corrupted"
        assert injected[0].cycle == 300_000

        # The next scrubber pass (310000) detects, quarantines, and
        # queues the repair rotation through the normal port.
        rt.advance(310_001)
        container = rt.fabric.container(0)
        assert container.quarantined and not container.is_available()
        detected = rt.trace.of_kind(EventKind.FAULT_DETECTED)
        assert detected[0].cycle == 310_000
        assert detected[0].detail["latency"] == 10_000
        quarantined = rt.trace.of_kind(EventKind.CONTAINER_QUARANTINED)
        assert quarantined[0].detail == {"container": 0, "atom": "Syn0"}
        # While quarantined, SI0 has no full molecule: software fallback,
        # attributed to the fault.
        assert rt.execute_si("SI0", 311_000) == 300
        assert injector.stats.sw_fallback_executions == 1

        # The repair lands one Syn0 rotation later; the container is
        # released and execution returns to hardware.
        repair = [j for j in rt.port.jobs if j.repair]
        assert len(repair) == 1 and repair[0].container_id == 0
        rt.advance(repair[0].finish_at + 1)
        container = rt.fabric.container(0)
        assert not container.quarantined and container.atom == "Syn0"
        assert rt.execute_si("SI0", repair[0].finish_at + 2) == 12
        repaired = rt.trace.of_kind(EventKind.CONTAINER_REPAIRED)
        assert repaired[0].detail["mttr"] == repair[0].finish_at - 300_000
        assert injector.stats.containers_repaired == 1
        assert injector.stats.mttr_cycles_max == repaired[0].detail["mttr"]
        assert injector.open_episodes() == 0

    def test_degraded_cycles_cover_the_episode(self, library):
        rt, injector = make_runtime(
            library, self.SCHEDULE, scrub_period=10_000
        )
        prime(rt)
        rt.advance(500_000)
        injector.finalize(500_000)
        repaired = rt.trace.of_kind(EventKind.CONTAINER_REPAIRED)
        assert repaired, "repair must complete by cycle 500000"
        # Degraded from injection to repair completion, and only then.
        assert injector.stats.degraded_cycles == (
            repaired[0].cycle - 300_000
        )

    def test_transient_on_empty_container_is_no_effect(self, library):
        rt, injector = make_runtime(
            library, [FaultEvent(100, FaultKind.TRANSIENT, container=4)]
        )
        prime(rt)
        assert injector.stats.faults_no_effect == 1
        assert injector.stats.faults_detected == 0
        injected = rt.trace.of_kind(EventKind.FAULT_INJECTED)
        assert injected[0].detail["effect"] == "none"
        assert injector.open_episodes() == 0

    def test_overwrite_heals_before_scrub(self, library):
        # Scrub period so long the scrubber never visits: an ordinary
        # rotation overwrites the corrupted configuration first.
        rt, injector = make_runtime(
            library, self.SCHEDULE, scrub_period=1_000_000_000
        )
        prime(rt)
        rt.advance(300_001)
        assert rt.fabric.container(0).corrupted
        job = rt.port.request(rt.fabric, "Syn3", 0, 301_000)
        rt._record_rotation_request(job, 301_000)
        rt.advance(job.finish_at + 1)
        assert injector.stats.faults_overwritten == 1
        assert injector.stats.faults_detected == 0
        assert not rt.fabric.container(0).corrupted
        assert injector.open_episodes() == 0

    def test_pending_rotation_adopted_as_repair(self, library):
        rt, injector = make_runtime(library, [], scrub_period=10_000)
        prime(rt)
        # White-box: corrupt container 0 by hand, then queue an ordinary
        # rotation into it before the scrubber detects.  The detection
        # must adopt the pending job instead of double-booking the port.
        rt.fabric.container(0).mark_corrupted()
        injector._corrupted[0] = _Episode(0, "Syn0", 300_000)
        job = rt.port.request(rt.fabric, "Syn0", 0, 301_000)
        rt._record_rotation_request(job, 301_000)
        injector._detect(rt, 0, 310_000)
        assert job.repair is True
        assert rt.fabric.container(0).quarantined
        rt.advance(job.finish_at + 1)
        assert not rt.fabric.container(0).quarantined
        assert injector.stats.containers_repaired == 1


class TestWriteErrors:
    """Mid-write fault at 30000, inside the Syn0 write (0..57799)."""

    SCHEDULE = [FaultEvent(30_000, FaultKind.WRITE_ERROR)]

    def test_abort_retry_backoff_and_reload(self, library):
        rt, injector = make_runtime(
            library, self.SCHEDULE, backoff_cycles=1_000
        )
        rt.forecast("SI0", 0, expected=64.0)
        rt.advance(30_001)
        aborted = [j for j in rt.port.jobs if j.aborted]
        assert len(aborted) == 1 and aborted[0].atom == "Syn0"
        assert rt.fabric.container(0).atom is None
        retried = rt.trace.of_kind(EventKind.ROTATION_RETRIED)
        assert retried[0].detail["attempt"] == 1
        assert retried[0].detail["retry_at"] == 31_000  # backoff * 2^0
        assert injector.stats.rotation_retries == 1
        injected = rt.trace.of_kind(EventKind.FAULT_INJECTED)
        assert injected[0].detail["effect"] == "write_aborted"

        # The retried write goes back through the port and lands.
        rt.advance(1_000_000)
        assert rt.fabric.container(0).atom == "Syn0"
        assert rt.execute_si("SI0", 1_000_001) == 12
        assert injector.stats.jobs_abandoned == 0

    def test_retries_exhausted_abandons_job_and_replans(self, library):
        rt, injector = make_runtime(
            library, self.SCHEDULE, max_retries=0
        )
        rt.forecast("SI0", 0, expected=64.0)
        replans_before = rt.stats.replans
        rt.advance(30_001)
        assert injector.stats.jobs_abandoned == 1
        assert injector.stats.rotation_retries == 0
        assert not rt.trace.of_kind(EventKind.ROTATION_RETRIED)
        assert rt.stats.replans > replans_before

    def test_write_error_on_idle_port_is_no_effect(self, library):
        rt, injector = make_runtime(
            library, [FaultEvent(100, FaultKind.WRITE_ERROR)]
        )
        rt.advance(200)  # no forecast: nothing in flight
        assert injector.stats.faults_no_effect == 1
        injected = rt.trace.of_kind(EventKind.FAULT_INJECTED)
        assert injected[0].detail["effect"] == "none"

    def test_repair_write_exhaustion_retires_container(self, library):
        rt, injector = make_runtime(library, [], max_retries=0)
        prime(rt)
        # A quarantined container whose repair write keeps failing is
        # retired for good (the alternative is retrying forever).
        rt.fabric.container(0).mark_corrupted()
        injector._corrupted[0] = _Episode(0, "Syn0", 300_000)
        injector._detect(rt, 0, 310_000)
        repair = [j for j in rt.port.jobs if j.repair][0]
        mid = (repair.started_at + repair.finish_at) // 2
        rt.advance(mid)
        injector._inject_write_error(rt, mid)
        assert rt.fabric.container(0).failed
        assert injector.stats.containers_retired == 1
        assert injector.open_episodes() == 0


class TestPermanentDefects:
    def test_permanent_retires_and_repeat_is_no_effect(self, library):
        rt, injector = make_runtime(
            library,
            [
                FaultEvent(300_000, FaultKind.PERMANENT, container=1),
                FaultEvent(300_500, FaultKind.PERMANENT, container=1),
            ],
        )
        prime(rt)
        rt.advance(301_000)
        assert rt.fabric.container(1).failed
        assert injector.stats.permanents == 2
        assert injector.stats.containers_retired == 1
        assert injector.stats.faults_no_effect == 1
        failed = rt.trace.of_kind(EventKind.CONTAINER_FAILED)
        assert len(failed) == 1 and failed[0].detail["lost_atom"] == "Syn1"

    def test_permanent_closes_open_corruption_episode(self, library):
        rt, injector = make_runtime(
            library,
            [
                FaultEvent(300_000, FaultKind.TRANSIENT, container=0),
                FaultEvent(300_100, FaultKind.PERMANENT, container=0),
            ],
            scrub_period=1_000_000_000,
        )
        prime(rt)
        rt.advance(301_000)
        assert rt.fabric.container(0).failed
        assert injector.open_episodes() == 0


class TestScheduleValidation:
    def test_out_of_range_target_rejected_on_attach(self, library):
        events = [FaultEvent(10, FaultKind.TRANSIENT, container=7)]
        with pytest.raises(ValueError, match="container 7"):
            make_runtime(library, events)

    def test_injector_config_validation(self):
        schedule = FaultSchedule([])
        with pytest.raises(ValueError):
            FaultInjector(schedule, scrub_period=0)
        with pytest.raises(ValueError):
            FaultInjector(schedule, max_retries=-1)
        with pytest.raises(ValueError):
            FaultInjector(schedule, backoff_cycles=0)


class TestFaultedRunDeterminism:
    def test_same_schedule_same_trace_verified(self, library):
        from repro.analysis.verify import verify_runtime
        from repro.bench.harness import trace_signature

        schedule = FaultSchedule.generate(
            seed=11, horizon=852_370, containers=5, rate=20.0
        )

        def run():
            injector = FaultInjector(FaultSchedule(list(schedule)))
            return run_si_stream(
                library,
                [("SI0", 64.0), ("SI1", 16.0), ("SI2", 4.0), ("SI3", 1.0)],
                [("SI0", 64), ("SI1", 16), ("SI2", 4), ("SI3", 1)],
                containers=5,
                block_rounds=6,
                fault_injector=injector,
            )

        first = run()
        assert trace_signature(first.trace) == trace_signature(run().trace)
        report = verify_runtime(first, subject="faults:seed-11")
        assert report.ok(), report.render_text()


# -- satellite 1: fail_container hardening -----------------------------------


class TestFailContainerBugfixes:
    def test_out_of_range_raises(self, library):
        rt = RisppRuntime(library, 5, core_mhz=100.0)
        with pytest.raises(ValueError, match="out of range"):
            rt.fail_container(5, 0)
        with pytest.raises(ValueError, match="out of range"):
            rt.fail_container(-1, 0)
        with pytest.raises(ValueError):
            rt.fabric.fail_container(-1)

    def test_repeat_failure_is_idempotent_no_op(self, library):
        rt = RisppRuntime(library, 5, core_mhz=100.0)
        finish = prime(rt)
        rt.fail_container(2, finish + 10)
        events = rt.trace.of_kind(EventKind.CONTAINER_FAILED)
        replans = rt.stats.replans
        trace_len = len(rt.trace)
        assert len(events) == 1

        rt.fail_container(2, finish + 20)  # no duplicate event, no replan
        assert len(rt.trace.of_kind(EventKind.CONTAINER_FAILED)) == 1
        assert rt.stats.replans == replans
        assert len(rt.trace) == trace_len

    def test_container_mark_failed_idempotent(self, library):
        container = Fabric(library.catalogue, 1).container(0)
        container.mark_failed()
        generation = container.generation
        assert container.mark_failed() is None
        assert container.generation == generation


# -- satellite 2: mid-write drops and aborts on the port ----------------------


class TestPortMidWriteRecovery:
    def test_active_write_dropped_when_container_fails(self, library):
        fabric = Fabric(library.catalogue, 5)
        port = ReconfigurationPort(library.catalogue, core_mhz=100.0)
        j0 = port.request(fabric, "Syn0", 0, now=0)
        j1 = port.request(fabric, "Syn1", 1, now=0)
        port.advance(fabric, 10_000)  # j0's write is in flight
        assert fabric.container(0).is_busy()

        fabric.fail_container(0)
        done = port.advance(fabric, 10_500)
        assert done == []
        assert not port.is_reserved(0)
        # The gap closes: j1 is pulled forward to the drop cycle, and
        # the port never re-leases time it already spent.
        assert j1.started_at == 10_500
        assert j1.finish_at == 10_500 + (j1.finish_at - j1.started_at)
        assert port.busy_until == j1.finish_at
        assert port.busy_until >= 10_500
        port.advance(fabric, j1.finish_at)
        assert fabric.container(1).atom == "Syn1"
        assert j0.completed is False

    def test_drop_with_empty_queue_pins_busy_until_to_now(self, library):
        fabric = Fabric(library.catalogue, 2)
        port = ReconfigurationPort(library.catalogue, core_mhz=100.0)
        port.request(fabric, "Syn0", 0, now=0)
        port.advance(fabric, 10_000)
        fabric.fail_container(0)
        port.advance(fabric, 12_000)
        assert port.is_idle()
        assert port.busy_until == 12_000  # never backwards from ``now``

    def test_abort_active_mid_write(self, library):
        fabric = Fabric(library.catalogue, 5)
        port = ReconfigurationPort(library.catalogue, core_mhz=100.0)
        j0 = port.request(fabric, "Syn0", 0, now=0)
        j1 = port.request(fabric, "Syn1", 1, now=0)
        port.advance(fabric, 10_000)

        aborted = port.abort_active(fabric, 10_000)
        assert aborted is j0 and j0.aborted
        container = fabric.container(0)
        assert container.atom is None and not container.is_busy()
        assert not port.is_reserved(0)
        assert j1.started_at == 10_000
        assert port.busy_until == j1.finish_at >= 10_000

    def test_abort_active_idle_port_returns_none(self, library):
        fabric = Fabric(library.catalogue, 2)
        port = ReconfigurationPort(library.catalogue, core_mhz=100.0)
        assert port.abort_active(fabric, 100) is None

    def test_abort_active_misses_completed_write(self, library):
        fabric = Fabric(library.catalogue, 2)
        port = ReconfigurationPort(library.catalogue, core_mhz=100.0)
        job = port.request(fabric, "Syn0", 0, now=0)
        port.advance(fabric, job.finish_at)
        # The write finished exactly at ``now``: nothing is in flight.
        assert port.abort_active(fabric, job.finish_at) is None
        assert fabric.container(0).atom == "Syn0"


# -- satellite: backoff-ladder configuration ----------------------------------


class TestBackoffLadder:
    """Explicit per-attempt retry delays, validated at construction."""

    def test_ladder_must_fit_the_retry_budget(self):
        schedule = FaultSchedule([])
        with pytest.raises(ValueError, match="positive retry budget"):
            FaultInjector(
                schedule, max_retries=0, backoff_ladder=(1_000,)
            )
        with pytest.raises(ValueError, match="one delay per retry"):
            FaultInjector(
                schedule, max_retries=3, backoff_ladder=(1_000, 2_000)
            )

    def test_ladder_steps_must_be_positive(self):
        schedule = FaultSchedule([])
        with pytest.raises(ValueError, match="must be positive"):
            FaultInjector(
                schedule, max_retries=2, backoff_ladder=(0, 1_000)
            )
        with pytest.raises(ValueError, match="must be positive"):
            FaultInjector(
                schedule, max_retries=2, backoff_ladder=(500, -1)
            )

    def test_ladder_steps_must_be_non_decreasing(self):
        schedule = FaultSchedule([])
        with pytest.raises(ValueError, match="non-decreasing"):
            FaultInjector(
                schedule, max_retries=3, backoff_ladder=(2_000, 1_000, 3_000)
            )

    def test_valid_ladder_is_normalized_to_a_tuple(self):
        injector = FaultInjector(
            FaultSchedule([]),
            max_retries=3,
            backoff_ladder=[500, 500, 2_000],
        )
        assert injector.backoff_ladder == (500, 500, 2_000)
        assert injector._backoff_for(0) == 500
        assert injector._backoff_for(2) == 2_000

    def test_without_ladder_backoff_doubles(self):
        injector = FaultInjector(FaultSchedule([]), backoff_cycles=1_000)
        assert injector.backoff_ladder is None
        assert [injector._backoff_for(i) for i in range(3)] == [
            1_000,
            2_000,
            4_000,
        ]

    def test_first_retry_uses_the_ladder_delay(self, library):
        # Same mid-write fault as TestWriteErrors, but the first retry
        # must wait the ladder's first step, not backoff_cycles * 2^0.
        rt, injector = make_runtime(
            library,
            [FaultEvent(30_000, FaultKind.WRITE_ERROR)],
            backoff_cycles=1_000,
            max_retries=3,
            backoff_ladder=(500, 500, 9_000),
        )
        rt.forecast("SI0", 0, expected=64.0)
        rt.advance(30_001)
        retried = rt.trace.of_kind(EventKind.ROTATION_RETRIED)
        assert retried[0].detail["attempt"] == 1
        assert retried[0].detail["retry_at"] == 30_500

    def test_static_repair_bound_sums_the_ladder(self, library):
        from repro.faults import static_repair_bound

        exponential = static_repair_bound(
            library, 5, scrub_period=10_000, max_retries=3,
            backoff_cycles=1_000,
        )
        laddered = static_repair_bound(
            library, 5, scrub_period=10_000, max_retries=3,
            backoff_cycles=1_000, backoff_ladder=(500, 500, 1_000),
        )
        # 1000 + 2000 + 4000 exponential vs 2000 laddered.
        assert exponential - laddered == 5_000
