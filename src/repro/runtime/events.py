"""The typed runtime event bus (the §5 control loop, decoupled).

Every cross-component notification of the run-time manager — forecasts
firing and ending, SI executions, rotation requests/completions, fault
delivery and recovery, replan triggers — is a frozen event dataclass
published on the runtime's :class:`EventBus`.  Components *publish* what
happened; the fixed wiring table :data:`DEFAULT_WIRING` names who reacts,
in what order:

* :class:`~repro.runtime.manager.RisppRuntime` publishes forecast /
  execution / replan events; the trace recorder, the statistics
  accumulators, the telemetry counters and the replanner react;
* :class:`~repro.hardware.reconfig.ReconfigurationPort` publishes
  :class:`RotationCompleted` for every retired job once attached;
* :class:`~repro.faults.injector.FaultInjector` publishes the fault
  lifecycle (:class:`FaultInjected` .. :class:`ContainerRepaired`) and
  reacts to completions and software-fallback executions;
* the :class:`~repro.runtime.monitor.ForecastMonitor` reacts to
  :class:`SIExecuted` / :class:`ForecastEnded` (its ``forecast_fired``
  fine-tuning remains a synchronous *query*: the tuned expectation is
  part of the :class:`ForecastFired` payload itself).

Determinism rules (the contract ``docs/events.md`` specifies and the
``EVT`` analysis rules enforce):

1. Dispatch is synchronous and single-threaded: ``publish`` runs every
   handler before returning, in ascending priority — no queues, no
   threads, no reordering.  The wiring is compiled once per bus into a
   tuple of handlers per event type and never changes afterwards.
2. The trace recorder runs at :data:`PRIORITY_TRACE`, strictly before
   any state-mutating reaction, so the recorded event sequence is
   exactly the publication sequence (rispp-verify replays it).
3. Handlers are module-level functions of ``(runtime, event)``; all
   mutable state lives on the runtime.  This keeps the bus itself
   stateless, so structural clones of a runtime (rispp-explore's
   successor generator) may share it.
4. :class:`ReplanRequested` is a control event: it never records a
   trace row, so publishing it cannot perturb the golden traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar

from ..sim.trace import EventKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..hardware.reconfig import RotationJob
    from .manager import RisppRuntime


# ---------------------------------------------------------------------------
# Event taxonomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ForecastFired:
    """A Forecast point fired (§4.2): the SI is expected soon.

    ``expected`` is the monitor-tuned expectation (task a) — the
    fine-tuning query runs *before* publication so handlers (and the
    trace) see the value the selection round will use.
    """

    TRACE_KIND: ClassVar[EventKind | None] = EventKind.FORECAST

    cycle: int
    task: str
    si: str
    expected: float
    priority: float


@dataclass(frozen=True, slots=True)
class ForecastEnded:
    """A Forecast point retired its SI demand (§4.2)."""

    TRACE_KIND: ClassVar[EventKind | None] = EventKind.FORECAST_END

    cycle: int
    task: str
    si: str


@dataclass(frozen=True, slots=True)
class SIExecuted:
    """One SI executed (§5): ``mode`` is ``"SW"`` or a molecule label."""

    TRACE_KIND: ClassVar[EventKind | None] = EventKind.SI_EXECUTED

    cycle: int
    task: str
    si: str
    mode: str
    cycles: int
    #: True when a hardware molecule served the execution.
    hw: bool


@dataclass(frozen=True, slots=True)
class SIModeSwitched:
    """An SI's dispatch mode changed between executions (Fig. 6)."""

    TRACE_KIND: ClassVar[EventKind | None] = EventKind.SI_MODE_SWITCH

    cycle: int
    task: str
    si: str
    from_mode: str
    to_mode: str
    cycles: int


@dataclass(frozen=True, slots=True)
class RotationRequested:
    """A rotation job was issued to the SelectMap port (§5 task c)."""

    TRACE_KIND: ClassVar[EventKind | None] = EventKind.ROTATION_REQUESTED

    cycle: int
    job: "RotationJob"
    #: Fault-recovery repair write (vs an ordinary planner rotation).
    repair: bool


@dataclass(frozen=True, slots=True)
class RotationCompleted:
    """The port finished writing a bitstream; the Atom is usable."""

    TRACE_KIND: ClassVar[EventKind | None] = EventKind.ROTATION_COMPLETED

    cycle: int
    job: "RotationJob"


@dataclass(frozen=True, slots=True)
class ContainerReallocated:
    """The planner moved an Atom Container between tasks (Fig. 6, T3)."""

    TRACE_KIND: ClassVar[EventKind | None] = EventKind.REALLOCATION

    cycle: int
    container: int
    from_task: str | None
    to_task: str | None


@dataclass(frozen=True, slots=True)
class ContainerFailed:
    """An Atom Container was permanently retired."""

    TRACE_KIND: ClassVar[EventKind | None] = EventKind.CONTAINER_FAILED

    cycle: int
    container: int
    lost_atom: str | None


@dataclass(frozen=True, slots=True)
class FaultInjected:
    """A scheduled fault event was delivered (transient / write / permanent)."""

    TRACE_KIND: ClassVar[EventKind | None] = EventKind.FAULT_INJECTED

    cycle: int
    fault: str
    #: None for write errors hitting an idle port.
    container: int | None
    atom: str | None
    effect: str
    task: str = ""


@dataclass(frozen=True, slots=True)
class FaultDetected:
    """The readback scrubber found a silent corruption."""

    TRACE_KIND: ClassVar[EventKind | None] = EventKind.FAULT_DETECTED

    cycle: int
    container: int
    atom: str
    injected_at: int
    latency: int


@dataclass(frozen=True, slots=True)
class ContainerQuarantined:
    """A corrupted container was barred from ordinary rotations."""

    TRACE_KIND: ClassVar[EventKind | None] = EventKind.CONTAINER_QUARANTINED

    cycle: int
    container: int
    atom: str | None


@dataclass(frozen=True, slots=True)
class ContainerRepaired:
    """A repair rotation completed; the quarantine is released."""

    TRACE_KIND: ClassVar[EventKind | None] = EventKind.CONTAINER_REPAIRED

    cycle: int
    task: str
    container: int
    atom: str
    injected_at: int
    mttr: int


@dataclass(frozen=True, slots=True)
class RotationRetried:
    """An aborted bitstream write was rescheduled with backoff."""

    TRACE_KIND: ClassVar[EventKind | None] = EventKind.ROTATION_RETRIED

    cycle: int
    task: str
    container: int
    atom: str
    attempt: int
    retry_at: int


@dataclass(frozen=True, slots=True)
class ReplanRequested:
    """Something invalidated the current rotation plan (control event).

    ``task`` names the task to replan on behalf of; ``None`` means
    "derive the trigger from the active forecasts" (the fault paths).
    Never recorded in the trace — replans themselves surface as the
    :class:`RotationRequested` / :class:`ContainerReallocated` events
    they produce.
    """

    TRACE_KIND: ClassVar[EventKind | None] = None

    cycle: int
    task: str | None
    reason: str


#: Every event type the runtime core may publish, in taxonomy order.
#: ``docs/events.md`` must name each of these (docs_check enforces it).
EVENT_TYPES: tuple[type, ...] = (
    ForecastFired,
    ForecastEnded,
    SIExecuted,
    SIModeSwitched,
    RotationRequested,
    RotationCompleted,
    ContainerReallocated,
    ContainerFailed,
    FaultInjected,
    FaultDetected,
    ContainerQuarantined,
    ContainerRepaired,
    RotationRetried,
    ReplanRequested,
)

#: Trace kinds recorded outside the bus: ``TASK_STEP`` belongs to the
#: multi-task simulator (:mod:`repro.sim.task`) and ``ROTATION_STARTED``
#: is reserved by the schema but not emitted by the §5 loop.
NON_BUS_KINDS: frozenset[EventKind] = frozenset(
    {EventKind.TASK_STEP, EventKind.ROTATION_STARTED}
)


# ---------------------------------------------------------------------------
# The bus
# ---------------------------------------------------------------------------

#: Handler signature: stateless module-level functions of the publishing
#: runtime and the event (determinism rule 3).
Handler = Callable[["RisppRuntime", object], None]

#: Canonical handler priorities, dispatched in ascending order.
PRIORITY_TRACE = 10
PRIORITY_STATE = 20
PRIORITY_METRICS = 30
PRIORITY_FAULTS = 40
PRIORITY_REPLAN = 50


def compile_wiring() -> dict[type, tuple[Handler, ...]]:
    """:data:`DEFAULT_WIRING` as one handler tuple per event type.

    Handlers run in ascending priority; equal priorities keep their
    wiring order.  Rows naming an event outside :data:`EVENT_TYPES` are
    rejected: the taxonomy is closed.
    """
    table: dict[type, list[Handler]] = {}
    for event_type, _, handler in sorted(DEFAULT_WIRING, key=lambda w: w[1]):
        if event_type not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {event_type!r}; the taxonomy is "
                "repro.runtime.events.EVENT_TYPES"
            )
        table.setdefault(event_type, []).append(handler)
    return {event_type: tuple(hs) for event_type, hs in table.items()}


class EventBus:
    """Deterministic synchronous dispatch of runtime events.

    Construction compiles :data:`DEFAULT_WIRING` into one tuple of
    handlers per event type, in ascending priority; ``publish`` walks
    that tuple.  ``publish`` passes the owning runtime to every handler,
    so handlers themselves hold no state and one bus may serve
    structural clones of a runtime.
    """

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table = compile_wiring()

    def publish(self, runtime: "RisppRuntime", event: object) -> None:
        for handler in self._table.get(type(event), ()):
            handler(runtime, event)


# ---------------------------------------------------------------------------
# Default handlers: the §5 loop's reactions, one function per concern
# ---------------------------------------------------------------------------


def _trace_forecast(rt: "RisppRuntime", ev: ForecastFired) -> None:
    rt.trace.record(
        ev.cycle,
        EventKind.FORECAST,
        task=ev.task,
        si=ev.si,
        expected=ev.expected,
        priority=ev.priority,
    )


def _metrics_forecast(rt: "RisppRuntime", ev: ForecastFired) -> None:
    if rt._obs_on:
        rt._m_fc_fired.inc()


def _replan_forecast(rt: "RisppRuntime", ev: ForecastFired) -> None:
    if rt.forecasting:
        rt.publish(ReplanRequested(ev.cycle, task=ev.task, reason="forecast"))


def _trace_forecast_end(rt: "RisppRuntime", ev: ForecastEnded) -> None:
    rt.trace.record(ev.cycle, EventKind.FORECAST_END, task=ev.task, si=ev.si)


def _monitor_forecast_end(rt: "RisppRuntime", ev: ForecastEnded) -> None:
    rt.monitor.forecast_ended(ev.task, ev.si, ev.cycle)


def _metrics_forecast_end(rt: "RisppRuntime", ev: ForecastEnded) -> None:
    if rt._obs_on:
        rt._m_fc_ended.inc()


def _replan_forecast_end(rt: "RisppRuntime", ev: ForecastEnded) -> None:
    if rt.forecasting:
        # Freed containers may enable upgrades for the remaining SIs;
        # replan on behalf of the task(s) still holding forecasts.
        remaining = {f.task for f in rt._active.values()}
        trigger = sorted(remaining)[0] if remaining else ev.task
        rt.publish(ReplanRequested(ev.cycle, task=trigger, reason="forecast_end"))


def _trace_si_executed(rt: "RisppRuntime", ev: SIExecuted) -> None:
    # Lazy detail: the dict is only built if somebody reads it.
    rt.trace.record_lazy(
        ev.cycle,
        EventKind.SI_EXECUTED,
        lambda mode=ev.mode, cycles=ev.cycles: {"mode": mode, "cycles": cycles},
        task=ev.task,
        si=ev.si,
    )


def _monitor_si_executed(rt: "RisppRuntime", ev: SIExecuted) -> None:
    rt.monitor.si_executed(ev.task, ev.si)


def _metrics_si_executed(rt: "RisppRuntime", ev: SIExecuted) -> None:
    if rt._obs_on:
        if ev.hw:
            rt._m_exec_hw.inc()
            rt._m_cycles_hw.inc(ev.cycles)
        else:
            rt._m_exec_sw.inc()
            rt._m_cycles_sw.inc(ev.cycles)
        rt._m_si_latency.observe(ev.cycles)


def _faults_si_executed(rt: "RisppRuntime", ev: SIExecuted) -> None:
    if not ev.hw and rt._faults is not None:
        rt._faults.note_execution(rt, rt.library.get(ev.si), ev.cycle)


def _trace_mode_switch(rt: "RisppRuntime", ev: SIModeSwitched) -> None:
    rt.trace.record(
        ev.cycle,
        EventKind.SI_MODE_SWITCH,
        task=ev.task,
        si=ev.si,
        from_mode=ev.from_mode,
        to_mode=ev.to_mode,
        cycles=ev.cycles,
    )


def _metrics_mode_switch(rt: "RisppRuntime", ev: SIModeSwitched) -> None:
    if rt._obs_on:
        rt._m_mode_switches.inc()


def _trace_rotation_requested(rt: "RisppRuntime", ev: RotationRequested) -> None:
    job = ev.job
    detail: dict = dict(
        detail_atom=job.atom,
        container=job.container_id,
        starts=job.started_at,
        finishes=job.finish_at,
        evicts=job.evicted,
    )
    if ev.repair:
        detail["repair"] = True
    rt.trace.record(
        ev.cycle,
        EventKind.ROTATION_REQUESTED,
        task=job.owner or "",
        **detail,
    )


def _stats_rotation_requested(rt: "RisppRuntime", ev: RotationRequested) -> None:
    rt.stats.rotations_requested += 1
    if rt.energy_model is not None:
        kind = rt.library.catalogue.get(ev.job.atom)
        rt.stats.rotation_energy_nj += (
            kind.bitstream_bytes * rt.energy_model.rotation_nj_per_byte
        )


def _metrics_rotation_requested(rt: "RisppRuntime", ev: RotationRequested) -> None:
    if rt._obs_on:
        (rt._m_rot_repair if ev.repair else rt._m_rot_planned).inc()


def _trace_rotation_completed(rt: "RisppRuntime", ev: RotationCompleted) -> None:
    job = ev.job
    rt.trace.record(
        job.finish_at,
        EventKind.ROTATION_COMPLETED,
        task=job.owner or "",
        detail_atom=job.atom,
        container=job.container_id,
    )


def _faults_rotation_completed(rt: "RisppRuntime", ev: RotationCompleted) -> None:
    if rt._faults is not None:
        rt._faults.on_rotation_completed(rt, ev.job)


def _replan_rotation_completed(rt: "RisppRuntime", ev: RotationCompleted) -> None:
    if rt._unplaced_for is not None and rt._active:
        trigger = rt._unplaced_for
        rt._unplaced_for = None
        rt.publish(
            ReplanRequested(ev.job.finish_at, task=trigger, reason="unplaced")
        )


def _trace_reallocation(rt: "RisppRuntime", ev: ContainerReallocated) -> None:
    rt.trace.record(
        ev.cycle,
        EventKind.REALLOCATION,
        task=ev.to_task or "",
        container=ev.container,
        from_task=ev.from_task,
        to_task=ev.to_task,
    )


def _trace_container_failed(rt: "RisppRuntime", ev: ContainerFailed) -> None:
    rt.trace.record(
        ev.cycle,
        EventKind.CONTAINER_FAILED,
        container=ev.container,
        lost_atom=ev.lost_atom,
    )


def _faults_container_failed(rt: "RisppRuntime", ev: ContainerFailed) -> None:
    if rt._faults is not None:
        rt._faults.on_container_failed(ev.container, ev.cycle)


def _replan_container_failed(rt: "RisppRuntime", ev: ContainerFailed) -> None:
    rt.publish(ReplanRequested(ev.cycle, task=None, reason="container_failed"))


def _trace_fault_injected(rt: "RisppRuntime", ev: FaultInjected) -> None:
    detail: dict = {}
    if ev.container is not None:
        detail["container"] = ev.container
    detail["fault"] = ev.fault
    if ev.effect != "none":
        # An effective fault always names its atom — ``None`` means the
        # retired container held nothing, which is itself information.
        detail["atom"] = ev.atom
    detail["effect"] = ev.effect
    rt.trace.record(ev.cycle, EventKind.FAULT_INJECTED, task=ev.task, **detail)


def _trace_fault_detected(rt: "RisppRuntime", ev: FaultDetected) -> None:
    rt.trace.record(
        ev.cycle,
        EventKind.FAULT_DETECTED,
        container=ev.container,
        atom=ev.atom,
        injected_at=ev.injected_at,
        latency=ev.latency,
    )


def _trace_quarantined(rt: "RisppRuntime", ev: ContainerQuarantined) -> None:
    rt.trace.record(
        ev.cycle,
        EventKind.CONTAINER_QUARANTINED,
        container=ev.container,
        atom=ev.atom,
    )


def _trace_repaired(rt: "RisppRuntime", ev: ContainerRepaired) -> None:
    rt.trace.record(
        ev.cycle,
        EventKind.CONTAINER_REPAIRED,
        task=ev.task,
        container=ev.container,
        atom=ev.atom,
        injected_at=ev.injected_at,
        mttr=ev.mttr,
    )


def _trace_retried(rt: "RisppRuntime", ev: RotationRetried) -> None:
    rt.trace.record(
        ev.cycle,
        EventKind.ROTATION_RETRIED,
        task=ev.task,
        container=ev.container,
        atom=ev.atom,
        attempt=ev.attempt,
        retry_at=ev.retry_at,
    )


def _replan_requested(rt: "RisppRuntime", ev: ReplanRequested) -> None:
    if ev.task is not None:
        rt._replan(ev.cycle, triggering_task=ev.task)
    elif rt._active:
        trigger = sorted({f.task for f in rt._active.values()})[0]
        rt._replan(ev.cycle, triggering_task=trigger)


#: The core wiring: ``(event type, priority, handler)`` in taxonomy
#: order.  Every :class:`EventBus` compiles exactly these; the dispatch
#: order table in ``docs/events.md`` is held to it by ``docs_check`` and
#: the EVT rules check its trace band and taxonomy.
DEFAULT_WIRING: tuple[tuple[type, int, Handler], ...] = (
    (ForecastFired, PRIORITY_TRACE, _trace_forecast),
    (ForecastFired, PRIORITY_METRICS, _metrics_forecast),
    (ForecastFired, PRIORITY_REPLAN, _replan_forecast),
    (ForecastEnded, PRIORITY_TRACE, _trace_forecast_end),
    (ForecastEnded, PRIORITY_STATE, _monitor_forecast_end),
    (ForecastEnded, PRIORITY_METRICS, _metrics_forecast_end),
    (ForecastEnded, PRIORITY_REPLAN, _replan_forecast_end),
    (SIExecuted, PRIORITY_TRACE, _trace_si_executed),
    (SIExecuted, PRIORITY_STATE, _monitor_si_executed),
    (SIExecuted, PRIORITY_METRICS, _metrics_si_executed),
    (SIExecuted, PRIORITY_FAULTS, _faults_si_executed),
    (SIModeSwitched, PRIORITY_TRACE, _trace_mode_switch),
    (SIModeSwitched, PRIORITY_METRICS, _metrics_mode_switch),
    (RotationRequested, PRIORITY_TRACE, _trace_rotation_requested),
    (RotationRequested, PRIORITY_STATE, _stats_rotation_requested),
    (RotationRequested, PRIORITY_METRICS, _metrics_rotation_requested),
    (RotationCompleted, PRIORITY_TRACE, _trace_rotation_completed),
    (RotationCompleted, PRIORITY_FAULTS, _faults_rotation_completed),
    (RotationCompleted, PRIORITY_REPLAN, _replan_rotation_completed),
    (ContainerReallocated, PRIORITY_TRACE, _trace_reallocation),
    (ContainerFailed, PRIORITY_TRACE, _trace_container_failed),
    (ContainerFailed, PRIORITY_FAULTS, _faults_container_failed),
    (ContainerFailed, PRIORITY_REPLAN, _replan_container_failed),
    (FaultInjected, PRIORITY_TRACE, _trace_fault_injected),
    (FaultDetected, PRIORITY_TRACE, _trace_fault_detected),
    (ContainerQuarantined, PRIORITY_TRACE, _trace_quarantined),
    (ContainerRepaired, PRIORITY_TRACE, _trace_repaired),
    (RotationRetried, PRIORITY_TRACE, _trace_retried),
    (ReplanRequested, PRIORITY_REPLAN, _replan_requested),
)

