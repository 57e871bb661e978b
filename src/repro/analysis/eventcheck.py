"""Event-bus wiring checker (rules EVT002..EVT003).

The runtime core publishes typed events through
:mod:`repro.runtime.events`, whose bus compiles
:data:`~repro.runtime.events.DEFAULT_WIRING` once into a fixed dispatch
table.  Two structural facts about that table are machine-checked here
against an :class:`~repro.analysis.registry.EventBusArtifact`:

* **EVT002** — for every traced event, the trace recorder runs first
  (:data:`~repro.runtime.events.PRIORITY_TRACE`, strictly below every
  other priority band), so state-mutating handlers cannot perturb what
  lands in the trace row.
* **EVT003** — the event taxonomy covers the trace vocabulary: each
  event's ``TRACE_KIND`` is unique, and every
  :class:`~repro.sim.trace.EventKind` is either produced by exactly one
  bus event or declared bus-external in
  :data:`~repro.runtime.events.NON_BUS_KINDS`.

The order of the whole table is held to ``docs/events.md`` by
:mod:`repro.analysis.docs_check`.
"""

from __future__ import annotations

from collections.abc import Iterator

from .diagnostics import Diagnostic
from .registry import EventBusArtifact, LintContext, checker
from .rules import diag


@checker("event-wiring", "events", EventBusArtifact)
def check_event_bus(
    artifact: EventBusArtifact, ctx: LintContext
) -> Iterator[Diagnostic]:
    from ..runtime.events import EVENT_TYPES, NON_BUS_KINDS, PRIORITY_TRACE
    from ..sim.trace import EventKind

    wiring = artifact.wiring
    assert wiring is not None  # __post_init__ fills in DEFAULT_WIRING
    subject = artifact.subject or ctx.subject or "events:wiring"

    # EVT002: trace handlers go first, and only they sit in the trace band.
    for event_type in EVENT_TYPES:
        rows = sorted(
            ((priority, handler.__name__) for t, priority, handler in wiring
             if t is event_type),
            key=lambda row: row[0],
        )
        name = event_type.__name__
        if event_type.TRACE_KIND is not None:
            if not rows:
                yield diag(
                    "EVT002",
                    f"traced event {name} has no wired handlers; "
                    "its trace rows would silently vanish",
                    subject=subject,
                    location=name,
                )
                continue
            priority, first = rows[0]
            if priority != PRIORITY_TRACE:
                yield diag(
                    "EVT002",
                    f"first handler of traced event {name} is "
                    f"{first} at priority {priority}, not a "
                    f"trace recorder at {PRIORITY_TRACE}",
                    subject=subject,
                    location=name,
                    handler=first,
                    priority=priority,
                )
        for priority, handler_name in rows:
            if priority == PRIORITY_TRACE and not handler_name.startswith(
                "_trace"
            ):
                yield diag(
                    "EVT002",
                    f"handler {handler_name} of {name} occupies the trace "
                    "priority band but is not a trace recorder",
                    subject=subject,
                    location=name,
                    handler=handler_name,
                )

    # EVT003: TRACE_KIND is injective and, with NON_BUS_KINDS, covers
    # the whole trace vocabulary.
    kind_sources: dict[EventKind, list[str]] = {}
    for event_type in EVENT_TYPES:
        kind = event_type.TRACE_KIND
        if kind is not None:
            kind_sources.setdefault(kind, []).append(event_type.__name__)
    for kind, sources in sorted(kind_sources.items(), key=lambda kv: kv[0].value):
        if len(sources) > 1:
            yield diag(
                "EVT003",
                f"trace kind {kind.value} is claimed by multiple events: "
                f"{', '.join(sources)}",
                subject=subject,
                location=kind.value,
                events=sources,
            )
    uncovered = sorted(
        k.value for k in EventKind if k not in kind_sources and k not in NON_BUS_KINDS
    )
    if uncovered:
        yield diag(
            "EVT003",
            "trace kinds neither produced by a bus event nor declared "
            f"bus-external: {', '.join(uncovered)}",
            subject=subject,
            kinds=uncovered,
        )
    stale = sorted(
        k.value for k in NON_BUS_KINDS if k in kind_sources
    )
    if stale:
        yield diag(
            "EVT003",
            "trace kinds declared bus-external but produced by a bus "
            f"event: {', '.join(stale)}",
            subject=subject,
            kinds=stale,
        )
