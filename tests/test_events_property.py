"""The event bus, held to pinned traces and to its compiled wiring.

The runtime once carried a hand-written direct-call dispatcher beside
the bus, and a property kept the two in step.  The trace and statistics
digests of the seeded interleavings in ``tests/golden/digests.json``
were recorded while both dispatchers still existed, and the
direct-call dispatcher reproduced every one of them on both compute
backends.  The bus is now held to those recordings.

Alongside live the :class:`EventBus` contract tests (dispatch order,
taxonomy enforcement, the compiled table) and the ``EVT*`` lint rules.
"""

import pytest

import repro.runtime.events as events_mod
from repro.analysis import lint_events
from repro.analysis.docs_check import _check_events_coverage
from repro.core.backend import available_backends
from repro.runtime.events import (
    DEFAULT_WIRING,
    EVENT_TYPES,
    EventBus,
    ForecastFired,
    ReplanRequested,
)
from tests import pins

BACKENDS = [None] + (["numpy"] if "numpy" in available_backends() else [])
INTERLEAVINGS = pins.load_digests()["interleavings"]


class TestBusMatchesDirectDispatch:
    """Seeded interleavings reproduce the direct-dispatch recordings."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trace_equivalence(self, backend):
        for pin in INTERLEAVINGS:
            got = pins.interleaving_pin(pin["seed"], backend)
            assert got["trace"] == pin["trace"], pin["seed"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_equivalence(self, backend):
        for pin in INTERLEAVINGS:
            got = pins.interleaving_pin(pin["seed"], backend)
            assert got["stats"] == pin["stats"], pin["seed"]

    def test_every_pinned_seed_is_checked(self):
        assert [p["seed"] for p in INTERLEAVINGS] == list(pins.INTERLEAVING_SEEDS)


class TestEventBusContract:
    def test_dispatch_order_is_priority_then_seq(self, monkeypatch):
        calls = []

        def handler(tag):
            return lambda rt, ev: calls.append(tag)

        monkeypatch.setattr(events_mod, "DEFAULT_WIRING", (
            (ReplanRequested, 50, handler("late")),
            (ReplanRequested, 10, handler("first")),
            (ReplanRequested, 10, handler("second")),
        ))
        EventBus().publish(None, ReplanRequested(0, task=None, reason="test"))
        assert calls == ["first", "second", "late"]

    def test_unknown_event_type_is_rejected(self, monkeypatch):
        class NotAnEvent:
            pass

        monkeypatch.setattr(
            events_mod, "DEFAULT_WIRING", ((NotAnEvent, 10, lambda rt, ev: None),)
        )
        with pytest.raises(ValueError, match="unknown event type"):
            EventBus()

    def test_default_bus_matches_documented_wiring(self):
        # DEFAULT_WIRING lists each event's handlers in priority order.
        expected: dict[type, list] = {}
        for event_type, _, handler in DEFAULT_WIRING:
            expected.setdefault(event_type, []).append(handler)
        table = EventBus()._table
        assert table == {t: tuple(hs) for t, hs in expected.items()}
        assert set(table) <= set(EVENT_TYPES)
        assert table[ForecastFired][0] is events_mod._trace_forecast


class TestEventLint:
    def test_default_bus_is_clean(self):
        assert lint_events().ok()

    def test_missing_trace_handler_raises_evt002(self):
        wiring = tuple(
            row for row in DEFAULT_WIRING
            if row[2] is not events_mod._trace_forecast
        )
        assert "EVT002" in set(lint_events(wiring).rule_ids())

    def test_extra_subscriber_is_a_wiring_divergence(self, monkeypatch):
        # docs/events.md's dispatch-order table is the spec the wiring
        # is held to; a handler the table does not list diverges from it.
        def _replan_rogue(rt, ev):
            pass

        monkeypatch.setattr(
            events_mod, "DEFAULT_WIRING",
            DEFAULT_WIRING + ((ForecastFired, 60, _replan_rogue),),
        )
        findings = [f.message for f in _check_events_coverage(pins.REPO_ROOT)]
        assert any("ForecastFired" in m and "order" in m for m in findings)

    def test_stale_non_bus_kind_raises_evt003(self, monkeypatch):
        monkeypatch.setattr(events_mod, "NON_BUS_KINDS", frozenset())
        assert "EVT003" in set(lint_events().rule_ids())
