"""The trace time-ordering contract and lazy detail construction.

The trace is the ground truth every bench and figure reads, so its
invariants are enforced at append time: cycles are non-negative and
non-decreasing.  The second half fuzzes the run-time manager with
arbitrary interleavings of ``forecast`` / ``execute_si`` /
``fail_container`` and asserts the recorded trace always honours the
contract — and that it replays clean through rispp-verify's reference
machine, which recomputes resident atoms and the best available
molecule without the runtime's caches (TRC005, TRC013).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_runtime
from repro.runtime import RisppRuntime
from repro.sim import Event, EventKind, Trace
from tests.test_analysis_verify_fuzz import _OPS, _fuzz_library


class TestTraceContract:
    def test_negative_cycle_rejected(self):
        trace = Trace()
        with pytest.raises(ValueError, match="negative"):
            trace.record(-1, EventKind.FORECAST)
        # The failed append must not corrupt the log.
        assert len(trace) == 0
        assert trace.last_cycle == 0

    def test_negative_cycle_rejected_even_as_first_event(self):
        # Regression: the old guard only fired when the trace already had
        # events, so a leading negative timestamp slipped through.
        trace = Trace()
        with pytest.raises(ValueError):
            trace.record(-7, EventKind.SI_EXECUTED, si="HT")

    def test_out_of_order_append_rejected(self):
        trace = Trace()
        trace.record(100, EventKind.FORECAST, si="HT")
        with pytest.raises(ValueError, match="out-of-order"):
            trace.record(99, EventKind.SI_EXECUTED, si="HT")
        assert len(trace) == 1
        assert trace.last_cycle == 100

    def test_equal_cycles_allowed(self):
        trace = Trace()
        trace.record(10, EventKind.FORECAST, si="HT")
        trace.record(10, EventKind.ROTATION_REQUESTED)
        trace.record(10, EventKind.SI_EXECUTED, si="HT")
        assert [e.cycle for e in trace] == [10, 10, 10]

    def test_record_lazy_defers_and_caches(self):
        trace = Trace()
        calls = []

        def factory():
            calls.append(1)
            return {"mode": "HW", "cycles": 12}

        event = trace.record_lazy(5, EventKind.SI_EXECUTED, factory, si="HT")
        assert calls == []  # nothing resolved yet
        assert event.detail == {"mode": "HW", "cycles": 12}
        assert event.detail is event.detail  # cached, not rebuilt
        assert calls == [1]

    def test_lazy_event_equals_eager_event(self):
        eager = Event(5, EventKind.SI_EXECUTED, "t", "HT", {"cycles": 12})
        lazy = Event(5, EventKind.SI_EXECUTED, "t", "HT", lambda: {"cycles": 12})
        assert lazy == eager
        assert eager == lazy

    def test_lazy_contract_still_enforced(self):
        trace = Trace()
        trace.record(50, EventKind.FORECAST)
        with pytest.raises(ValueError, match="out-of-order"):
            trace.record_lazy(49, EventKind.SI_EXECUTED, dict)

    def test_queries_without_detail_filter_never_materialize(self):
        # Regression: accessor scans must stay on the slot attributes so
        # PR 2's lazy-detail win survives analysis workloads — a kind- or
        # si-keyed query has no business resolving detail factories.
        trace = Trace()
        constructions = []

        def factory(i):
            def build():
                constructions.append(i)
                return {"mode": "HW", "cycles": 12, "container": i % 3}

            return build

        for i in range(20):
            trace.record_lazy(
                i, EventKind.SI_EXECUTED, factory(i), task="t", si="HT"
            )
            trace.record_lazy(
                i, EventKind.ROTATION_REQUESTED, factory(100 + i), task="t"
            )
        assert len(trace.of_kind(EventKind.SI_EXECUTED)) == 20
        assert len(trace.for_task("t")) == 40
        assert len(trace.for_si("HT")) == 20
        found = trace.first(EventKind.ROTATION_REQUESTED)
        assert found is not None and found.cycle == 0
        assert trace.first(EventKind.CONTAINER_FAILED) is None
        assert constructions == []  # nothing materialized
        # A detail filter materializes only same-kind events up to the
        # first match — never the other kind's details.
        match = trace.first(EventKind.ROTATION_REQUESTED, container=2)
        assert match is not None and match.cycle == 1  # 101 % 3 == 2
        assert constructions == [100, 101]

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=30))
    def test_monotone_sequences_always_accepted(self, deltas):
        trace = Trace()
        now = 0
        for delta in deltas:
            now += delta
            trace.record(now, EventKind.TASK_STEP, task="fuzz")
        assert [e.cycle for e in trace] == sorted(e.cycle for e in trace)
        assert trace.last_cycle == now


class TestRuntimeInterleavings:
    """Any interleaving yields a monotone, non-negative, verified trace."""

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_interleavings_keep_trace_monotone_and_caches_sound(self, ops):
        rt = RisppRuntime(_fuzz_library(), 3, core_mhz=100.0)
        now = 0
        for op, si, delta, scale in ops:
            now += delta
            if op == "forecast":
                rt.forecast(si, now, expected=float(scale * 50))
            elif op == "execute":
                rt.execute_si(si, now)
            elif op == "advance":
                rt.advance(now)
            else:  # fail one of the three containers (idempotent)
                rt.fail_container(scale, now)

        cycles = [e.cycle for e in rt.trace]
        assert all(c >= 0 for c in cycles)
        assert cycles == sorted(cycles)
        # The runtime stays functional whatever happened to the fabric.
        assert rt.execute_si("HT", now + 1) > 0
        # The hot-path caches must never change the event semantics: the
        # reference machine re-derives every execution's molecule.
        report = verify_runtime(rt, subject="fuzz:caches")
        assert report.clean(), report.render_text()
