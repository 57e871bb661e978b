"""Telemetry wired through the runtime: counts match the trace/stats,
and metrics never perturb simulation semantics (trace equivalence)."""

import sys

import pytest

from repro.bench import trace_digest, trace_signature
from repro.bench.suites import build_synthetic_library, run_si_stream
from repro.obs import MetricRegistry
from repro.runtime import RisppRuntime
from repro.sim import EventKind
from tests.pins import pinned_digest

# The proven synthetic stream of the bench/chaos suites: strong enough
# loop-head forecasts that rotations land and executions upgrade to HW.
FORECASTS = [("SI0", 64.0), ("SI1", 16.0), ("SI2", 4.0), ("SI3", 1.0)]
BLOCKS = [("SI0", 64), ("SI1", 16), ("SI2", 4), ("SI3", 1)]


@pytest.fixture(scope="module")
def instrumented():
    registry = MetricRegistry()
    runtime = run_si_stream(
        build_synthetic_library(),
        FORECASTS,
        BLOCKS,
        containers=5,
        block_rounds=6,
        metrics=registry,
    )
    end = runtime.trace.last_cycle + 1
    for si_name, _ in FORECASTS:
        runtime.forecast_end(si_name, end)
    if runtime.port.jobs:  # drain in-flight rotations
        runtime.advance(max(j.finish_at for j in runtime.port.jobs) + 1)
    return registry, runtime


def _events(runtime, kind):
    return sum(1 for e in runtime.trace if e.kind is kind)


class TestCountsMatchTheRun:
    def test_execution_counters_match_stats(self, instrumented):
        registry, runtime = instrumented
        execs = registry.counter("si_executions_total")
        sw = execs.labels(mode="sw").current()
        hw = execs.labels(mode="hw").current()
        assert sw == runtime.stats.sw_executions
        assert hw == runtime.stats.hw_executions
        assert sw + hw == runtime.stats.si_executions
        assert hw > 0  # rotations landed: the stream did upgrade

    def test_execution_cycles_match_stats(self, instrumented):
        registry, runtime = instrumented
        cycles = registry.counter("si_cycles_total")
        total = (
            cycles.labels(mode="sw").current()
            + cycles.labels(mode="hw").current()
        )
        assert total == runtime.stats.si_cycles

    def test_latency_histogram_counts_every_execution(self, instrumented):
        registry, runtime = instrumented
        hist = registry.histogram("si_latency_cycles")
        assert hist.count == _events(runtime, EventKind.SI_EXECUTED)
        assert hist.count == runtime.stats.si_executions
        assert hist.sum == runtime.stats.si_cycles

    def test_replan_counters_match_stats(self, instrumented):
        registry, runtime = instrumented
        replans = registry.counter("replans_total")
        assert (
            replans.labels(outcome="planned").current()
            == runtime.stats.replans
        )
        assert (
            replans.labels(outcome="skipped").current()
            == runtime.stats.replans_skipped
        )
        # Steady-state loop-head forecasts must hit the skip cache.
        assert replans.labels(outcome="skipped").current() > 0

    def test_rotation_counters_match_trace(self, instrumented):
        registry, runtime = instrumented
        rotations = registry.counter("rotations_requested_total")
        requested = (
            rotations.labels(kind="planned").current()
            + rotations.labels(kind="repair").current()
        )
        assert requested == runtime.stats.rotations_requested
        assert requested == _events(runtime, EventKind.ROTATION_REQUESTED)
        # No injector attached: nothing may claim to be a repair.
        assert rotations.labels(kind="repair").current() == 0

    def test_port_histograms_count_completed_rotations(self, instrumented):
        registry, runtime = instrumented
        completed = _events(runtime, EventKind.ROTATION_COMPLETED)
        assert registry.histogram(
            "rotation_latency_cycles"
        ).count == completed
        assert registry.histogram(
            "rotation_queue_delay_cycles"
        ).count == completed
        assert registry.gauge("port_queue_depth").current() == 0

    def test_mode_switches_match_stats(self, instrumented):
        registry, runtime = instrumented
        assert (
            registry.counter("mode_switches_total").current()
            == runtime.stats.mode_switches
        )

    def test_forecast_events_match_trace(self, instrumented):
        registry, runtime = instrumented
        events = registry.counter("forecast_events_total")
        assert events.labels(event="fired").current() == _events(
            runtime, EventKind.FORECAST
        )
        assert events.labels(event="ended").current() == _events(
            runtime, EventKind.FORECAST_END
        )

    def test_forecast_windows_close_once_per_fired_window(self, instrumented):
        registry, runtime = instrumented
        windows = registry.counter("forecast_windows_total")
        closed = (
            windows.labels(outcome="hit").current()
            + windows.labels(outcome="miss").current()
        )
        # A window closes when its forecast re-fires (fine-tuning) or
        # explicitly ends; every fired window was closed by the drain.
        assert closed == _events(runtime, EventKind.FORECAST)
        assert registry.histogram("forecast_error_abs").count == closed

    def test_fabric_gauges_reflect_final_state(self, instrumented):
        registry, runtime = instrumented
        states = registry.gauge("containers_state")
        by_state = {
            key[0]: child.current() for key, child in states.children()
        }
        assert sum(by_state.values()) == len(runtime.fabric)
        assert by_state["failed"] == 0  # fault-free run
        assert by_state["loaded"] > 0  # rotations landed
        utilisation = registry.gauge("fabric_utilisation_ratio").current()
        assert 0.0 <= utilisation <= 1.0
        assert registry.counter("container_churn_total").current() > 0

    def test_no_faults_means_quiet_fault_metrics(self, instrumented):
        registry, _runtime = instrumented
        assert registry.counter("container_failures_total").current() == 0
        injected = registry.counter("faults_injected_total")
        assert all(
            child.current() == 0 for _, child in injected.children()
        )


class TestTraceEquivalence:
    def test_metrics_do_not_perturb_the_trace(self):
        # The synthetic bench scenario, instrumented, still matches the
        # committed digest of the uninstrumented run.
        instrumented_rt = run_si_stream(
            build_synthetic_library(), FORECASTS, BLOCKS,
            containers=5, block_rounds=10, metrics=MetricRegistry(),
        )
        assert trace_digest(instrumented_rt.trace) == pinned_digest(
            "synthetic", quick=True
        )

    def test_disabled_and_enabled_runs_are_trace_identical(self):
        library = build_synthetic_library()
        plain = run_si_stream(
            library, FORECASTS, BLOCKS,
            containers=5, block_rounds=4,
        )
        instrumented_rt = run_si_stream(
            library, FORECASTS, BLOCKS,
            containers=5, block_rounds=4,
            metrics=MetricRegistry(),
        )
        assert trace_signature(plain.trace) == trace_signature(
            instrumented_rt.trace
        )


def _obs_calls(metrics, executions: int = 200) -> int:
    """Python calls into ``repro.obs`` during ``executions`` primed executions."""
    rt = RisppRuntime(build_synthetic_library(), 5, core_mhz=100.0, metrics=metrics)
    for si_name, expected in FORECASTS:
        rt.forecast(si_name, 0, expected=expected)
    now = max((j.finish_at for j in rt.port.jobs), default=0) + 1
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get("__name__", "").startswith(
            "repro.obs"
        ):
            calls += 1

    sys.setprofile(profile)
    try:
        for _ in range(executions):
            now += rt.execute_si("SI0", now)
    finally:
        sys.setprofile(None)
    return calls


class TestTelemetryCost:
    def test_disabled_telemetry_makes_no_obs_calls(self):
        # Disabled telemetry costs one boolean guard per event and never
        # enters repro.obs; the enabled run shows the profile sees it.
        assert _obs_calls(None) == 0
        assert _obs_calls(MetricRegistry()) > 0
