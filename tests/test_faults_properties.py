"""Hypothesis chaos property: recovery holds under *any* fault schedule.

For arbitrary generated :class:`FaultSchedule`\\ s (explicit event lists,
not just seeded draws) driven through the synthetic SI stream:

* the run always completes, with exactly the fault-free execution count
  (no SI call is ever lost — corrupted hardware degrades to software,
  never to a wrong or missing result);
* the trace replays clean through the reference machine, including the
  quarantine/repair lifecycle rules;
* every observed repair (MTTR) stays within the static repair bound;
* once the campaign settles, no corruption or quarantine episode stays
  open — every detected fault was repaired or retired.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_runtime
from repro.bench.suites import build_synthetic_library, run_si_stream
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    static_repair_bound,
)

CONTAINERS = 5
ROUNDS = 4
FORECASTS = [("SI0", 64.0), ("SI1", 16.0), ("SI2", 4.0), ("SI3", 1.0)]
BLOCKS = [("SI0", 64), ("SI1", 16), ("SI2", 4), ("SI3", 1)]

_LIBRARY = build_synthetic_library()


def _run(injector=None):
    return run_si_stream(
        _LIBRARY,
        FORECASTS,
        BLOCKS,
        containers=CONTAINERS,
        block_rounds=ROUNDS,
        fault_injector=injector,
    )


_BASELINE = _run()
_HORIZON = _BASELINE.trace.last_cycle


fault_events = st.builds(
    FaultEvent,
    cycle=st.integers(min_value=0, max_value=_HORIZON),
    kind=st.sampled_from(list(FaultKind)),
    container=st.integers(min_value=0, max_value=CONTAINERS - 1),
)

schedules = st.lists(fault_events, max_size=12).map(FaultSchedule)


@given(
    schedule=schedules,
    scrub_period=st.sampled_from([1_000, 10_000, 50_000]),
    max_retries=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_chaos_recovery_properties(schedule, scrub_period, max_retries):
    injector = FaultInjector(
        schedule,
        scrub_period=scrub_period,
        max_retries=max_retries,
        backoff_cycles=1_000,
    )
    runtime = _run(injector)
    bound = static_repair_bound(
        _LIBRARY,
        CONTAINERS,
        scrub_period=scrub_period,
        max_retries=max_retries,
        backoff_cycles=1_000,
    )

    # Settle the campaign: drain the port, the scrubber and the retries.
    now = max(runtime.trace.last_cycle, _HORIZON)
    for _ in range(8):
        now += bound + scrub_period
        runtime.advance(now)
        if runtime.port.is_idle() and injector.open_episodes() == 0:
            break
    injector.finalize(now)

    # Completion: every SI call executed, same count as fault-free.
    assert runtime.stats.si_executions == _BASELINE.stats.si_executions

    # Every detected fault was eventually repaired or retired.
    assert injector.open_episodes() == 0
    stats = injector.stats
    assert stats.containers_quarantined == (
        stats.containers_repaired
        + (stats.containers_quarantined - stats.containers_repaired)
    )

    # Observed MTTR within the static bound.
    assert stats.mttr_cycles_max <= bound
    assert stats.mttr_cycles() <= bound

    # The trace replays clean through the reference machine.
    report = verify_runtime(runtime, subject="chaos-fuzz")
    assert report.clean(), report.render_text()


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_generated_schedules_are_reproducible(seed):
    a = FaultSchedule.generate(
        seed=seed, horizon=_HORIZON, containers=CONTAINERS, rate=30.0
    )
    b = FaultSchedule.generate(
        seed=seed, horizon=_HORIZON, containers=CONTAINERS, rate=30.0
    )
    assert list(a) == list(b)
