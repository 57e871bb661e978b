"""Property-based crash consistency: resume equals the uninterrupted run.

Hypothesis picks the kill point (any journal boundary), the checkpoint
cadence and a small scenario shape; the property is the tentpole
guarantee ``trace(resume(snapshot, journal)) == trace(uninterrupted)``.
"""

import shutil

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import trace_signature
from repro.bench.suites import build_synthetic_library
from repro.recovery import (
    JOURNAL_NAME,
    RecoverableRuntime,
    list_snapshots,
    query,
)
from repro.runtime import RisppRuntime

LIBRARY = build_synthetic_library()


def fresh_runtime():
    return RisppRuntime(LIBRARY, 5, core_mhz=100.0)


def drive(rt, rounds, si0_calls):
    now = 1_000
    rt.forecast("SI0", now, expected=float(si0_calls))
    rt.forecast("SI1", now, expected=2.0)
    for _ in range(rounds):
        for _ in range(si0_calls):
            now += rt.execute_si("SI0", now)
        for _ in range(2):
            now += rt.execute_si("SI1", now)
        rt.forecast("SI0", now, expected=float(si0_calls))
    rt.advance(now + 40_000)
    return query(rt, "last_cycle")


@given(
    data=st.data(),
    rounds=st.integers(min_value=1, max_value=3),
    si0_calls=st.integers(min_value=1, max_value=6),
    checkpoint_every=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=25, deadline=None)
def test_crash_at_any_boundary_resumes_to_the_reference(
    tmp_path_factory, data, rounds, si0_calls, checkpoint_every
):
    reference = fresh_runtime()
    ref_end = drive(reference, rounds, si0_calls)
    ref_sig = trace_signature(reference.trace)

    base = tmp_path_factory.mktemp("recovery")
    full = base / "full"
    rec = RecoverableRuntime(
        fresh_runtime(), full, checkpoint_every=checkpoint_every
    )
    assert drive(rec, rounds, si0_calls) == ref_end
    rec.close()
    total = rec.journal_records
    assert trace_signature(rec.trace) == ref_sig

    # The kill point: any boundary, including before the first command
    # (empty journal) and after the last (nothing left to redo).
    k = data.draw(st.integers(min_value=0, max_value=total), label="crash_seq")
    crashed = base / "crashed"
    lines = (full / JOURNAL_NAME).read_text().splitlines(keepends=True)
    crashed.mkdir()
    (crashed / JOURNAL_NAME).write_text("".join(lines[:k]))
    for seq, path in list_snapshots(full):
        if seq <= k:
            shutil.copy(path, crashed / path.name)

    resumed = RecoverableRuntime(
        fresh_runtime(), crashed, checkpoint_every=checkpoint_every, resume=True
    )
    assert drive(resumed, rounds, si0_calls) == ref_end
    resumed.close()
    assert trace_signature(resumed.trace) == ref_sig
    assert resumed.journal_records == total
