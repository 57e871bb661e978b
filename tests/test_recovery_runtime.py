"""Crash consistency of :class:`RecoverableRuntime`.

The central theorem: for a deterministic driver, killing the process at
*any* command boundary and resuming yields the trace of the
uninterrupted run.  ``crash_after(k)`` simulates the kill by truncating
a full run's store to its first ``k`` journal records (exactly the disk
state a kill between flushing record ``k`` and flushing ``k + 1``
leaves behind — including the record-flushed-but-never-applied case,
since in-memory state dies with the process).
"""

import shutil

import pytest

from repro.bench.harness import trace_signature
from repro.bench.suites import build_synthetic_library
from repro.recovery import (
    JOURNAL_NAME,
    RecoverableRuntime,
    RecoveryError,
    RecoveryPlan,
    SimulatedCrash,
    list_snapshots,
    query,
    read_journal,
)
from repro.runtime import RisppRuntime


@pytest.fixture(scope="module")
def library():
    return build_synthetic_library()


def fresh_runtime(library):
    return RisppRuntime(library, 5, core_mhz=100.0)


def drive(rt):
    """The fixed scenario: forecasts, SI stream, a defect, quiescence.

    Exercises every journaled op, including the state queries a driver
    steers by (which must answer from the journal on a resumed run).
    """
    now = 1_000
    rt.forecast("SI0", now, expected=8.0)
    rt.forecast("SI1", now, expected=2.0)
    for _ in range(3):
        for _ in range(8):
            now += rt.execute_si("SI0", now)
        for _ in range(2):
            now += rt.execute_si("SI1", now)
        rt.forecast("SI0", now, expected=8.0)
    rt.fail_container(1, now + 10)
    rt.forecast_end("SI1", now + 20)
    rt.advance(now + 50_000)
    idle = query(rt, "port_idle")
    episodes = query(rt, "open_episodes")
    return (query(rt, "last_cycle"), idle, episodes)


def run_to_store(library, store, **kwargs):
    rec = RecoverableRuntime(fresh_runtime(library), store, **kwargs)
    end = drive(rec)
    rec.close()
    return rec, end


def crash_after(full_store, crashed_store, k):
    """Reduce a completed run's store to the state a kill at seq k leaves."""
    crashed_store.mkdir()
    lines = (full_store / JOURNAL_NAME).read_text().splitlines(keepends=True)
    (crashed_store / JOURNAL_NAME).write_text("".join(lines[:k]))
    for seq, path in list_snapshots(full_store):
        if seq <= k:
            shutil.copy(path, crashed_store / path.name)


class TestCrashAtEveryBoundary:
    def test_resume_reproduces_the_uninterrupted_trace(self, library, tmp_path):
        reference = fresh_runtime(library)
        ref_end = drive(reference)
        ref_sig = trace_signature(reference.trace)

        full = tmp_path / "full"
        rec, end = run_to_store(library, full, checkpoint_every=5)
        assert end == ref_end
        assert trace_signature(rec.trace) == ref_sig
        total = rec.journal_records
        assert total == 41  # 2 + 3*(10+1) + 3 + 3 queries
        assert rec.snapshots_taken == total // 5

        for k in range(total + 1):
            crashed = tmp_path / f"crash-{k}"
            crash_after(full, crashed, k)
            resumed = RecoverableRuntime(
                fresh_runtime(library), crashed, checkpoint_every=5, resume=True
            )
            assert resumed.resumed
            assert resumed.in_handoff == (k > 0)
            assert resumed.replayed_records == k % 5 if k else True
            assert drive(resumed) == ref_end
            assert not resumed.in_handoff
            assert trace_signature(resumed.trace) == ref_sig
            assert resumed.journal_records == total
            resumed.close()

    def test_double_crash_still_converges(self, library, tmp_path):
        """A resumed run crashing again resumes again, to the same end."""
        reference = fresh_runtime(library)
        drive(reference)
        ref_sig = trace_signature(reference.trace)

        full = tmp_path / "full"
        run_to_store(library, full, checkpoint_every=4)
        first = tmp_path / "first"
        crash_after(full, first, 17)

        # Resume, then "crash" again mid-handoff by abandoning the run.
        resumed = RecoverableRuntime(
            fresh_runtime(library), first, checkpoint_every=4, resume=True
        )
        resumed.close()  # nothing re-issued: disk state unchanged
        again = RecoverableRuntime(
            fresh_runtime(library), first, checkpoint_every=4, resume=True
        )
        drive(again)
        again.close()
        assert trace_signature(again.trace) == ref_sig


class TestTornTail:
    def test_partial_last_record_discarded_and_overwritten(
        self, library, tmp_path
    ):
        reference = fresh_runtime(library)
        drive(reference)
        ref_sig = trace_signature(reference.trace)

        full = tmp_path / "full"
        run_to_store(library, full, checkpoint_every=5)
        crashed = tmp_path / "crashed"
        crash_after(full, crashed, 13)
        with open(crashed / JOURNAL_NAME, "a", encoding="utf-8") as fh:
            fh.write('{"seq":14,"cycle":9')  # torn mid-write

        resumed = RecoverableRuntime(
            fresh_runtime(library), crashed, checkpoint_every=5, resume=True
        )
        drive(resumed)
        resumed.close()
        assert trace_signature(resumed.trace) == ref_sig
        read = read_journal(crashed / JOURNAL_NAME)
        assert not read.discarded_tail
        assert [r.seq for r in read.records][:3] == [1, 2, 3]


class TestProtocol:
    def test_checkpoint_every_must_be_positive(self, library, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_every"):
            RecoverableRuntime(
                fresh_runtime(library), tmp_path, checkpoint_every=0
            )

    def test_divergent_driver_raises(self, library, tmp_path):
        full = tmp_path / "full"
        run_to_store(library, full, checkpoint_every=5)
        resumed = RecoverableRuntime(
            fresh_runtime(library), full, resume=True
        )
        with pytest.raises(RecoveryError, match="diverged"):
            resumed.forecast("SI3", 1_000, expected=99.0)
        resumed.close()

    def test_simulated_crash_fires_before_journaling(self, library, tmp_path):
        store = tmp_path / "store"
        rec = RecoverableRuntime(
            fresh_runtime(library), store, checkpoint_every=5, crash_at=2_000
        )
        rec.forecast("SI0", 1_000, expected=8.0)
        with pytest.raises(SimulatedCrash) as excinfo:
            rec.execute_si("SI0", 2_500)
        rec.close()
        crash = excinfo.value
        assert crash.cycle == 2_500
        assert crash.seq == 2
        assert crash.store == store
        # The triggering command never reached the journal.
        assert len(read_journal(store / JOURNAL_NAME).records) == 1

    def test_unknown_query_rejected(self, library, tmp_path):
        rec = RecoverableRuntime(fresh_runtime(library), tmp_path / "s")
        with pytest.raises(ValueError, match="unknown runtime query"):
            rec.query("free_lunch")
        rec.close()

    def test_query_helper_reads_plain_runtimes_directly(self, library):
        rt = fresh_runtime(library)
        rt.forecast("SI0", 500, expected=4.0)
        assert query(rt, "last_cycle") == rt.trace.last_cycle
        assert query(rt, "open_episodes") == 0

    def test_fresh_run_clears_a_stale_store(self, library, tmp_path):
        store = tmp_path / "store"
        run_to_store(library, store, checkpoint_every=5)
        assert list_snapshots(store)
        rec = RecoverableRuntime(
            fresh_runtime(library), store, checkpoint_every=5
        )
        assert rec.journal_records == 0
        assert list_snapshots(store) == []
        rec.close()

    def test_plan_wrap_builds_the_wrapper(self, library, tmp_path):
        plan = RecoveryPlan(
            store=tmp_path / "s", checkpoint_every=7, crash_at=None
        )
        rec = plan.wrap(fresh_runtime(library))
        assert isinstance(rec, RecoverableRuntime)
        assert rec.store == tmp_path / "s"
        # Reads delegate to the wrapped runtime untouched.
        assert rec.trace is rec.runtime.trace
        assert len(rec.fabric) == 5
        rec.close()
