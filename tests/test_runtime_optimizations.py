"""Regressions for the run-time bugfixes and the hot-path caches.

Covers the three fixed bugs:

* ``_replan`` clamped every monitor-tuned weight up to 1.0, so an SI the
  monitor had learned was cold kept hogging Atom Containers;
* ``ReconfigurationPort`` kept a phantom ``busy_until`` reservation for
  unstarted jobs whose target container had failed, delaying every later
  rotation behind a bitstream write that would never happen;
* ``Trace.record`` accepted negative/out-of-order cycles (see
  ``test_trace_contract``).

And the optimization layer: the fabric generation counter, the
``best_available`` memo, the replan skip cache and the ``advance`` fast
path must all be *observably invisible*.  The runtime's trace matches
the committed pin, and every replan the skip cache elides is checked
against a clone that replans for real.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_runtime
from repro.apps.h264 import build_h264_library
from repro.bench import trace_digest
from repro.bench.suites import run_suite
from repro.core import select_greedy
from repro.hardware import Fabric, ReconfigurationPort
from repro.runtime import RisppRuntime
from tests import pins


@pytest.fixture()
def library():
    return build_h264_library()


class TestWeightClampFix:
    def test_tuned_weight_below_one_reaches_selection(self, library):
        """The monitor's fine-tuned weight is used as-is, not clamped to 1."""
        seen = {}

        def spy(lib, requests, budget, *, loaded=None):
            for r in requests:
                seen[r.si.name] = r.expected_executions
            return select_greedy(lib, requests, budget, loaded=loaded)

        rt = RisppRuntime(library, 6, core_mhz=100.0, selection=spy)
        rt.forecast("DCT_4x4", 0, expected=0.25)
        assert seen["DCT_4x4"] == pytest.approx(0.25)

    def test_cold_si_loses_containers_to_hot_one(self, library, mini_library):
        """An SI the monitor learned is never executed frees its containers.

        HT fires with a large compile-time expectation but never executes;
        the smoothed estimate decays toward zero across re-firings.  Once
        its weight falls below SATD's, selection must stop granting HT the
        containers — with the old ``max(weight, 1.0)`` clamp the decayed
        estimate was invisible and HT kept its Atoms forever.
        """
        rt = RisppRuntime(mini_library, 3, core_mhz=100.0)
        now = 0
        rt.forecast("SATD", now, expected=4.0)
        rt.forecast("HT", now, expected=400.0)
        # HT wins the three containers at first: its weight dwarfs SATD's.
        now = max(j.finish_at for j in rt.port.jobs) + 1
        rt.advance(now)
        assert rt.si_mode("HT", now) != "SW"

        # Re-fire HT's forecast repeatedly with zero executions in between:
        # smoothing 0.5 halves the estimate each window (400 -> ... -> <2).
        for _ in range(9):
            now += 10_000
            rt.forecast("HT", now, expected=400.0)
            now += 10_000
            rt.execute_si("SATD", now)
        now = max(j.finish_at for j in rt.port.jobs) + 1
        rt.advance(now)

        # The decayed weight must have cost HT its exclusive Atom: SATD
        # now runs in hardware (its molecule needs the SATD atom kind,
        # which only fits if HT's selection shrank).
        assert rt.si_mode("SATD", now) != "SW"

    def test_zero_weight_forecast_selects_nothing(self, mini_library):
        """Weight 0 means zero benefit — no containers, software fallback."""
        rt = RisppRuntime(mini_library, 3, core_mhz=100.0)
        rt.forecast("HT", 0, expected=0.0)
        assert rt.port.total_rotations() == 0
        assert rt.execute_si("HT", 10) == 298  # software cycles


class TestPortPhantomReservationFix:
    def _three_queued(self, catalogue):
        fabric = Fabric(catalogue, 4)
        port = ReconfigurationPort(catalogue, core_mhz=100.0)
        j0 = port.request(fabric, "Pack", 0, now=0)
        j1 = port.request(fabric, "Transform", 1, now=0)
        j2 = port.request(fabric, "SATD", 2, now=0)
        assert (j0.started_at, j1.started_at) == (0, j0.finish_at)
        return fabric, port, j0, j1, j2

    def test_unstarted_jobs_pull_forward_after_failure(self, mini_catalogue):
        fabric, port, j0, j1, j2 = self._three_queued(mini_catalogue)
        port.advance(fabric, 10)  # j0 in flight, j1/j2 queued
        phantom_finish = j2.finish_at

        fabric.fail_container(1)  # j1's write will never happen
        port.advance(fabric, 10)

        assert not port.is_reserved(1)
        assert j2.started_at == j0.finish_at  # pulled into j1's old slot
        assert j2.finish_at < phantom_finish
        assert port.busy_until == j2.finish_at

    def test_next_rotation_starts_earlier_than_with_phantom(
        self, mini_catalogue
    ):
        fabric, port, j0, j1, j2 = self._three_queued(mini_catalogue)
        port.advance(fabric, 10)
        phantom_busy = port.busy_until

        fabric.fail_container(1)
        port.advance(fabric, 10)

        j3 = port.request(fabric, "Pack", 3, now=10)
        assert j3.started_at == j2.finish_at
        assert j3.started_at < phantom_busy

    def test_in_flight_job_keeps_its_schedule(self, mini_catalogue):
        fabric, port, j0, j1, j2 = self._three_queued(mini_catalogue)
        port.advance(fabric, 10)  # j0 started
        fabric.fail_container(2)  # kill the *last* queued job's target
        port.advance(fabric, 10)
        assert (j0.started_at, j0.finish_at) == (0, j0.finish_at)
        assert j1.started_at == j0.finish_at  # unchanged: no gap before it
        assert port.busy_until == j1.finish_at

    def test_runtime_fault_injection_shrinks_port_backlog(self, library):
        """End to end: failing a queued container frees the serial port."""
        rt = RisppRuntime(library, 6, core_mhz=100.0)
        rt.forecast("SATD_4x4", 0, expected=256.0)
        queued = [j for j in rt.port.pending_jobs() if not j.started]
        assert len(queued) >= 2, "scenario needs a rotation backlog"
        phantom_busy = rt.port.busy_until

        victim = queued[0].container_id
        rt.fail_container(victim, 1)

        assert rt.port.busy_until < phantom_busy
        survivors = [
            j for j in rt.port.pending_jobs() if j.container_id != victim
        ]
        assert all(j.finish_at <= phantom_busy for j in survivors)


class TestFabricGenerationCache:
    def test_generation_tracks_availability_changes(self, mini_catalogue):
        fabric = Fabric(mini_catalogue, 2)
        port = ReconfigurationPort(mini_catalogue, core_mhz=100.0)
        g0 = fabric.generation
        job = port.request(fabric, "Pack", 0, now=0)
        port.advance(fabric, 0)  # start: eviction + begin_rotation
        g1 = fabric.generation
        assert g1 > g0
        port.advance(fabric, job.finish_at)  # completion
        g2 = fabric.generation
        assert g2 > g1
        fabric.fail_container(1)
        assert fabric.generation > g2

    def test_touch_does_not_invalidate(self, mini_catalogue, mini_library):
        fabric = Fabric(mini_catalogue, 2)
        port = ReconfigurationPort(mini_catalogue, core_mhz=100.0)
        job = port.request(fabric, "Pack", 0, now=0)
        port.advance(fabric, job.finish_at)
        gen = fabric.generation
        before = fabric.available_atoms()
        fabric.touch_atoms(before, now=job.finish_at + 5)
        assert fabric.generation == gen
        # Same generation -> the memoized molecule is returned as-is.
        assert fabric.available_atoms() is before



class TestOptimizedRuntimeEquivalence:
    def test_h264_stream_traces_identical(self, library):
        rt = run_suite("h264", quick=True, library=library).runtime
        # Identical to the pin recorded while the uncached runtime
        # still produced the same trace.
        assert trace_digest(rt.trace) == pins.pinned_digest("h264", quick=True)
        # The caches actually engaged: redundant replans were skipped.
        assert rt.stats.replans_skipped > 0
        assert verify_runtime(rt, subject="h264:quick").ok()

    def test_plan_cache_invalidated_by_failure(self, mini_library):
        """A container failure must force a real replan, not a skip."""
        rt = RisppRuntime(mini_library, 3, core_mhz=100.0)
        rt.forecast("HT", 0, expected=10.0)
        now = max(j.finish_at for j in rt.port.jobs) + 1
        rt.advance(now)
        # Prime the skip cache: an identical no-op replan round.
        rt.forecast("HT", now, expected=10.0)
        replans = rt.stats.replans
        rt.fail_container(0, now + 1)
        assert rt.stats.replans > replans  # not skipped

    def test_advance_fast_path_when_port_idle(self, mini_library):
        rt = RisppRuntime(mini_library, 3, core_mhz=100.0)
        rt.forecast("HT", 0, expected=10.0)
        done = max(j.finish_at for j in rt.port.jobs)
        rt.advance(done)
        assert rt.port.is_idle()
        events = len(rt.trace)
        rt.advance(done + 1_000_000)  # fast path: nothing can change
        assert len(rt.trace) == events
        assert rt.si_mode("HT", done + 1_000_000) != "SW"


def _check_skipped_replans(rt: RisppRuntime) -> list[int]:
    """Wrap ``rt._replan``; every skipped replan is re-run on a clone.

    The clone is taken just before the replan and has its plan key
    cleared, so it replans for real.  It must record no trace event,
    issue no rotation job and leave nothing unplaced.  Returns the list
    of cycles at which a replan was skipped.
    """
    replan = rt._replan
    skipped_at: list[int] = []

    def checked(now: int, *, triggering_task: str) -> None:
        clone = copy.deepcopy(rt)
        del vars(clone)["_replan"]
        skipped = rt.stats.replans_skipped
        replan(now, triggering_task=triggering_task)
        if rt.stats.replans_skipped == skipped:
            return
        clone._plan_key = None
        events, jobs = len(clone.trace), len(clone.port.jobs)
        clone._replan(now, triggering_task=triggering_task)
        assert clone.stats.replans_skipped == skipped
        assert len(clone.trace) == events
        assert len(clone.port.jobs) == jobs
        assert clone._unplaced_for is None
        skipped_at.append(now)

    rt._replan = checked
    return skipped_at


class TestReplanSkipCache:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_every_skipped_replan_is_a_no_op(self, seed):
        pins.replay(pins.seeded_actions(seed), prepare=_check_skipped_replans)

    def test_pinned_interleavings_exercise_the_skip(self):
        skipped: list[list[int]] = []
        for seed in pins.INTERLEAVING_SEEDS:
            pins.replay(
                pins.seeded_actions(seed),
                prepare=lambda rt: skipped.append(_check_skipped_replans(rt)),
            )
        assert sum(map(len, skipped)) > 0
