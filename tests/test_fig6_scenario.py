"""Integration test: the complete Fig. 6 run-time scenario.

Asserts the paper's six T-point properties on the executed event trace
of the ``fig6`` paper artifact (its rendered timeline is pinned in
``tests/golden/paper/fig6.txt``).
"""

import pytest

from repro.apps.h264.scenario import build_scenario_library
from repro.reporting.paper import built
from repro.sim import EventKind


@pytest.fixture(scope="module")
def scenario():
    return built("fig6").data["result"]


class TestScenarioLibrary:
    def test_contains_both_task_si_sets(self):
        lib = build_scenario_library()
        assert {"SATD_4x4", "SI0", "SI1"} <= set(lib.names())

    def test_si1_reuses_h264_atoms(self):
        # "SI1 ... reusing ACs 1 and 2": its molecule shares Pack and
        # Transform with the H.264 SIs.
        lib = build_scenario_library()
        m = lib.get("SI1").minimal_molecule().molecule
        assert m.count("Pack") == 1 and m.count("Transform") == 1


class TestT0SteadyState:
    def test_both_tasks_in_hardware(self, scenario):
        tr = scenario.runtime.trace
        t0 = scenario.label("A", "T0")
        a_execs = [
            e
            for e in tr.of_kind(EventKind.SI_EXECUTED)
            if e.task == "A" and t0 <= e.cycle < scenario.label("B", "T1")
        ]
        assert a_execs
        assert all(e.detail["mode"] != "SW" for e in a_execs)
        b_execs = [
            e
            for e in tr.of_kind(EventKind.SI_EXECUTED)
            if e.task == "B" and e.si == "SI0" and e.cycle < scenario.label("B", "T1")
        ]
        assert b_execs
        assert all(e.detail["mode"] == "C1 F1" for e in b_execs)

    def test_satd_uses_smallest_molecule(self, scenario):
        # "The ACs 0 to 3 comprise the Atoms that are needed to implement
        # the smallest Molecule implementing SATD_4x4."
        tr = scenario.runtime.trace
        t0 = scenario.label("A", "T0")
        first = next(
            e
            for e in tr.of_kind(EventKind.SI_EXECUTED)
            if e.task == "A" and e.cycle >= t0
        )
        assert first.detail["cycles"] == 24  # minimal SATD_4x4 molecule
        # ... and it stays there until T1.
        t1 = scenario.label("B", "T1")
        steady = [
            e
            for e in tr.of_kind(EventKind.SI_EXECUTED)
            if e.task == "A" and t0 <= e.cycle < t1
        ]
        assert all(e.detail["cycles"] == 24 for e in steady)


class TestT1Reallocation:
    def test_forecast_triggers_reallocation_and_rotation(self, scenario):
        tr = scenario.runtime.trace
        t1 = scenario.label("B", "T1")
        forecast = tr.first(EventKind.FORECAST, si="SI1") or next(
            e for e in tr.of_kind(EventKind.FORECAST) if e.si == "SI1"
        )
        assert forecast.cycle == t1
        realloc = [
            e
            for e in tr.of_kind(EventKind.REALLOCATION)
            if e.cycle == t1 and e.detail["from_task"] == "A"
        ]
        assert len(realloc) == 1
        rotations = [
            e for e in tr.of_kind(EventKind.ROTATION_REQUESTED) if e.cycle == t1
        ]
        assert rotations and rotations[0].task == "B"

    def test_task_a_falls_back_to_software(self, scenario):
        tr = scenario.runtime.trace
        t1 = scenario.label("B", "T1")
        t2 = scenario.label("B", "T2")
        a_after = [
            e
            for e in tr.of_kind(EventKind.SI_EXECUTED)
            if e.task == "A" and t1 < e.cycle < t2
        ]
        assert a_after
        assert any(e.detail["mode"] == "SW" for e in a_after)

    def test_si1_upgrades_sw_to_hw(self, scenario):
        tr = scenario.runtime.trace
        switch = next(
            e for e in tr.of_kind(EventKind.SI_MODE_SWITCH) if e.si == "SI1"
        )
        assert switch.detail["from_mode"] == "SW"
        assert switch.detail["cycles"] == 20
        modes = [
            e.detail["mode"]
            for e in tr.of_kind(EventKind.SI_EXECUTED)
            if e.si == "SI1"
        ]
        assert modes[0] == "SW" and modes[-1] == "P1 T1 I1"


class TestT2Release:
    def test_containers_reallocated_back_to_a(self, scenario):
        tr = scenario.runtime.trace
        t2 = scenario.label("B", "T2")
        realloc = [
            e
            for e in tr.of_kind(EventKind.REALLOCATION)
            if e.cycle == t2 and e.detail["from_task"] == "B"
            and e.detail["to_task"] == "A"
        ]
        # Fig. 6: "a reallocation of ACs 3 to 5 of Task A".
        assert len(realloc) == 3

    def test_rotations_towards_satd_initiated(self, scenario):
        tr = scenario.runtime.trace
        t2 = scenario.label("B", "T2")
        atoms = [
            e.detail["detail_atom"]
            for e in tr.of_kind(EventKind.ROTATION_REQUESTED)
            if e.cycle == t2
        ]
        assert "SATD" in atoms  # the molecule-enabling atom comes first


class TestT3CrossTaskSharing:
    def test_si0_executes_in_hw_on_a_owned_containers(self, scenario):
        tr = scenario.runtime.trace
        t3 = scenario.label("B", "T3")
        si0 = [
            e
            for e in tr.of_kind(EventKind.SI_EXECUTED)
            if e.si == "SI0" and e.cycle >= t3
        ]
        assert si0
        assert all(e.detail["mode"] == "C1 F1" for e in si0)
        # ... on containers that have already been reassigned to task A.
        t2 = scenario.label("B", "T2")
        reassigned = {
            e.detail["container"]
            for e in tr.of_kind(EventKind.REALLOCATION)
            if e.cycle == t2 and e.detail["to_task"] == "A"
        }
        assert reassigned  # the sharing claim is about these containers


class TestT4T5Upgrades:
    def test_immediate_sw_to_hw_switch(self, scenario):
        tr = scenario.runtime.trace
        t2 = scenario.label("B", "T2")
        switches = [
            e
            for e in tr.of_kind(EventKind.SI_MODE_SWITCH)
            if e.task == "A" and e.si == "SATD_4x4" and e.cycle > t2
        ]
        assert len(switches) >= 3
        assert switches[0].detail["from_mode"] == "SW"
        assert switches[0].detail["cycles"] == 24

    def test_gradual_upgrade_to_faster_molecules(self, scenario):
        tr = scenario.runtime.trace
        t2 = scenario.label("B", "T2")
        cycle_series = [
            e.detail["cycles"]
            for e in tr.of_kind(EventKind.SI_MODE_SWITCH)
            if e.task == "A" and e.si == "SATD_4x4" and e.cycle > t2
        ]
        # SW -> 24 -> 20 -> 18: strictly improving molecule ladder.
        assert cycle_series == [24, 20, 18]

    def test_each_upgrade_follows_a_rotation_completion(self, scenario):
        tr = scenario.runtime.trace
        t2 = scenario.label("B", "T2")
        completions = sorted(
            e.cycle
            for e in tr.of_kind(EventKind.ROTATION_COMPLETED)
            if e.cycle > t2
        )
        switches = [
            e.cycle
            for e in tr.of_kind(EventKind.SI_MODE_SWITCH)
            if e.task == "A" and e.si == "SATD_4x4" and e.cycle > t2
        ]
        for s in switches:
            assert any(c <= s for c in completions)


class TestNoFixedSchedule:
    def test_rotations_driven_by_forecasts_not_period(self, scenario):
        # "our run-time architecture does not follow a fixed rotation
        # schedule": rotation requests coincide with forecast activity,
        # not with a fixed period.
        tr = scenario.runtime.trace
        request_cycles = sorted(
            {e.cycle for e in tr.of_kind(EventKind.ROTATION_REQUESTED)}
        )
        gaps = [b - a for a, b in zip(request_cycles, request_cycles[1:])]
        assert len(set(gaps)) > 1  # aperiodic
