"""Fuzzing the verifier against the real runtime.

Property: *any* interleaving of ``forecast`` / ``execute_si`` /
``fail_container`` / ``advance`` through a runtime on each compute
backend yields a trace the reference machine replays with zero
findings — the machine and the manager implement the same §3/§5
semantics, independently.  The deterministic half then mutates verified
traces by hand and asserts each mutation trips exactly the intended
rule (no cascades: one corruption, one finding family).  The golden-trace
loader is fuzzed too: whatever JSON it is handed, it answers with a
``ValueError`` naming the bad field (``repro verify --trace`` exits 2 on
it) and never with another exception.
"""

import copy
import dataclasses
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_runtime, verify_trace
from repro.analysis.verify import GOLDEN_KIND, GOLDEN_SCHEMA_VERSION, golden_from_dict
from repro.core import (
    AtomCatalogue,
    AtomKind,
    MoleculeImpl,
    ReferenceBackend,
    SILibrary,
    SpecialInstruction,
    select_greedy,
)
from repro.runtime import RisppRuntime
from repro.sim import Event, EventKind

#: Selection on the shipped kernels and on the reference specification.
SELECTIONS = {
    "numpy": select_greedy,
    "reference": partial(select_greedy, backend=ReferenceBackend()),
}


def _fuzz_library() -> SILibrary:
    """Two-SI library with overlapping atom demand (competition included)."""
    catalogue = AtomCatalogue.of(
        [
            AtomKind("Load", reconfigurable=False),
            AtomKind("Pack", bitstream_bytes=65_713),
            AtomKind("Transform", bitstream_bytes=59_353),
            AtomKind("SATD", bitstream_bytes=58_141),
        ]
    )
    space = catalogue.space
    ht = SpecialInstruction(
        "HT",
        space,
        298,
        [
            MoleculeImpl(space.molecule({"Load": 1, "Pack": 1, "Transform": 1}), 22),
            MoleculeImpl(space.molecule({"Load": 1, "Pack": 1, "Transform": 2}), 17),
        ],
    )
    satd = SpecialInstruction(
        "SATD",
        space,
        544,
        [
            MoleculeImpl(
                space.molecule({"Load": 1, "Pack": 1, "Transform": 1, "SATD": 1}), 24
            ),
        ],
    )
    return SILibrary(catalogue, [ht, satd])


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["forecast", "execute", "fail", "advance"]),
        st.sampled_from(["HT", "SATD"]),
        st.integers(min_value=0, max_value=200_000),  # time delta
        st.integers(min_value=0, max_value=2),  # container / expected scale
    ),
    min_size=1,
    max_size=25,
)


class TestFuzzedInterleavings:
    """The machine accepts every trace the real runtime can produce."""

    @settings(max_examples=40, deadline=None)
    @given(ops=_OPS)
    def test_both_runtimes_always_verify_clean(self, ops):
        library = _fuzz_library()
        runtimes = {
            name: RisppRuntime(library, 3, core_mhz=100.0, selection=selection)
            for name, selection in SELECTIONS.items()
        }
        now = 0
        for op, si, delta, scale in ops:
            now += delta
            for rt in runtimes.values():
                if op == "forecast":
                    rt.forecast(si, now, expected=float(scale * 50))
                elif op == "execute":
                    rt.execute_si(si, now)
                elif op == "advance":
                    rt.advance(now)
                else:  # fail one of the three containers (idempotent)
                    rt.fail_container(scale, now)
        for name, rt in runtimes.items():
            report = verify_runtime(rt, subject=f"fuzz:{name}")
            assert report.clean(), report.render_text()


def _verified_scenario():
    """A deterministic runtime whose trace replays clean (precondition)."""
    library = _fuzz_library()
    rt = RisppRuntime(library, 3, core_mhz=100.0)
    now = 1_000
    for _ in range(6):
        rt.forecast("HT", now, expected=40.0)
        rt.forecast("SATD", now, expected=10.0)
        for _ in range(8):
            now += rt.execute_si("HT", now)
        for _ in range(3):
            now += rt.execute_si("SATD", now)
        now += 70_000  # let rotations land between rounds
    rt.advance(now + 5_000_000)
    report = verify_runtime(rt)
    assert report.clean(), report.render_text()
    events = [
        Event(e.cycle, e.kind, e.task, e.si, dict(e.detail))
        for e in rt.trace.events
    ]
    return rt, events


def _verify(rt, events, totals=None):
    return verify_trace(
        events,
        rt.library,
        containers=len(rt.fabric),
        static_multiplicity=rt.fabric.static_multiplicity,
        totals=totals,
    )


class TestHandMutations:
    """Each mutation trips exactly its intended rule — no cascades."""

    def test_swapped_events_trip_only_trc001(self):
        rt, events = _verified_scenario()
        idx = next(
            i
            for i in range(len(events) - 1)
            if events[i].kind is EventKind.SI_EXECUTED
            and events[i + 1].kind is EventKind.SI_EXECUTED
            and events[i].cycle < events[i + 1].cycle
            and events[i].si == events[i + 1].si
            and events[i].detail == events[i + 1].detail
        )
        events[idx], events[idx + 1] = events[idx + 1], events[idx]
        report = _verify(rt, events)
        assert {d.rule_id for d in report} == {"TRC001"}, report.render_text()

    def test_double_occupied_container_trips_only_trc004(self):
        rt, events = _verified_scenario()
        idx = next(
            i
            for i, e in enumerate(events)
            if e.kind is EventKind.ROTATION_REQUESTED
        )
        e = events[idx]
        events.insert(
            idx + 1, Event(e.cycle, e.kind, e.task, e.si, dict(e.detail))
        )
        report = _verify(rt, events)
        assert {d.rule_id for d in report} == {"TRC004"}, report.render_text()

    def test_negative_energy_delta_trips_only_trc007(self):
        rt, events = _verified_scenario()
        totals = dataclasses.asdict(rt.stats)
        totals["si_cycles"] = -totals["si_cycles"]
        report = _verify(rt, events, totals=totals)
        assert {d.rule_id for d in report} == {"TRC007"}, report.render_text()


# -- the golden-trace loader ------------------------------------------------

#: A minimal well-formed golden-trace document.
GOLDEN_EVENT = {
    "cycle": 10_000, "kind": "forecast", "task": "main", "si": "SI0",
    "detail": {"expected": 16.0, "priority": 1.0},
}
GOLDEN_DOC = {
    "schema_version": GOLDEN_SCHEMA_VERSION,
    "kind": GOLDEN_KIND,
    "suite": "synthetic",
    "library": "synthetic",
    "containers": 5,
    "core_mhz": 100.0,
    "bytes_per_us": 69.2,
    "static_multiplicity": 16,
    "totals": {"si_executions": 0},
    "energy_model": {"leakage_nw_per_slice": 12.0},
    "events": [GOLDEN_EVENT],
}

#: Any value a JSON parser can return (``json`` accepts NaN/Infinity).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@st.composite
def near_golden_docs(draw):
    """The well-formed document with some fields dropped or replaced."""
    doc = copy.deepcopy(GOLDEN_DOC)
    event = doc["events"][0]
    for target in (doc, event):
        for key in draw(st.lists(st.sampled_from(sorted(target)), unique=True)):
            if draw(st.booleans()):
                del target[key]
            else:
                target[key] = draw(JSON_VALUES)
    return doc


class TestGoldenLoader:
    def test_well_formed_document_loads(self):
        golden = golden_from_dict(copy.deepcopy(GOLDEN_DOC))
        assert golden.library_name == "synthetic"
        assert golden.artifact.containers == 5
        assert golden.artifact.events[0].kind is EventKind.FORECAST

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([], "not a JSON object"),
            ("str", "not a JSON object"),
            (5, "not a JSON object"),
            (_without(GOLDEN_DOC, "library"), "file lacks 'library'"),
            (_without(GOLDEN_DOC, "containers"), "file lacks 'containers'"),
            ({**GOLDEN_DOC, "containers": None}, "field 'containers' is invalid"),
            ({**GOLDEN_DOC, "containers": -1}, "'containers' must be non-negative"),
            ({**GOLDEN_DOC, "core_mhz": 0}, "'core_mhz' must be positive"),
            ({**GOLDEN_DOC, "bytes_per_us": float("nan")}, "'bytes_per_us' must be"),
            (
                {**GOLDEN_DOC, "events": [_without(GOLDEN_EVENT, "cycle")]},
                r"events\[0\] lacks 'cycle'",
            ),
            ({**GOLDEN_DOC, "events": [5]}, r"events\[0\] is not a JSON object"),
            (
                {**GOLDEN_DOC, "events": [{**GOLDEN_EVENT, "kind": "warp"}]},
                r"field 'events\[0\]\.kind' is invalid",
            ),
            (
                {**GOLDEN_DOC, "energy_model": {"volts": 1}},
                "field 'energy_model' is invalid",
            ),
            ({**GOLDEN_DOC, "containers": 10**9}, "field 'containers' is"),
            ({**GOLDEN_DOC, "totals": {"bogus": "x"}}, "'totals.bogus' is unknown"),
            ({**GOLDEN_DOC, "totals": [1]}, "'totals' is not a JSON object"),
        ],
        ids=[
            "list", "string", "number", "no-library", "no-containers",
            "null-containers", "negative-containers", "zero-core-mhz",
            "nan-port-rate", "event-without-cycle", "event-not-object",
            "unknown-event-kind", "unknown-energy-field",
            "huge-containers", "unknown-total", "totals-not-object",
        ],
    )
    def test_malformed_document_names_the_field(self, payload, message):
        with pytest.raises(ValueError, match=message):
            golden_from_dict(payload)

    @given(payload=JSON_VALUES | near_golden_docs())
    @settings(max_examples=300, deadline=None)
    def test_only_value_errors_escape(self, payload):
        try:
            golden_from_dict(payload)
        except ValueError:
            pass
