"""The runtime's behaviour, held to references committed in ``tests/golden``.

Every case re-runs a scenario on the current code and compares it with
its pin: the bench suites' trace digests on the shipped kernels and on
the reference (each trace also replays cleanly through
``rispp-verify``), the rendered chaos reports and metrics snapshots of
every suite, the quick h264 verify trace, the full ``rispp-verify``
golden traces of the aes and synthetic verify scenarios, and the text
of every paper artifact.  (The seeded
interleaving digests are checked in ``tests/test_events_property.py``.)
A mismatch means the runtime's observable behaviour changed;
if that was deliberate, regenerate the pins (``tests/pins.py`` says
how) and record the change in CHANGES.md.
"""

import pytest

from repro.analysis.verify import load_golden, verify_golden, verify_runtime
from repro.bench import scenario_runtime, trace_digest, trace_signature
from repro.bench.suites import SUITES
from repro.reporting.paper import PAPER
from repro.sim import EventKind, Trace
from tests import pins

DIGESTS = pins.load_digests()


@pytest.mark.parametrize("mode", ["quick", "full"])
@pytest.mark.parametrize("suite", SUITES)
def test_bench_suite_trace_matches_pin(suite, mode, kernels):
    rt = scenario_runtime(suite, quick=mode == "quick")
    assert trace_digest(rt.trace) == DIGESTS["bench"][suite][mode]
    # A pin that recorded wrong behaviour must not pass either.
    assert verify_runtime(rt, subject=f"bench:{suite}").errors() == []


def test_unknown_bench_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite 'mp3'"):
        scenario_runtime("mp3", quick=True)


def test_trace_signature_resolves_lazy_details():
    eager, lazy = Trace(), Trace()
    eager.record(5, EventKind.SI_EXECUTED, si="S", mode="HW", cycles=12)
    lazy.record_lazy(
        5, EventKind.SI_EXECUTED, lambda: {"mode": "HW", "cycles": 12},
        si="S",
    )
    assert trace_signature(eager) == trace_signature(lazy)
    assert trace_signature(eager) != trace_signature(Trace())


@pytest.mark.parametrize("suite", SUITES)
def test_chaos_report_matches_pin(suite):
    assert pins.sha256_text(pins.chaos_report_text(suite)) == \
        DIGESTS["chaos"][suite]


@pytest.mark.parametrize("suite", SUITES)
def test_metrics_snapshot_matches_pin(suite):
    assert pins.sha256_text(pins.metrics_text(suite)) == \
        DIGESTS["metrics"][suite]


def test_verify_h264_trace_matches_pin():
    assert pins.verify_h264_digest() == DIGESTS["verify"]["h264"]["quick"]


@pytest.mark.parametrize("suite", pins.GOLDEN_TRACE_SUITES)
def test_verify_scenario_matches_golden_trace(suite):
    path = pins.golden_trace_path(suite)
    assert pins.golden_text(suite) == path.read_text(encoding="utf-8")
    assert verify_golden(load_golden(str(path))).ok()



@pytest.mark.parametrize("name", list(PAPER))
def test_paper_artifact_matches_pin(name):
    assert pins.paper_text(name) == pins.paper_path(name).read_text(encoding="utf-8")
