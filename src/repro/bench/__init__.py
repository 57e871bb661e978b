"""``repro.bench`` — the suite catalogue and the trace digests that pin it.

:mod:`repro.bench.suites` is the one place a suite is defined: the
h264, aes and synthetic suites that the pinned scenarios
(``tests/golden/digests.json``), ``repro chaos``, ``repro metrics``,
``repro verify`` and ``repro serve`` all run.  A new suite is one
catalogue entry plus its pins.  The repository benchmark itself lives
in ``perfbench/``.
"""

from .harness import trace_digest, trace_signature
from .suites import (
    H264_MACROBLOCK_CALLS,
    build_synthetic_library,
    run_si_stream,
    scenario_runtime,
)

__all__ = [
    "trace_digest",
    "trace_signature",
    "H264_MACROBLOCK_CALLS",
    "build_synthetic_library",
    "run_si_stream",
    "scenario_runtime",
]
