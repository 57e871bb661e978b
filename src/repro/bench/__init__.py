"""``repro.bench`` — the pinned benchmark scenarios and their trace digests.

The h264, aes and synthetic scenarios whose traces
``tests/golden/digests.json`` pins; the chaos, telemetry and verify
suites replay the same streams.  The repository benchmark itself lives
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
