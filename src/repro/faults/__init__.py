"""``repro.faults`` — deterministic fault injection and recovery.

The rotating fabric's dominant real-world failure modes on Virtex-class
parts are configuration-memory upsets (SEUs) and SelectMap write errors
(see PAPERS.md: Carmichael et al. on Virtex SEU correction, Li/Hauck on
reconfiguration management).  This package models them deterministically:

* :class:`FaultSchedule` — a seeded (or explicit) timeline of
  :class:`FaultEvent`\\ s: transient SEUs in loaded containers, mid-write
  bitstream corruption, and permanent container defects;
* :class:`FaultInjector` — delivers the schedule into the simulation
  clock through ``RisppRuntime.advance``, runs the periodic
  readback-scrubber that detects silent corruption, quarantines and
  repairs containers through the normal rotation port (bounded retry,
  exponential backoff), and accumulates :class:`ResilienceStats`;
* :func:`run_chaos_suite` / ``python -m repro chaos`` — seeded chaos
  runs of the bench scenarios with a deterministic resilience report, a
  verified trace and a functional-equivalence check against the
  fault-free baseline;
* :func:`static_repair_bound` — the provable worst-case
  detect-plus-repair latency (MTTR ceiling) for a library/fabric pair.

Everything is reproducible: same seed, same schedule, same trace, same
report — byte for byte.  The fault model and recovery state machine are
documented in ``docs/faults.md``.
"""

from .chaos import (
    CHAOS_DEFAULTS,
    chaos_ok,
    render_chaos_report,
    run_chaos_suite,
    static_repair_bound,
)
from .injector import FaultInjector
from .model import FaultEvent, FaultKind, FaultSchedule
from .stats import ResilienceStats

__all__ = [
    "CHAOS_DEFAULTS",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultSchedule",
    "ResilienceStats",
    "chaos_ok",
    "render_chaos_report",
    "run_chaos_suite",
    "static_repair_bound",
]
