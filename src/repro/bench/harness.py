"""Trace comparison for the benchmark scenarios.

``trace_signature`` turns a trace into comparable tuples and
``trace_digest`` hashes that form; ``tests/golden/digests.json`` pins
each scenario's digest.
"""

from __future__ import annotations

import hashlib

from ..sim.trace import Trace


def trace_signature(trace: Trace) -> list[tuple]:
    """A trace as comparable tuples (cycle, kind, task, si, detail).

    Lazy details are resolved here, so two runtimes are equivalent iff
    their signatures are equal.
    """
    return [
        (e.cycle, e.kind.value, e.task, e.si, dict(e.detail))
        for e in trace
    ]


def trace_digest(trace: Trace) -> str:
    """sha256 of ``repr(trace_signature(trace))``: the pinned form."""
    return hashlib.sha256(repr(trace_signature(trace)).encode()).hexdigest()
