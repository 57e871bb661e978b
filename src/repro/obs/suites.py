"""Instrumented workloads behind ``python -m repro metrics``.

Each suite of the catalogue (:mod:`repro.bench.suites`) runs at its
metrics size with a live :class:`~repro.obs.MetricRegistry` attached;
the registry comes back together with the runtime, so the CLI can
export whatever the run recorded.  Open forecast windows are closed at
the end of a run — a window that never closes would leave the forecast
metrics silently empty.

The runs are deterministic (simulated cycles only), so two invocations
of the same suite produce identical deterministic snapshots — the
exporter round-trip tests and ``tests/golden/digests.json`` rely on
that.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .registry import MetricRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.manager import RisppRuntime


def _close_forecasts(rt: "RisppRuntime", now: int) -> int:
    """End every still-active forecast so its window is accounted."""
    for fc in list(rt.active_forecasts()):
        rt.forecast_end(fc.si_name, now, task=fc.task)
        now += 1
    return now


def run_metrics_suite(
    name: str, *, quick: bool = False
) -> tuple[MetricRegistry, "RisppRuntime"]:
    """Run one named suite instrumented; returns (registry, runtime)."""
    from ..bench.suites import run_suite

    registry = MetricRegistry()
    rt = run_suite(name, quick=quick, sizes="metrics", metrics=registry).runtime
    end = rt.trace.events[-1].cycle + 1 if len(rt.trace) else 0
    _close_forecasts(rt, end)
    return registry, rt
