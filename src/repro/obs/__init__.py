"""repro.obs — the observability layer of the rotating fabric.

A metrics registry (:class:`MetricRegistry`: counters, gauges,
cycle-bucketed histograms, wall-clock span timers) instrumented at the
run-time system's hot seams — SI dispatch and replanning
(:mod:`repro.runtime.manager`), the serialised SelectMap port
(:mod:`repro.hardware.reconfig`), Atom Container occupancy and churn
(:mod:`repro.hardware.fabric`), forecast fine-tuning error
(:mod:`repro.runtime.monitor`) and fault recovery
(:mod:`repro.faults.injector`) — with exporters for the Prometheus text
exposition format and schema-stable JSONL snapshots.

Telemetry is off by default: every instrumented constructor takes
``metrics: MetricRegistry | None = None`` and falls back to the shared
:data:`DISABLED` registry, whose instruments are no-op singletons; the
per-event disabled cost is one boolean guard (no call into repro.obs
at all, asserted by ``tests/test_obs_runtime.py::TestTelemetryCost``).  Pass ``MetricRegistry()`` to turn
the lights on — traces and simulation results are bit-identical either
way (metrics never feed back into decisions).

``python -m repro metrics --suite h264|aes|synthetic [--format
prom|json]`` runs one shipped workload instrumented and prints the
export; ``python -m repro chaos`` embeds a deterministic snapshot
under its report's ``metrics`` key.
The metric catalogue with units, sources and paper references lives in
``docs/observability.md`` and is enforced by :mod:`repro.obs.catalogue`
(undeclared metric names are rejected at instrument creation).
"""

from . import clock
from .catalogue import CYCLE_BUCKETS, METRICS, NAMESPACE, TIME_BUCKETS, MetricSpec
from .exporters import (
    SNAPSHOT_KIND,
    SNAPSHOT_SCHEMA_VERSION,
    exposition_state,
    parse_prometheus,
    snapshot,
    to_jsonl,
    to_prometheus,
)
from .registry import (
    DISABLED,
    NULL,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NullInstrument,
)
from .suites import run_metrics_suite

__all__ = [
    "CYCLE_BUCKETS",
    "DISABLED",
    "METRICS",
    "NAMESPACE",
    "NULL",
    "SNAPSHOT_KIND",
    "SNAPSHOT_SCHEMA_VERSION",
    "TIME_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "MetricSpec",
    "NullInstrument",
    "clock",
    "exposition_state",
    "parse_prometheus",
    "run_metrics_suite",
    "snapshot",
    "to_jsonl",
    "to_prometheus",
]
