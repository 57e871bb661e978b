"""Exporters: Prometheus text exposition and schema-stable JSONL.

Two consumers, two formats:

* :func:`to_prometheus` renders the classic Prometheus text exposition
  (``# HELP`` / ``# TYPE`` / samples; histograms as cumulative
  ``_bucket{le=...}`` + ``_sum`` + ``_count``) for scraping;
  :func:`parse_prometheus` parses that text back into the canonical
  sample state so tests can prove the round trip is lossless
  (``parse_prometheus(to_prometheus(r)) == exposition_state(r)``).
* :func:`snapshot` / :func:`to_jsonl` produce the machine-readable
  snapshot embedded in the chaos resilience reports (their ``metrics``
  key).  With
  ``deterministic_only=True`` (the embedded default) wall-clock span
  timers are dropped, so a seeded run snapshots byte-identically.

Sample ordering is canonical everywhere — catalogue order for families,
sorted label values for children — so equal registry states render to
equal bytes.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .catalogue import COUNTER, GAUGE, HISTOGRAM
from .registry import Counter, Gauge, Histogram, Instrument, MetricRegistry

SNAPSHOT_SCHEMA_VERSION = 1
SNAPSHOT_KIND = "rispp-metrics-snapshot"


def _num(value: float) -> float | int:
    """Integral floats as ints — smaller, and byte-stable across runs."""
    f = float(value)
    return int(f) if f.is_integer() and math.isfinite(f) else f


def _fmt(value: float) -> str:
    """Prometheus sample value formatting."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    n = _num(value)
    return str(n) if isinstance(n, int) else repr(n)


def _fmt_bound(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else _fmt(bound)


def _label_str(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


def _leaves(family: Instrument) -> list[tuple[tuple[tuple[str, str], ...], Instrument]]:
    """The sample-bearing instruments of one family, canonically ordered."""
    if not family.spec.labels:
        return [((), family)]
    return [
        (tuple(zip(family.spec.labels, key)), child)
        for key, child in family.children()
    ]


def _include(family: Instrument, deterministic_only: bool) -> bool:
    return family.spec.deterministic or not deterministic_only


# -- Prometheus text exposition ----------------------------------------------


def to_prometheus(
    registry: MetricRegistry, *, deterministic_only: bool = False
) -> str:
    """Render the registry in Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.instruments():
        if not _include(family, deterministic_only):
            continue
        spec = family.spec
        name = spec.full_name
        lines.append(f"# HELP {name} {spec.help}")
        lines.append(f"# TYPE {name} {spec.type}")
        for labels, leaf in _leaves(family):
            if isinstance(leaf, Histogram):
                for bound, cumulative in leaf.cumulative():
                    le = labels + (("le", _fmt_bound(bound)),)
                    lines.append(
                        f"{name}_bucket{_label_str(le)} {cumulative}"
                    )
                lines.append(f"{name}_sum{_label_str(labels)} {_fmt(leaf.sum)}")
                lines.append(f"{name}_count{_label_str(labels)} {leaf.count}")
            else:
                assert isinstance(leaf, (Counter, Gauge))
                lines.append(f"{name}{_label_str(labels)} {_fmt(leaf.current())}")
    return "\n".join(lines) + "\n"


def exposition_state(
    registry: MetricRegistry, *, deterministic_only: bool = False
) -> dict[str, dict[str, Any]]:
    """Canonical sample state: what a scraper would see.

    ``{family_name: {"type": ..., "samples": {(sample_name, labels): value}}}``
    with labels as a sorted tuple of (key, value) pairs — the shape
    :func:`parse_prometheus` reconstructs, enabling the round-trip proof.
    """
    state: dict[str, dict[str, Any]] = {}
    for family in registry.instruments():
        if not _include(family, deterministic_only):
            continue
        spec = family.spec
        name = spec.full_name
        samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
        for labels, leaf in _leaves(family):
            key = tuple(sorted(labels))
            if isinstance(leaf, Histogram):
                for bound, cumulative in leaf.cumulative():
                    le = tuple(sorted(key + (("le", _fmt_bound(bound)),)))
                    samples[(f"{name}_bucket", le)] = float(cumulative)
                samples[(f"{name}_sum", key)] = float(leaf.sum)
                samples[(f"{name}_count", key)] = float(leaf.count)
            else:
                assert isinstance(leaf, (Counter, Gauge))
                samples[(name, key)] = float(leaf.current())
        state[name] = {"type": spec.type, "samples": samples}
    return state


def parse_prometheus(text: str) -> dict[str, dict[str, Any]]:
    """Parse text exposition back into :func:`exposition_state` form."""
    state: dict[str, dict[str, Any]] = {}
    types: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            types[name] = kind.strip()
            state[name] = {"type": kind.strip(), "samples": {}}
            continue
        if line.startswith("#"):
            continue
        sample_name, labels, value = _parse_sample(line)
        family = _family_of(sample_name, types)
        if family not in state:  # sample before its TYPE line
            raise ValueError(f"sample {sample_name!r} precedes its # TYPE line")
        state[family]["samples"][(sample_name, labels)] = value
    return state


def _family_of(sample_name: str, types: dict[str, str]) -> str:
    if sample_name in types:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if types.get(base) == HISTOGRAM:
                return base
    raise ValueError(f"sample {sample_name!r} matches no declared family")


def _parse_sample(
    line: str,
) -> tuple[str, tuple[tuple[str, str], ...], float]:
    if "{" in line:
        name, _, rest = line.partition("{")
        label_part, _, value_part = rest.partition("}")
        labels = []
        for item in label_part.split(","):
            if not item:
                continue
            key, _, quoted = item.partition("=")
            labels.append((key.strip(), quoted.strip().strip('"')))
        return name.strip(), tuple(sorted(labels)), _parse_value(value_part)
    name, _, value_part = line.partition(" ")
    return name.strip(), (), _parse_value(value_part)


def _parse_value(text: str) -> float:
    text = text.strip()
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


# -- JSONL snapshots ----------------------------------------------------------


def snapshot(
    registry: MetricRegistry, *, deterministic_only: bool = True
) -> dict[str, Any]:
    """The registry as a schema-stable, JSON-safe dict.

    The embedded form (bench / chaos ``metrics`` key).  Histograms carry
    cumulative ``[upper_bound, count]`` pairs with ``"+Inf"`` as the
    overflow bound; integral values are plain ints.
    """
    metrics: list[dict[str, Any]] = []
    for family in registry.instruments():
        if not _include(family, deterministic_only):
            continue
        spec = family.spec
        samples: list[dict[str, Any]] = []
        for labels, leaf in _leaves(family):
            sample: dict[str, Any] = {"labels": dict(labels)}
            if isinstance(leaf, Histogram):
                sample["buckets"] = [
                    [_fmt_bound(bound), cumulative]
                    for bound, cumulative in leaf.cumulative()
                ]
                sample["sum"] = _num(leaf.sum)
                sample["count"] = leaf.count
            else:
                assert isinstance(leaf, (Counter, Gauge))
                sample["value"] = _num(leaf.current())
            samples.append(sample)
        metrics.append(
            {
                "name": spec.full_name,
                "type": spec.type,
                "unit": spec.unit,
                "source": spec.source,
                "paper": spec.paper,
                "samples": samples,
            }
        )
    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "kind": SNAPSHOT_KIND,
        "deterministic_only": deterministic_only,
        "metrics": metrics,
    }


def to_jsonl(
    registry: MetricRegistry, *, deterministic_only: bool = True
) -> str:
    """One JSON object per line: a header, then one line per family."""
    snap = snapshot(registry, deterministic_only=deterministic_only)
    lines = [
        json.dumps(
            {
                "kind": snap["kind"],
                "schema_version": snap["schema_version"],
                "deterministic_only": snap["deterministic_only"],
                "families": len(snap["metrics"]),
            },
            sort_keys=True,
        )
    ]
    lines += [json.dumps(m, sort_keys=True) for m in snap["metrics"]]
    return "\n".join(lines) + "\n"


__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "SNAPSHOT_KIND",
    "SNAPSHOT_SCHEMA_VERSION",
    "exposition_state",
    "parse_prometheus",
    "snapshot",
    "to_jsonl",
    "to_prometheus",
]
