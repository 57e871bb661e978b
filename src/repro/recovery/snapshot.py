"""Deterministic whole-world snapshots of a :class:`RisppRuntime`.

A snapshot captures, at one journal sequence number, every piece of
durable simulation state: the fabric's Atom Containers, the
reconfiguration port (jobs, pending queue, reservations), the fault
injector's episode/retry/backoff bookkeeping, the forecast monitor, the
run-time manager's forecasts / stats / replan memo, the full event
trace, and the deterministic metric families.  Schema-versioned like
golden traces (``schema_version`` + ``kind``), serialized as compact
canonical JSON — byte-identical for identical runs.

Restore works *in place*: the driver rebuilds the scenario exactly as a
fresh run would (library, runtime, injector, registry), then
:func:`restore_runtime` overwrites the mutable state of that world with
the snapshot's.  A configuration mismatch between the two — different
container count, clock, fault schedule parameters — raises
:class:`RecoveryError` instead of silently resuming a different
scenario.  Object identities the live code relies on (the injector's
in-flight repair job *is* an entry of ``port.jobs``) are preserved by
serializing cross-references as indices.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from pathlib import Path
from typing import Any

from ..faults.injector import FaultInjector, _Episode, _Retry
from ..faults.model import FaultEvent, FaultKind
from ..hardware.container import ContainerState
from ..hardware.reconfig import RotationJob
from ..obs.catalogue import NAMESPACE, spec_of
from ..obs.exporters import snapshot as metrics_snapshot
from ..runtime.manager import RisppRuntime, RuntimeStats, _ActiveForecast
from ..runtime.monitor import ForecastWindow, SIForecastStats
from ..sim.trace import Event, EventKind
from .journal import RecoveryError

RECOVERY_SCHEMA_VERSION = 1
RECOVERY_KIND = "rispp-recovery-snapshot"

#: Snapshot file name for one journal sequence number.
_SNAPSHOT_GLOB = "snapshot-*.json"


def snapshot_name(seq: int) -> str:
    return f"snapshot-{seq:08d}.json"


# -- capture ------------------------------------------------------------------


def _container_state(runtime: RisppRuntime) -> list[dict[str, Any]]:
    return [
        {
            "container_id": c.container_id,
            "state": c.state.value,
            "atom": c.atom,
            "owner": c.owner,
            "ready_at": c.ready_at,
            "last_used": c.last_used,
            "rotations": c.rotations,
            "evictions": c.evictions,
            "failed": c.failed,
            "corrupted": c.corrupted,
            "quarantined": c.quarantined,
            "generation": c.generation,
        }
        for c in runtime.fabric.containers
    ]


def _port_state(runtime: RisppRuntime) -> dict[str, Any]:
    port = runtime.port
    index_of = {id(job): i for i, job in enumerate(port.jobs)}
    return {
        "busy_until": port.busy_until,
        "jobs": [
            {
                "atom": j.atom,
                "container_id": j.container_id,
                "requested_at": j.requested_at,
                "started_at": j.started_at,
                "finish_at": j.finish_at,
                "evicted": j.evicted,
                "started": j.started,
                "completed": j.completed,
                "owner": j.owner,
                "repair": j.repair,
                "aborted": j.aborted,
            }
            for j in port.jobs
        ],
        "pending": [index_of[id(j)] for j in port.pending_jobs()],
        "reserved": sorted(port._reserved),
    }


def _episode_entry(container_id: int, episode: _Episode) -> list[Any]:
    return [
        container_id,
        episode.atom,
        episode.injected_at,
        episode.detected_at,
    ]


def _injector_state(runtime: RisppRuntime) -> dict[str, Any] | None:
    injector = runtime._faults
    if injector is None:
        return None
    index_of = {id(job): i for i, job in enumerate(runtime.port.jobs)}
    return {
        "cursor": injector._cursor,
        "last_mark": injector._last_mark,
        "events": [
            [e.cycle, e.kind.value, e.container] for e in injector._events
        ],
        "corrupted": [
            _episode_entry(cid, ep) for cid, ep in injector._corrupted.items()
        ],
        "quarantined": [
            _episode_entry(cid, ep) for cid, ep in injector._quarantined.items()
        ],
        "retries": [
            [r.due, r.container, r.atom, r.owner, r.repair]
            for r in injector._retries
        ],
        "attempts": [
            [container, atom, n]
            for (container, atom), n in injector._attempts.items()
        ],
        "repair_of": [
            [cid, index_of[id(job)]]
            for cid, job in injector._repair_of.items()
        ],
        "stats": asdict(injector.stats),
    }


def _monitor_state(runtime: RisppRuntime) -> dict[str, Any]:
    monitor = runtime.monitor
    return {
        "stats": [
            [
                task,
                si,
                {
                    "expectation": s.expectation,
                    "windows": s.windows,
                    "total_predicted": s.total_predicted,
                    "total_observed": s.total_observed,
                    "hit_windows": s.hit_windows,
                },
            ]
            for (task, si), s in monitor._stats.items()
        ],
        "open": [
            [
                task,
                si,
                {
                    "opened_at": w.opened_at,
                    "predicted": w.predicted,
                    "observed": w.observed,
                },
            ]
            for (task, si), w in monitor._open.items()
        ],
        "windows_seen": monitor._windows_seen,
        "abs_error_sum": monitor._abs_error_sum,
    }


def _manager_state(runtime: RisppRuntime) -> dict[str, Any]:
    plan_key: dict[str, Any] | None = None
    if runtime._plan_key is not None:
        weights, loaded = runtime._plan_key
        plan_key = {
            "weights": [[name, weight] for name, weight in weights],
            "loaded": loaded.as_dict(),
        }
    return {
        "stats": asdict(runtime.stats),
        "task_stats": [
            [task, asdict(stats)] for task, stats in runtime.task_stats.items()
        ],
        "active": [
            [f.task, f.si_name, f.weight, f.priority]
            for f in runtime._active.values()
        ],
        "last_mode": [
            [task, si, mode]
            for (task, si), mode in runtime._last_mode.items()
        ],
        "unplaced_for": runtime._unplaced_for,
        "plan_key": plan_key,
    }


def _trace_state(runtime: RisppRuntime) -> dict[str, Any]:
    # Materializing ``e.detail`` resolves (and caches) lazy details; the
    # resolved dict is identical to the eager form, so neither the live
    # run nor the restored one observes a difference.
    return {
        "events": [
            [e.cycle, e.kind.value, e.task, e.si, dict(e.detail)]
            for e in runtime.trace.events
        ],
        "last_cycle": runtime.trace.last_cycle,
    }


def _config_of(runtime: RisppRuntime) -> dict[str, Any]:
    injector = runtime._faults
    injector_config: dict[str, Any] | None = None
    if injector is not None:
        ladder = injector.backoff_ladder
        injector_config = {
            "scrub_period": injector.scrub_period,
            "max_retries": injector.max_retries,
            "backoff_cycles": injector.backoff_cycles,
            "backoff_ladder": list(ladder) if ladder is not None else None,
        }
    energy = runtime.energy_model
    return {
        "containers": len(runtime.fabric),
        "core_mhz": runtime.port.core_mhz,
        "bytes_per_us": runtime.port.bytes_per_us,
        "static_multiplicity": runtime.fabric.static_multiplicity,
        "forecasting": runtime.forecasting,
        "metrics_enabled": runtime.metrics.enabled,
        "monitor_smoothing": runtime.monitor.smoothing,
        "atom_kinds": list(runtime.fabric.space.kinds),
        "energy_model": asdict(energy) if energy is not None else None,
        "injector": injector_config,
    }


def snapshot_runtime(
    runtime: RisppRuntime, *, seq: int, cycle: int, results: list[Any]
) -> dict[str, Any]:
    """The whole world at journal sequence ``seq``, as a JSON-safe dict.

    ``results`` are the return values of journal records ``1..seq`` (SI
    latencies and query answers; ``None`` for the rest) — the resumed
    run hands them back to the re-driving scenario code verbatim.
    """
    if len(results) != seq:
        raise RecoveryError(
            f"snapshot at seq {seq} needs {seq} command results, "
            f"got {len(results)}"
        )
    return {
        "schema_version": RECOVERY_SCHEMA_VERSION,
        "kind": RECOVERY_KIND,
        "seq": seq,
        "cycle": cycle,
        "config": _config_of(runtime),
        "state": {
            "containers": _container_state(runtime),
            "port": _port_state(runtime),
            "injector": _injector_state(runtime),
            "monitor": _monitor_state(runtime),
            "manager": _manager_state(runtime),
            "trace": _trace_state(runtime),
            "metrics": (
                metrics_snapshot(runtime.metrics, deterministic_only=True)
                if runtime.metrics.enabled
                else None
            ),
        },
        "results": list(results),
    }


# -- store I/O ----------------------------------------------------------------


def write_snapshot(store: Path, snap: dict[str, Any]) -> Path:
    """Write one snapshot file (compact canonical JSON, golden style)."""
    import json

    path = store / snapshot_name(int(snap["seq"]))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snap, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    return path


def list_snapshots(store: Path) -> list[tuple[int, Path]]:
    """``(seq, path)`` of every snapshot in the store, oldest first."""
    out: list[tuple[int, Path]] = []
    for path in sorted(store.glob(_SNAPSHOT_GLOB)):
        stem = path.stem.split("-", 1)
        if len(stem) == 2 and stem[1].isdigit():
            out.append((int(stem[1]), path))
    return sorted(out)


def latest_snapshot(
    store: Path, *, max_seq: int | None = None
) -> tuple[int, Path] | None:
    """The newest usable snapshot (optionally capped at ``max_seq``)."""
    usable = [
        (seq, path)
        for seq, path in list_snapshots(store)
        if max_seq is None or seq <= max_seq
    ]
    return usable[-1] if usable else None


def load_snapshot(path: Path) -> dict[str, Any]:
    """Read and schema-check one snapshot file."""
    import json

    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise RecoveryError(f"cannot read snapshot {path}: {exc}") from exc
    except ValueError as exc:
        raise RecoveryError(f"snapshot {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise RecoveryError(f"snapshot {path} is not a JSON object")
    version = data.get("schema_version")
    if version != RECOVERY_SCHEMA_VERSION:
        raise RecoveryError(
            f"unsupported snapshot schema version {version!r} "
            f"(this build reads version {RECOVERY_SCHEMA_VERSION})"
        )
    kind = data.get("kind")
    if kind != RECOVERY_KIND:
        raise RecoveryError(
            f"not a recovery snapshot: kind {kind!r} "
            f"(expected {RECOVERY_KIND!r})"
        )
    for key in ("seq", "cycle", "config", "state", "results"):
        if key not in data:
            raise RecoveryError(f"snapshot {path} is missing the {key!r} key")
    return data


# -- restore ------------------------------------------------------------------


def _set_fields(target: Any, values: dict[str, Any]) -> None:
    """Overwrite every dataclass field of ``target`` from ``values``."""
    for f in fields(target):
        setattr(target, f.name, values[f.name])


def _check_config(runtime: RisppRuntime, config: dict[str, Any]) -> None:
    current = _config_of(runtime)
    mismatched = [
        key
        for key in sorted(current)
        if key != "injector" and config.get(key) != current[key]
    ]
    snap_inj = config.get("injector")
    live_inj = current["injector"]
    if (snap_inj is None) != (live_inj is None):
        mismatched.append("injector")
    elif snap_inj is not None and live_inj is not None:
        mismatched.extend(
            f"injector.{key}"
            for key in sorted(live_inj)
            if snap_inj.get(key) != live_inj[key]
        )
    if mismatched:
        raise RecoveryError(
            "snapshot does not match the rebuilt scenario; mismatched "
            "configuration keys: " + ", ".join(mismatched)
        )


def _restore_containers(runtime: RisppRuntime, data: list[dict[str, Any]]) -> None:
    fabric = runtime.fabric
    if len(data) != len(fabric.containers):
        raise RecoveryError(
            f"snapshot has {len(data)} containers, fabric has "
            f"{len(fabric.containers)}"
        )
    for container, entry in zip(fabric.containers, data):
        if entry["container_id"] != container.container_id:
            raise RecoveryError("container ids out of order in snapshot")
        container.state = ContainerState(entry["state"])
        container.atom = entry["atom"]
        container.owner = entry["owner"]
        container.ready_at = entry["ready_at"]
        container.last_used = entry["last_used"]
        container.rotations = entry["rotations"]
        container.evictions = entry["evictions"]
        container.failed = entry["failed"]
        container.corrupted = entry["corrupted"]
        container.quarantined = entry["quarantined"]
        container.generation = entry["generation"]
    fabric._available_cache = None
    fabric._loaded_cache = None


def _restore_port(runtime: RisppRuntime, data: dict[str, Any]) -> list[RotationJob]:
    port = runtime.port
    jobs = [
        RotationJob(
            atom=j["atom"],
            container_id=j["container_id"],
            requested_at=j["requested_at"],
            started_at=j["started_at"],
            finish_at=j["finish_at"],
            evicted=j["evicted"],
            started=j["started"],
            completed=j["completed"],
            owner=j["owner"],
            repair=j["repair"],
            aborted=j["aborted"],
        )
        for j in data["jobs"]
    ]
    port.jobs = jobs
    port._pending = [jobs[i] for i in data["pending"]]
    port._reserved = set(data["reserved"])
    port.busy_until = data["busy_until"]
    return jobs


def _restore_injector(
    runtime: RisppRuntime, data: dict[str, Any] | None, jobs: list[RotationJob]
) -> None:
    injector = runtime._faults
    if (injector is None) != (data is None):
        raise RecoveryError(
            "snapshot and rebuilt scenario disagree on fault injection"
        )
    if injector is None or data is None:
        return
    injector._events = [
        FaultEvent(cycle=cycle, kind=FaultKind(kind), container=container)
        for cycle, kind, container in data["events"]
    ]
    injector._cursor = data["cursor"]
    injector._last_mark = data["last_mark"]
    injector._corrupted = {
        cid: _Episode(cid, atom, injected_at, detected_at)
        for cid, atom, injected_at, detected_at in data["corrupted"]
    }
    injector._quarantined = {
        cid: _Episode(cid, atom, injected_at, detected_at)
        for cid, atom, injected_at, detected_at in data["quarantined"]
    }
    injector._retries = [
        _Retry(due, container, atom, owner, repair)
        for due, container, atom, owner, repair in data["retries"]
    ]
    injector._attempts = {
        (container, atom): n for container, atom, n in data["attempts"]
    }
    # Index-based references keep the live identity invariant: the
    # injector's tracked repair job *is* the port's job object.
    injector._repair_of = {cid: jobs[i] for cid, i in data["repair_of"]}
    _set_fields(injector.stats, data["stats"])


def _restore_monitor(runtime: RisppRuntime, data: dict[str, Any]) -> None:
    monitor = runtime.monitor
    monitor._stats = {
        (task, si): SIForecastStats(
            expectation=payload["expectation"],
            windows=payload["windows"],
            total_predicted=payload["total_predicted"],
            total_observed=payload["total_observed"],
            hit_windows=payload["hit_windows"],
        )
        for task, si, payload in data["stats"]
    }
    monitor._open = {
        (task, si): ForecastWindow(
            si_name=si,
            task=task,
            opened_at=payload["opened_at"],
            predicted=payload["predicted"],
            observed=payload["observed"],
        )
        for task, si, payload in data["open"]
    }
    monitor._windows_seen = data["windows_seen"]
    monitor._abs_error_sum = data["abs_error_sum"]


def _restore_manager(runtime: RisppRuntime, data: dict[str, Any]) -> None:
    _set_fields(runtime.stats, data["stats"])
    task_stats: dict[str, RuntimeStats] = {}
    for task, payload in data["task_stats"]:
        stats = RuntimeStats()
        _set_fields(stats, payload)
        task_stats[task] = stats
    runtime.task_stats = task_stats
    runtime._active = {
        (task, si): _ActiveForecast(
            task=task, si_name=si, weight=weight, priority=priority
        )
        for task, si, weight, priority in data["active"]
    }
    runtime._last_mode = {
        (task, si): mode for task, si, mode in data["last_mode"]
    }
    runtime._unplaced_for = data["unplaced_for"]
    plan_key = data["plan_key"]
    if plan_key is None:
        runtime._plan_key = None
    else:
        weights = tuple(
            (str(name), float(weight)) for name, weight in plan_key["weights"]
        )
        loaded = runtime.fabric.space.molecule(
            {str(kind): int(count) for kind, count in plan_key["loaded"].items()}
        )
        runtime._plan_key = (weights, loaded)
    # Pure memoization caches; dropping them costs one recomputation.
    runtime._impl_cache.clear()
    runtime._impl_cache_gen = -1
    runtime._rc_cache.clear()


def _restore_trace(runtime: RisppRuntime, data: dict[str, Any]) -> None:
    trace = runtime.trace
    trace.events = [
        Event(cycle, EventKind(kind), task, si, dict(detail) if detail else None)
        for cycle, kind, task, si, detail in data["events"]
    ]
    trace._last_cycle = data["last_cycle"]


def _restore_metrics(runtime: RisppRuntime, data: dict[str, Any] | None) -> None:
    registry = runtime.metrics
    if not registry.enabled or data is None:
        return
    prefix = NAMESPACE + "_"
    for family in data["metrics"]:
        full_name = family["name"]
        if not full_name.startswith(prefix):
            raise RecoveryError(f"metric {full_name!r} outside the namespace")
        base = full_name[len(prefix):]
        try:
            spec = spec_of(base)
        except ValueError as exc:
            raise RecoveryError(str(exc)) from exc
        if spec.type == "counter":
            instrument = registry.counter(base)
        elif spec.type == "gauge":
            instrument = registry.gauge(base)
        else:
            instrument = registry.histogram(base)
        for sample in family["samples"]:
            labels = {str(k): str(v) for k, v in sample["labels"].items()}
            leaf = instrument.labels(**labels) if labels else instrument
            if spec.type == "histogram":
                buckets = sample["buckets"]
                if len(buckets) != len(leaf.bounds) + 1:
                    raise RecoveryError(
                        f"metric {full_name!r} bucket layout changed"
                    )
                counts: list[int] = []
                previous = 0
                for _bound, cumulative in buckets:
                    counts.append(int(cumulative) - previous)
                    previous = int(cumulative)
                leaf.counts = counts
                leaf.sum = float(sample["sum"])
                leaf.count = int(sample["count"])
            elif leaf.callback is None:
                # Callback-driven samples recompute from restored state.
                leaf.value = float(sample["value"])


def restore_runtime(runtime: RisppRuntime, snap: dict[str, Any]) -> None:
    """Overwrite ``runtime``'s mutable state with the snapshot's.

    The runtime must have been rebuilt exactly as the original driver
    built it (same library, container count, injector parameters,
    metrics registry on/off); :class:`RecoveryError` otherwise.
    """
    try:
        _check_config(runtime, snap["config"])
        state = snap["state"]
        _restore_containers(runtime, state["containers"])
        jobs = _restore_port(runtime, state["port"])
        _restore_injector(runtime, state["injector"], jobs)
        _restore_monitor(runtime, state["monitor"])
        _restore_manager(runtime, state["manager"])
        _restore_trace(runtime, state["trace"])
        _restore_metrics(runtime, state["metrics"])
    except RecoveryError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise RecoveryError(f"malformed recovery snapshot: {exc!r}") from exc
