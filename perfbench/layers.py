"""Layer attribution: module-prefix call counts, object capture, run lengths.

The benchmark never edits the program.  Everything here observes it from
outside: cProfile for the deterministic count run, and a constructor hook
that remembers which runtimes (and fault injectors, and recoverable
wrappers) an operation built so their public state can be read after it.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: The repository's layers, named as in every metric.
LAYERS = (
    "runtime", "core", "hardware", "sim", "obs", "faults", "recovery",
    "analysis", "serve", "compile", "stdlib",
)

#: ``repro`` sub-package -> layer.  Sub-packages not listed (``apps``,
#: ``bench``, ``reporting``, ``baselines`` and the top-level modules) are
#: the simulated applications and the SI-stream drivers that feed the
#: simulator, so they count as ``sim``.
PACKAGE_LAYER = {
    "runtime": "runtime",
    "core": "core",
    "hardware": "hardware",
    "sim": "sim",
    "obs": "obs",
    "faults": "faults",
    "recovery": "recovery",
    "analysis": "analysis",
    "serve": "serve",
    "cfg": "compile",
    "forecast": "compile",
    "compiler": "compile",
}

_BENCH_DIR = str(Path(__file__).resolve().parent) + os.sep


def _repro_dir() -> str:
    import repro

    return str(Path(repro.__file__).resolve().parent) + os.sep


def layer_of(filename: str, repro_dir: str) -> str | None:
    """Layer of a code object's file; ``None`` for the benchmark's own code."""
    if filename.startswith(_BENCH_DIR):
        return None
    if not filename.startswith(repro_dir):
        return "stdlib"
    package = filename[len(repro_dir):].split(os.sep, 1)[0]
    return PACKAGE_LAYER.get(package, "sim")


@dataclass
class CountRun:
    """One profiled operation: calls and self time per layer."""

    calls: dict[str, int]
    self_s: dict[str, float]
    molecules_built: int


def count_run(fn: Callable[[], Any]) -> CountRun:
    """Profile ``fn`` once and attribute every call to a layer.

    Call counts are deterministic for a deterministic ``fn``; self times
    are cProfile's ``tottime``, which inflates code that makes many small
    calls, so they rank layers rather than predict wall time.
    """
    from repro.core.molecule import Molecule

    repro_dir = _repro_dir()
    molecule_init = (
        str(Path(Molecule.__init__.__code__.co_filename).resolve()),
        Molecule.__init__.__code__.co_firstlineno,
        "__init__",
    )
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    molecules = 0
    for (filename, line, func), (_cc, nc, tt, _ct, _callers) in (
        pstats.Stats(profile).stats.items()
    ):
        if "_lsprof.Profiler" in func:
            continue
        if filename not in ("~", "") and not filename.startswith("<"):
            filename = str(Path(filename).resolve())
        layer = layer_of(filename, repro_dir)
        if layer is None:
            continue
        calls[layer] += nc
        self_s[layer] += tt
        if (filename, line, func) == molecule_init:
            molecules += nc
    return CountRun(calls=calls, self_s=self_s, molecules_built=molecules)


class Capture:
    """Remembers the instances of some classes built while switched on.

    Installed by wrapping each class's ``__init__``; the wrapper costs one
    extra Python call per constructed object, a handful per operation.
    """

    def __init__(self, classes: tuple[type, ...]):
        self.classes = classes
        self.objects: list[Any] = []
        self.on = False
        self._originals: list[tuple[type, Any]] = []

    def install(self) -> None:
        for cls in self.classes:
            original = cls.__init__
            cls.__init__ = self._hook(original)  # type: ignore[misc]
            self._originals.append((cls, original))

    def uninstall(self) -> None:
        while self._originals:
            cls, original = self._originals.pop()
            cls.__init__ = original  # type: ignore[misc]

    def _hook(self, original: Callable[..., None]) -> Callable[..., None]:
        capture = self

        @functools.wraps(original)
        def init(obj: Any, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            if capture.on:
                capture.objects.append(obj)

        return init

    def take(self) -> list[Any]:
        objects, self.objects = self.objects, []
        return objects


def runtime_capture() -> Capture:
    """A capture of every runtime-level object an operation drives."""
    from repro.faults.injector import FaultInjector
    from repro.recovery import RecoverableRuntime
    from repro.runtime.manager import RisppRuntime

    return Capture((RisppRuntime, FaultInjector, RecoverableRuntime))


def _break_kinds() -> frozenset:
    """Trace kinds that end a run of back-to-back executions of one SI:
    anything the reconfiguration port or the fault machinery did."""
    from repro.sim.trace import EventKind as K

    return frozenset({
        K.ROTATION_REQUESTED, K.ROTATION_STARTED, K.ROTATION_COMPLETED,
        K.REALLOCATION, K.CONTAINER_FAILED, K.FAULT_INJECTED,
        K.FAULT_DETECTED, K.CONTAINER_QUARANTINED, K.CONTAINER_REPAIRED,
        K.ROTATION_RETRIED,
    })


@dataclass
class OpCounters:
    """Modelled-design counters of one operation, summed over its runtimes."""

    si_executions: int = 0
    si_cycles: int = 0
    hw_executions: int = 0
    replans: int = 0
    replans_skipped: int = 0
    mode_switches: int = 0
    rotations: int = 0
    port_busy_cycles: int = 0
    port_queue_cycles: int = 0
    trace_events: int = 0
    faults_injected: int = 0
    faults_retries: int = 0
    faults_mttr_cycles_max: int = 0
    replayed_records: int = 0
    run_executions: int = 0
    runs: int = 0


def op_counters(objects: list[Any], *, detail: bool) -> OpCounters:
    """Read the counters off every object an operation built.

    Without ``detail`` only the SI totals are read (cheap enough to do
    after every timed operation); with it, the port history and the trace
    are walked too.
    """
    from repro.faults.injector import FaultInjector
    from repro.recovery import RecoverableRuntime
    from repro.runtime.manager import RisppRuntime
    from repro.sim.trace import EventKind

    out = OpCounters()
    breaks = _break_kinds() if detail else frozenset()
    executed = EventKind.SI_EXECUTED
    for obj in objects:
        if isinstance(obj, RisppRuntime):
            stats = obj.stats
            out.si_executions += stats.si_executions
            out.si_cycles += stats.si_cycles
            if not detail:
                continue
            out.hw_executions += stats.hw_executions
            out.replans += stats.replans
            out.replans_skipped += stats.replans_skipped
            out.mode_switches += stats.mode_switches
            out.rotations += obj.port.total_rotations()
            out.port_busy_cycles += obj.port.total_busy_cycles()
            out.port_queue_cycles += sum(j.queue_delay for j in obj.port.jobs)
            out.trace_events += len(obj.trace)
            previous = None
            for event in obj.trace:
                kind = event.kind
                if kind is executed:
                    out.run_executions += 1
                    key = (event.task, event.si)
                    if key != previous:
                        out.runs += 1
                        previous = key
                elif kind in breaks:
                    previous = None
        elif detail and isinstance(obj, FaultInjector):
            stats = obj.stats
            out.faults_injected += stats.faults_injected
            out.faults_retries += stats.rotation_retries
            out.faults_mttr_cycles_max = max(
                out.faults_mttr_cycles_max, stats.mttr_cycles_max
            )
        elif detail and isinstance(obj, RecoverableRuntime):
            out.replayed_records += obj.replayed_records
    return out
