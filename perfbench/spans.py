"""Span tracing from outside the program, for the traced run only.

:class:`Tracer` replaces the layer-boundary functions listed in
:data:`SPANS` with wrappers that record one span per call: name, start,
end, parent span and operation id.  Spans live in flat in-memory arrays
and are written to disk once, when the run ends.  A span's self time is
its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: ``(span name, module, attribute path)``.  A path ending in
#: ``:name`` patches a keyword default instead of an attribute, for
#: callables the program binds as default arguments.  Module-level
#: names are patched where the caller looks them up.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("runtime.execute_si", "repro.runtime.manager", "RisppRuntime.execute_si"),
    ("runtime.advance", "repro.runtime.manager", "RisppRuntime.advance"),
    ("runtime.forecast", "repro.runtime.manager", "RisppRuntime.forecast"),
    ("runtime.bus_publish", "repro.runtime.events", "EventBus.publish"),
    ("runtime.plan_rotations", "repro.runtime.manager", "plan_rotations"),
    ("core.select", "repro.runtime.manager", "RisppRuntime.__init__:selection"),
    ("core.best_available", "repro.core.si", "SpecialInstruction.best_available"),
    ("hardware.touch_atoms", "repro.hardware.fabric", "Fabric.touch_atoms"),
    ("hardware.available_atoms", "repro.hardware.fabric", "Fabric.available_atoms"),
    ("hardware.port_advance", "repro.hardware.reconfig", "ReconfigurationPort.advance"),
    ("sim.trace_record", "repro.sim.trace", "Trace.record"),
    ("sim.trace_record", "repro.sim.trace", "Trace.record_lazy"),
    ("faults.step", "repro.faults.injector", "FaultInjector.step"),
    ("analysis.verify", "repro.analysis.verify", "verify_runtime"),
    ("analysis.feasibility", "repro.analysis.feasibility", "prove_feasibility"),
    ("recovery.journal_append", "repro.recovery.journal", "JournalWriter.append"),
    ("recovery.snapshot", "repro.recovery.runtime", "RecoverableRuntime._checkpoint"),
    ("recovery.restore", "repro.recovery.runtime", "load_snapshot"),
    ("recovery.restore", "repro.recovery.runtime", "restore_runtime"),
    ("compile.profile", "repro.sim.integration", "profile_program"),
    ("compile.forecast", "repro.sim.integration", "run_forecast_pipeline"),
    ("compile.lint", "repro.analysis", "lint_flow"),
)

#: Span names in report order (``sim.trace_record`` covers two functions).
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in SPANS))
#: Layers that have spans, in report order.
SPAN_LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(name.split(".", 1)[0] for name in SPAN_NAMES)
)


class Tracer:
    """Records spans while an operation is open; idle wrappers pass through."""

    def __init__(self) -> None:
        self.names: list[str] = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.span = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_times: list[tuple[int, float]] = []
        self._stack: list[int] = []
        self._current_op = -1
        self._op_start = 0.0
        self._undo: list[Callable[[], None]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for name, module_name, path in SPANS:
            module = importlib.import_module(module_name)
            attr_path, _, default = path.partition(":")
            owner: Any = module
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            sid = self._ids[name]
            if default:
                function = inspect.unwrap(getattr(owner, attr))
                defaults = function.__kwdefaults__
                original = defaults[default]
                defaults[default] = self._wrap(original, sid)
                self._undo.append(
                    functools.partial(defaults.__setitem__, default, original)
                )
            else:
                # A class's own __dict__ entry, so restoring puts back
                # exactly what was there (no bound-method surprises).
                original = (
                    owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr)
                )
                setattr(owner, attr, self._wrap(original, sid))
                self._undo.append(functools.partial(setattr, owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, function: Callable[..., Any], sid: int) -> Callable[..., Any]:
        tracer = self
        stack = self._stack
        span, parent, op = self.span, self.parent, self.op
        start, end = self.start, self.end

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer._current_op < 0:
                return function(*args, **kwargs)
            index = len(span)
            span.append(sid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer._current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            began = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                start[index] = began
                stack.pop()

        return traced

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._stack.clear()
        self._current_op = op_id
        self._op_start = perf_counter()

    def end_op(self) -> float:
        elapsed = perf_counter() - self._op_start
        self.op_times.append((self._current_op, elapsed))
        self._current_op = -1
        return elapsed

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (count, busy seconds, self seconds)`` over all spans."""
        n = len(self.span)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        count = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            sid = self.span[i]
            duration = end[i] - start[i]
            count[sid] += 1
            busy[sid] += duration
            own[sid] += duration - child[i]
        return {
            name: (count[i], busy[i], own[i]) for i, name in enumerate(self.names)
        }

    def write(self, path: Path, meta: dict[str, Any]) -> None:
        """Write every span: ``path`` (JSON header) plus ``path.bin`` columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("span", "parent", "op", "start", "end")
        header = {
            **meta,
            "spans": len(self.span),
            "names": self.names,
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "op_times": self.op_times,
        }
        path.write_text(json.dumps(header, indent=1) + "\n", encoding="utf-8")
        with open(path.with_suffix(path.suffix + ".bin"), "wb") as out:
            for column in columns:
                getattr(self, column).tofile(out)
