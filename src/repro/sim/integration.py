"""The closed loop: compile-time Forecast points driving run-time rotation.

Everything before this module handles one half of RISPP: the forecast
pipeline (§4) produces a :class:`~repro.forecast.annotate.ForecastAnnotation`,
and the run-time manager (§5) reacts to ``forecast``/``execute_si``
calls.  :func:`run_annotated_program` welds them together exactly as the
paper's platform does: an IR program executes block by block; entering a
block that carries an FC Block fires its Forecast points at the manager
(with the compile-time initial values, fine-tuned online by the
monitor); SI calls execute at whatever molecule the fabric currently
offers; plain block cycles advance the clock.

:func:`compile_and_run` is the one-call version: profile the program,
insert the FCs, then execute with rotation — the complete RISPP flow.
Before executing, it runs rispp-lint (:mod:`repro.analysis`) over the
compile-time bundle: ERROR diagnostics abort the run (:class:`LintError`),
WARNINGs surface as Python warnings.  Pass ``lint=False`` to skip.
"""

from __future__ import annotations

import warnings

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from ..cfg.graph import ControlFlowGraph
from ..core.library import SILibrary
from ..forecast import ForecastAnnotation, ForecastDecisionFunction, run_forecast_pipeline
from .executor import profile_program
from .ir import Branch, Exit, Jump, Program

if TYPE_CHECKING:  # runtime.manager imports sim.trace; avoid the cycle
    from ..analysis import DiagnosticReport
    from ..runtime.manager import RisppRuntime


def _enforce(report: "DiagnosticReport") -> None:
    """Fail fast on lint ERRORs; surface WARNINGs without stopping."""
    report.raise_on_error()
    for finding in report.warnings():
        warnings.warn(finding.render(), stacklevel=3)


@dataclass
class AnnotatedRunResult:
    """What one annotated execution produced."""

    total_cycles: int
    core_cycles: int
    si_cycles: int
    block_trace: list[str]
    env: dict
    forecasts_fired: int = 0
    si_executions: dict[str, int] = field(default_factory=dict)

    def si_share(self) -> float:
        if not self.total_cycles:
            return 0.0
        return self.si_cycles / self.total_cycles


def run_annotated_program(
    program: Program,
    annotation: ForecastAnnotation,
    runtime: "RisppRuntime",
    env: dict | None = None,
    *,
    task: str = "main",
    start_cycle: int = 0,
    max_blocks: int = 1_000_000,
    lint: bool = True,
) -> AnnotatedRunResult:
    """Execute ``program`` on the RISPP runtime, honouring the FC blocks.

    The clock advances by each block's plain cycles plus the *actual*
    latency of every SI call (software, partial or full hardware —
    whatever the containers hold when the call happens).
    """
    program.validate()
    annotation.validate_against(program.to_cfg())
    if lint:
        from ..analysis import lint_forecast

        _enforce(
            lint_forecast(
                program.to_cfg(), annotation, subject=f"run:{task}"
            )
        )
    env = env if env is not None else {}
    now = start_cycle
    core_cycles = 0
    si_cycles = 0
    forecasts = 0
    si_counts: dict[str, int] = {}
    trace: list[str] = []
    current = program.entry
    for _ in range(max_blocks):
        block = program.blocks[current]
        trace.append(current)
        # Entering an FC block invokes the run-time system (§4: FCs are
        # combined per block "to ease the run-time computation effort").
        for point in annotation.forecasts_at(current):
            runtime.forecast(
                point.si_name,
                now,
                task=task,
                expected=point.expected_executions,
            )
            forecasts += 1
        core_cycles += block.cycles
        now += block.cycles
        for si_name, calls in block.si_calls.items():
            for _call in range(calls):
                cycles = runtime.execute_si(si_name, now, task=task)
                si_cycles += cycles
                now += cycles
                si_counts[si_name] = si_counts.get(si_name, 0) + 1
        if block.action is not None:
            block.action(env)
        term = block.terminator
        if isinstance(term, Exit):
            return AnnotatedRunResult(
                total_cycles=now - start_cycle,
                core_cycles=core_cycles,
                si_cycles=si_cycles,
                block_trace=trace,
                env=env,
                forecasts_fired=forecasts,
                si_executions=si_counts,
            )
        if isinstance(term, Jump):
            current = term.target
        elif isinstance(term, Branch):
            current = term.if_true if term.condition(env) else term.if_false
        else:  # pragma: no cover - exhaustive over Terminator
            raise TypeError(f"unknown terminator {term!r}")
    raise RuntimeError(f"program did not exit within {max_blocks} blocks")


@dataclass
class CompileAndRunResult:
    """Artifacts of the complete compile-then-run flow."""

    cfg: ControlFlowGraph
    annotation: ForecastAnnotation
    runtime: "RisppRuntime"
    result: AnnotatedRunResult


def compile_and_run(
    program: Program,
    library: SILibrary,
    fdfs: dict[str, ForecastDecisionFunction],
    *,
    containers: int,
    profile_env_factory=None,
    profile_runs: int = 4,
    run_env: dict | None = None,
    distance: str = "expected",
    core_mhz: float = 100.0,
    lint: bool = True,
    energy_model=None,
    fault_injector=None,
    metrics=None,
    backend=None,
    wrap=None,
) -> CompileAndRunResult:
    """The full RISPP flow on one program.

    1. Profile the program (§1's step i);
    2. Insert Forecast points (§4: candidates, trimming, placement);
    3. Lint the compile-time bundle (fail fast on ERROR diagnostics);
    4. Execute with the run-time manager rotating Atoms (§5).
    """
    from ..runtime.manager import RisppRuntime

    cfg, _results = profile_program(
        program, env_factory=profile_env_factory, runs=profile_runs
    )
    annotation = run_forecast_pipeline(
        cfg, library, fdfs, containers, distance=distance
    )
    if lint:
        from ..analysis import lint_flow

        # containers stays un-checked here on purpose: running a library
        # on fewer (even zero) containers is a valid pure-SW baseline.
        _enforce(lint_flow(cfg, library, annotation, fdfs=fdfs, subject="flow"))
    runtime = RisppRuntime(
        library, containers, core_mhz=core_mhz,
        energy_model=energy_model, faults=fault_injector, metrics=metrics,
        backend=backend,
    )
    if wrap is not None:
        # Recovery hook (repro.recovery): wraps the freshly built runtime
        # so the annotated execution is journaled and resumable.
        runtime = wrap(runtime)
    result = run_annotated_program(
        program, annotation, runtime, dict(run_env or {}), lint=False
    )
    return CompileAndRunResult(
        cfg=cfg, annotation=annotation, runtime=runtime, result=result
    )
