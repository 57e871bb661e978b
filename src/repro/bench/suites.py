"""Benchmark suites: end-to-end flows plus hot-path micro-benchmarks.

Three suites cover the repo's workloads:

* ``h264`` — the paper's headline case study: a macroblock-shaped SI
  stream (256 SATD + 24 DCT + 1 HT_4x4 + 2 HT_2x2 per MB, the Fig. 7
  invocation structure) driven through :class:`RisppRuntime`, plus the
  full ``compile_and_run`` flow on an H.264-flavoured IR program.
* ``aes`` — the complete compile-then-run pipeline on the functional
  AES program (profiling + forecast insertion dominate here).
* ``synthetic`` — a small generated library; fast enough for CI's quick
  mode while exercising the same code paths.

Every suite times its end-to-end scenario, compares the trace digest
with the one committed in ``tests/golden/digests.json`` and replays the
trace through rispp-verify.  Micro-benchmarks cover the four run-time
hot paths: molecule selection, rotation planning, ``execute_si`` and
trace recording.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.atom import AtomCatalogue, AtomKind
from ..core.library import SILibrary
from ..core.selection import ForecastedSI, select_greedy
from ..core.si import MoleculeImpl, SpecialInstruction
from ..forecast import ForecastDecisionFunction
from ..hardware.fabric import Fabric
from ..hardware.reconfig import ReconfigurationPort
from ..runtime.manager import RisppRuntime
from ..runtime.replacement import LRUPolicy
from ..runtime.rotation import plan_rotations
from ..sim.ir import Branch, Jump, Program
from ..sim.trace import EventKind, Trace
from .harness import (
    StageResult,
    build_report,
    pinned_digest,
    time_best,
    time_stage,
    trace_digest,
    trace_signature,
)

#: Fig. 7 invocation structure: SI calls of one encoded macroblock.
H264_MACROBLOCK_CALLS = (
    ("SATD_4x4", 256),
    ("DCT_4x4", 24),
    ("HT_4x4", 1),
    ("HT_2x2", 2),
)
#: Loop-head forecasts of the h264 scenario: expected calls per macroblock.
H264_FORECASTS = (
    ("SATD_4x4", 256.0), ("DCT_4x4", 24.0), ("HT_4x4", 1.0), ("HT_2x2", 2.0),
)
SYNTHETIC_FORECASTS = (("SI0", 64.0), ("SI1", 16.0), ("SI2", 4.0), ("SI3", 1.0))
SYNTHETIC_BLOCKS = (("SI0", 64), ("SI1", 16), ("SI2", 4), ("SI3", 1))


# -- generic runtime scenario -------------------------------------------------


def run_si_stream(
    library: SILibrary,
    forecasts: list[tuple[str, float]],
    blocks: list[tuple[str, int]],
    *,
    containers: int,
    block_rounds: int,
    warmup_cycles: int = 700_000,
    inter_block_cycles: int = 5_000,
    energy_model=None,
    fault_injector=None,
    metrics=None,
    backend=None,
    wrap=None,
) -> RisppRuntime:
    """Fire the loop-head forecasts, then execute the SI stream.

    Forecasts re-fire at every block round — the paper's FC points sit at
    the loop head and fire on each entry.  Rotations land while the first
    rounds still execute (the gradual SW -> HW upgrade of Fig. 6); once
    the monitor's fine-tuned expectations match the observed per-round
    counts, the re-firings become steady-state no-op replans (the replan
    skip cache's main prey).
    """
    rt = RisppRuntime(
        library, containers, core_mhz=100.0,
        energy_model=energy_model, faults=fault_injector, metrics=metrics,
        backend=backend,
    )
    if wrap is not None:
        # Recovery hook (repro.recovery): journals the stream so the run
        # can be killed at any command boundary and resumed.
        rt = wrap(rt)
    now = warmup_cycles
    for _ in range(block_rounds):
        for si_name, expected in forecasts:
            rt.forecast(si_name, now, expected=expected)
        for si_name, calls in blocks:
            for _ in range(calls):
                now += rt.execute_si(si_name, now)
        now += inter_block_cycles
    return rt


def end_to_end_stage(
    scenario_name: str,
    run: Callable[[], RisppRuntime],
    *,
    suite: str,
    quick: bool,
    repeats: int,
) -> dict:
    """Time ``run``; check its trace against the pin and rispp-verify.

    ``trace_equal`` is the digest-vs-pin verdict; ``trace_verified``
    replays the trace through the reference machine, so a pin that
    records wrong behaviour cannot pass either.
    """
    from ..analysis.verify import verify_runtime

    wall_s, rt = time_best(run, repeats=repeats)
    digest = trace_digest(rt.trace)
    pin = pinned_digest(suite, quick=quick)
    findings = verify_runtime(rt, subject=f"bench:{suite}").errors()
    simulated = rt.stats.si_cycles
    return {
        "scenario": scenario_name,
        "wall_s": round(wall_s, 6),
        "trace_digest": digest,
        "trace_pin": pin,
        "trace_equal": digest == pin,
        "trace_events": len(rt.trace),
        "si_executions": rt.stats.si_executions,
        "simulated_cycles": simulated,
        "cycles_per_sec": round(simulated / wall_s, 1) if wall_s else 0.0,
        "trace_verified": not findings,
        "verify_findings": [d.render() for d in findings],
    }


# -- micro-benchmarks ---------------------------------------------------------


def micro_stages(
    library: SILibrary,
    forecasts: list[tuple[str, float]],
    *,
    containers: int,
    rounds: int,
    repeats: int,
) -> list[StageResult]:
    """The four hot-path micro-benchmarks over one library."""
    requests = [
        ForecastedSI(library.get(name), weight) for name, weight in forecasts
    ]

    def bench_selection() -> None:
        for _ in range(rounds):
            select_greedy(library, requests, containers)

    demand = select_greedy(library, requests, containers).demand

    def bench_planning() -> None:
        for _ in range(rounds):
            fabric = Fabric(library.catalogue, containers)
            port = ReconfigurationPort(library.catalogue, core_mhz=100.0)
            plan_rotations(
                library, fabric, port, demand, LRUPolicy(), 0
            )

    # A primed runtime: rotations have landed, executions run in hardware.
    rt = RisppRuntime(library, containers, core_mhz=100.0)
    for si_name, expected in forecasts:
        rt.forecast(si_name, 0, expected=expected)
    start = max((j.finish_at for j in rt.port.jobs), default=0) + 1
    exec_rounds = rounds * 10
    exec_si = forecasts[0][0]
    # The runtime is reused across timing repeats; its clock (and hence
    # the trace) must stay monotone, so the cursor lives outside the fn.
    clock = {"now": start}

    def bench_execute() -> None:
        now = clock["now"]
        for _ in range(exec_rounds):
            now += rt.execute_si(exec_si, now)
        clock["now"] = now

    rec_rounds = rounds * 100

    def bench_record() -> None:
        trace = Trace()
        for i in range(rec_rounds):
            trace.record(
                i, EventKind.SI_EXECUTED, task="bench", si=exec_si,
                mode="HW", cycles=12,
            )

    return [
        time_stage(
            "selection", bench_selection,
            iterations=rounds, repeats=repeats, unit="selections/s",
        ),
        selection_backend_stage(
            library, forecasts, containers=containers,
            rounds=rounds, repeats=repeats,
        ),
        time_stage(
            "rotation_planning", bench_planning,
            iterations=rounds, repeats=repeats, unit="plans/s",
        ),
        time_stage(
            "execute_si", bench_execute,
            iterations=exec_rounds, repeats=repeats, unit="execs/s",
        ),
        time_stage(
            "trace_record", bench_record,
            iterations=rec_rounds, repeats=repeats, unit="events/s",
        ),
        metrics_overhead_stage(
            library, forecasts, containers=containers,
            rounds=rounds, repeats=repeats,
        ),
    ]


def selection_backend_stage(
    library: SILibrary,
    forecasts: list[tuple[str, float]],
    *,
    containers: int,
    rounds: int,
    repeats: int,
) -> StageResult:
    """Reference vs numpy selection kernels on one library.

    Times the greedy selection loop on both compute backends (stage
    throughput is the *numpy* backend's; ``extra.speedup`` records the
    vectorization win, with a >=10x target on the shipped suites) and
    enforces the PR-2/3-style equivalence contract along the way:

    * identical ``SelectionResult`` objects from both backends for the
      suite's forecast mix (greedy and exhaustive),
    * identical event traces from a short end-to-end scenario run once
      per backend, and
    * both of those traces replaying cleanly through rispp-verify's
      reference machine.

    Without numpy installed the stage degrades to timing the reference
    backend alone and reports ``numpy_available: False``.
    """
    from ..core.backend import BackendUnavailableError, get_backend
    from ..core.selection import select_exhaustive

    requests = [
        ForecastedSI(library.get(name), weight) for name, weight in forecasts
    ]
    reference = get_backend("reference")

    def selection_loop(backend) -> None:
        for _ in range(rounds):
            select_greedy(library, requests, containers, backend=backend)

    try:
        vectorized = get_backend("numpy")
    except BackendUnavailableError:  # pragma: no cover - numpy ships
        wall_s, _ = time_best(
            lambda: selection_loop(reference), repeats=repeats
        )
        return StageResult(
            name="selection_backend", wall_s=wall_s, iterations=rounds,
            repeats=repeats, unit="selections/s",
            extra={"numpy_available": False},
        )

    reference_s, _ = time_best(
        lambda: selection_loop(reference), repeats=repeats
    )
    numpy_s, _ = time_best(
        lambda: selection_loop(vectorized), repeats=repeats
    )

    results_equal = (
        select_greedy(library, requests, containers, backend=reference)
        == select_greedy(library, requests, containers, backend=vectorized)
        and select_exhaustive(library, requests, containers, backend=reference)
        == select_exhaustive(library, requests, containers, backend=vectorized)
    )

    # Short end-to-end scenario per backend: the traces must match
    # event-for-event, and both must satisfy the reference machine.
    blocks = [
        (name, max(1, min(int(weight), 8))) for name, weight in forecasts
    ]

    def scenario(backend_name: str) -> RisppRuntime:
        return run_si_stream(
            library, forecasts, blocks, containers=containers,
            block_rounds=2, backend=backend_name,
        )

    reference_rt = scenario("reference")
    numpy_rt = scenario("numpy")
    trace_equal = trace_signature(reference_rt.trace) == trace_signature(
        numpy_rt.trace
    )
    from ..analysis.verify import verify_runtime

    trace_verified = all(
        verify_runtime(rt, subject=f"bench:{name}").ok()
        for name, rt in (("reference", reference_rt), ("numpy", numpy_rt))
    )

    return StageResult(
        name="selection_backend",
        wall_s=numpy_s,
        iterations=rounds,
        repeats=repeats,
        unit="selections/s",
        extra={
            "numpy_available": True,
            "reference_s": round(reference_s, 6),
            "numpy_s": round(numpy_s, 6),
            "speedup": round(reference_s / numpy_s, 2) if numpy_s else 0.0,
            "results_equal": results_equal,
            "trace_equal": trace_equal,
            "trace_verified": trace_verified,
        },
    )


def metrics_overhead_stage(
    library: SILibrary,
    forecasts: list[tuple[str, float]],
    *,
    containers: int,
    rounds: int,
    repeats: int,
) -> StageResult:
    """Telemetry cost on the ``execute_si`` hot loop (repro.obs).

    Two numbers, measured on primed runtimes (rotations landed,
    executions in hardware):

    * ``enabled_overhead_pct`` — wall time of the hot loop with a live
      :class:`~repro.obs.MetricRegistry` vs the disabled default
      (informational; telemetry on is allowed to cost something).
    * ``disabled_overhead_pct`` — the disabled path's *only* per-event
      work is one pre-resolved boolean guard (``self._obs_on``); no
      uninstrumented twin exists to diff against, so the guard is timed
      directly in a burst loop against an empty loop and scaled to one
      guard evaluation per execution.  The regression tests pin this
      below 3%.
    """
    from ..obs import MetricRegistry

    def primed(metrics) -> tuple[RisppRuntime, int]:
        rt = RisppRuntime(
            library, containers, core_mhz=100.0, metrics=metrics
        )
        for si_name, expected in forecasts:
            rt.forecast(si_name, 0, expected=expected)
        start = max((j.finish_at for j in rt.port.jobs), default=0) + 1
        return rt, start

    exec_rounds = rounds * 10
    exec_si = forecasts[0][0]

    def exec_loop(rt: RisppRuntime, clock: dict) -> Callable[[], None]:
        def fn() -> None:
            now = clock["now"]
            for _ in range(exec_rounds):
                now += rt.execute_si(exec_si, now)
            clock["now"] = now

        return fn

    rt_off, start_off = primed(None)
    off_s, _ = time_best(exec_loop(rt_off, {"now": start_off}), repeats=repeats)
    rt_on, start_on = primed(MetricRegistry())
    on_s, _ = time_best(exec_loop(rt_on, {"now": start_on}), repeats=repeats)

    guard_rounds = exec_rounds * 50

    def guard_loop() -> None:
        for _ in range(guard_rounds):
            if rt_off._obs_on:  # the disabled path's per-event work
                pass

    def empty_loop() -> None:
        for _ in range(guard_rounds):
            pass

    guard_s, _ = time_best(guard_loop, repeats=repeats)
    empty_s, _ = time_best(empty_loop, repeats=repeats)
    guard_cost_s = max(0.0, guard_s - empty_s) / guard_rounds
    per_exec_s = off_s / exec_rounds if exec_rounds else 0.0
    disabled_pct = (
        100.0 * guard_cost_s / per_exec_s if per_exec_s > 0 else 0.0
    )
    enabled_pct = 100.0 * (on_s - off_s) / off_s if off_s > 0 else 0.0
    return StageResult(
        name="metrics_overhead",
        wall_s=off_s,
        iterations=exec_rounds,
        repeats=repeats,
        unit="execs/s",
        extra={
            "disabled_overhead_pct": round(disabled_pct, 3),
            "enabled_overhead_pct": round(enabled_pct, 2),
            "guard_ns": round(guard_cost_s * 1e9, 2),
            "enabled_wall_s": round(on_s, 6),
        },
    )


def state_explore_stage(*, quick: bool) -> StageResult:
    """Throughput of the rispp-explore bounded model checker (states/s).

    Runs a capped BFS over the tiny scope — the cap keeps the stage
    seconds-scale, so ``complete`` is False here and no proof is
    claimed; the CI ``explore`` job owns the exhaustive runs.  The
    dedupe ratio is reported because memoized revisits are the
    explorer's main cost lever.
    """
    from ..analysis.explore import explore

    cap = 400 if quick else 2000
    holder: dict[str, Any] = {}

    def run() -> None:
        holder["result"] = explore("tiny", max_states=cap)

    stage = time_stage(
        "state_explore", run,
        iterations=1, repeats=1 if quick else 2, unit="states/s",
    )
    result = holder["result"]
    stage.iterations = result.states_explored
    stage.extra = {
        "scope": result.scope,
        "max_states": cap,
        "states_explored": result.states_explored,
        "transitions": result.transitions,
        "dedupe_ratio": round(result.dedupe_ratio(), 4),
        "complete": result.complete,
        "violations": len(result.report),
    }
    return stage


def audit_stage(*, quick: bool) -> StageResult:
    """Wall time of the rispp-audit source analyzer over the shipped tree.

    A full parse-and-check of ``src/repro`` (no imports executed), the
    same run the CI ``audit`` job gates on.  Throughput is files/s; the
    finding counts are recorded so a regression that silently starts
    flagging (or missing) findings shows up in ``BENCH_runtime.json``.
    """
    from ..analysis.audit import run_audit

    holder: dict[str, Any] = {}

    def run() -> None:
        holder["result"] = run_audit()

    stage = time_stage(
        "audit", run, iterations=1, repeats=1 if quick else 3, unit="files/s",
    )
    result = holder["result"]
    stage.iterations = result.files_scanned
    stage.extra = {
        "files_scanned": result.files_scanned,
        "findings": len(result.report),
        "suppressed": result.suppressed,
        "stale_suppressions": len(result.stale_suppressions),
        "exit_code": result.exit_code(),
    }
    return stage


def recovery_stage(*, quick: bool, checkpoint_every: int = 16) -> StageResult:
    """Snapshot throughput and resume latency of ``repro.recovery``.

    The timed run drives the synthetic SI stream journaled into a
    temporary store, checkpointing every ``checkpoint_every`` commands —
    throughput is whole-world snapshots per second.  ``resume_s`` is the
    separately-timed cost of coming back: restore the latest snapshot
    into a fresh runtime and replay the journal tail.  ``trace_equal``
    asserts both the journaled and the resumed traces are identical to
    an uninterrupted run — the same crash-consistency guarantee the CI
    crash-recovery job checks end to end with real process kills.
    """
    from pathlib import Path
    from tempfile import TemporaryDirectory

    from ..recovery import RecoverableRuntime, latest_snapshot

    library = build_synthetic_library()
    rounds = 6 if quick else 20

    def scenario(wrap: Any = None) -> RisppRuntime:
        return run_si_stream(
            library, list(SYNTHETIC_FORECASTS), list(SYNTHETIC_BLOCKS),
            containers=5, block_rounds=rounds, wrap=wrap,
        )

    reference_sig = trace_signature(scenario().trace)
    holder: dict[str, Any] = {}

    with TemporaryDirectory(prefix="rispp-bench-recovery-") as tmp:
        store = Path(tmp)

        def journaled() -> None:
            rec = scenario(
                wrap=lambda rt: RecoverableRuntime(
                    rt, store, checkpoint_every=checkpoint_every
                )
            )
            rec.close()
            holder["run"] = rec

        stage = time_stage(
            "recovery", journaled,
            iterations=1, repeats=1 if quick else 2, unit="snapshots/s",
        )
        run = holder["run"]
        found = latest_snapshot(store)
        snapshot_bytes = found[1].stat().st_size if found is not None else 0

        def resume() -> Any:
            rec = RecoverableRuntime(
                RisppRuntime(library, 5, core_mhz=100.0),
                store, checkpoint_every=checkpoint_every, resume=True,
            )
            rec.close()
            return rec

        resume_s, resumed = time_best(resume, repeats=1 if quick else 3)

    trace_equal = (
        trace_signature(run.trace) == reference_sig
        and trace_signature(resumed.trace) == reference_sig
    )
    stage.iterations = run.snapshots_taken
    stage.extra = {
        "checkpoint_every": checkpoint_every,
        "snapshots": run.snapshots_taken,
        "snapshot_bytes": snapshot_bytes,
        "journal_records": run.journal_records,
        "replayed": resumed.replayed_records,
        "resume_s": round(resume_s, 6),
        "trace_equal": trace_equal,
    }
    return stage


def serve_stage(*, quick: bool) -> StageResult:
    """Scenario-daemon throughput through the RuntimeFacade (scenarios/s).

    Pushes one batch of seeded quick chaos scenarios through a 1-worker
    and a 4-worker :class:`repro.serve.RuntimeFacade` (each pool warmed
    with an untimed batch first, so process spawn and imports stay out
    of the measurement).  Throughput is the 4-worker figure; the
    1-worker wall time and the resulting speedup ride along in
    ``extra``, and ``results_equal`` asserts both pools returned
    byte-identical responses per request — the serve determinism
    contract the CLI turns into the bench exit code.
    """
    from ..serve import RuntimeFacade

    seeds = (3, 5) if quick else (3, 5, 7, 11)
    payloads = [
        {"suite": "synthetic", "seed": seed, "fault_rate": 50.0, "quick": True}
        for seed in seeds
    ]

    def batch(facade: Any) -> list[str]:
        futures = [facade.submit(p) for p in payloads]
        return [f.result() for f in futures]

    wall: dict[int, float] = {}
    results: dict[int, list[str]] = {}
    for workers in (1, 4):
        with RuntimeFacade(workers=workers) as facade:
            batch(facade)  # warm the pool
            wall[workers], results[workers] = time_best(
                lambda: batch(facade), repeats=1 if quick else 2
            )
    speedup = wall[1] / wall[4] if wall[4] > 0 else float("inf")
    return StageResult(
        name="serve",
        wall_s=wall[4],
        iterations=len(payloads),
        repeats=1 if quick else 2,
        unit="scenarios/s",
        extra={
            "workers": 4,
            "scenarios": len(payloads),
            "seeds": list(seeds),
            "wall_1_worker_s": round(wall[1], 6),
            "wall_4_workers_s": round(wall[4], 6),
            "speedup_4_workers": round(speedup, 2),
            "results_equal": results[1] == results[4],
        },
    )


# -- compile_and_run stages ---------------------------------------------------


def _fdfs_for(
    library: SILibrary, si_names: list[str], *, t_rot: float = 85_000.0
) -> dict[str, ForecastDecisionFunction]:
    fdfs = {}
    for name in si_names:
        si = library.get(name)
        fdfs[name] = ForecastDecisionFunction(
            t_rot=t_rot,
            t_sw=float(si.software_cycles),
            t_hw=float(si.fastest_molecule().cycles),
            rotation_energy=2_000.0,
        )
    return fdfs


def h264_loop_program(macroblocks: int) -> Program:
    """A macroblock-loop IR program with the Fig. 7 SI call mix.

    The per-block call counts are scaled down (the forecast pipeline
    profiles the program several times) while keeping every SI present.
    """
    p = Program("init")
    p.block(
        "init", cycles=100,
        action=lambda env: env.setdefault("mb", 0),
        terminator=Jump("warmup"),
    )
    p.block("warmup", cycles=700_000, terminator=Jump("mb_loop"))

    def bump(env):
        env["mb"] += 1

    p.block(
        "mb_loop",
        cycles=200,
        si_calls={"SATD_4x4": 16, "DCT_4x4": 6, "HT_4x4": 1, "HT_2x2": 2},
        action=bump,
        terminator=Branch(lambda env: env["mb"] < macroblocks, "mb_loop", "done"),
    )
    p.block("done", cycles=10)
    return p


def compile_and_run_stage(
    name: str,
    flow: Callable[[], object],
    *,
    repeats: int,
) -> StageResult:
    import warnings

    with warnings.catch_warnings():
        # Library-level lint advisories (e.g. dominated molecules) are
        # not bench output; `repro lint` reports them properly.
        warnings.simplefilter("ignore")
        wall, result = time_best(flow, repeats=repeats)
    extra = {}
    run = getattr(result, "result", None)
    if run is not None:
        extra = {
            "total_cycles": run.total_cycles,
            "si_executions": sum(run.si_executions.values()),
            "forecasts_fired": run.forecasts_fired,
        }
    return StageResult(
        name=name, wall_s=wall, iterations=1, repeats=repeats,
        unit="flows/s", extra=extra,
    )


# -- suites -------------------------------------------------------------------


def _metrics_snapshot(suite: str, *, quick: bool) -> dict:
    """One untimed instrumented scenario run, as a deterministic snapshot.

    The run is separate from the timed ones (which stay uninstrumented),
    so the snapshot costs nothing on the measured paths and — being
    deterministic-series-only — is byte-identical across report runs.
    """
    from ..obs import MetricRegistry, snapshot
    from ..obs.suites import METRIC_SUITES

    registry = MetricRegistry()
    METRIC_SUITES[suite](registry, quick=quick)
    return snapshot(registry, deterministic_only=True)


def h264_scenario(library: SILibrary, *, quick: bool) -> RisppRuntime:
    """The h264 suite's end-to-end run: a 6- or 40-macroblock SI stream."""
    return run_si_stream(
        library, list(H264_FORECASTS), list(H264_MACROBLOCK_CALLS),
        containers=6, block_rounds=6 if quick else 40,
    )


def aes_flow(library: SILibrary):
    """The aes suite's end-to-end run: the whole compile-then-run flow."""
    from ..apps.aes import build_aes_program, default_aes_fdfs
    from ..sim.integration import compile_and_run

    return compile_and_run(
        build_aes_program(),
        library,
        default_aes_fdfs(),
        containers=6,
        profile_env_factory=lambda i: {
            "plaintext": bytes([i % 256] * 16),
            "key": bytes([(255 - i) % 256] * 16),
        },
        run_env={"plaintext": b"\x21" * 16, "key": b"\x42" * 16},
        profile_runs=2,
    )


def synthetic_scenario(library: SILibrary, *, quick: bool) -> RisppRuntime:
    """The synthetic suite's end-to-end run: a 10- or 60-round SI stream."""
    return run_si_stream(
        library, list(SYNTHETIC_FORECASTS), list(SYNTHETIC_BLOCKS),
        containers=5, block_rounds=10 if quick else 60,
    )


def scenario_runtime(suite: str, *, quick: bool) -> RisppRuntime:
    """Run one suite's end-to-end scenario on a fresh library.

    This is the run whose trace digest ``tests/golden/digests.json``
    pins per suite and mode.
    """
    if suite == "h264":
        from ..apps.h264 import build_h264_library

        return h264_scenario(build_h264_library(), quick=quick)
    if suite == "aes":
        from ..apps.aes import build_aes_library

        return aes_flow(build_aes_library()).runtime
    if suite == "synthetic":
        return synthetic_scenario(build_synthetic_library(), quick=quick)
    raise ValueError(f"unknown bench suite {suite!r}; choose from {sorted(SUITES)}")


def run_h264(*, quick: bool = False) -> dict:
    from ..apps.h264 import build_h264_library
    from ..sim.integration import compile_and_run

    library = build_h264_library()
    forecasts = list(H264_FORECASTS)
    macroblocks = 6 if quick else 40
    repeats = 2 if quick else 3
    end_to_end = end_to_end_stage(
        f"h264 encoder scenario ({macroblocks} macroblocks)",
        lambda: h264_scenario(library, quick=quick),
        suite="h264", quick=quick, repeats=repeats,
    )
    stages = [
        compile_and_run_stage(
            "compile_and_run",
            lambda: compile_and_run(
                h264_loop_program(4 if quick else 12),
                library,
                _fdfs_for(library, [n for n, _ in forecasts]),
                containers=6,
                profile_runs=2,
            ),
            repeats=repeats,
        )
    ]
    stages += micro_stages(
        library, forecasts, containers=6,
        rounds=20 if quick else 100, repeats=repeats,
    )
    return build_report(
        "h264", quick=quick, end_to_end=end_to_end, stages=stages,
        metrics=_metrics_snapshot("h264", quick=quick),
    )


def run_aes(*, quick: bool = False) -> dict:
    from ..apps.aes import build_aes_library

    library = build_aes_library()
    repeats = 2 if quick else 3
    end_to_end = end_to_end_stage(
        "aes compile_and_run",
        lambda: aes_flow(library).runtime,
        suite="aes", quick=quick, repeats=repeats,
    )
    forecasts = [("SUBBYTES", 10.0), ("MIXCOL", 9.0), ("KEYEXP", 10.0)]
    stages = micro_stages(
        library, forecasts, containers=6,
        rounds=20 if quick else 100, repeats=repeats,
    )
    return build_report(
        "aes", quick=quick, end_to_end=end_to_end, stages=stages,
        metrics=_metrics_snapshot("aes", quick=quick),
    )


def build_synthetic_library(
    *, kinds: int = 6, sis: int = 4
) -> SILibrary:
    """A generated library shaped like the case studies, but tiny."""
    atom_kinds = [
        AtomKind(f"Syn{i}", bitstream_bytes=40_000 + 4_000 * i)
        for i in range(kinds)
    ]
    catalogue = AtomCatalogue.of(atom_kinds)
    space = catalogue.space
    instructions = []
    for s in range(sis):
        base = {f"Syn{(s + j) % kinds}": 1 for j in range(2)}
        big = dict(base)
        big[f"Syn{(s + 2) % kinds}"] = 2
        instructions.append(
            SpecialInstruction(
                f"SI{s}",
                space,
                software_cycles=300 + 50 * s,
                implementations=[
                    MoleculeImpl(space.molecule(base), 40 + 10 * s),
                    MoleculeImpl(space.molecule(big), 12 + 4 * s),
                ],
            )
        )
    return SILibrary(catalogue, instructions)


def run_synthetic(*, quick: bool = False, checkpoint_every: int = 16) -> dict:
    library = build_synthetic_library()
    rounds = 10 if quick else 60
    repeats = 2 if quick else 3
    end_to_end = end_to_end_stage(
        f"synthetic SI stream ({rounds} rounds)",
        lambda: synthetic_scenario(library, quick=quick),
        suite="synthetic", quick=quick, repeats=repeats,
    )
    stages = micro_stages(
        library, list(SYNTHETIC_FORECASTS), containers=5,
        rounds=20 if quick else 100, repeats=repeats,
    )
    stages.append(state_explore_stage(quick=quick))
    stages.append(audit_stage(quick=quick))
    stages.append(
        recovery_stage(quick=quick, checkpoint_every=checkpoint_every)
    )
    stages.append(serve_stage(quick=quick))
    return build_report(
        "synthetic", quick=quick, end_to_end=end_to_end, stages=stages,
        metrics=_metrics_snapshot("synthetic", quick=quick),
    )


SUITES: dict[str, Callable[..., dict]] = {
    "h264": run_h264,
    "aes": run_aes,
    "synthetic": run_synthetic,
}


def run_suite(
    name: str, *, quick: bool = False, checkpoint_every: int = 16
) -> dict:
    """Run one named suite and return its report dict.

    ``checkpoint_every`` sets the journal-commands-per-snapshot cadence
    of the ``recovery`` stage; only the ``synthetic`` suite carries it.
    """
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown bench suite {name!r}; choose from {sorted(SUITES)}"
        ) from None
    if name == "synthetic":
        return suite(quick=quick, checkpoint_every=checkpoint_every)
    return suite(quick=quick)
