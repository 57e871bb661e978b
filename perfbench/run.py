"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones from a count run
(cProfile over one operation), an untraced pass and a traced pass whose
spans are written under ``.bench_work/spans/``.  The line before it
echoes the workload, the seed, the sample counts and the inputs.
In-process operation times are scaled to a reference host speed
(``calibrate.py``); served requests and set-ups are raw.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("stream_h264", "chaos_h264", "recover_h264", "serve_mixed")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: ``(name, unit)`` of the end-to-end metrics, printed with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("si_exec_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("sim_cycles", "cycles"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units() -> dict[str, str]:
    """``name -> unit`` of the per-layer metrics, printed with ``--trace 1``."""
    from perfbench.layers import LAYERS
    from perfbench.spans import SPAN_LAYERS, SPAN_NAMES

    units: dict[str, str] = {}
    for layer in (*LAYERS, "total"):
        units[f"calls_per_si.{layer}"] = "calls/si"
    units["core.molecules_built"] = "count/op"
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "ratio"
    for span in SPAN_NAMES:
        units[f"{span}.count"] = "count/op"
        units[f"{span}.busy_s"] = "s/op"
        units[f"{span}.self_s"] = "s/op"
    for layer in SPAN_LAYERS:
        units[f"{layer}.self_s"] = "s/op"
    units["trace.overhead"] = "ratio"
    units.update({
        "runtime.replans": "count/op",
        "runtime.replans_skipped": "count/op",
        "runtime.replan_skip_ratio": "ratio",
        "runtime.hw_fraction": "ratio",
        "runtime.mode_switches": "count/op",
        "runtime.run_len_mean": "execs",
        "hardware.rotations": "count/op",
        "hardware.port_busy_cycles": "cycles/op",
        "hardware.port_queue_cycles": "cycles/op",
        "faults.injected": "count/op",
        "faults.retries": "count/op",
        "faults.mttr_cycles_max": "cycles",
        "sim.trace_events": "count/op",
        "recovery.snapshot_bytes": "bytes",
        "recovery.replayed_records": "count/op",
        "recovery.resume_s": "s",
        "serve.render_s": "s",
        "serve.pool_s": "s",
        "serve.http_s": "s",
        "serve.worker_busy_frac": "ratio",
        "error_rate": "ratio",
    })
    return units


# -- operations ---------------------------------------------------------------


@dataclass
class Op:
    """One operation; ``latency_s`` is ``raw_s`` scaled to reference speed."""

    key: int
    raw_s: float
    probe_s: float
    ok: bool
    counters: Any
    extra: dict[str, float] = field(default_factory=dict)
    latency_s: float = 0.0


def report_failure(workload: str, key: int, exc: BaseException | None) -> None:
    """Say on stderr which operation failed, and why when it raised."""
    print(f"perfbench: {workload} operation on input {key} failed", file=sys.stderr)
    if exc is not None:
        traceback.print_exception(exc, file=sys.stderr)


def run_op(workload: Any, capture: Any, key: int, *, detail: bool,
           tracer: Any = None, op_id: int = 0, execute: Any = None) -> Op:
    """One timed operation, with its untimed preparation and check.

    ``execute`` replaces ``workload.execute`` (the count run profiles it).
    """
    from perfbench.calibrate import probe
    from perfbench.layers import op_counters

    workload.prepare(key)
    probe_s = probe()
    capture.on = True
    if tracer is not None:
        tracer.begin_op(op_id)
    error: BaseException | None = None
    began = perf_counter()
    try:
        out = (execute or workload.execute)(key)
    except Exception as exc:  # counted as a failed operation
        out, error = None, exc
    latency = perf_counter() - began
    if tracer is not None:
        tracer.end_op()
    capture.on = False
    objects = capture.take()
    ok = False
    if error is None:
        try:
            ok = bool(workload.check(key, out, objects))
        except Exception as exc:  # a check that cannot run is a failure
            error = exc
    if not ok:
        report_failure(workload.name, key, error)
    return Op(key, latency, probe_s, ok,
              op_counters(objects, detail=detail), workload.extra(out))


def closed_loop(workload: Any, capture: Any, seconds: float, *,
                detail: bool = False, tracer: Any = None) -> list[Op]:
    """Whole passes over the inputs until ``seconds`` have passed.

    Ending on a pass boundary weighs every input the same.  Each
    operation is scaled by the mean of the host-speed probes taken just
    before it and just after it.
    """
    from perfbench.calibrate import probe, scaled

    n = len(workload.inputs)
    ops: list[Op] = []
    began = perf_counter()
    while not ops or len(ops) % n or perf_counter() - began < seconds:
        ops.append(run_op(
            workload, capture, len(ops) % n, detail=detail and len(ops) < n,
            tracer=tracer, op_id=len(ops),
        ))
    after = [op.probe_s for op in ops[1:]] + [probe()]
    for op, probe_after in zip(ops, after):
        op.latency_s = scaled(op.raw_s, (op.probe_s + probe_after) / 2)
    return ops


def warm(workload: Any) -> None:
    """Untimed work so caches fill and lazy imports finish."""
    try:
        workload.warm()
    except Exception:  # the timed operations will count the failure
        pass


# -- statistics -----------------------------------------------------------------


def p95(values: list[float]) -> float:
    """95th percentile; ``inclusive`` because whole passes make the
    operations the population of inputs, not a sample of it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- set-up ---------------------------------------------------------------------


def time_setups(args: argparse.Namespace) -> list[float]:
    """Time ``SETUP_SAMPLES`` fresh processes from start to first operation.

    Set-up times stay raw: the child may run on the other core, so a
    probe in this process does not track its speed (scaling doubled the
    spread of repeated set-ups).
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        began = perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        assert child.stdout is not None
        line = child.stdout.readline()
        samples.append(perf_counter() - began)
        child.stdout.close()
        if child.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return samples


# -- the two kinds of run ----------------------------------------------------------


def end_to_end(
    workload: Any, capture: Any, args: argparse.Namespace
) -> tuple[dict, list, dict]:
    """The untraced run: every end-to-end metric.

    In-process operation times are scaled to reference speed.  Served
    requests stay raw, like set-ups: their work runs in other processes
    on either core, so a probe in this process does not track it
    (scaling doubled the spread of served latencies).
    """
    if workload.name == "serve_mixed":
        workload.setup()
        setup = []
        for i in range(SETUP_SAMPLES):
            setup.append(workload.start())
            if i < SETUP_SAMPLES - 1:
                workload.stop()
        requests, _wall = workload.run_http(
            args.seconds, min_requests=len(workload.inputs)
        )
        rss = workload.peak_rss_mb()
        workload.stop()
        replay = closed_loop(workload, capture, 0.0)
        si_per_key = {op.key: op.counters.si_executions for op in replay}
        samples = []
        for r in requests:
            ok = workload.request_ok(r)
            if not ok:
                report_failure(workload.name, r.key, None)
            samples.append((r.latency_s, ok, si_per_key[r.key]))
        cycles = sum(op.counters.si_cycles for op in replay)
        callers = workload.CONNECTIONS
        raw = [r.latency_s for r in requests]
    else:
        setup = time_setups(args)
        workload.setup()
        warm(workload)
        ops = closed_loop(workload, capture, args.seconds)
        samples = [(op.latency_s, op.ok, op.counters.si_executions) for op in ops]
        cycles = sum(op.counters.si_cycles for op in ops[:len(workload.inputs)])
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        callers = 1
        raw = [op.raw_s for op in ops]
    # Closed loop: throughput is callers / mean latency (Little's law),
    # and a failed operation counts as unanswered for the whole run.
    busy = sum(lat for lat, _, _ in samples)
    run_s = busy / callers
    lat = [lat if ok else run_s for lat, ok, _ in samples]
    metrics = {
        "setup_s": statistics.median(setup),
        "si_exec_per_s": ratio(sum(si for _, ok, si in samples if ok), run_s),
        "requests_per_s": ratio(sum(ok for _, ok, _ in samples), run_s),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p95_ms": p95(lat) * 1e3,
        "sim_cycles": cycles,
        "peak_rss_mb": rss,
    }
    notes = {
        "samples": len(lat),
        "beyond_p95": sum(x > metrics["latency_p95_ms"] / 1e3 for x in lat),
        "raw_latency_p50_ms": f"{statistics.median(raw) * 1e3:.2f}",
    }
    return metrics, [ok for _, ok, _ in samples], notes


def profile_ops(workload: Any, capture: Any, keys: list[int]) -> tuple[Any, list[Op]]:
    """The count run: cProfile over one operation per key, summed."""
    from perfbench.layers import LAYERS, CountRun, count_run

    total = CountRun(dict.fromkeys(LAYERS, 0), dict.fromkeys(LAYERS, 0.0), 0)

    def profiled(key: int) -> Any:
        holder: dict[str, Any] = {}
        run = count_run(lambda: holder.__setitem__("out", workload.execute(key)))
        for layer in LAYERS:
            total.calls[layer] += run.calls[layer]
            total.self_s[layer] += run.self_s[layer]
        total.molecules_built += run.molecules_built
        return holder["out"]

    ops = [run_op(workload, capture, key, detail=False, execute=profiled)
           for key in keys]
    return total, ops


def layers(
    workload: Any, capture: Any, args: argparse.Namespace
) -> tuple[dict, list, dict]:
    """The traced run: every per-layer metric."""
    from perfbench.layers import LAYERS
    from perfbench.spans import SPAN_LAYERS, SPAN_NAMES, Tracer

    serve = workload.name == "serve_mixed"
    workload.setup()
    if serve:
        workload.start()
    warm(workload)
    phase = args.seconds / (4 if serve else 3)
    keys = [0, 1] if serve else [0]
    counted, profiled = profile_ops(workload, capture, keys)
    untraced = closed_loop(workload, capture, phase, detail=True)
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(workload, capture, phase, tracer=tracer)
    finally:
        tracer.uninstall()
    outcomes = [op.ok for op in (*profiled, *untraced, *traced)]

    n = len(workload.inputs)
    m: dict[str, float] = {}
    si = sum(op.counters.si_executions for op in profiled)
    for layer in LAYERS:
        m[f"calls_per_si.{layer}"] = ratio(counted.calls[layer], si)
    m["calls_per_si.total"] = ratio(sum(counted.calls.values()), si)
    m["core.molecules_built"] = counted.molecules_built / len(keys)
    self_total = sum(counted.self_s.values())
    for layer in LAYERS:
        m[f"{layer}.self_share"] = ratio(counted.self_s[layer], self_total)

    totals = tracer.totals()
    ops_traced = len(traced)
    for span in SPAN_NAMES:
        count, busy, own = totals[span]
        m[f"{span}.count"] = count / ops_traced
        m[f"{span}.busy_s"] = busy / ops_traced
        m[f"{span}.self_s"] = own / ops_traced
    for layer in SPAN_LAYERS:
        m[f"{layer}.self_s"] = sum(
            totals[s][2] for s in SPAN_NAMES if s.startswith(layer + ".")
        ) / ops_traced
    m["trace.overhead"] = (
        statistics.median(op.latency_s for op in traced)
        / statistics.median(op.latency_s for op in untraced) - 1.0
    )

    c = [op.counters for op in untraced[:n]]
    planned = sum(x.replans for x in c)
    skipped = sum(x.replans_skipped for x in c)
    m["runtime.replans"] = planned / n
    m["runtime.replans_skipped"] = skipped / n
    m["runtime.replan_skip_ratio"] = ratio(skipped, planned + skipped)
    m["runtime.hw_fraction"] = ratio(
        sum(x.hw_executions for x in c), sum(x.si_executions for x in c)
    )
    m["runtime.mode_switches"] = sum(x.mode_switches for x in c) / n
    m["runtime.run_len_mean"] = ratio(
        sum(x.run_executions for x in c), sum(x.runs for x in c)
    )
    m["hardware.rotations"] = sum(x.rotations for x in c) / n
    m["hardware.port_busy_cycles"] = sum(x.port_busy_cycles for x in c) / n
    m["hardware.port_queue_cycles"] = sum(x.port_queue_cycles for x in c) / n
    m["faults.injected"] = sum(x.faults_injected for x in c) / n
    m["faults.retries"] = sum(x.faults_retries for x in c) / n
    m["faults.mttr_cycles_max"] = max(x.faults_mttr_cycles_max for x in c)
    m["sim.trace_events"] = sum(x.trace_events for x in c) / n
    m["recovery.snapshot_bytes"] = sum(
        op.extra.get("snapshot_bytes", 0.0) for op in untraced[:n]
    ) / n
    m["recovery.replayed_records"] = sum(x.replayed_records for x in c) / n
    resumes = [op.extra["resume_s"] for op in untraced if "resume_s" in op.extra]
    m["recovery.resume_s"] = statistics.median(resumes) if resumes else 0.0

    for name in ("serve.render_s", "serve.pool_s", "serve.http_s",
                 "serve.worker_busy_frac"):
        m[name] = 0.0
    if serve:
        outcomes += serve_layers(workload, untraced, phase, m)
    m["error_rate"] = ratio(outcomes.count(False), len(outcomes))

    spans = WORK / "spans" / f"{workload.name}.json"
    tracer.write(spans, {"workload": workload.name, "seed": args.seed})
    notes = {"spans": len(tracer.span), "span_file": spans.relative_to(ROOT)}
    return {name: m[name] for name in per_layer_units()}, outcomes, notes


def serve_layers(workload: Any, untraced: list[Op], phase: float,
                 m: dict[str, float]) -> list[bool]:
    """Split a served request into render, pool and HTTP time.

    The workers cannot be traced from outside, so render time comes from
    the in-process replay; an in-process facade phase adds the process
    pool; the HTTP phase adds the daemon.  Both phases use the
    workload's connection count.  Times are raw host seconds.
    """
    from repro.serve.facade import RuntimeFacade

    n = len(workload.inputs)
    with RuntimeFacade(workers=workload.WORKERS) as facade:
        workload.run_http(0.0, min_requests=2, facade=facade)  # fork the workers
        via_facade, _ = workload.run_http(0.0, min_requests=n, facade=facade)
    via_http, wall = workload.run_http(phase, min_requests=n)
    workload.stop()

    render_by_key = {op.key: op.raw_s for op in untraced[:n]}
    render_s = statistics.median(op.raw_s for op in untraced)
    facade_s = statistics.median(r.latency_s for r in via_facade)
    m["serve.render_s"] = render_s
    m["serve.pool_s"] = facade_s - render_s
    m["serve.http_s"] = statistics.median(r.latency_s for r in via_http) - facade_s
    m["serve.worker_busy_frac"] = ratio(
        sum(render_by_key[r.key] for r in via_http), workload.WORKERS * wall
    )
    return [workload.request_ok(r) for r in (*via_facade, *via_http)]


# -- entry point ---------------------------------------------------------------


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import runtime_capture
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    try:
        if args.setup_only:
            workload.setup()
            warm(workload)
            print("ready", flush=True)
            return 0
        capture = runtime_capture()
        capture.install()
        try:
            if args.trace:
                metrics, outcomes, notes = layers(workload, capture, args)
                units = per_layer_units()
            else:
                metrics, outcomes, notes = end_to_end(workload, capture, args)
                units = dict(END_TO_END)
        finally:
            capture.uninstall()
    finally:
        workload.close()
    failed = outcomes.count(False)
    print(
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"trace={args.trace} seconds={args.seconds:g} "
        f"operations={len(outcomes)} failed={failed} "
        + "".join(f"{k}={v} " for k, v in notes.items())
        + workload.describe()
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
