"""rispp-verify drivers: replay traces, prove feasibility, golden files.

Three entry points tie the reference machine (:mod:`.machine`) and the
static prover (:mod:`.feasibility`) to the rest of the repository:

* :func:`verify_runtime` / :func:`verify_trace` — check a live
  :class:`~repro.runtime.manager.RisppRuntime` (the trace-pin
  tests call this so a trace that matches its pin must also satisfy
  the model);
* :func:`run_verify_suite` — run one of the three shipped scenarios
  (``h264``/``aes``/``synthetic``), verify its trace and prove the
  library's feasibility bounds (``python -m repro verify --suite ...``);
* :func:`golden_from_runtime` / :func:`write_golden` /
  :func:`load_golden` — serialise a verified run to a golden-trace JSON
  file that CI archives and re-verifies (``--emit-golden`` /
  ``--trace``).
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Any, TypeVar

from ..core.library import SILibrary
from ..hardware.energy import EnergyModel
from ..sim.trace import Event, EventKind
from .diagnostics import DiagnosticReport
from .feasibility import FeasibilityResult, prove_feasibility
from .registry import LintContext, TraceArtifact, run_checks

if TYPE_CHECKING:
    from ..runtime.manager import RisppRuntime

GOLDEN_SCHEMA_VERSION = 1
GOLDEN_KIND = "rispp-golden-trace"
#: Largest ``containers`` a golden-trace file may claim.  The replay
#: allocates per-container state, so an absurd count would stall the
#: verifier instead of failing it; real platforms (the paper's and every
#: shipped suite) have at most a few dozen Atom Containers.
MAX_GOLDEN_CONTAINERS = 1024


def build_library(name: str) -> SILibrary:
    """The shipped library behind one suite or explore-scope name."""
    if name.startswith("explore-"):
        from .explore import build_explore_library

        return build_explore_library(name)
    from ..bench.suites import build_library as suite_library

    return suite_library(name)


# -- trace verification -------------------------------------------------------


def verify_trace(
    events: "Sequence[Event]",
    library: SILibrary,
    *,
    containers: int,
    core_mhz: float = 100.0,
    bytes_per_us: float | None = None,
    static_multiplicity: int = 16,
    totals: "dict[str, float] | None" = None,
    energy_model: EnergyModel | None = None,
    subject: str = "trace",
) -> DiagnosticReport:
    """Replay ``events`` against the reference machine; return findings."""
    artifact = TraceArtifact(
        events=events,
        library=library,
        containers=containers,
        core_mhz=core_mhz,
        bytes_per_us=bytes_per_us,
        static_multiplicity=static_multiplicity,
        totals=totals,
        energy_model=energy_model,
        subject=subject,
    )
    return run_checks(
        artifact, context=LintContext(subject=subject), families=("trace",)
    )


def verify_runtime(
    runtime: "RisppRuntime", *, subject: str = "runtime"
) -> DiagnosticReport:
    """Verify a live runtime's trace, totals and energy accounting."""
    return verify_trace(
        runtime.trace.events,
        runtime.library,
        containers=len(runtime.fabric),
        core_mhz=runtime.port.core_mhz,
        bytes_per_us=runtime.port.bytes_per_us,
        static_multiplicity=runtime.fabric.static_multiplicity,
        totals=asdict(runtime.stats),
        energy_model=runtime.energy_model,
        subject=subject,
    )


# -- golden traces ------------------------------------------------------------


@dataclass
class GoldenTrace:
    """A deserialised golden-trace file, ready to verify."""

    suite: str
    library_name: str
    artifact: TraceArtifact


def golden_from_runtime(
    runtime: "RisppRuntime", *, suite: str, library_name: str | None = None
) -> dict[str, object]:
    """Serialise one finished run to the golden-trace JSON schema."""
    energy = runtime.energy_model
    return {
        "schema_version": GOLDEN_SCHEMA_VERSION,
        "kind": GOLDEN_KIND,
        "suite": suite,
        "library": library_name if library_name is not None else suite,
        "containers": len(runtime.fabric),
        "core_mhz": runtime.port.core_mhz,
        "bytes_per_us": runtime.port.bytes_per_us,
        "static_multiplicity": runtime.fabric.static_multiplicity,
        "totals": asdict(runtime.stats),
        "energy_model": asdict(energy) if energy is not None else None,
        "events": [
            {
                "cycle": e.cycle,
                "kind": e.kind.value,
                "task": e.task,
                "si": e.si,
                "detail": dict(e.detail),
            }
            for e in runtime.trace.events
        ],
    }


def write_golden(golden: "dict[str, object]", path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=None, separators=(",", ":"))
        fh.write("\n")


def load_golden(path: str) -> GoldenTrace:
    """Load and validate a golden-trace file; rebuilds its library."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return golden_from_dict(data)


_T = TypeVar("_T")


def _field(data: "dict[str, object]", key: str, where: str) -> object:
    if key not in data:
        raise ValueError(f"golden-trace {where} lacks {key!r}")
    return data[key]


def _convert(convert: "Callable[[Any], _T]", value: object, field: str) -> _T:
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(
            f"golden-trace field {field!r} is invalid ({exc})"
        ) from exc


def _golden_event(raw: object, index: int) -> Event:
    where = f"events[{index}]"
    if not isinstance(raw, dict):
        raise ValueError(f"golden-trace {where} is not a JSON object")
    detail = raw.get("detail")
    return Event(
        _convert(int, _field(raw, "cycle", where), f"{where}.cycle"),
        _convert(EventKind, _field(raw, "kind", where), f"{where}.kind"),
        str(raw.get("task", "")),
        str(raw.get("si", "")),
        _convert(dict, detail, f"{where}.detail") if detail else None,
    )


def _golden_totals(raw: object) -> "dict[str, object] | None":
    """The run totals: absent, or an object of known ``RuntimeStats`` keys."""
    from ..runtime.manager import RuntimeStats

    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ValueError("golden-trace field 'totals' is not a JSON object")
    known = {f.name for f in fields(RuntimeStats)}
    for key in sorted(map(str, raw)):
        if key not in known:
            raise ValueError(
                f"golden-trace field 'totals.{key}' is unknown "
                f"(known: {', '.join(sorted(known))})"
            )
    return dict(raw)


def golden_from_dict(data: object) -> GoldenTrace:
    """Validate a parsed golden-trace document.

    Every defect, down to one event's missing cycle, raises a
    ``ValueError`` that names the offending field.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"golden-trace file is not a JSON object ({type(data).__name__})"
        )
    if data.get("kind") != GOLDEN_KIND:
        raise ValueError(
            f"not a golden-trace file (kind={data.get('kind')!r})"
        )
    if data.get("schema_version") != GOLDEN_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported golden-trace schema {data.get('schema_version')!r}"
        )
    library_name = str(_field(data, "library", "file"))
    library = build_library(library_name)
    raw_energy = data.get("energy_model")
    energy = None
    if isinstance(raw_energy, dict):
        energy = _convert(lambda raw: EnergyModel(**raw), raw_energy, "energy_model")
    raw_events = data.get("events")
    if not isinstance(raw_events, list):
        raise ValueError("golden-trace file carries no event list")
    events = [_golden_event(raw, i) for i, raw in enumerate(raw_events)]
    containers = _convert(int, _field(data, "containers", "file"), "containers")
    if containers < 0:
        raise ValueError("golden-trace field 'containers' must be non-negative")
    if containers > MAX_GOLDEN_CONTAINERS:
        raise ValueError(
            f"golden-trace field 'containers' is {containers}; at most "
            f"{MAX_GOLDEN_CONTAINERS} are supported"
        )
    core_mhz = _convert(float, data.get("core_mhz", 100.0), "core_mhz")
    raw_rate = data.get("bytes_per_us")
    rate = None if raw_rate is None else _convert(float, raw_rate, "bytes_per_us")
    for field, value in (("core_mhz", core_mhz), ("bytes_per_us", rate)):
        if value is not None and not 0 < value < math.inf:
            raise ValueError(
                f"golden-trace field {field!r} must be positive and finite"
            )
    totals = _golden_totals(data.get("totals"))
    artifact = TraceArtifact(
        events=events,
        library=library,
        containers=containers,
        core_mhz=core_mhz,
        bytes_per_us=rate,
        static_multiplicity=_convert(
            int, data.get("static_multiplicity", 16), "static_multiplicity"
        ),
        totals=totals,
        energy_model=energy,
        subject=f"golden:{data.get('suite', library_name)}",
    )
    return GoldenTrace(
        suite=str(data.get("suite", library_name)),
        library_name=library_name,
        artifact=artifact,
    )


def verify_golden(golden: GoldenTrace) -> DiagnosticReport:
    return run_checks(
        golden.artifact,
        context=LintContext(subject=golden.artifact.subject),
        families=("trace",),
    )


# -- shipped suite scenarios --------------------------------------------------


@dataclass
class VerifyResult:
    """One suite run: trace findings + static feasibility bounds."""

    suite: str
    report: DiagnosticReport
    feasibility: FeasibilityResult
    trace_events: int
    runtime: "RisppRuntime | None" = None

    def exit_code(self) -> int:
        return self.report.exit_code()


def _synthetic_scenario(*, quick: bool) -> "RisppRuntime":
    """Verify's own synthetic run: a mid-run container failure included."""
    from ..bench.suites import build_synthetic_library
    from ..runtime.manager import RisppRuntime

    library = build_synthetic_library()
    runtime = RisppRuntime(
        library, 5, core_mhz=100.0, energy_model=EnergyModel()
    )
    forecasts = [("SI0", 16.0), ("SI1", 8.0), ("SI2", 4.0), ("SI3", 2.0)]
    blocks = [("SI0", 16), ("SI1", 8), ("SI2", 4), ("SI3", 2)]
    rounds = 6 if quick else 12
    now = 10_000
    for round_no in range(rounds):
        for si_name, expected in forecasts:
            runtime.forecast(si_name, now, expected=expected)
        for si_name, calls in blocks:
            for _ in range(calls):
                now += runtime.execute_si(si_name, now)
        if round_no == rounds // 2:
            # Fault injection: the dropped/resequenced port queue and the
            # replacement rotations must all verify too.
            runtime.fail_container(1, now)
            now += 1_000
        # Inter-round gap sized so rotations (~58k-87k cycles each on the
        # serial port) land mid-run and the SW -> HW upgrade is exercised.
        now += 60_000
    runtime.forecast_end("SI3", now)
    return runtime


def run_verify_suite(
    name: str,
    *,
    quick: bool = False,
    survivable_failures: int | None = None,
) -> VerifyResult:
    """Run one shipped scenario, verify its trace, prove feasibility."""
    from ..bench.suites import run_suite

    placements: list[object] = []
    if name == "synthetic":
        runtime = _synthetic_scenario(quick=quick)
    else:
        # The chaos campaign's fault-free run, with energy accounting.
        run = run_suite(
            name, quick=quick, sizes="chaos", energy_model=EnergyModel()
        )
        run.close_forecasts()
        runtime = run.runtime
        if run.flow is not None:
            placements = list(run.flow.annotation.all_points())
    # Settle: let every in-flight rotation land inside the trace.
    runtime.advance(runtime.trace.last_cycle + 10_000_000)
    report = verify_runtime(runtime, subject=f"suite:{name}")
    feasibility = prove_feasibility(
        runtime.library,
        len(runtime.fabric),
        placements=placements,
        core_mhz=runtime.port.core_mhz,
        bytes_per_us=runtime.port.bytes_per_us,
        survivable_failures=survivable_failures,
        subject=f"suite:{name}",
    )
    return VerifyResult(
        suite=name,
        report=report,
        feasibility=feasibility,
        trace_events=len(runtime.trace),
        runtime=runtime,
    )


def verify_golden_result(golden: GoldenTrace) -> VerifyResult:
    """Verify a golden trace and prove its library's feasibility."""
    artifact = golden.artifact
    report = verify_golden(golden)
    feasibility = prove_feasibility(
        artifact.library,
        artifact.containers,
        core_mhz=artifact.core_mhz,
        bytes_per_us=artifact.bytes_per_us,
        subject=artifact.subject,
    )
    return VerifyResult(
        suite=golden.suite,
        report=report,
        feasibility=feasibility,
        trace_events=len(list(artifact.events)),
    )
