"""The suite catalogue: the one place a suite is defined.

Three suites cover the repo's workloads:

* ``aes`` — the complete compile-then-run pipeline on the functional
  AES program (profiling + forecast insertion dominate here).
* ``h264`` — the paper's headline case study: a macroblock-shaped SI
  stream (256 SATD + 24 DCT + 1 HT_4x4 + 2 HT_2x2 per MB, the Fig. 7
  invocation structure) driven through :class:`RisppRuntime`.
* ``synthetic`` — a small generated library; fast enough for quick
  runs while exercising the same code paths.

The pinned bench scenarios, ``repro chaos``, ``repro metrics``,
``repro verify`` and ``repro serve`` all read :data:`SUITES` and run a
suite through :func:`run_suite`; only the scenario sizes (the per-tool
:class:`Rounds` of each stream) and each tool's closing steps differ.
Adding a stream suite is one :data:`STREAM_SUITES` entry plus its pins
in ``tests/golden/digests.json``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from ..core.atom import AtomCatalogue, AtomKind
from ..core.library import SILibrary
from ..core.si import MoleculeImpl, SpecialInstruction
from ..runtime.manager import RisppRuntime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector
    from ..hardware.energy import EnergyModel
    from ..obs import MetricRegistry
    from ..sim.integration import CompileAndRunResult

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


# -- the catalogue ------------------------------------------------------------


class Rounds(NamedTuple):
    """Block rounds of a stream scenario in quick (CI) and full mode."""

    quick: int
    full: int


@dataclass(frozen=True)
class StreamSuite:
    """A suite that replays loop-head forecasts and an SI stream.

    ``rounds`` maps each tool (``bench``, ``chaos`` — also verify's
    size — and ``metrics``) to its scenario size; the committed pins
    fix every one of them.
    """

    build_library: Callable[[], SILibrary]
    forecasts: tuple[tuple[str, float], ...]
    blocks: tuple[tuple[str, int], ...]
    containers: int
    rounds: dict[str, Rounds]


def _h264_library() -> SILibrary:
    from ..apps.h264 import build_h264_library

    return build_h264_library()


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


STREAM_SUITES: dict[str, StreamSuite] = {
    "h264": StreamSuite(
        _h264_library, H264_FORECASTS, H264_MACROBLOCK_CALLS, containers=6,
        rounds={
            "bench": Rounds(6, 40), "chaos": Rounds(3, 8),
            "metrics": Rounds(4, 16),
        },
    ),
    "synthetic": StreamSuite(
        build_synthetic_library, SYNTHETIC_FORECASTS, SYNTHETIC_BLOCKS,
        containers=5,
        rounds={
            "bench": Rounds(10, 60), "chaos": Rounds(6, 20),
            "metrics": Rounds(5, 20),
        },
    ),
}
#: Every suite name the tools accept.
SUITES = ("aes", *STREAM_SUITES)


def check_suite(name: str) -> str:
    """Return ``name`` if it is a known suite; raise ``ValueError`` if not."""
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITES)}"
        )
    return name


def build_library(name: str) -> SILibrary:
    """A fresh copy of one suite's SI library."""
    if check_suite(name) == "aes":
        from ..apps.aes import build_aes_library

        return build_aes_library()
    return STREAM_SUITES[name].build_library()


def aes_flow(
    library: SILibrary,
    *,
    energy_model: "EnergyModel | None" = None,
    fault_injector: "FaultInjector | None" = None,
    metrics: "MetricRegistry | None" = None,
    wrap: "Callable[[RisppRuntime], Any] | None" = None,
) -> "CompileAndRunResult":
    """The aes suite's run: the whole compile-then-run flow."""
    from ..apps.aes import build_aes_program, default_aes_fdfs
    from ..sim.integration import compile_and_run

    with warnings.catch_warnings():
        # Library advisories (dominated molecules etc.) belong to `lint`.
        warnings.simplefilter("ignore")
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
            energy_model=energy_model,
            fault_injector=fault_injector,
            metrics=metrics,
            wrap=wrap,
        )


@dataclass
class SuiteRun:
    """One finished suite run and what the tools read back from it."""

    runtime: RisppRuntime
    #: The stream's loop-head forecasts, still open (none for aes).
    forecasts: tuple[tuple[str, float], ...] = ()
    #: The compile-then-run result of the aes flow.
    flow: "CompileAndRunResult | None" = None

    @property
    def outcome(self) -> Any:
        """What a faulted run must reproduce to match the fault-free one.

        The aes flow's output environment (the ciphertext); a stream
        carries no data, so every SI call completing is the outcome.
        """
        if self.flow is not None:
            return self.flow.result.env
        return self.runtime.stats.si_executions

    def close_forecasts(self) -> None:
        """End the stream's loop-head forecasts at its last traced cycle."""
        if not self.forecasts:
            return
        from ..recovery import query

        # Journaled state query: on a resumed run the underlying runtime
        # is already past this point, so the answer comes from the journal.
        end = query(self.runtime, "last_cycle")
        for si_name, _ in self.forecasts:
            self.runtime.forecast_end(si_name, end)


def run_suite(
    name: str,
    *,
    quick: bool,
    sizes: str = "bench",
    library: SILibrary | None = None,
    **hooks: Any,
) -> SuiteRun:
    """Run one suite on ``library`` (a fresh one by default).

    ``sizes`` names the tool whose stream :class:`Rounds` apply; the aes
    flow has one size.  ``hooks`` (``energy_model``, ``fault_injector``,
    ``metrics``, ``wrap``) reach the runtime unchanged.
    """
    if library is None:
        library = build_library(name)
    if name == "aes":
        flow = aes_flow(library, **hooks)
        return SuiteRun(flow.runtime, flow=flow)
    stream = STREAM_SUITES[name]
    rounds = stream.rounds[sizes]
    runtime = run_si_stream(
        library, list(stream.forecasts), list(stream.blocks),
        containers=stream.containers,
        block_rounds=rounds.quick if quick else rounds.full,
        **hooks,
    )
    return SuiteRun(runtime, forecasts=stream.forecasts)


def scenario_runtime(suite: str, *, quick: bool) -> RisppRuntime:
    """Run one suite's pinned bench scenario on a fresh library.

    This is the run whose trace digest ``tests/golden/digests.json``
    pins per suite and mode.
    """
    return run_suite(suite, quick=quick).runtime
