"""Benchmark scenarios: the SI streams and flows the repo's tools replay.

Three scenarios cover the repo's workloads:

* ``h264`` — the paper's headline case study: a macroblock-shaped SI
  stream (256 SATD + 24 DCT + 1 HT_4x4 + 2 HT_2x2 per MB, the Fig. 7
  invocation structure) driven through :class:`RisppRuntime`.
* ``aes`` — the complete compile-then-run pipeline on the functional
  AES program (profiling + forecast insertion dominate here).
* ``synthetic`` — a small generated library; fast enough for quick
  runs while exercising the same code paths.

``tests/golden/digests.json`` pins each scenario's trace digest; the
chaos, telemetry and verify suites drive the same streams.
"""

from __future__ import annotations

from ..core.atom import AtomCatalogue, AtomKind
from ..core.library import SILibrary
from ..core.si import MoleculeImpl, SpecialInstruction
from ..runtime.manager import RisppRuntime

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
    raise ValueError(
        f"unknown bench suite {suite!r}; choose from h264, aes, synthetic"
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
