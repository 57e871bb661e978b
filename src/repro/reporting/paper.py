"""The paper's evaluation artifacts, each built once: one catalogue.

Every entry of :data:`PAPER` is one table or figure of the paper's
evaluation (Figs. 1-13, Tables 1-2), one ablation of a design choice the
paper calls out, or one implemented future-work extension.  An entry is
a name, a one-line description and a build function that computes the
artifact and renders its text.  Everything reads the same entry:

* ``python -m repro <name>`` prints :func:`built` ``(name).text``;
* ``tests/golden/paper/<name>.txt`` pins that text byte for byte
  (``python -m tests.pins`` regenerates it);
* the tier-1 tests assert the paper's acceptance criteria on
  ``built(name).data`` (EXPERIMENTS.md states them per artifact).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..apps.aes import aes_forecast_report
from ..apps.h264 import (
    CHROMA_SI_COUNTS,
    CORE_OVERHEAD_CYCLES,
    LUMA_SI_COUNTS,
    REFERENCE_CONFIGS,
    TABLE2,
    AtomExecutionCounter,
    EncoderPipeline,
    build_h264_library,
    encode_sequence,
    macroblock_cycles,
    macroblock_stream,
    satd_4x4,
    si_cycles_for_config,
    si_satd_4x4,
    synthetic_frame,
)
from ..apps.h264.extensions import (
    EXTENSION_SI_COUNTS,
    build_extended_library,
    extended_macroblock_cycles,
)
from ..apps.h264.phases import PHASES, phase_area_comparison, run_phase_rotation
from ..apps.h264.scenario import build_scenario_library, run_fig6_scenario
from ..baselines import ExtensibleProcessor
from ..compiler import (
    Constraints,
    Operation,
    OperationGraph,
    enumerate_si_candidates,
    si_from_candidate,
)
from ..core import (
    AtomSpace,
    ForecastedSI,
    estimate_cycles,
    layered_dataflow,
    pareto_front_of,
    select_exhaustive,
    select_greedy,
    supremum,
    tradeoff_points,
    upgrade_path,
)
from ..forecast import ForecastDecisionFunction, rotation_offset, trim_block_candidates
from ..forecast.candidates import FCCandidate
from ..hardware import (
    CONTAINER_CLB_COLUMNS,
    CONTAINER_SLICES,
    H264_PHASES,
    SELECTMAP_BYTES_PER_US,
    TABLE1_SPECS,
    AreaComparison,
    EnergyModel,
    ge_saving_pct,
    rispp_area,
)
from ..runtime import HighestIdPolicy, LRUPolicy, MRUPolicy, RisppRuntime
from .figures import render_bars, render_series, render_surface
from .tables import render_table
from .timeline import render_container_timeline


@dataclass(frozen=True)
class Built:
    """One built artifact: its rendered text and the data behind it."""

    text: str
    data: dict[str, Any]


Build = Callable[[], Built]


@dataclass(frozen=True)
class PaperArtifact:
    description: str
    build: Build


#: The catalogue, in paper order: figures, tables, ablations, extensions.
PAPER: dict[str, PaperArtifact] = {}


def _artifact(name: str, description: str) -> Callable[[Build], Build]:
    def register(build: Build) -> Build:
        PAPER[name] = PaperArtifact(description, build)
        return build

    return register


@functools.cache
def built(name: str) -> Built:
    """The artifact ``name``, built at most once per process.

    ``repro all`` and a test session both read it from here; callers
    must treat the returned data as read-only.
    """
    return PAPER[name].build()


# -- figures ------------------------------------------------------------------

FIG1_ALPHAS = (1.0, 1.25, 1.5, 2.0)
#: Fig. 1 dynamics: frames of ME -> MC -> TQ -> LF on this many containers.
ROTATION_FRAMES = 3
ROTATION_CONTAINERS = 8
#: The three SIs Fig. 2 draws on one shared atom set.
FIG2_SIS = ("HT_4x4", "DCT_4x4", "SATD_4x4")
#: The H.264 SIs competing for containers (Fig. 5, selection ablation).
FIG5_SIS = ("HT_2x2", "HT_4x4", "DCT_4x4", "SATD_4x4")
#: The SIs of the encoder's per-macroblock cycle model (Figs. 7 and 12).
ENCODER_SIS = ("SATD_4x4", "DCT_4x4", "HT_4x4", "HT_2x2")
#: The Fig. 4 log-spaced x axis, as printed on the plot, and its sheets.
FIG4_TICKS = (
    0.1, 0.2, 0.3, 0.4, 0.6, 1.0, 1.6, 2.5, 4.0, 6.3,
    10.0, 15.8, 25.1, 39.8, 63.1, 100.0,
)
FIG4_PROBABILITIES = (1.0, 0.7, 0.4)
#: The Fig. 11 data, as read from the paper (log-scale bar chart).
PAPER_FIG11 = {
    "SATD_4x4": {"Opt. SW": 544, "4 Atoms": 24, "5 Atoms": 20, "6 Atoms": 18},
    "DCT_4x4": {"Opt. SW": 488, "4 Atoms": 24, "5 Atoms": 19, "6 Atoms": 15},
    "HT_4x4": {"Opt. SW": 298, "4 Atoms": 22, "5 Atoms": 22, "6 Atoms": 17},
}
PAPER_FIG12 = {
    "Opt. SW": 201_065,
    "4 Atoms": 60_244,
    "5 Atoms": 59_135,
    "6 Atoms": 58_287,
}
FIG13_SIS = ("SATD_4x4", "HT_4x4", "DCT_4x4", "HT_2x2")


@_artifact("fig1", "extensible vs RISPP area (GE)")
def _fig1() -> Built:
    phases = list(H264_PHASES)
    comparisons = [AreaComparison.build(phases, a) for a in FIG1_ALPHAS]
    profile = render_table(
        ["phase", "time %", "GE (extensible)"],
        [[p.name, p.time_pct, p.gate_equivalents] for p in phases],
        title="Fig. 1 phase profile",
    )
    table = render_table(
        ["alpha", "GE extensible", "GE RISPP", "saving %"],
        [
            [c.alpha, c.extensible_ge, round(c.rispp_ge), round(c.saving_pct, 1)]
            for c in comparisons
        ],
        title="Fig. 1 RISPP vs extensible processor",
    )
    return Built(
        profile + "\n\n" + table, {"phases": phases, "comparisons": comparisons}
    )


@_artifact("fig1_rotation", "Fig. 1 dynamics: phase rotation keeps HW performance")
def _fig1_rotation() -> Built:
    with_la = run_phase_rotation(
        frames=ROTATION_FRAMES, containers=ROTATION_CONTAINERS, lookahead=True
    )
    without_la = run_phase_rotation(
        frames=ROTATION_FRAMES, containers=ROTATION_CONTAINERS, lookahead=False
    )
    area = phase_area_comparison(containers=ROTATION_CONTAINERS)
    steady = [with_la.frame_si_cycles(f) for f in range(1, ROTATION_FRAMES)]
    lag = without_la.frame_si_cycles(ROTATION_FRAMES - 1)
    table = render_table(
        ["phase", "time share", "SI execs/frame", "steady HW fraction",
         "dedicated slices"],
        [
            [
                name,
                f"{share * 100:.0f}%",
                sum(workload.values()),
                f"{100 * with_la.steady_state_hw_fraction(name):.1f}%",
                area.per_phase_slices[name],
            ]
            for name, share, workload in PHASES
        ],
        title=(
            f"Fig. 1 dynamics: {ROTATION_FRAMES} frames, {ROTATION_CONTAINERS} "
            f"containers ({area.rispp_slices} slices vs {area.extensible_slices} "
            f"dedicated, {area.saving_pct:.1f}% saving); "
            f"steady SI time {steady[0]:,} cyc/frame with lookahead vs "
            f"{lag:,} without"
        ),
    )
    return Built(
        table,
        {"with_la": with_la, "area": area, "steady": steady, "lag": lag},
    )


@_artifact("fig2", "three SIs sharing one atom set")
def _fig2() -> Built:
    library = build_h264_library()
    shared = library.shared_atom_kinds()
    sup = supremum([library.get(n).supremum() for n in FIG2_SIS])
    table = render_table(
        ["SI", "molecule", "atoms", "cycles"],
        [
            [name, impl.label, impl.atoms(), impl.cycles]
            for name in FIG2_SIS
            for impl in library.get(name).implementations
        ],
        title="Fig. 2: molecule options sharing one atom set",
    )
    return Built(table, {"library": library, "shared": shared, "sup": sup})


@_artifact("fig3", "AES BB graph + FC candidates")
def _fig3() -> Built:
    report = aes_forecast_report(runs=8, containers=6, seed=0)
    table = render_table(
        ["block", "SI", "p", "distance", "expected", "FDF demand"],
        [
            [
                c.block_id,
                c.si_name,
                round(c.probability, 3),
                round(c.distance, 1),
                round(c.expected_executions, 1),
                round(c.required_executions, 1),
            ]
            for c in sorted(report.candidates, key=lambda c: (c.si_name, c.block_id))
        ],
        title="Fig. 3: AES FC candidates",
    )
    return Built(table + "\n\n" + report.dot, {"report": report})


@_artifact("fig4", "the FDF surface")
def _fig4() -> Built:
    # SATD_4x4-flavoured timing: T_sw=544, T_hw=24.
    fdf = ForecastDecisionFunction(
        t_rot=85_000.0, t_sw=544.0, t_hw=24.0, rotation_energy=2_000.0, alpha=1.0
    )
    surface = fdf.surface([x * fdf.t_rot for x in FIG4_TICKS], list(FIG4_PROBABILITIES))
    rows = [f"p={int(p * 100)}%" for p in FIG4_PROBABILITIES]
    lines = [
        render_surface(
            surface, rows, [f"{x:g}" for x in FIG4_TICKS],
            title="Fig. 4: FDF demand over t/T_rot (log axis)",
        ),
        "",
        "numeric rows (executions demanded):",
    ]
    for label, row in zip(rows, surface):
        lines.append(label + ": " + " ".join(f"{v:7.1f}" for v in row))
    return Built("\n".join(lines), {"surface": surface})


@_artifact("fig5", "trimming FC candidates per container budget")
def _fig5() -> Built:
    library = build_h264_library()
    # The joint demand of all four SI representatives fixes the budget at
    # which nothing needs trimming.
    full_demand = abs(
        supremum(
            [library.restricted_to_reconfigurable(library.get(n).rep()) for n in FIG5_SIS],
            space=library.space,
        )
    )
    budgets = [0, 2, 4, 6, 8, 10, full_demand]
    candidates = [
        FCCandidate("hot_block", name, 1.0, 200_000.0, 100.0, 5.0) for name in FIG5_SIS
    ]
    results = {b: trim_block_candidates(library, candidates, b) for b in budgets}
    table = render_table(
        ["#ACs", "kept", "removed", "demand", "aborted"],
        [
            [
                b,
                ", ".join(c.si_name for c in results[b].kept),
                ", ".join(c.si_name for c in results[b].removed) or "-",
                results[b].containers_needed,
                "yes" if results[b].aborted_on_cluster else "no",
            ]
            for b in budgets
        ],
        title="Fig. 5: trimming FC candidates per container budget",
    )
    return Built(
        table,
        {"library": library, "budgets": budgets, "full_demand": full_demand,
         "results": results},
    )


@_artifact("fig6", "the two-task run-time scenario")
def _fig6() -> Built:
    result = run_fig6_scenario()
    trace = result.runtime.trace
    markers = {
        "T0": result.label("A", "T0"),
        "T1": result.label("B", "T1"),
        "T2": result.label("B", "T2"),
        "T3": result.label("B", "T3"),
    }
    header = (
        "Fig. 6 scenario timeline ("
        + " ".join(f"{k}={v}" for k, v in markers.items())
        + ")\n"
    )
    chart = render_container_timeline(trace, 6, markers=markers)
    return Built(
        header + chart + "\n\n" + trace.render_timeline(), {"result": result}
    )


@_artifact("fig7", "encoder flow per macroblock")
def _fig7() -> Built:
    mbs = macroblock_stream(2, seed=11)
    pipeline = EncoderPipeline()
    encoded = [pipeline.encode_macroblock(mb) for mb in mbs]
    table = render_table(
        ["MB", "mean best SATD", "max best SATD", "intra injected"],
        [
            [
                i,
                int(np.mean(out.best_satd)),
                int(np.max(out.best_satd)),
                "yes" if out.intra_injected else "no",
            ]
            for i, out in enumerate(encoded)
        ],
        title="Fig. 7: encoder flow per macroblock",
    )
    return Built(table, {"mbs": mbs, "encoded": encoded})


@_artifact("fig8", "SATD_4x4 from atoms: spatial/temporal trade-off")
def _fig8() -> Built:
    rng = np.random.default_rng(42)
    checks = []
    for _ in range(20):
        a = rng.integers(0, 256, size=(4, 4))
        b = rng.integers(0, 256, size=(4, 4))
        counter = AtomExecutionCounter()
        checks.append((si_satd_4x4(a, b, counter), satd_4x4(a, b), counter.counts))
    space = AtomSpace(["QuadSub", "Pack", "Transform", "SATD"])
    # The Fig. 8 stages with their per-SI execution counts.
    dataflow = layered_dataflow(
        [
            ("QuadSub", 4, 1),
            ("Transform", 2, 1),  # row pass: 2 packed executions
            ("Pack", 4, 1),
            ("Transform", 2, 1),  # column pass
            ("SATD", 4, 1),
        ]
    )
    molecules = {
        f"{n} of each": space.molecule(
            {"QuadSub": n, "Pack": n, "Transform": n, "SATD": n}
        )
        for n in (1, 2, 4)
    }
    latencies = {name: estimate_cycles(dataflow, m) for name, m in molecules.items()}
    table = render_table(
        ["molecule", "atoms", "scheduled cycles"],
        [[name, abs(m), latencies[name]] for name, m in molecules.items()],
        title="Fig. 8: SATD_4x4 spatial/temporal trade-off (list scheduler)",
    )
    return Built(
        table, {"checks": checks, "dataflow": dataflow, "latencies": latencies}
    )


@_artifact("fig11", "SI cycles per resource configuration")
def _fig11() -> Built:
    library = build_h264_library()
    measured = {
        si: {c: si_cycles_for_config(library, si, c) for c in REFERENCE_CONFIGS}
        for si in PAPER_FIG11
    }
    table = render_table(
        ["SI", *REFERENCE_CONFIGS.keys()],
        [[si, *(measured[si][c] for c in REFERENCE_CONFIGS)] for si in PAPER_FIG11],
        title="Fig. 11: SI execution time [cycles] per RISPP resource configuration",
    )
    charts = [
        render_bars(
            {c: measured[si][c] for c in REFERENCE_CONFIGS},
            title=f"{si} (log scale)",
            log_scale=True,
            unit=" cyc",
        )
        for si in PAPER_FIG11
    ]
    return Built(
        table + "\n\n" + "\n\n".join(charts),
        {"library": library, "measured": measured},
    )


@_artifact("fig12", "whole-encoder performance")
def _fig12() -> Built:
    library = build_h264_library()
    totals = {
        config: macroblock_cycles(
            {si: si_cycles_for_config(library, si, config) for si in ENCODER_SIS}
        )
        for config in REFERENCE_CONFIGS
    }
    table = render_table(
        ["config", "measured [cycles]", "paper [cycles]", "deviation"],
        [
            [
                config,
                totals[config],
                paper,
                f"{100 * (totals[config] - paper) / paper:+.2f}%",
            ]
            for config, paper in PAPER_FIG12.items()
        ],
        title="Fig. 12: all-over performance of the H.264 encoding engine (per MB)",
    )
    chart = render_bars(totals, title="Fig. 12 (linear scale)", unit=" cyc")
    return Built(table + "\n\n" + chart, {"totals": totals})


@_artifact("fig13", "Pareto fronts")
def _fig13() -> Built:
    library = build_h264_library()
    clouds = {name: tradeoff_points(library.get(name)) for name in FIG13_SIS}
    fronts = {name: pareto_front_of(library.get(name)) for name in FIG13_SIS}
    # Dynamic trade-off: the run-time selection as the budget grows.
    satd = library.get("SATD_4x4")
    path = upgrade_path(library, [ForecastedSI(satd, 100)], 18)
    walk = [
        r.chosen["SATD_4x4"].cycles if r.chosen["SATD_4x4"] else satd.software_cycles
        for r in path
    ]
    series = {
        f"{name} (all molecules)": [(p.atoms, p.cycles) for p in clouds[name]]
        for name in FIG13_SIS
    }
    series.update(
        {
            f"{name} (Pareto front)": [(p.atoms, p.cycles) for p in fronts[name]]
            for name in FIG13_SIS
        }
    )
    art = render_series(
        series,
        title="Fig. 13: SI performance vs RISPP resources",
        x_label="#Atoms",
        y_label="cycles",
    )
    budget_walk = "\n".join(
        f"budget={i:2d} -> SATD_4x4 {lat} cycles" for i, lat in enumerate(walk)
    )
    return Built(
        art + "\n\nRun-time budget walk (dynamic trade-off):\n" + budget_walk,
        {"library": library, "clouds": clouds, "fronts": fronts, "walk": walk},
    )


# -- tables -------------------------------------------------------------------

#: Table 1 as published:  slices, LUTs, bitstream bytes, rotation [us].
PAPER_TABLE1 = {
    "Transform": (517, 1034, 59_353, 857.63),
    "SATD": (407, 808, 58_141, 840.11),
    "Pack": (406, 812, 65_713, 949.53),
    "QuadSub": (352, 700, 58_745, 848.84),
}
TABLE2_KINDS = ("Load", "QuadSub", "Pack", "Transform", "SATD", "Add", "Store")


@_artifact("table1", "atom hardware figures")
def _table1() -> Built:
    rows = {
        name: (
            spec.slices,
            spec.luts,
            spec.utilization,
            spec.bitstream_bytes,
            spec.rotation_time_us(),
        )
        for name, spec in TABLE1_SPECS.items()
    }
    table = render_table(
        ["Atom", "# Slices", "# LUTs", "Utilization", "Bitstream [B]",
         "Rotation [us] (model)", "Rotation [us] (paper)"],
        [
            [name, r[0], r[1], f"{100 * r[2]:.1f}%", r[3], round(r[4], 2),
             PAPER_TABLE1[name][3]]
            for name, r in rows.items()
        ],
        title=(
            "Table 1: atoms on XC2V3000-6 "
            f"(AC = {CONTAINER_CLB_COLUMNS} CLB columns, {CONTAINER_SLICES} slices; "
            f"SelectMap {SELECTMAP_BYTES_PER_US:.1f} B/us)"
        ),
    )
    return Built(table, {"rows": rows})


@_artifact("table2", "molecule compositions")
def _table2() -> Built:
    rows = [
        (si, counts, cycles)
        for si, molecules in TABLE2.items()
        for counts, cycles in molecules
    ]
    table = render_table(
        ["SI", *TABLE2_KINDS, "cycles"],
        [[si, *counts, cycles] for si, counts, cycles in rows],
        title="Table 2: molecule composition of the different SIs",
    )
    return Built(table, {"rows": rows})


# -- ablations ----------------------------------------------------------------

ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0)
#: Port rates in bytes/us: half SelectMap, Virtex-II SelectMap (Table 1),
#: 2x, 4x, and an ICAP-class interface.
PORT_RATES = {
    "SelectMap / 2": SELECTMAP_BYTES_PER_US / 2,
    "SelectMap (Virtex-II)": SELECTMAP_BYTES_PER_US,
    "SelectMap x 2": SELECTMAP_BYTES_PER_US * 2,
    "SelectMap x 4": SELECTMAP_BYTES_PER_US * 4,
    "ICAP-class (800 MB/s)": 800.0,
}
#: Forecasting ablation: warm-up covers the four rotations of the minimal
#: molecule; the burst is long enough that rotate-on-demand converges to
#: hardware mid-burst.
WARMUP_CYCLES = 600_000
BURST = 1500
#: Multi-mode ablation: video encoding and post-processing alternate.
MODE_PERIOD = 2_000_000  # cycles per mode residency (20 ms at 100 MHz)
MODES = (
    ("video", {"SATD_4x4": 1500, "DCT_4x4": 200}),
    ("post", {"SI0": 1200, "SI1": 600}),
)
MODE_PERIODS = 6
MODE_BUDGET = 6
#: Replacement ablation: SATD_4x4 and HT_4x4 alternate on 4 containers.
REPLACEMENT_PHASES = 6
EXECS_PER_PHASE = 120
PHASE_GAP = 500_000  # between phases: enough for the rotations to land
SELECTION_TRIALS = 20


def _budget_sweep(
    library: Any,
    sis: tuple[str, ...],
    counts: dict[str, int],
    budgets: range,
    cycles_of: Callable[[dict[str, int]], int],
) -> list[tuple[int, int, dict[str, int], int]]:
    """Per budget: (budget, containers used, SI latencies, cycles/MB)."""
    requests = [ForecastedSI(library.get(n), counts.get(n, 0)) for n in sis]
    results = []
    for budget in budgets:
        selection = select_greedy(library, requests, budget)
        latencies = {}
        for name in sis:
            impl = selection.chosen[name]
            latencies[name] = impl.cycles if impl else library.get(name).software_cycles
        results.append(
            (budget, selection.containers_used, latencies, cycles_of(latencies))
        )
    return results


@_artifact("ablation_ac_sweep", "encoder performance vs Atom-Container budget")
def _ablation_ac_sweep() -> Built:
    counts = dict(LUMA_SI_COUNTS)
    for name, n in CHROMA_SI_COUNTS.items():
        counts[name] = counts.get(name, 0) + n
    # The Fig. 12 calibration covers the luma pipeline.
    results = _budget_sweep(
        build_h264_library(), ENCODER_SIS, counts, range(0, 19), macroblock_cycles
    )
    base = results[0][3]
    table = render_table(
        ["#ACs", "used", "SATD", "DCT", "HT4", "HT2", "cycles/MB", "speed-up"],
        [
            [budget, used, *(lat[n] for n in ENCODER_SIS), total, f"{base / total:.2f}x"]
            for budget, used, lat, total in results
        ],
        title="Ablation: encoder performance vs Atom-Container budget",
    )
    return Built(table, {"results": results})


@_artifact("ablation_alpha", "the alpha trade-off: forecast conservatism + area")
def _ablation_alpha() -> Built:
    phases = list(H264_PHASES)
    rows = []
    for alpha in ALPHAS:
        report = aes_forecast_report(runs=6, containers=6, alpha=alpha, seed=0)
        rows.append(
            {
                "alpha": alpha,
                "candidates": len(report.candidates),
                "fc_points": len(report.annotation.all_points()),
                "offset": rotation_offset(alpha, 1000.0, 544.0, 24.0),
                "area": rispp_area(phases, alpha),
                "saving": ge_saving_pct(phases, alpha),
            }
        )
    table = render_table(
        ["alpha", "FC candidates", "FC points", "FDF offset", "RISPP GE", "saving %"],
        [
            [r["alpha"], r["candidates"], r["fc_points"], round(r["offset"], 2),
             round(r["area"]), round(r["saving"], 1)]
            for r in rows
        ],
        title="Ablation: the alpha trade-off (forecast conservatism + area)",
    )
    return Built(table, {"rows": rows})


@_artifact("ablation_bandwidth", "configuration-memory bandwidth sweep")
def _ablation_bandwidth() -> Built:
    results = {}
    for name, rate in PORT_RATES.items():
        # Cycles from a forecast to the first HW execution of SATD_4x4.
        rt = RisppRuntime(build_h264_library(), 6, core_mhz=100.0)
        rt.port.bytes_per_us = rate
        rt.forecast("SATD_4x4", 0, expected=1000)
        ready = max(j.finish_at for j in rt.port.jobs)
        first = rt.execute_si("SATD_4x4", ready + 1)
        rotations = rt.stats.rotations_requested
        # The FDF sweet spot scales with the rotation time directly.
        fdf = ForecastDecisionFunction(
            t_rot=ready / max(rotations, 1), t_sw=544.0, t_hw=24.0,
            rotation_energy=1000.0,
        )
        results[name] = {
            "rate": rate,
            "ready": ready,
            "first_cycles": first,
            "rotations": rotations,
            "sweet_low": fdf.sweet_spot()[0],
        }
    table = render_table(
        ["port", "rate [B/us]", "forecast->HW [cycles]", "rotations",
         "min useful lead [cycles]"],
        [
            [name, round(r["rate"], 1), r["ready"], r["rotations"],
             round(r["sweet_low"])]
            for name, r in results.items()
        ],
        title="Ablation: configuration-memory bandwidth (paper §6 remark)",
    )
    return Built(table, {"results": results})


def _forecast_run(forecasting: bool) -> tuple[RisppRuntime, int]:
    rt = RisppRuntime(build_h264_library(), 6, core_mhz=100.0, forecasting=forecasting)
    if forecasting:
        rt.forecast("SATD_4x4", 0, expected=BURST)
    now = WARMUP_CYCLES
    total = 0
    for _ in range(BURST):
        cycles = rt.execute_si("SATD_4x4", now)
        total += cycles
        now += cycles
    return rt, total


@_artifact("ablation_forecast", "Rotation in Advance vs rotate-on-demand")
def _ablation_forecast() -> Built:
    rt_fc, cycles_fc = _forecast_run(True)
    rt_od, cycles_od = _forecast_run(False)
    speedup = cycles_od / cycles_fc
    table = render_table(
        ["manager", "SI cycles", "SW execs", "HW execs", "rotations"],
        [
            [label, cycles, rt.stats.sw_executions, rt.stats.hw_executions,
             rt.stats.rotations_requested]
            for label, rt, cycles in (
                ("forecasting (Rotation in Advance)", rt_fc, cycles_fc),
                ("rotate-on-demand", rt_od, cycles_od),
            )
        ],
        title=(
            f"Ablation: forecasting vs rotate-on-demand "
            f"({BURST} SATD_4x4 executions after {WARMUP_CYCLES} warm-up cycles; "
            f"speed-up {speedup:.2f}x)"
        ),
    )
    return Built(
        table,
        {"rt_fc": rt_fc, "cycles_fc": cycles_fc, "rt_od": rt_od,
         "cycles_od": cycles_od, "speedup": speedup},
    )


@_artifact("ablation_multimode", "multi-mode operation: RISPP vs fixed ASIP")
def _ablation_multimode() -> Built:
    library = build_scenario_library()
    # RISPP re-rotates at each mode switch, forecast-driven.
    rt = RisppRuntime(library, MODE_BUDGET, core_mhz=100.0)
    now = rispp_cycles = 0
    previous: list[str] = []
    for period in range(MODE_PERIODS):
        _mode, workload = MODES[period % 2]
        for si in previous:
            rt.forecast_end(si, now)
        for si, count in workload.items():
            rt.forecast(si, now, expected=count)
        previous = list(workload)
        # Rotations happen during the mode's ramp-in; the SI burst starts
        # a quarter period in (decoder pipelines buffer that long).
        now += MODE_PERIOD // 4
        for si, count in workload.items():
            for _ in range(count):
                cycles = rt.execute_si(si, now)
                rispp_cycles += cycles
                now += cycles
        now += MODE_PERIOD // 4
    # The design-time-fixed ASIP sees the average workload of both modes.
    average: dict[str, int] = {}
    for _mode, workload in MODES:
        for si, count in workload.items():
            average[si] = average.get(si, 0) + count * (MODE_PERIODS // 2)
    asip = ExtensibleProcessor.design(
        library,
        [ForecastedSI(library.get(si), c) for si, c in average.items()],
        atom_budget=MODE_BUDGET,
    )
    asip_cycles = sum(
        asip.execute_workload(MODES[period % 2][1]) for period in range(MODE_PERIODS)
    )
    software_sis = [n for n, impl in asip.chosen.items() if impl is None]
    advantage = asip_cycles / rispp_cycles
    table = render_table(
        ["platform", "SI cycles", "HW fraction", "rotations", "software SIs"],
        [
            [f"RISPP ({MODE_BUDGET} ACs, rotating)", rispp_cycles,
             f"{100 * rt.stats.hw_fraction():.1f}%", rt.stats.rotations_requested, "-"],
            [f"ASIP ({MODE_BUDGET} dedicated atoms)", asip_cycles, "-", 0,
             ", ".join(software_sis) or "-"],
        ],
        title=(
            f"Multi-mode ablation: {MODE_PERIODS} alternating mode periods, "
            f"RISPP advantage {advantage:.2f}x"
        ),
    )
    return Built(
        table,
        {"rt": rt, "rispp_cycles": rispp_cycles, "asip_cycles": asip_cycles,
         "software_sis": software_sis, "advantage": advantage},
    )


def _replacement_run(policy: Any) -> tuple[RisppRuntime, int]:
    rt = RisppRuntime(build_h264_library(), 4, core_mhz=100.0, policy=policy)
    now = total = 0
    sis = ["SATD_4x4", "HT_4x4"]
    for phase in range(REPLACEMENT_PHASES):
        si, other = sis[phase % 2], sis[(phase + 1) % 2]
        rt.forecast_end(other, now)
        rt.forecast(si, now, expected=EXECS_PER_PHASE)
        now += PHASE_GAP
        for _ in range(EXECS_PER_PHASE):
            cycles = rt.execute_si(si, now)
            total += cycles
            now += cycles
    return rt, total


@_artifact("ablation_replacement", "atom replacement policies: LRU vs MRU vs highest-id")
def _ablation_replacement() -> Built:
    results = {
        "LRU": _replacement_run(LRUPolicy()),
        "MRU": _replacement_run(MRUPolicy()),
        "highest-id": _replacement_run(HighestIdPolicy()),
    }
    table = render_table(
        ["policy", "SI cycles", "rotations", "SW execs", "HW execs", "HW fraction"],
        [
            [name, total, rt.stats.rotations_requested, rt.stats.sw_executions,
             rt.stats.hw_executions, f"{100 * rt.stats.hw_fraction():.1f}%"]
            for name, (rt, total) in results.items()
        ],
        title=(
            f"Ablation: replacement policies over {REPLACEMENT_PHASES} alternating "
            f"phases ({EXECS_PER_PHASE} executions each, 4 containers)"
        ),
    )
    return Built(table, {"results": results})


@_artifact("ablation_selection", "greedy vs exhaustive molecule selection")
def _ablation_selection() -> Built:
    library = build_h264_library()
    rng = random.Random(1234)
    rows = []
    for trial in range(SELECTION_TRIALS):
        weights = {n: rng.uniform(1, 500) for n in FIG5_SIS}
        requests = [ForecastedSI(library.get(n), weights[n]) for n in FIG5_SIS]
        budget = rng.randint(2, 14)
        g = select_greedy(library, requests, budget)
        e = select_exhaustive(library, requests, budget)
        rows.append(
            {
                "trial": trial,
                "budget": budget,
                "greedy": g.total_benefit,
                "optimal": e.total_benefit,
                "ratio": (g.total_benefit / e.total_benefit) if e.total_benefit else 1.0,
                "greedy_considered": g.considered,
                "optimal_considered": e.considered,
            }
        )
    table = render_table(
        ["trial", "#ACs", "greedy benefit", "optimal benefit", "ratio",
         "greedy evals", "optimal evals"],
        [
            [r["trial"], r["budget"], round(r["greedy"]), round(r["optimal"]),
             f"{r['ratio']:.3f}", r["greedy_considered"], r["optimal_considered"]]
            for r in rows
        ],
        title="Ablation: greedy vs exhaustive molecule selection",
    )
    return Built(table, {"rows": rows})


# -- extensions (the paper's future work, implemented) -----------------------

AMDAHL_SIS = ("SATD_4x4", "DCT_4x4", "HT_4x4", "MC_HPEL", "LF_EDGE")
ENERGY_MACROBLOCKS = 30
ENERGY_CONTAINERS = 6
CIF_FRAME_MACROBLOCKS = 396  # 352x288
RD_QPS = (0, 12, 24, 36, 48)
SI_ID_CONSTRAINTS = Constraints(
    max_inputs=8, max_outputs=2, max_ops=20, io_overhead_cycles=2
)


@_artifact("extension_amdahl", "MC/LF SIs lift the encoder's Amdahl ceiling")
def _extension_amdahl() -> Built:
    results = _budget_sweep(
        build_extended_library(), AMDAHL_SIS,
        {**LUMA_SI_COUNTS, **EXTENSION_SI_COUNTS}, range(0, 21, 2),
        extended_macroblock_cycles,
    )
    base = results[0][3]
    table = render_table(
        ["#ACs", "used", "SATD", "DCT", "MC", "LF", "cycles/MB", "speed-up"],
        [
            [budget, used, lat["SATD_4x4"], lat["DCT_4x4"], lat["MC_HPEL"],
             lat["LF_EDGE"], total, f"{base / total:.2f}x"]
            for budget, used, lat, total in results
        ],
        title=(
            "Extension: additional hot-spot SIs lift the Amdahl ceiling "
            "(paper future work)"
        ),
    )
    return Built(table, {"results": results})


@_artifact("extension_energy", "fabric energy: rotation break-even vs a dedicated ASIP")
def _extension_energy() -> Built:
    model = EnergyModel()
    library = build_h264_library()
    # RISPP: rotate once, then per-MB costs are steady.
    rt = RisppRuntime(library, ENERGY_CONTAINERS, core_mhz=100.0, energy_model=model)
    for si, count in LUMA_SI_COUNTS.items():
        rt.forecast(si, 0, expected=count * ENERGY_MACROBLOCKS)
    start = now = 600_000
    for _mb in range(ENERGY_MACROBLOCKS):
        for si, count in LUMA_SI_COUNTS.items():
            for _ in range(count):
                now += rt.execute_si(si, now)
        now += CORE_OVERHEAD_CYCLES
    cycles_per_mb = (now - start) / ENERGY_MACROBLOCKS
    rispp_exec_per_mb = rt.stats.execution_energy_nj / ENERGY_MACROBLOCKS
    rispp_per_mb = rispp_exec_per_mb + model.static_energy_nj(
        CONTAINER_SLICES * ENERGY_CONTAINERS, round(cycles_per_mb)
    )
    rotation_energy = rt.stats.rotation_energy_nj
    # ASIP: dedicated fastest data paths, no rotations.
    asip = ExtensibleProcessor.design(
        library,
        [ForecastedSI(library.get(si), count) for si, count in LUMA_SI_COUNTS.items()],
        atom_budget=100,
    )
    asip_slices = 0
    asip_exec_per_mb = 0.0
    for si, count in LUMA_SI_COUNTS.items():
        impl = asip.chosen[si]
        slices = sum(
            library.catalogue.get(k).slices * impl.molecule.count(k)
            for k in impl.molecule.kinds_used()
        )
        asip_slices += slices
        asip_exec_per_mb += count * model.execution_energy_nj(slices, impl.cycles)
    asip_per_mb = asip_exec_per_mb + model.static_energy_nj(
        asip_slices, round(cycles_per_mb)
    )
    break_even = rotation_energy / (asip_per_mb - rispp_per_mb)
    # Totals at ten CIF frames.
    n = 10 * CIF_FRAME_MACROBLOCKS
    rispp_total = rotation_energy + n * rispp_per_mb
    asip_total = n * asip_per_mb
    table = render_table(
        ["platform", "slices", "energy/MB [nJ]", "rotation [nJ]",
         "total @10 CIF frames [nJ]"],
        [
            ["RISPP (6 containers)", CONTAINER_SLICES * ENERGY_CONTAINERS,
             round(rispp_per_mb), round(rotation_energy), round(rispp_total)],
            ["ASIP (dedicated, fastest molecules)", asip_slices,
             round(asip_per_mb), 0, round(asip_total)],
        ],
        title=(
            f"Extension: fabric energy; rotation break-even after "
            f"{break_even:.0f} macroblocks "
            f"({break_even / CIF_FRAME_MACROBLOCKS:.2f} CIF frames)"
        ),
    )
    return Built(
        table,
        {"rt": rt, "rispp_per_mb": rispp_per_mb,
         "rispp_exec_per_mb": rispp_exec_per_mb, "asip_per_mb": asip_per_mb,
         "asip_exec_per_mb": asip_exec_per_mb, "break_even": break_even,
         "rispp_total": rispp_total, "asip_total": asip_total},
    )


@_artifact("extension_ratedistortion", "rate-distortion of the full TQ + entropy chain")
def _extension_ratedistortion() -> Built:
    frames = [synthetic_frame(64, 64, seed=3, shift=s) for s in range(3)]
    reports = {qp: encode_sequence(frames, qp) for qp in RD_QPS}
    table = render_table(
        ["QP", "PSNR [dB]", "total bits", "intra-frame bits", "inter-frame bits"],
        [
            [qp, f"{r.mean_psnr():.1f}", r.total_bits(), r.frames[0].bits,
             sum(f.bits for f in r.frames[1:])]
            for qp, r in reports.items()
        ],
        title="Extension: rate-distortion of the completed TQ + entropy chain",
    )
    return Built(table, {"reports": reports})


def _satd_row_graph() -> OperationGraph:
    """The scalar inner loop of SATD over one row, as an operation graph."""
    ops = [Operation(f"d{i}", "sub", (f"%a{i}", f"%b{i}"), latency=2) for i in range(4)]
    for name, op, args in (
        ("e0", "add", ("d0", "d3")), ("e1", "add", ("d1", "d2")),
        ("e2", "sub", ("d1", "d2")), ("e3", "sub", ("d0", "d3")),
        ("y0", "add", ("e0", "e1")), ("y1", "add", ("e3", "e2")),
        ("y2", "sub", ("e0", "e1")), ("y3", "sub", ("e3", "e2")),
    ):
        ops.append(Operation(name, op, args, latency=2))
    ops += [Operation(f"m{i}", "abs", (f"y{i}",), latency=2) for i in range(4)]
    ops += [
        Operation("s0", "add", ("m0", "m1"), latency=2),
        Operation("s1", "add", ("m2", "m3"), latency=2),
        Operation("sum", "add", ("s0", "s1"), latency=2),
    ]
    return OperationGraph(ops, live_outs=("sum",))


@_artifact("extension_si_identification", "automatic SI identification on SATD's inner loop")
def _extension_si_identification() -> Built:
    graph = _satd_row_graph()
    candidates = enumerate_si_candidates(graph, SI_ID_CONSTRAINTS, max_candidates=200_000)
    best = candidates[0]
    si, catalogue, report = si_from_candidate(
        "SATD_ROW", graph, best, counts_allowed=(1, 2, 4)
    )
    table = render_table(
        ["molecule", "atoms", "cycles", "speed-up"],
        [
            [impl.label, impl.atoms(), impl.cycles,
             f"{si.software_cycles / impl.cycles:.1f}x"]
            for impl in si.implementations
        ],
        title=(
            f"Auto-identified SATD_ROW: {len(candidates)} candidates, "
            f"best covers {len(best)} ops "
            f"({best.software_cycles} -> {best.hardware_cycles} cycles)"
        ),
    )
    return Built(
        table,
        {"graph": graph, "candidates": candidates, "best": best, "si": si,
         "catalogue": catalogue, "report": report},
    )
