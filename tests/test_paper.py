"""The paper's acceptance criteria, asserted on the artifact catalogue.

Each test reads the data of one :mod:`repro.reporting.paper` entry (built
once per session) and asserts what EXPERIMENTS.md claims for it.  The
rendered texts are pinned in ``tests/golden/paper/`` and compared in
``tests/test_golden_pins.py``; the Fig. 6 scenario's checks live in
``tests/test_fig6_scenario.py``.
"""

import pytest

from repro.apps.h264 import EncoderPipeline, build_h264_catalogue, satd_4x4
from repro.apps.h264.blocks import split_into_4x4
from repro.apps.h264.phases import PHASES
from repro.core import AtomSpace, estimate_cycles, layered_dataflow, pareto_front_of
from repro.hardware import (
    CONTAINER_LUTS,
    CONTAINER_SLICES,
    PROTOTYPE_CONTAINERS,
    Fabric,
    ReconfigurationPort,
    average_rotation_us,
    extensible_processor_area,
    ge_max,
    ge_saving_pct,
    max_alpha_for_constraint,
    rispp_area,
)
from repro.reporting import paper
from repro.reporting.paper import built


def data(name):
    return built(name).data


# -- figures ------------------------------------------------------------------


def test_fig1_area_comparison():
    d = data("fig1")
    phases = d["phases"]
    total = extensible_processor_area(phases)
    biggest = ge_max(phases)
    mc = next(p for p in phases if p.name == "MC")
    me = next(p for p in phases if p.name == "ME")
    assert mc.gate_equivalents == biggest, "MC requires the biggest area"
    assert mc.time_pct == 17.0, "MC consumes only 17% of processing time"
    assert me.gate_equivalents == min(p.gate_equivalents for p in phases)
    assert me.time_pct == max(p.time_pct for p in phases)
    for cmp in d["comparisons"]:
        assert cmp.rispp_ge == cmp.alpha * biggest
        assert cmp.saving_pct == ge_saving_pct(phases, cmp.alpha)
        if cmp.alpha <= 2.0:
            assert cmp.rispp_ge < total, "RISPP needs less area than the ASIP"
    # At alpha = 1.25 the saving is substantial (>40% on this profile).
    assert ge_saving_pct(phases, 1.25) > 40
    # Feasibility constraint.
    assert max_alpha_for_constraint(phases, rispp_area(phases, 1.5)) == 1.5


def test_fig1_rotation_maintains_performance():
    d = data("fig1_rotation")
    with_la, area, steady, lag = d["with_la"], d["area"], d["steady"], d["lag"]
    # Steady state (after the cold first frame): every phase runs
    # predominantly in hardware.
    for name, _share, _workload in PHASES:
        assert with_la.steady_state_hw_fraction(name) > 0.75, name
    # Per-frame SI time converges and stays converged.
    assert len(set(steady)) == 1
    assert steady[0] < with_la.frame_si_cycles(0)
    # Rotation-in-Advance is the enabler: dropping the lookahead costs
    # more than 2x in steady-state SI time.
    assert lag > 2 * steady[0]
    # The container bank is roughly half the dedicated per-phase silicon.
    assert area.rispp_slices < area.extensible_slices
    assert 30 <= area.saving_pct <= 70
    assert area.rispp_slices >= max(area.per_phase_slices.values())


def test_fig2_molecule_sharing():
    d = data("fig2")
    library, shared, sup = d["library"], d["shared"], d["sup"]
    # Transform and Pack serve all three figure SIs.
    for kind in ("Transform", "Pack"):
        assert set(paper.FIG2_SIS) <= set(shared[kind])
    # QuadSub/SATD are SATD_4x4-specific among the three.
    assert "SATD_4x4" in shared["QuadSub"]
    # One atom set implements all three SIs.
    for name in paper.FIG2_SIS:
        for molecule in library.get(name).molecules():
            assert molecule <= sup
    # The minimal molecules overlap pairwise: real sharing.
    minimal = [library.get(n).minimal_molecule().molecule for n in paper.FIG2_SIS]
    for a in minimal:
        for b in minimal:
            assert not (a & b).is_zero()


def test_fig3_aes_forecast():
    report = data("fig3")["report"]
    # The hot block is the 9x round loop; profiling must show it.
    assert report.cfg.get("round").exec_count > report.cfg.get("final").exec_count
    assert report.cfg.get("round").si_usages == {"SUBBYTES": 1, "MIXCOL": 1}
    # Candidates exist and precede the SI-using blocks.
    assert report.candidates
    for c in report.candidates:
        assert not report.cfg.get(c.block_id).uses_si(c.si_name)
        assert c.expected_executions >= c.required_executions
    # Placement produced at least one FC block the run-time would monitor.
    assert report.annotation.all_points()
    # DOT output carries profiling shades, SI marks and highlights.
    assert "digraph" in report.dot
    assert "shape=box" in report.dot
    assert "SUBBYTESx1" in report.dot


def test_fig4_fdf_surface_shape():
    surface = data("fig4")["surface"]
    ticks = paper.FIG4_TICKS
    assert len(surface) == 3 and all(len(row) == len(ticks) for row in surface)
    i1, i10 = ticks.index(1.0), ticks.index(10.0)
    for row in surface:
        # Left wall: demand decreasing towards t = T_rot.
        wall = row[: i1 + 1]
        assert wall == sorted(wall, reverse=True)
        assert wall[0] > 100  # hundreds of executions demanded at 0.1 T_rot
        # Valley: between 1 and 10 T_rot only the offset is demanded.
        valley = row[i1 : i10 + 1]
        assert max(valley) - min(valley) < 1e-9
        # Right rise: demand increasing beyond 10 T_rot.
        rise = row[i10:]
        assert rise == sorted(rise)
        assert rise[-1] > rise[0]
    # Lower probability demands strictly more outside the valley.
    for j, x in enumerate(ticks):
        if not 1.0 <= x <= 10.0:
            assert surface[2][j] > surface[1][j] > surface[0][j]
    # The figure's 0..500 z axis at p=100%, t=0.1 T_rot.
    assert 400 <= surface[0][0] <= 600


def test_fig5_trimming():
    d = data("fig5")
    library, budgets, results = d["library"], d["budgets"], d["results"]
    # Demand never exceeds the budget unless the abort guard fired.
    for budget, result in results.items():
        if not result.aborted_on_cluster:
            assert result.containers_needed <= budget
        assert result.kept, "the cluster guard keeps at least one SI"
    # Monotone: more containers never keep fewer SIs.
    kept_counts = [len(results[b].kept) for b in budgets]
    assert kept_counts == sorted(kept_counts)
    # A budget covering the joint demand keeps everything.
    full = results[d["full_demand"]]
    assert len(full.kept) == 4 and not full.removed
    # Under pressure, every removed SI occupied reconfigurable atoms.
    for removed in results[4].removed:
        rep = library.get(removed.si_name).rep()
        assert abs(library.restricted_to_reconfigurable(rep)) > 0


def test_fig7_encoder_flow():
    d = data("fig7")
    mbs, encoded = d["mbs"], d["encoded"]
    for mb, out in zip(mbs, encoded):
        # 16 sub-blocks x 16 candidates -> 256 SATD; 16 luma + 8 chroma
        # DCTs; 1 luma HT_4x4; 2 chroma HT_2x2.
        assert out.si_counts == {
            "SATD_4x4": 256,
            "DCT_4x4": 24,
            "HT_4x4": 1,
            "HT_2x2": 2,
        }
        # The candidate with minimum SATD was chosen for every sub-block.
        grid = split_into_4x4(mb.luma)
        for sub in range(16):
            satds = [satd_4x4(grid[sub // 4][sub % 4], c) for c in mb.candidates[sub]]
            assert out.best_satd[sub] == min(satds)
        assert out.dc_block.shape == (4, 4)
        assert set(out.chroma_dc) == {"cb", "cr"}
        assert out.chroma_dc["cb"].shape == (2, 2)
    # Quality manager: an impossible threshold forces intra injection.
    assert EncoderPipeline(intra_threshold=0).encode_macroblock(mbs[0]).intra_injected
    lax = EncoderPipeline(intra_threshold=10**9)
    assert not lax.encode_macroblock(mbs[0]).intra_injected


def test_fig8_satd_datapath():
    d = data("fig8")
    for got, want, counts in d["checks"]:
        assert got == want, "Atom-composed SATD must be bit-exact"
        assert counts == {"QuadSub": 4, "Transform": 4, "Pack": 4, "SATD": 4}
    # More atom instances trade area for latency monotonically, and fully
    # spatial execution reaches the dataflow's critical path.
    latencies = d["latencies"]
    assert latencies["1 of each"] > latencies["2 of each"] >= latencies["4 of each"]
    assert latencies["4 of each"] == d["dataflow"].critical_path_cycles()


def test_fig11_si_cycles():
    d = data("fig11")
    library, measured = d["library"], d["measured"]
    # Every one of the nine published points reproduces exactly.
    assert measured == paper.PAPER_FIG11
    # ">22 times faster than the optimized software implementation".
    for si in paper.PAPER_FIG11:
        assert library.get(si).max_expected_speedup() > 22
    assert measured["SATD_4x4"]["Opt. SW"] / measured["SATD_4x4"]["4 Atoms"] > 22
    assert measured["DCT_4x4"]["Opt. SW"] / measured["DCT_4x4"]["6 Atoms"] > 22
    # More atoms never slow any SI down.
    for si in paper.PAPER_FIG11:
        series = [measured[si][c] for c in ("4 Atoms", "5 Atoms", "6 Atoms")]
        assert series == sorted(series, reverse=True)


def test_fig12_encoder_performance():
    totals = data("fig12")["totals"]
    # Absolute agreement within 0.5% on every bar.
    for config, published in paper.PAPER_FIG12.items():
        assert totals[config] == pytest.approx(published, rel=0.005), config
    # "More than 300% faster than ... optimized software".
    assert totals["Opt. SW"] / totals["4 Atoms"] > 3.0
    # Amdahl: under 5% total gain from 4 to 6 atoms.
    assert totals["4 Atoms"] > totals["5 Atoms"] > totals["6 Atoms"]
    assert (totals["4 Atoms"] - totals["6 Atoms"]) / totals["4 Atoms"] < 0.05


def test_fig13_pareto_fronts():
    d = data("fig13")
    library, clouds, fronts, walk = d["library"], d["clouds"], d["fronts"], d["walk"]
    # The x axis spans 0..18 RISPP resources, as plotted.
    all_atoms = [p.atoms for pts in clouds.values() for p in pts]
    assert max(all_atoms) == 18
    assert min(all_atoms) >= 2
    for name, front in fronts.items():
        # Every front is strictly improving: more atoms, fewer cycles.
        for a, b in zip(front, front[1:]):
            assert b.atoms > a.atoms and b.cycles < a.cycles
        # Front endpoints: the minimal and the fastest molecule.
        si = library.get(name)
        assert front[0].cycles == si.minimal_molecule().cycles
        assert front[-1].cycles == si.fastest_molecule().cycles
    # SATD_4x4 offers the richest trade-off.
    assert len(clouds["SATD_4x4"]) == 15
    assert len(fronts["SATD_4x4"]) >= 5
    # Dynamic trade-off: as the budget grows, the selected molecule's
    # latency walks down the front to the fastest molecule.
    assert walk == sorted(walk, reverse=True)
    assert walk[-1] == library.get("SATD_4x4").fastest_molecule().cycles


# -- tables -------------------------------------------------------------------


def test_table1_atoms():
    rows = data("table1")["rows"]
    for name, (slices, luts, util, bits, rot_us) in rows.items():
        p_slices, p_luts, p_bits, p_rot = paper.PAPER_TABLE1[name]
        assert slices == p_slices and luts == p_luts and bits == p_bits
        # Modelled rotation time within 0.1% of the published figure.
        assert rot_us == pytest.approx(p_rot, rel=1e-3)
        # Utilization: slices over the 1024-slice container.
        assert util == pytest.approx(slices / CONTAINER_SLICES)
        assert luts <= CONTAINER_LUTS
    # Pack's BlockRAM row inflates its bitstream although its logic
    # utilization is moderate.
    assert rows["Pack"][3] == max(r[3] for r in rows.values())
    assert rows["Pack"][2] < rows["Transform"][2]
    # "The rotation time is in the range of milliseconds."
    assert 0.5 <= average_rotation_us() / 1000 <= 1.5
    # Fig. 10 prototype: 4 ACs, rotation latency in cycles at 100 MHz.
    catalogue = build_h264_catalogue()
    assert len(Fabric(catalogue, PROTOTYPE_CONTAINERS)) == 4
    port = ReconfigurationPort(catalogue, core_mhz=100.0)
    for name, row in rows.items():
        assert port.rotation_cycles(name) == pytest.approx(row[4] * 100.0, rel=1e-3)


#: Table 2 cross-check dataflows (atom executions per SI call).
TABLE2_DATAFLOWS = {
    "HT_4x4": [("Load", 4, 1), ("Transform", 2, 1), ("Pack", 4, 1), ("Transform", 2, 1)],
    "DCT_4x4": [("Load", 4, 1), ("Transform", 2, 1), ("Pack", 4, 1), ("Transform", 2, 1)],
    "SATD_4x4": [
        ("Load", 4, 1),
        ("QuadSub", 4, 1),
        ("Transform", 2, 1),
        ("Pack", 4, 1),
        ("Transform", 2, 1),
        ("SATD", 4, 1),
    ],
}


def test_table2_molecules():
    rows = data("table2")["rows"]
    assert len(rows) == 30  # 1 + 6 + 8 + 15 molecule columns
    by_si: dict = {}
    for si, counts, cycles in rows:
        by_si.setdefault(si, []).append((counts, cycles))
    # Cycles row, verbatim from the paper.
    assert [c for _, c in by_si["HT_2x2"]] == [5]
    assert [c for _, c in by_si["HT_4x4"]] == [22, 17, 17, 12, 11, 8]
    assert [c for _, c in by_si["DCT_4x4"]] == [24, 23, 19, 15, 18, 12, 12, 9]
    assert [c for _, c in by_si["SATD_4x4"]] == [
        24, 22, 22, 20, 18, 18, 17, 15, 14, 15, 14, 14, 13, 13, 12,
    ]
    # Dominance consistency: a molecule offering at least another's atoms
    # must not be slower.
    for si, molecules in by_si.items():
        for ca, cyca in molecules:
            for cb, cycb in molecules:
                if all(x <= y for x, y in zip(ca, cb)):
                    assert cycb <= cyca, (si, ca, cb)
    # Scheduler cross-check: estimated latency decreases from the minimal
    # to the maximal molecule, and the catalogue agrees on the direction.
    space = AtomSpace(paper.TABLE2_KINDS)
    for si, stages in TABLE2_DATAFLOWS.items():
        df = layered_dataflow(stages)
        first, last = by_si[si][0], by_si[si][-1]
        est_min = estimate_cycles(df, space.molecule(dict(zip(paper.TABLE2_KINDS, first[0]))))
        est_max = estimate_cycles(df, space.molecule(dict(zip(paper.TABLE2_KINDS, last[0]))))
        assert est_max < est_min, si
        assert last[1] < first[1], si


# -- ablations ----------------------------------------------------------------


def test_ablation_ac_sweep():
    results = data("ablation_ac_sweep")["results"]
    totals = [total for _b, _u, _l, total in results]
    # Monotone: more containers never slow the encoder down.
    assert totals == sorted(totals, reverse=True)
    # Budget 0 is the software baseline.
    assert totals[0] == 201_065
    # The big jump happens once the minimal SATD molecule fits; after
    # that, Amdahl limits the gains (<10% total from 4 to 18 containers).
    assert totals[4] < totals[0] / 3
    assert (totals[4] - totals[18]) / totals[4] < 0.10
    for budget, used, _l, _t in results:
        assert used <= budget


def test_ablation_alpha():
    rows = data("ablation_alpha")["rows"]
    # Offset scales exactly linearly in alpha.
    base = rows[0]["offset"] / paper.ALPHAS[0]
    for row in rows:
        assert row["offset"] == base * row["alpha"]
    # Forecasting becomes monotonically more conservative.
    cand_counts = [r["candidates"] for r in rows]
    assert cand_counts == sorted(cand_counts, reverse=True)
    fc_counts = [r["fc_points"] for r in rows]
    assert fc_counts == sorted(fc_counts, reverse=True)
    # Area grows, saving shrinks; at alpha=4 RISPP loses its area advantage.
    areas = [r["area"] for r in rows]
    savings = [r["saving"] for r in rows]
    assert areas == sorted(areas)
    assert savings == sorted(savings, reverse=True)
    assert savings[0] > 80
    assert savings[-1] < 0


def test_ablation_bandwidth():
    results = data("ablation_bandwidth")["results"]
    names = list(paper.PORT_RATES)
    # Once the rotations land, SATD_4x4 executes in hardware.
    for name in names:
        assert results[name]["first_cycles"] < 544, name
    # Faster configuration memory -> earlier hardware availability.
    readies = [results[n]["ready"] for n in names]
    assert readies == sorted(readies, reverse=True)
    # Rotation count is bandwidth-independent (same molecules chosen).
    assert len({results[n]["rotations"] for n in names}) == 1
    # Doubling the rate halves the time to hardware (pure transfer bound).
    half = results["SelectMap / 2"]["ready"]
    base = results["SelectMap (Virtex-II)"]["ready"]
    assert half / base == pytest.approx(2.0, rel=0.02)
    # The usable forecast horizon shrinks proportionally.
    sweet = [results[n]["sweet_low"] for n in names]
    assert sweet == sorted(sweet, reverse=True)


def test_ablation_forecast():
    d = data("ablation_forecast")
    rt_fc, rt_od = d["rt_fc"], d["rt_od"]
    # With forecasting the whole burst runs in hardware.
    assert rt_fc.stats.sw_executions == 0
    assert rt_fc.stats.hw_executions == paper.BURST
    # Rotate-on-demand pays a software penalty, then converges to hardware.
    assert rt_od.stats.sw_executions > 0
    assert rt_od.stats.hw_executions > 0
    # Forecasting wins end to end.
    assert d["cycles_fc"] < d["cycles_od"]
    assert d["speedup"] > 1.5
    # Both issue the same rotations; only the timing differs.
    assert rt_fc.stats.rotations_requested == rt_od.stats.rotations_requested


def test_ablation_multimode():
    d = data("ablation_multimode")
    # The joint working set does not fit: the ASIP leaves SIs in software.
    assert d["software_sis"], "the fixed ASIP cannot cover both modes"
    # RISPP rotates across mode switches and serves the bulk in hardware.
    assert d["rt"].stats.rotations_requested >= 6
    assert d["rt"].stats.hw_fraction() > 0.8
    # Time-multiplexing the fabric beats the design-time split.
    assert d["rispp_cycles"] < d["asip_cycles"]
    assert d["advantage"] > 1.3


def test_ablation_replacement():
    results = data("ablation_replacement")["results"]
    cycles = {name: total for name, (_rt, total) in results.items()}
    stats = {name: rt.stats for name, (rt, _t) in results.items()}
    # Every policy eventually serves executions in hardware.
    for name, s in stats.items():
        assert s.hw_executions > 0, name
    # LRU never loses to MRU on this phase-alternating workload, and it
    # needs at most as many rotations.
    assert cycles["LRU"] <= cycles["MRU"]
    assert stats["LRU"].rotations_requested <= stats["MRU"].rotations_requested


def test_ablation_selection():
    rows = data("ablation_selection")["rows"]
    ratios = [r["ratio"] for r in rows]
    assert min(ratios) >= 0.85, "greedy must stay near-optimal in the worst case"
    assert sum(ratios) / len(ratios) >= 0.95, "and >=95% on average"
    # Greedy never exceeds the optimum (sanity of the reference).
    assert all(r <= 1.0 + 1e-9 for r in ratios)
    # Work saved: exhaustive enumerates the full product of options.
    total_greedy = sum(r["greedy_considered"] for r in rows)
    total_optimal = sum(r["optimal_considered"] for r in rows)
    assert total_optimal > 3 * total_greedy


# -- extensions ---------------------------------------------------------------


def test_extension_amdahl():
    results = data("extension_amdahl")["results"]
    totals = {budget: total for budget, _u, _l, total in results}
    # Budget 0 is still the paper's software baseline.
    assert totals[0] == 201_065
    series = [totals[b] for b in sorted(totals)]
    assert series == sorted(series, reverse=True)
    # The old catalogue's ceiling was ~3.5x; with MC/LF SIs it passes 5x.
    assert totals[0] / min(series) > 5.0
    # The extension SIs actually get selected at generous budgets.
    latencies = results[-1][2]
    assert latencies["MC_HPEL"] < 900
    assert latencies["LF_EDGE"] < 400


def test_extension_energy():
    d = data("extension_energy")
    assert d["rt"].stats.rotation_energy_nj > 0
    assert d["rt"].stats.hw_fraction() == 1.0
    # RISPP's tight-budget molecules toggle fewer slices per execution
    # than the ASIP's fastest data paths.
    assert d["rispp_exec_per_mb"] < d["asip_exec_per_mb"]
    # The per-MB advantage amortises the rotation energy within a
    # fraction of one CIF frame.
    assert d["asip_per_mb"] > d["rispp_per_mb"]
    assert d["break_even"] < paper.CIF_FRAME_MACROBLOCKS
    # At ten CIF frames the totals separate clearly.
    assert d["rispp_total"] < d["asip_total"]


def test_extension_ratedistortion():
    reports = data("extension_ratedistortion")["reports"]
    psnrs = [reports[qp].mean_psnr() for qp in paper.RD_QPS]
    bits = [reports[qp].total_bits() for qp in paper.RD_QPS]
    # Monotone rate-distortion: quality and rate both fall with QP.
    assert psnrs == sorted(psnrs, reverse=True)
    assert bits == sorted(bits, reverse=True)
    # Near-lossless at QP 0, heavily compressed at QP 48.
    assert psnrs[0] > 50
    assert bits[-1] < bits[0] / 10
    # Inter frames always cost fewer bits than the intra-style first frame.
    for qp in paper.RD_QPS[:-1]:
        frames = reports[qp].frames
        assert all(f.bits <= frames[0].bits for f in frames[1:])
    # The SI workload is QP-independent.
    for report in reports.values():
        for f in report.frames:
            assert f.si_counts["SATD_4x4"] == f.macroblocks * 256


def test_extension_si_identification():
    d = data("extension_si_identification")
    graph, candidates, best, si = d["graph"], d["candidates"], d["best"], d["si"]
    constraints = paper.SI_ID_CONSTRAINTS
    # Enumeration finds many legal candidates, all convex + profitable.
    assert len(candidates) > 100
    for c in candidates[:50]:
        assert graph.is_convex(c.ops)
        assert c.saved_cycles > 0
        assert len(c.inputs) <= constraints.max_inputs
        assert len(c.outputs) <= constraints.max_outputs
    # The top candidate covers the whole kernel.
    assert len(best) == len(graph)
    assert best.speedup > 4
    # Emission produced a usable SI: several molecules on a clean front,
    # atom kinds shared across operation classes (add+sub -> AddSub).
    assert {k.name for k in d["catalogue"]} == {"AddSub", "AbsAcc"}
    assert d["report"].kept == len(si.implementations) >= 4
    front = pareto_front_of(si)
    assert len(front) >= 3
    for a, b in zip(front, front[1:]):
        assert b.atoms > a.atoms and b.cycles < a.cycles
    assert si.max_expected_speedup() > 5
