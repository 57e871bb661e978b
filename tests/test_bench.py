"""The ``repro bench`` harness: timing primitives, schema, CLI."""

import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    StageResult,
    pinned_digest,
    render_report,
    run_suite,
    time_best,
    time_stage,
    trace_signature,
    write_report,
)
from repro.cli import main
from repro.sim import EventKind, Trace

#: Layout contract of BENCH_runtime.json (CI uploads it on every push).
REPORT_KEYS = {
    "schema_version", "suite", "quick", "timestamp_utc",
    "python", "platform", "end_to_end", "stages", "totals", "metrics",
}
END_TO_END_KEYS = {
    "scenario", "wall_s", "trace_digest", "trace_pin", "trace_equal",
    "trace_events", "si_executions", "simulated_cycles", "cycles_per_sec",
    "trace_verified", "verify_findings",
}
STAGE_KEYS = {
    "name", "wall_s", "iterations", "repeats", "throughput", "unit", "extra",
}


class TestHarness:
    def test_time_stage_runs_and_times(self):
        calls = []
        stage = time_stage(
            "s", lambda: calls.append(1), iterations=10, repeats=4
        )
        assert len(calls) == 4  # best-of-4
        assert stage.wall_s >= 0
        assert stage.iterations == 10
        assert stage.throughput > 0

    def test_time_stage_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            time_stage("s", lambda: None, iterations=1, repeats=0)

    def test_time_best_returns_last_result(self):
        wall, result = time_best(lambda: 42, repeats=2)
        assert result == 42
        assert wall >= 0

    def test_stage_result_dict_is_schema_stable(self):
        d = StageResult("s", 0.5, iterations=100, repeats=3).to_dict()
        assert set(d) == STAGE_KEYS
        assert d["throughput"] == pytest.approx(200.0)

    def test_trace_signature_resolves_lazy_details(self):
        eager, lazy = Trace(), Trace()
        eager.record(5, EventKind.SI_EXECUTED, si="S", mode="HW", cycles=12)
        lazy.record_lazy(
            5, EventKind.SI_EXECUTED, lambda: {"mode": "HW", "cycles": 12},
            si="S",
        )
        assert trace_signature(eager) == trace_signature(lazy)
        assert trace_signature(eager) != trace_signature(Trace())


class TestSuites:
    @pytest.fixture(scope="class")
    def synthetic_report(self):
        return run_suite("synthetic", quick=True)

    def test_report_schema(self, synthetic_report):
        report = synthetic_report
        assert set(report) == REPORT_KEYS
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["suite"] == "synthetic"
        assert report["quick"] is True
        assert set(report["end_to_end"]) == END_TO_END_KEYS
        for stage in report["stages"]:
            assert set(stage) == STAGE_KEYS
        assert report["totals"]["stages"] == len(report["stages"])

    def test_end_to_end_trace_matches_pin_and_verifies(self, synthetic_report):
        e2e = synthetic_report["end_to_end"]
        assert e2e["trace_equal"] is True
        assert e2e["trace_digest"] == e2e["trace_pin"]
        assert e2e["trace_pin"] == pinned_digest("synthetic", quick=True)
        assert e2e["trace_verified"] is True, e2e["verify_findings"]
        assert e2e["verify_findings"] == []
        assert e2e["trace_events"] > 0
        assert e2e["wall_s"] > 0
        assert e2e["si_executions"] > 0

    def test_micro_stages_cover_the_hot_paths(self, synthetic_report):
        names = [s["name"] for s in synthetic_report["stages"]]
        assert names == [
            "selection", "selection_backend", "rotation_planning",
            "execute_si", "trace_record", "metrics_overhead",
            "state_explore", "audit", "recovery", "serve",
        ]

    def test_serve_stage_proves_pool_determinism(self, synthetic_report):
        stage = next(
            s for s in synthetic_report["stages"] if s["name"] == "serve"
        )
        extra = stage["extra"]
        # 1-worker and 4-worker pools must return byte-identical
        # responses per request — the serve determinism contract.
        assert extra["results_equal"] is True
        assert stage["iterations"] == extra["scenarios"] == len(extra["seeds"])
        assert extra["wall_1_worker_s"] > 0
        assert extra["wall_4_workers_s"] > 0
        assert stage["unit"] == "scenarios/s"

    def test_recovery_stage_proves_crash_consistency(self, synthetic_report):
        stage = next(
            s for s in synthetic_report["stages"] if s["name"] == "recovery"
        )
        extra = stage["extra"]
        # The resumed trace must equal the uninterrupted run's — the
        # same gate the CI crash-recovery job applies end to end.
        assert extra["trace_equal"] is True
        assert stage["iterations"] == extra["snapshots"] > 0
        assert extra["journal_records"] > 0
        assert extra["snapshot_bytes"] > 0
        assert extra["resume_s"] > 0
        assert stage["unit"] == "snapshots/s"

    def test_selection_backend_stage_proves_equivalence(
        self, synthetic_report
    ):
        stage = next(
            s for s in synthetic_report["stages"]
            if s["name"] == "selection_backend"
        )
        extra = stage["extra"]
        assert extra["numpy_available"] is True
        # Bit-for-bit equivalence: identical SelectionResults on the
        # suite's forecast mix, identical traces on the short scenario,
        # and both traces replay cleanly through rispp-verify.
        assert extra["results_equal"] is True
        assert extra["trace_equal"] is True
        assert extra["trace_verified"] is True
        # The vectorized path must actually have been timed.
        assert extra["numpy_s"] > 0
        assert extra["reference_s"] > 0
        assert extra["speedup"] > 0

    def test_disabled_telemetry_overhead_is_bounded(self, synthetic_report):
        stage = next(
            s for s in synthetic_report["stages"]
            if s["name"] == "metrics_overhead"
        )
        extra = stage["extra"]
        assert extra["disabled_overhead_pct"] < 3.0
        # The enabled path must actually have run (sanity, not a bound).
        assert extra["enabled_wall_s"] > 0

    def test_state_explore_stage_reports_exploration_shape(
        self, synthetic_report
    ):
        stage = next(
            s for s in synthetic_report["stages"]
            if s["name"] == "state_explore"
        )
        extra = stage["extra"]
        assert extra["scope"] == "tiny"
        assert extra["states_explored"] == stage["iterations"] > 0
        assert extra["states_explored"] <= extra["max_states"]
        assert extra["violations"] == 0
        assert 0.0 <= extra["dedupe_ratio"] <= 1.0

    def test_audit_stage_reports_clean_gated_run(self, synthetic_report):
        stage = next(
            s for s in synthetic_report["stages"] if s["name"] == "audit"
        )
        extra = stage["extra"]
        assert extra["files_scanned"] == stage["iterations"] > 0
        assert extra["findings"] == 0
        assert extra["stale_suppressions"] == 0
        assert extra["exit_code"] == 0
        assert stage["wall_s"] > 0

    def test_report_embeds_deterministic_metrics_snapshot(
        self, synthetic_report
    ):
        from repro.obs import SNAPSHOT_KIND

        snap = synthetic_report["metrics"]
        assert snap["kind"] == SNAPSHOT_KIND
        assert snap["deterministic_only"] is True
        names = {family["name"] for family in snap["metrics"]}
        assert "rispp_si_executions_total" in names
        assert "rispp_rotation_latency_cycles" in names
        # Wall-clock span timers must not leak into the snapshot.
        assert "rispp_replan_duration_seconds" not in names

    def test_report_round_trips_through_json(self, synthetic_report, tmp_path):
        path = tmp_path / "BENCH_runtime.json"
        write_report(synthetic_report, str(path))
        assert json.loads(path.read_text()) == synthetic_report

    def test_render_report_mentions_the_verdict(self, synthetic_report):
        text = render_report(synthetic_report)
        assert "trace pin: OK" in text
        assert "trace verification: OK" in text

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown bench suite"):
            run_suite("mp3")


class TestBenchCLI:
    def test_bench_writes_report(self, tmp_path, capsys):
        path = tmp_path / "BENCH_runtime.json"
        code = main(["bench", "--suite", "synthetic", "--quick",
                     "--json", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bench suite: synthetic (quick)" in out
        report = json.loads(path.read_text())
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["end_to_end"]["trace_equal"] is True

    def test_trace_drift_from_the_pin_exits_nonzero(self, monkeypatch, capsys):
        import repro.bench.suites as suites

        real = suites.trace_digest
        monkeypatch.setattr(suites, "trace_digest", lambda t: "drift-" + real(t))
        assert main(["bench", "--suite", "aes", "--quick"]) == 1
        assert "trace pin: MISMATCH" in capsys.readouterr().out

    def test_bench_rejects_unknown_suite(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--suite", "mp3"])

    def test_usage_mentions_bench(self, capsys):
        main([])
        assert "bench" in capsys.readouterr().out
