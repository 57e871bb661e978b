"""Self-tests that prove the benchmark's detectors fire.

    python3 perfbench/selftest.py

Runs from the repository root and exits 0 when every test passes:

* a wrapper that plants one extra call per ``execute_si`` raises
  ``calls_per_si.total`` on ``stream_h264``;
* a tampered serve response is counted as a failed operation, so it
  shows in the error rate;
* every metric name matches ``[A-Za-z0-9_.-]+`` and ``BENCHMARK.json``
  lists exactly the metrics the code prints, with the same units.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_planted_call_raises_calls_per_si() -> None:
    from perfbench.layers import runtime_capture
    from perfbench.run import profile_ops
    from perfbench.workloads import StreamH264
    from repro.runtime.manager import RisppRuntime

    workload = StreamH264(1, ROOT)
    workload.setup()
    workload.warm()
    capture = runtime_capture()
    capture.install()
    try:
        def counts() -> tuple[int, int]:
            counted, ops = profile_ops(workload, capture, [0])
            assert all(op.ok for op in ops), "stream operation failed its check"
            si = sum(op.counters.si_executions for op in ops)
            return sum(counted.calls.values()), si

        clean, si = counts()
        original = RisppRuntime.execute_si

        @functools.wraps(original)
        def planted(self, si_name, now, *, task="main"):
            self.library.get(si_name)  # the planted extra call
            return original(self, si_name, now, task=task)

        RisppRuntime.execute_si = planted
        try:
            dirty, _ = counts()
        finally:
            RisppRuntime.execute_si = original
    finally:
        capture.uninstall()
        workload.close()
    before, after = clean / si, dirty / si
    assert dirty - clean >= si, f"calls_per_si.total {before:.3f} -> {after:.3f}"
    print(f"  calls_per_si.total {before:.3f} -> {after:.3f} with a planted call")


def test_tampered_response_counts_as_failure() -> None:
    from perfbench.layers import runtime_capture
    from perfbench.run import end_to_end
    from perfbench.workloads import ServeMixed

    class TamperedServe(ServeMixed):
        """Corrupts the first response of the measured loop."""

        armed = False

        def run_http(self, seconds, *, min_requests, facade=None):
            self.armed = seconds > 0
            return super().run_http(
                seconds, min_requests=min_requests, facade=facade
            )

        def _post(self, conn, body):
            status, data = super()._post(conn, body)
            if self.armed:
                self.armed = False
                data = data.replace(b'"match": true', b'"match": false', 1)
            return status, data

    args = argparse.Namespace(workload="serve_mixed", seed=1, seconds=0.5)
    workload = TamperedServe(1, ROOT)
    capture = runtime_capture()
    capture.install()
    try:
        _metrics, outcomes, _notes = end_to_end(workload, capture, args)
    finally:
        capture.uninstall()
        workload.close()
    failed = outcomes.count(False)
    assert failed == 1, f"expected 1 failed request, counted {failed}"
    print(f"  1 tampered response of {len(outcomes)} counted as failed")


def test_metric_names() -> None:
    from perfbench.run import END_TO_END, WORKLOAD_NAMES, per_layer_units
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed_layer = per_layer_units()
    names = [*declared_e2e, *declared_layer, *printed_layer,
             *(w["name"] for w in spec["workloads"])]
    bad = [n for n in names if not NAME.fullmatch(n)]
    assert not bad, f"metric names outside [A-Za-z0-9_.-]+: {bad}"
    workloads = [w["name"] for w in spec["workloads"]]
    assert workloads == list(WORKLOAD_NAMES) == list(WORKLOADS), "workloads differ"
    assert declared_e2e == dict(END_TO_END), "end_to_end differs from the code"
    assert declared_layer == printed_layer, "per_layer differs from the code"
    print(f"  {len(declared_e2e)} end-to-end and {len(declared_layer)} per-layer names")


TESTS = (
    test_planted_call_raises_calls_per_si,
    test_tampered_response_counts_as_failure,
    test_metric_names,
)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    failures = 0
    for test in TESTS:
        print(test.__name__)
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print(f"  FAIL: {exc}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
