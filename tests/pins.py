"""Committed behaviour pins: trace digests and golden traces.

``tests/golden/`` holds references recorded from the runtime and
checked by ``tests/test_golden_pins.py``:

* ``digests.json`` — per bench suite (``h264``, ``aes``, ``synthetic``;
  quick and full), the sha256 of ``repr(trace_signature(trace))`` of the
  suite's end-to-end scenario; and, per seeded random interleaving of
  forecasts, forecast ends, executions, container failures and idle
  advances, the digests of the trace and of the run statistics.
  It also holds, per suite, the sha256 of the rendered quick chaos
  report (seed 3, fault rate 50) and of the quick ``repro metrics``
  JSONL snapshot, and the trace digest of the quick h264 verify
  scenario.
* ``<suite>.json`` — the full ``rispp-verify`` golden traces of the
  ``aes`` and ``synthetic`` verify scenarios.

A deliberate behaviour change regenerates every pin with one command,
run from the repository root::

    PYTHONPATH=src python -m tests.pins

and the change says so in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

from repro.analysis.verify import golden_from_runtime, run_verify_suite
from repro.bench import scenario_runtime, trace_digest
from repro.faults import run_chaos_suite
from repro.obs import run_metrics_suite, to_jsonl
from repro.runtime import RisppRuntime
from tests.conftest import build_mini_library

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
#: Committed trace digests; ``write_pins`` regenerates them.
PINS_PATH = GOLDEN_DIR / "digests.json"
REPO_ROOT = GOLDEN_DIR.parents[1]
#: Verify scenarios whose whole golden trace is committed.
GOLDEN_TRACE_SUITES = ("aes", "synthetic")
BENCH_SUITES = ("h264", "aes", "synthetic")
#: The pinned chaos campaign of every suite: quick, seed 3, rate 50.
CHAOS_PIN = {"seed": 3, "quick": True, "fault_rate": 50.0}
#: Seeds of the pinned random interleavings.
INTERLEAVING_SEEDS = tuple(range(32))

# -- the interleaving alphabet ------------------------------------------------

SIS = ("HT", "SATD")
TASKS = ("A", "B")
EXPECTED = (5.0, 20.0, 40.0)
PRIORITIES = (1.0, 2.0)
CONTAINERS = 4
MAX_GAP = 400
MAX_ACTIONS = 12


def seeded_actions(seed: int) -> list[tuple]:
    """One random interleaving: ``[(action, gap cycles), ...]``."""
    rng = random.Random(seed)
    actions = []
    for _ in range(rng.randint(1, MAX_ACTIONS)):
        kind = rng.choice(("forecast", "end", "exec", "advance", "fail"))
        if kind == "forecast":
            action: tuple = (
                kind, rng.choice(TASKS), rng.choice(SIS),
                rng.choice(EXPECTED), rng.choice(PRIORITIES),
            )
        elif kind in ("end", "exec"):
            action = (kind, rng.choice(TASKS), rng.choice(SIS))
        elif kind == "fail":
            action = (kind, rng.randrange(CONTAINERS))
        else:
            action = (kind,)
        actions.append((action, rng.randint(0, MAX_GAP)))
    return actions


def replay(actions, *, prepare=None) -> RisppRuntime:
    """Drive a fresh runtime through ``actions``, then drain the port.

    ``prepare`` is called with the fresh runtime before the first action.
    """
    rt = RisppRuntime(build_mini_library(), CONTAINERS, core_mhz=100.0)
    if prepare is not None:
        prepare(rt)
    now = 0
    for action, dt in actions:
        now += dt
        kind = action[0]
        if kind == "forecast":
            _, task, si, expected, priority = action
            rt.forecast(si, now, task=task, expected=expected, priority=priority)
        elif kind == "end":
            rt.forecast_end(action[2], now, task=action[1])
        elif kind == "exec":
            rt.execute_si(action[2], now, task=action[1])
        elif kind == "fail":
            rt.fail_container(action[1], now)
        else:
            rt.advance(now)
    # Drain in-flight rotations so completion events are pinned too.
    rt.advance(now + 50_000)
    return rt


# -- digests ------------------------------------------------------------------


def interleaving_pin(seed: int) -> dict:
    rt = replay(seeded_actions(seed))
    return {
        "seed": seed,
        "trace": trace_digest(rt.trace),
        "stats": hashlib.sha256(
            repr(dataclasses.asdict(rt.stats)).encode()
        ).hexdigest(),
    }


def bench_pins() -> dict:
    return {
        suite: {
            mode: trace_digest(scenario_runtime(suite, quick=mode == "quick").trace)
            for mode in ("quick", "full")
        }
        for suite in BENCH_SUITES
    }


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def chaos_report_text(suite: str) -> str:
    """The pinned campaign's report, rendered as ``repro chaos --format json``."""
    report = run_chaos_suite(suite, **CHAOS_PIN)
    return json.dumps(report, indent=2, sort_keys=True)


def metrics_text(suite: str) -> str:
    """The quick ``repro metrics --format json`` snapshot of a suite."""
    return to_jsonl(run_metrics_suite(suite, quick=True)[0])


def verify_h264_digest() -> str:
    """Trace digest of the quick h264 verify scenario."""
    return trace_digest(run_verify_suite("h264", quick=True).runtime.trace)


def golden_text(suite: str) -> str:
    """The serialised ``rispp-verify`` golden trace of a full verify run."""
    golden = golden_from_runtime(run_verify_suite(suite).runtime, suite=suite)
    return json.dumps(golden, indent=None, separators=(",", ":")) + "\n"


def golden_trace_path(suite: str) -> Path:
    return GOLDEN_DIR / f"{suite}.json"


def load_digests() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def pinned_digest(suite: str, *, quick: bool) -> str:
    """The committed digest of a bench suite's end-to-end trace."""
    return load_digests()["bench"][suite]["quick" if quick else "full"]


def write_pins() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    digests = {
        "bench": bench_pins(),
        "chaos": {s: sha256_text(chaos_report_text(s)) for s in BENCH_SUITES},
        "interleavings": [interleaving_pin(s) for s in INTERLEAVING_SEEDS],
        "metrics": {s: sha256_text(metrics_text(s)) for s in BENCH_SUITES},
        "verify": {"h264": {"quick": verify_h264_digest()}},
    }
    PINS_PATH.write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    for suite in GOLDEN_TRACE_SUITES:
        golden_trace_path(suite).write_text(golden_text(suite), encoding="utf-8")


if __name__ == "__main__":
    write_pins()
    print(f"pins written to {GOLDEN_DIR}")
