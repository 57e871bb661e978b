"""The four workloads: what one operation is, its inputs and its output check.

Every workload draws its inputs from the workload seed alone, so the
program only ever sees generated inputs and a claim can be re-checked on
a seed not used while writing the change.  Operations are closed-loop:
the next one starts when the previous one finished.

``WORKLOADS.md`` records why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

#: Simulated cycle of the first forecast, and the gap between macroblocks
#: (the defaults of the repository's SI-stream driver).
WARMUP_CYCLES = 700_000
INTER_MB_CYCLES = 5_000
#: Macroblocks per ``stream_h264`` operation.  Twenty rather than forty
#: doubles the operations per run, which halved the run-to-run spread of
#: the p95; the per-stream start-up (the first replans) then weighs more
#: in ``calls_per_si``.
STREAM_MBS = 20
#: Fig. 7 loop-head forecasts, one per SI, re-fired per macroblock.
H264_FORECASTS = (
    ("SATD_4x4", 256.0), ("DCT_4x4", 24.0), ("HT_4x4", 1.0), ("HT_2x2", 2.0),
)
H264_CONTAINERS = 6
#: Faults per million cycles on the fault workloads.
FAULT_RATE = 50.0
#: The chaos CLI's default checkpoint cadence.
CHECKPOINT_EVERY = 64
#: Campaign seed of the warm-up operation: fixed, so set-up time does not
#: depend on the workload seed.
WARM_SEED = 1


def render_report(report: dict[str, Any]) -> str:
    """A chaos report as ``repro chaos --format json`` prints it."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _draw_seeds(rng: random.Random, count: int) -> list[int]:
    return rng.sample(range(1, 1_000_000), count)


class InProcessWorkload:
    """A workload whose operations run inside the benchmark process.

    ``inputs`` is one pass; the closed loop cycles through it.  ``execute``
    is the timed operation, ``prepare`` and ``check`` run untimed around
    it.  ``objects`` are the runtime objects the operation built.
    """

    name = ""

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        #: Scratch space of this process inside the checkout.
        self.workdir = root / ".bench_work" / f"{self.name}-{os.getpid()}"
        self.inputs: list[Any] = []

    def setup(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """Untimed work before the first operation: lazy imports, caches."""
        self.prepare(0)
        self.execute(0)

    def prepare(self, key: int) -> None:
        """Untimed work before operation ``key`` (reference outputs)."""

    def execute(self, key: int) -> Any:
        raise NotImplementedError

    def check(self, key: int, out: Any, objects: list[Any]) -> bool:
        raise NotImplementedError

    def extra(self, out: Any) -> dict[str, float]:
        """Per-operation figures beyond the runtime counters."""
        return {}

    def describe(self) -> str:
        """The generated inputs, echoed with the results."""
        return f"inputs={self.inputs}"

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class StreamH264(InProcessWorkload):
    """Repeated ``STREAM_MBS``-macroblock h264 SI streams through ``RisppRuntime``."""

    name = "stream_h264"

    def setup(self) -> None:
        from repro.apps.h264 import build_h264_library
        from repro.bench.suites import H264_MACROBLOCK_CALLS

        self.library = build_h264_library()
        self.blocks = H264_MACROBLOCK_CALLS
        # The macroblock mix is fixed: a seed-dependent mix would make
        # this a replan workload, which is chaos_h264's job.
        self.inputs = [STREAM_MBS]
        self._digest: str | None = None
        self._verified = False

    def execute(self, key: int) -> Any:
        from repro.runtime.manager import RisppRuntime

        rt = RisppRuntime(self.library, H264_CONTAINERS, core_mhz=100.0)
        forecast, execute_si = rt.forecast, rt.execute_si
        now = WARMUP_CYCLES
        for _ in range(self.inputs[key]):
            for si_name, expected in H264_FORECASTS:
                forecast(si_name, now, expected=expected)
            for si_name, calls in self.blocks:
                for _ in range(calls):
                    now += execute_si(si_name, now)
            now += INTER_MB_CYCLES
        return rt

    def check(self, key: int, out: Any, objects: list[Any]) -> bool:
        from repro.bench.harness import trace_signature

        digest = hashlib.sha256(
            repr(trace_signature(out.trace)).encode()
        ).hexdigest()
        if self._digest is None:
            self._digest = digest
        ok = digest == self._digest
        if not self._verified:
            # One sampled replay through the reference machine; the
            # digest check extends its verdict to every other repeat.
            from repro.analysis.verify import verify_runtime

            self._verified = True
            ok = verify_runtime(out, subject="bench:stream_h264").ok() and ok
        return ok


class ChaosH264(InProcessWorkload):
    """Full h264 chaos campaigns at fault rate 50, seeds from the workload seed."""

    name = "chaos_h264"
    PASS = 48

    def setup(self) -> None:
        from repro.faults import chaos_ok, run_chaos_suite

        self._run, self._ok = run_chaos_suite, chaos_ok
        rng = random.Random(f"{self.name}:{self.seed}")
        self.inputs = _draw_seeds(rng, self.PASS)

    def warm(self) -> None:
        self._run("h264", seed=WARM_SEED, fault_rate=FAULT_RATE, quick=True)

    def execute(self, key: int) -> Any:
        return self._run("h264", seed=self.inputs[key], fault_rate=FAULT_RATE)

    def check(self, key: int, out: Any, objects: list[Any]) -> bool:
        # chaos_ok covers the functional match against the fault-free
        # baseline, the clean trace verdict, MTTR within its bound and
        # no open fault episode.
        return self._ok(out)


@dataclass
class _Reference:
    text: str
    horizon: int


class RecoverH264(InProcessWorkload):
    """Journaled quick h264 chaos campaigns, crashed and resumed."""

    name = "recover_h264"
    PASS = 40

    def setup(self) -> None:
        from repro.faults import chaos_ok, run_chaos_suite
        from repro.recovery import RecoveryPlan, SimulatedCrash, list_snapshots

        self._run, self._ok = run_chaos_suite, chaos_ok
        self._plan, self._crash = RecoveryPlan, SimulatedCrash
        self._snapshots = list_snapshots
        rng = random.Random(f"{self.name}:{self.seed}")
        # (campaign seed, crash point as a share of the stream's span).
        self.inputs = [
            (seed, rng.random()) for seed in _draw_seeds(rng, self.PASS)
        ]
        self._reference: dict[int, _Reference] = {}

    def _store(self, key: int) -> Path:
        return self.workdir / f"store{key}"

    def _campaign(self, seed: int, recovery: Any = None) -> dict[str, Any]:
        return self._run(
            "h264", seed=seed, fault_rate=FAULT_RATE, quick=True,
            recovery=recovery,
        )

    def warm(self) -> None:
        # A journaled campaign on the small synthetic suite, then a resume
        # of its finished store: journal, snapshot, restore and replay
        # code all run once.
        store = self.workdir / "warm"
        for resume in (False, True):
            self._run(
                "synthetic", seed=WARM_SEED, fault_rate=FAULT_RATE, quick=True,
                recovery=self._plan(
                    store=store, checkpoint_every=CHECKPOINT_EVERY,
                    resume=resume,
                ),
            )
        shutil.rmtree(store, ignore_errors=True)

    def crash_cycle(self, key: int) -> int:
        """The command boundary this input crashes at: the first command
        issued at or after this cycle."""
        _seed, share = self.inputs[key]
        horizon = self._reference[key].horizon
        return WARMUP_CYCLES + int(share * (horizon - WARMUP_CYCLES))

    def prepare(self, key: int) -> None:
        if key not in self._reference:
            report = self._campaign(self.inputs[key][0])
            self._reference[key] = _Reference(
                render_report(report), report["horizon_cycles"]
            )
        shutil.rmtree(self._store(key), ignore_errors=True)

    def execute(self, key: int) -> Any:
        seed, _share = self.inputs[key]
        store = self._store(key)
        crashed = False
        try:
            self._campaign(seed, self._plan(
                store=store, checkpoint_every=CHECKPOINT_EVERY,
                crash_at=self.crash_cycle(key),
            ))
        except self._crash:
            crashed = True
        resume_began = perf_counter()
        report = self._campaign(seed, self._plan(
            store=store, checkpoint_every=CHECKPOINT_EVERY, resume=True,
        ))
        return {
            "crashed": crashed,
            "report": report,
            "resume_s": perf_counter() - resume_began,
            "store": store,
        }

    def check(self, key: int, out: Any, objects: list[Any]) -> bool:
        return (
            out["crashed"]
            and render_report(out["report"]) == self._reference[key].text
            and self._ok(out["report"])
        )

    def describe(self) -> str:
        crashes = " ".join(
            f"{seed}@{self.crash_cycle(key)}"
            for key, (seed, _share) in enumerate(self.inputs)
            if key in self._reference
        )
        return f"campaign@crash_cycle=[{crashes}]"

    def extra(self, out: Any) -> dict[str, float]:
        if out is None:
            return {}
        sizes = [path.stat().st_size for _, path in self._snapshots(out["store"])]
        return {
            "resume_s": out["resume_s"],
            "snapshot_bytes": sum(sizes) / len(sizes) if sizes else 0.0,
        }


@dataclass
class Request:
    key: int
    latency_s: float
    status: int | None
    digest: str


class ServeMixed(InProcessWorkload):
    """Quick synthetic and aes chaos scenarios served over HTTP.

    The daemon runs out of process; the in-process interface
    (``execute``) replays the same payloads through ``render_scenario``
    for the reference bodies and the traced run.
    """

    name = "serve_mixed"
    PASS = 16
    WORKERS = 2
    CONNECTIONS = 2

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.daemon: subprocess.Popen[str] | None = None
        self.port = 0

    def setup(self) -> None:
        from repro.serve.facade import ScenarioRequest, render_scenario

        self._request, self._render = ScenarioRequest, render_scenario
        rng = random.Random(f"{self.name}:{self.seed}")
        seeds = _draw_seeds(rng, self.PASS)
        # Alternating suites; the seeds (and with them the request
        # order) come from the workload seed.
        self.inputs = [
            {
                "suite": ("synthetic", "aes")[i % 2],
                "seed": seed,
                "fault_rate": FAULT_RATE,
                "quick": True,
            }
            for i, seed in enumerate(seeds)
        ]
        self._bodies = [json.dumps(p).encode() for p in self.inputs]
        self.reference: dict[int, str] = {}

    # -- in-process replay -------------------------------------------------

    def warm(self) -> None:
        for key in range(2):  # one render per suite
            self.execute(key)

    def execute(self, key: int) -> Any:
        return self._render(self._request.from_payload(self.inputs[key]))

    def check(self, key: int, out: Any, objects: list[Any]) -> bool:
        digest = hashlib.sha256(out.encode()).hexdigest()
        return self.reference.setdefault(key, digest) == digest

    def describe(self) -> str:
        order = " ".join(f"{p['suite']}:{p['seed']}" for p in self.inputs)
        return f"requests=[{order}]"

    # -- the daemon --------------------------------------------------------

    def start(self) -> float:
        """Start the daemon and warm its pool; returns the seconds taken."""
        began = perf_counter()
        self.port = 0
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(self.WORKERS)],
            cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        assert self.daemon.stdout is not None
        announce = self.daemon.stdout.readline()
        if not announce.startswith("serving on http://"):
            self.stop()
            raise RuntimeError(f"daemon did not start: {announce!r}")
        self.port = int(announce.strip().rsplit(":", 1)[1])
        # Two rounds of one request per worker and suite: the pool forks
        # its workers on demand and each imports a suite on first use.
        for _ in range(2):
            self.run_http(0.0, min_requests=2)
        return perf_counter() - began

    def stop(self) -> None:
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return
        try:
            if daemon.poll() is None and self.port:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
                try:
                    conn.request("POST", "/shutdown", body=b"{}")
                    conn.getresponse().read()
                finally:
                    conn.close()
            daemon.wait(timeout=60)
        except (OSError, http.client.HTTPException, subprocess.TimeoutExpired):
            for pid in self._descendants(daemon.pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            daemon.kill()
            daemon.wait()
        finally:
            if daemon.stdout is not None:
                daemon.stdout.close()

    @staticmethod
    def _descendants(pid: int) -> list[int]:
        """Every process below ``pid``: the daemon's pool workers."""
        found: list[int] = []
        todo = [pid]
        while todo:
            parent = todo.pop()
            try:
                tasks = os.listdir(f"/proc/{parent}/task")
            except OSError:
                continue
            for tid in tasks:
                try:
                    with open(f"/proc/{parent}/task/{tid}/children") as fh:
                        children = [int(c) for c in fh.read().split()]
                except OSError:
                    continue
                found.extend(children)
                todo.extend(children)
        return found

    def peak_rss_mb(self) -> float:
        """VmHWM of the daemon and its workers, summed."""
        assert self.daemon is not None
        total_kb = 0
        for pid in [self.daemon.pid, *self._descendants(self.daemon.pid)]:
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def _post(self, conn: http.client.HTTPConnection, body: bytes) -> tuple[int, bytes]:
        conn.request(
            "POST", "/scenario", body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.read()

    def run_http(
        self, seconds: float, *, min_requests: int, facade: Any = None
    ) -> tuple[list[Request], float]:
        """Closed loop over ``CONNECTIONS`` keep-alive connections.

        Runs until ``seconds`` have passed and ``min_requests`` were sent;
        returns the requests and the wall time.  With a ``facade`` (a
        :class:`repro.serve.RuntimeFacade`) the clients call it in process
        instead of the daemon.
        """
        counter = itertools.count()
        lock = threading.Lock()
        requests: list[Request] = []
        began = perf_counter()
        deadline = began + seconds

        def client() -> None:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
            try:
                while True:
                    with lock:
                        index = next(counter)
                    if index >= min_requests and perf_counter() >= deadline:
                        return
                    key = index % len(self.inputs)
                    sent = perf_counter()
                    try:
                        if facade is None:
                            status, data = self._post(conn, self._bodies[key])
                        else:
                            status = 200
                            data = facade.run(self.inputs[key]).encode()
                    except (OSError, http.client.HTTPException):
                        status, data = None, b""
                        conn.close()
                        conn = http.client.HTTPConnection(
                            "127.0.0.1", self.port, timeout=120
                        )
                    requests.append(Request(
                        key, perf_counter() - sent, status,
                        hashlib.sha256(data).hexdigest(),
                    ))
            finally:
                conn.close()

        threads = [
            threading.Thread(target=client, name=f"bench-client-{i}")
            for i in range(self.CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return requests, perf_counter() - began

    def request_ok(self, request: Request) -> bool:
        """HTTP 200 and a body byte-identical to the in-process render."""
        return (
            request.status == 200
            and request.digest == self.reference.get(request.key)
        )

    def close(self) -> None:
        self.stop()
        super().close()


WORKLOADS: dict[str, type[InProcessWorkload]] = {
    cls.name: cls for cls in (StreamH264, ChaosH264, RecoverH264, ServeMixed)
}
