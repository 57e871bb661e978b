"""The runtime facade: deterministic scenarios over a process pool.

:class:`RuntimeFacade` is the programmatic service surface the HTTP
daemon sits on: it validates scenario payloads
into :class:`ScenarioRequest` objects, runs each one through
:func:`repro.faults.run_chaos_suite` in a worker process, and returns
the rendered report — the exact bytes ``repro chaos --format json``
prints for the same flags (``json.dumps(report, indent=2,
sort_keys=True)`` plus a trailing newline).

Determinism contract: a scenario's output is a pure function of its
request fields.  Workers hold no per-request state (every run uses the
one shipped compute backend), so pool reuse cannot leak one request
into the next, and two facades with different worker counts produce
byte-identical responses for the same request.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Mapping

from ..faults.chaos import CHAOS_DEFAULTS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import MetricRegistry


class ScenarioError(ValueError):
    """A scenario payload failed validation (HTTP 400 at the daemon)."""


#: Scenario field defaults — shared by the request validator,
#: ``docs/serving.md`` and the serve integration tests.  They are the
#: ``repro chaos`` defaults except ``quick``: a *service* answers
#: interactively, so reduced scenario sizes are the default and
#: full-size runs are opt-in (``"quick": false``).
SCENARIO_DEFAULTS: dict[str, Any] = {**CHAOS_DEFAULTS, "quick": True}


def decode_payload(raw: bytes) -> Any:
    """Parse a request body as JSON; raise :class:`ScenarioError` if not."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, malformed JSON and integer
        # literals past the interpreter's digit limit.
        raise ScenarioError(f"request body is not JSON: {exc}") from None


@dataclass(frozen=True, slots=True)
class ScenarioRequest:
    """One validated scenario: the chaos campaign a worker will run."""

    suite: str
    seed: int
    fault_rate: float
    scrub_period: int
    max_retries: int
    backoff_cycles: int
    quick: bool

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ScenarioRequest":
        """Validate a JSON payload; raise :class:`ScenarioError` on junk."""
        import math

        from ..bench.suites import check_suite

        if not isinstance(payload, Mapping):
            raise ScenarioError("scenario request must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ScenarioError(
                f"unknown scenario field(s): {', '.join(unknown)}; "
                f"accepted: {', '.join(sorted(known))}"
            )
        merged = {**SCENARIO_DEFAULTS, **dict(payload)}
        suite = merged["suite"]
        try:
            check_suite(suite)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        # JSON integers only: an integral float or a bool (an int
        # subclass) is junk, as it is to the CLI's ``type=int`` flags.
        for name in ("seed", "scrub_period", "max_retries", "backoff_cycles"):
            value = merged[name]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ScenarioError(
                    f"malformed scenario field: {name} must be an integer, "
                    f"got {value!r}"
                )
        fault_rate = merged["fault_rate"]
        if isinstance(fault_rate, bool) or not isinstance(
            fault_rate, (int, float)
        ):
            raise ScenarioError(
                f"malformed scenario field: fault_rate must be a number, "
                f"got {fault_rate!r}"
            )
        try:
            fault_rate = float(fault_rate)
        except OverflowError:
            raise ScenarioError(
                "fault_rate must be finite and non-negative, got an "
                "integer too large for a float"
            ) from None
        seed = merged["seed"]
        scrub_period = merged["scrub_period"]
        max_retries = merged["max_retries"]
        backoff_cycles = merged["backoff_cycles"]
        if seed < 1:
            raise ScenarioError(f"seed must be positive, got {seed}")
        if not math.isfinite(fault_rate) or fault_rate < 0:
            raise ScenarioError(
                f"fault_rate must be finite and non-negative, got {fault_rate}"
            )
        if scrub_period < 1:
            raise ScenarioError(
                f"scrub_period must be positive, got {scrub_period}"
            )
        if max_retries < 0:
            raise ScenarioError(
                f"max_retries cannot be negative, got {max_retries}"
            )
        if backoff_cycles < 1:
            raise ScenarioError(
                f"backoff_cycles must be positive, got {backoff_cycles}"
            )
        quick = merged["quick"]
        if not isinstance(quick, bool):
            raise ScenarioError("quick must be a boolean")
        return cls(
            suite=suite,
            seed=seed,
            fault_rate=fault_rate,
            scrub_period=scrub_period,
            max_retries=max_retries,
            backoff_cycles=backoff_cycles,
            quick=quick,
        )

    def to_payload(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def render_scenario(request: ScenarioRequest) -> str:
    """Run one scenario and render the report — the service's unit of work.

    Byte-identical to ``repro chaos --format json`` with the same flags.
    """
    from ..faults import run_chaos_suite

    report = run_chaos_suite(
        request.suite,
        seed=request.seed,
        fault_rate=request.fault_rate,
        quick=request.quick,
        scrub_period=request.scrub_period,
        max_retries=request.max_retries,
        backoff_cycles=request.backoff_cycles,
    )
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _pool_run(payload: dict[str, Any]) -> str:
    """Worker entry point (module-level so the pool can pickle it)."""
    return render_scenario(ScenarioRequest.from_payload(payload))


class RuntimeFacade:
    """Scenario execution sharded across a worker process pool."""

    def __init__(
        self,
        *,
        workers: int = 1,
        metrics: "MetricRegistry | None" = None,
    ):
        from ..obs import DISABLED

        if workers < 1:
            raise ValueError(f"worker count must be positive, got {workers}")
        self.workers = workers
        obs = metrics if metrics is not None else DISABLED
        self._obs_on = obs.enabled
        scenarios = obs.counter("serve_scenarios_total")
        self._m_ok = scenarios.labels(outcome="ok")
        self._m_degraded = scenarios.labels(outcome="degraded")
        self._m_error = scenarios.labels(outcome="error")
        self._m_duration = obs.histogram("serve_scenario_duration_seconds")
        if self._obs_on:
            obs.gauge("serve_workers").set(workers)
        self._pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=workers
        )
        self._pool_lock = threading.Lock()

    # -- lifecycle --------------------------------------------------------

    def ready(self) -> bool:
        """True while the pool accepts work (the ``/readyz`` answer)."""
        return self._pool is not None

    def shutdown(self) -> None:
        """Drain and release the pool; idempotent."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _replace_pool(self, broken: ProcessPoolExecutor) -> None:
        """Swap a pool whose worker died for a fresh one.

        Only the first request thread to see ``broken`` replaces it, and
        a facade that is shutting down stays shut down.
        """
        with self._pool_lock:
            if self._pool is not broken:
                return
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        broken.shutdown(wait=False)

    def __enter__(self) -> "RuntimeFacade":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- execution --------------------------------------------------------

    def submit(self, payload: Mapping[str, Any]) -> "Future[str]":
        """Validate ``payload`` and queue it on the pool.

        Validation runs in the caller (a :class:`ScenarioError` raises
        here, not inside the future), so the daemon can answer 400
        without burning a worker.
        """
        request = ScenarioRequest.from_payload(payload)
        return self._live_pool().submit(_pool_run, request.to_payload())

    def _live_pool(self) -> ProcessPoolExecutor:
        pool = self._pool
        if pool is None:
            raise RuntimeError("facade is shut down")
        return pool

    def _run_with_retry(self, payload: Mapping[str, Any]) -> str:
        request = ScenarioRequest.from_payload(payload).to_payload()
        pool = self._live_pool()
        try:
            return pool.submit(_pool_run, request).result()
        except BrokenProcessPool:
            # A worker died (OOM kill, SIGKILL) and took the pool with
            # it.  Scenarios are deterministic, so one retry on a fresh
            # pool yields the bytes the first try would have; a second
            # crash propagates.
            self._replace_pool(pool)
            return self._live_pool().submit(_pool_run, request).result()

    def run(self, payload: Mapping[str, Any]) -> str:
        """Run one scenario to completion; returns the rendered report.

        A pool broken by a dead worker is replaced and the scenario
        retried once; if that run breaks the pool again,
        :class:`~concurrent.futures.process.BrokenProcessPool` raises.
        """
        from ..obs import clock

        started = clock.perf_counter()
        try:
            result = self._run_with_retry(payload)
        except ScenarioError:
            raise
        except Exception:
            if self._obs_on:
                self._m_error.inc()
            raise
        if self._obs_on:
            from ..faults import chaos_ok

            self._m_duration.observe(clock.perf_counter() - started)
            verdict = chaos_ok(json.loads(result))
            (self._m_ok if verdict else self._m_degraded).inc()
        return result
