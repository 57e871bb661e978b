"""The O(1) dispatch path: generation counter, dispatch cache, port horizon.

Three properties keep the hot-path bookkeeping observably invisible:

* the fabric's bumped generation counter always equals the sum of the
  per-container counters, across every kind of container mutation and
  across snapshot restore;
* a structural clone (rispp-explore's ``_copy_world``) or a restored
  runtime shares no mutable cache with its source;
* the ``last_used`` vector the cached container ids produce equals the
  one the original full-scan ``touch_atoms`` produced.  That scan lives
  here, as the oracle.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.explore import _copy_world, _World
from repro.core import MoleculeImpl, SILibrary, SpecialInstruction
from repro.hardware import ContainerState, Fabric
from repro.recovery.snapshot import restore_runtime, snapshot_runtime
from repro.runtime import RisppRuntime
from tests.conftest import build_mini_library



def _library() -> SILibrary:
    """The mini library plus ``PK``, which can load a second Pack atom.

    With two Packs resident, HT's molecule uses one of them, so *which*
    holder an execution touches is observable in ``last_used``.
    """
    mini = build_mini_library()
    space = mini.catalogue.space
    pk = SpecialInstruction("PK", space, 40, [
        MoleculeImpl(space.molecule({"Pack": 1}), 5),
        MoleculeImpl(space.molecule({"Pack": 2}), 3),
    ])
    return SILibrary(mini.catalogue, [*mini, pk])


LIBRARY = _library()
CONTAINERS = 5
#: Fast port: rotations land within a few dozen cycles, so streams mix
#: software and hardware executions.
BYTES_PER_US = 200_000.0
SIS = ("HT", "SATD", "PK")


def fresh_runtime() -> RisppRuntime:
    return RisppRuntime(
        LIBRARY, CONTAINERS, core_mhz=100.0, bytes_per_us=BYTES_PER_US
    )


def restored_copy(rt: RisppRuntime, now: int) -> RisppRuntime:
    """A fresh runtime restored from a JSON round trip of ``rt``'s snapshot."""
    snap = snapshot_runtime(rt, seq=0, cycle=now, results=[])
    twin = fresh_runtime()
    restore_runtime(twin, json.loads(json.dumps(snap)))
    return twin


def assert_counter_consistent(fabric: Fabric) -> None:
    assert fabric.generation == sum(c.generation for c in fabric.containers)
    assert all(c.fabric is fabric for c in fabric.containers)


STREAM_ACTIONS = st.one_of(
    st.tuples(st.just("forecast"), st.sampled_from(SIS),
              st.sampled_from((2.0, 10.0, 40.0))),
    st.tuples(st.just("exec"), st.sampled_from(SIS)),
    st.tuples(st.just("advance")),
    st.tuples(st.just("fail"), st.integers(0, CONTAINERS - 1)),
)
MUTATIONS = st.one_of(
    STREAM_ACTIONS,
    st.tuples(
        st.sampled_from(("evict", "corrupt", "quarantine", "release")),
        st.integers(0, CONTAINERS - 1),
    ),
    st.tuples(st.just("restore")),
)
GAPS = st.integers(0, 60)


def apply(rt: RisppRuntime, action: tuple, now: int) -> RisppRuntime:
    """Apply one action at cycle ``now``; returns the runtime to continue."""
    kind = action[0]
    if kind == "forecast":
        rt.forecast(action[1], now, expected=action[2])
    elif kind == "exec":
        rt.execute_si(action[1], now)
    elif kind == "advance":
        rt.advance(now)
    elif kind == "fail":
        rt.fail_container(action[1], now)
    elif kind == "restore":
        return restored_copy(rt, now)
    else:
        rt.advance(now)
        c = rt.fabric.container(action[1])
        reserved = rt.port.is_reserved(c.container_id)
        if kind == "evict" and not c.is_busy() and not reserved:
            c.evict()
        elif kind == "corrupt" and c.is_available():
            c.mark_corrupted()
        elif (
            kind == "quarantine"
            and not c.failed
            and not c.is_busy()
            and not reserved
        ):
            c.quarantine()
        elif kind == "release" and c.quarantined:
            c.release_quarantine()
    return rt


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(MUTATIONS, GAPS), max_size=25))
def test_generation_counter_equals_container_sum(steps):
    rt = fresh_runtime()
    now = 0
    assert_counter_consistent(rt.fabric)
    for action, gap in steps:
        now += gap
        rt = apply(rt, action, now)
        assert_counter_consistent(rt.fabric)
        # Dispatch through the cache matches a from-scratch lattice scan.
        rt.advance(now)
        available = rt.fabric.available_atoms()
        for si in LIBRARY:
            assert rt.si_cycles(si.name, now) == si.cycles_with(available)


def _drive(rt: RisppRuntime, steps, now: int = 0) -> int:
    for action, gap in steps:
        now += gap
        apply(rt, action, now)
    return now


def _observable(rt: RisppRuntime) -> tuple:
    """Everything a clone or a restored twin must never disturb."""
    return (
        rt.fabric.generation,
        [(c.container_id, c.generation, c.state, c.atom, c.last_used)
         for c in rt.fabric.containers],
        dict(rt._dispatch),
        (rt.port.horizon, rt.port.horizon_generation),
        [(j.container_id, j.started_at, j.finish_at, j.started)
         for j in rt.port.pending_jobs()],
        len(rt.trace),
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(STREAM_ACTIONS, GAPS), max_size=15),
    st.lists(st.tuples(STREAM_ACTIONS, GAPS), min_size=1, max_size=15),
)
def test_clones_and_restored_twins_are_isolated(prefix, suffix):
    rt = fresh_runtime()
    now = _drive(rt, prefix)
    rt.advance(now)  # prime the port horizon
    before = _observable(rt)

    clone = _copy_world(_World(runtime=rt, now=now)).runtime
    for name, value in vars(clone).items():
        if isinstance(value, (dict, list, set)):
            assert value is not vars(rt)[name], name
    for name, value in vars(clone.port).items():
        if isinstance(value, (dict, list, set)):
            assert value is not vars(rt.port)[name], name
    assert clone.fabric is not rt.fabric
    assert_counter_consistent(clone.fabric)
    _drive(clone, suffix, now)
    assert _observable(rt) == before

    twin = restored_copy(rt, now)
    assert_counter_consistent(twin.fabric)
    _drive(twin, suffix, now)
    assert _observable(rt) == before


def _old_touch_atoms(fabric: Fabric, molecule, now: int) -> None:
    """The original per-execution full scan, kept as the oracle."""
    needed: dict[str, int] = {}
    for kind in molecule.kinds_used():
        if not fabric.catalogue.get(kind).reconfigurable:
            continue
        needed[kind] = molecule.count(kind)
    if not needed:
        return
    for c in fabric.containers:
        if not c.is_available():
            continue
        remaining = needed.get(c.atom or "", 0)
        if remaining > 0:
            c.last_used = now
            needed[c.atom or ""] = remaining - 1


def _full_scan_runtime() -> RisppRuntime:
    """A runtime whose executions touch containers through the oracle."""
    rt = fresh_runtime()
    rt.fabric.backing = lambda molecule: ()
    execute_si = rt.execute_si

    def scanned(si_name, now, *, task="main"):
        cycles = execute_si(si_name, now, task=task)
        impl = LIBRARY.get(si_name).best_available(rt.fabric.available_atoms())
        if impl is not None:
            rc = LIBRARY.restricted_to_reconfigurable(impl.molecule)
            _old_touch_atoms(rt.fabric, rc, now)
        return cycles

    rt.execute_si = scanned
    return rt


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(STREAM_ACTIONS, GAPS), max_size=40))
def test_last_used_matches_the_full_scan_oracle(steps):
    shipped, oracle = fresh_runtime(), _full_scan_runtime()
    now = 0
    for action, gap in steps:
        now += gap
        apply(shipped, action, now)
        apply(oracle, action, now)
        assert [c.last_used for c in shipped.fabric.containers] == [
            c.last_used for c in oracle.fabric.containers
        ]
    assert shipped.fabric.containers == oracle.fabric.containers


def test_streams_reach_hardware_and_touch_containers():
    """The properties above are not vacuous: a stream loads atoms and
    hardware executions move ``last_used`` beyond the rotation cycle."""
    rt = fresh_runtime()
    rt.forecast("HT", 0, expected=40.0)
    rt.advance(10_000)
    assert any(c.state is ContainerState.LOADED for c in rt.fabric.containers)
    rt.execute_si("HT", 10_000)
    assert rt.stats.hw_executions == 1
    assert any(c.last_used == 10_000 for c in rt.fabric.containers)


def test_advance_skips_until_the_port_horizon():
    rt = fresh_runtime()
    rt.forecast("HT", 0, expected=40.0)
    job = rt.port.pending_jobs()[0]
    rt.advance(0)  # starts the first write; the port mutated
    assert rt.port.horizon_generation == -1
    rt.advance(1)  # refreshes the horizon, then returns at once
    assert rt.port.horizon_generation == rt.fabric.generation
    assert rt.port.horizon == job.finish_at
    rt.advance(job.finish_at - 1)
    assert rt.port.horizon_generation == rt.fabric.generation
    assert job.started and not job.completed
    # Failing a container moves the generation: the cached horizon is
    # stale and the next advance drops the dead container's job.
    rt.fabric.fail_container(job.container_id)
    assert rt.port.horizon_generation != rt.fabric.generation
    rt.advance(job.finish_at - 1)
    assert job not in rt.port.pending_jobs()
