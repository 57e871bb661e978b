"""The reconfigurable fabric: a bank of Atom Containers plus static atoms.

:class:`Fabric` aggregates the Atom Containers and answers the question
the run-time system asks constantly: *which Atoms are usable right now?*
(as a :class:`~repro.core.molecule.Molecule`, so SI implementations can
be matched with a single lattice comparison).  Static atoms — helpers
hard-wired next to the core data path (``Load``/``Add``/``Store`` in the
case study) — are always available in effectively unlimited multiplicity,
which we model with a configurable count.

The derived molecule views (:meth:`available_atoms`,
:meth:`loaded_reconfigurable`, :meth:`in_flight`) are memoized against a
**state generation** — the sum of the per-container mutation counters.
Between rotations the fabric is immutable, yet the run-time manager asks
"what is loaded?" on *every* SI execution; the generation check turns
those queries into a dict lookup instead of a molecule construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.atom import AtomCatalogue
from ..core.molecule import Molecule
from .container import AtomContainer, ContainerState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs import MetricRegistry


class Fabric:
    """Atom Containers + static atoms of one RISPP platform instance."""

    def __init__(
        self,
        catalogue: AtomCatalogue,
        num_containers: int,
        *,
        static_multiplicity: int = 16,
        metrics: "MetricRegistry | None" = None,
    ):
        if num_containers < 0:
            raise ValueError("container count cannot be negative")
        if static_multiplicity < 1:
            raise ValueError("static atoms need multiplicity of at least 1")
        self.catalogue = catalogue
        self.space = catalogue.space
        self.static_multiplicity = static_multiplicity
        self.containers = [AtomContainer(i) for i in range(num_containers)]
        # The static fabric offers its helper atoms at full multiplicity
        # and a baseline of some reconfigurable kinds (e.g. one built-in
        # Load lane); containers add instances on top.
        self._static = {
            kind.name: static_multiplicity for kind in catalogue.static_kinds()
        }
        for name, baseline in catalogue.baseline_counts().items():
            if baseline:
                self._static[name] = baseline
        self._reconfigurable = set(catalogue.reconfigurable_names())
        #: generation -> memoized view; one entry each, replaced on miss.
        self._available_cache: tuple[int, Molecule] | None = None
        self._loaded_cache: tuple[int, Molecule] | None = None
        self._bind_metrics(metrics)

    def _bind_metrics(self, metrics: "MetricRegistry | None") -> None:
        """Register the fabric's telemetry (callback gauges + counters).

        Occupancy and churn are *sampled* at collection time instead of
        updated per mutation — the state already lives in the container
        fields, so the fabric's hot paths carry zero telemetry cost.
        """
        from ..obs import DISABLED

        obs = metrics if metrics is not None else DISABLED
        self._m_failures = obs.counter("container_failures_total")
        if not obs.enabled:
            return
        states = obs.gauge("containers_state")
        for state in ("loaded", "loading", "empty", "failed", "quarantined"):
            states.labels(state=state).set_callback(
                lambda s=state: self._count_state(s)
            )
        obs.gauge("fabric_utilisation_ratio").set_callback(self.utilisation)
        obs.counter("container_churn_total").set_callback(
            lambda: float(sum(c.rotations + c.evictions for c in self.containers))
        )

    def _count_state(self, state: str) -> float:
        """Container census for the ``containers_state`` gauge."""
        if state == "failed":
            return float(sum(1 for c in self.containers if c.failed))
        if state == "quarantined":
            return float(sum(1 for c in self.containers if c.quarantined))
        in_service = [
            c for c in self.containers if not c.failed and not c.quarantined
        ]
        wanted = ContainerState(state)
        return float(sum(1 for c in in_service if c.state is wanted))

    # -- capacity ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.containers)

    def container(self, container_id: int) -> AtomContainer:
        return self.containers[container_id]

    # -- atom visibility ------------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotone counter of availability-changing mutations."""
        return sum(c.generation for c in self.containers)

    def available_atoms(self) -> Molecule:
        """Usable Atoms right now: loaded containers + static atoms."""
        gen = self.generation
        cached = self._available_cache
        if cached is not None and cached[0] == gen:
            return cached[1]
        counts = dict(self._static)
        for c in self.containers:
            if c.is_available() and c.atom is not None:
                counts[c.atom] = counts.get(c.atom, 0) + 1
        molecule = self.space.molecule(counts)
        self._available_cache = (gen, molecule)
        return molecule

    def loaded_reconfigurable(self) -> Molecule:
        """Only the Atoms sitting in (loaded) containers."""
        gen = self.generation
        cached = self._loaded_cache
        if cached is not None and cached[0] == gen:
            return cached[1]
        counts: dict[str, int] = {}
        for c in self.containers:
            if c.is_available() and c.atom is not None:
                counts[c.atom] = counts.get(c.atom, 0) + 1
        molecule = self.space.molecule(counts)
        self._loaded_cache = (gen, molecule)
        return molecule

    def in_flight(self) -> Molecule:
        """Atoms currently being rotated in (not yet usable)."""
        counts: dict[str, int] = {}
        for c in self.containers:
            if c.is_busy() and c.atom is not None:
                counts[c.atom] = counts.get(c.atom, 0) + 1
        return self.space.molecule(counts)

    def eventual_atoms(self) -> Molecule:
        """Atoms available once all in-flight rotations finish."""
        return self.available_atoms() + self.in_flight()

    # -- container queries ------------------------------------------------------

    def empty_containers(self) -> list[AtomContainer]:
        return [
            c
            for c in self.containers
            if c.state is ContainerState.EMPTY
            and not c.failed
            and not c.quarantined
        ]

    def healthy_containers(self) -> list[AtomContainer]:
        """Containers still in service."""
        return [c for c in self.containers if not c.failed]

    def fail_container(self, container_id: int) -> str | None:
        """Take a container out of service (fabric defect injection).

        Returns the Atom that was lost, if any.  Out-of-range ids raise
        ``ValueError`` (negative indices would silently wrap around);
        failing an already-failed container is an idempotent no-op.
        """
        if not 0 <= container_id < len(self.containers):
            raise ValueError(
                f"container id {container_id} out of range "
                f"(fabric has {len(self.containers)} containers)"
            )
        container = self.containers[container_id]
        if not container.failed:
            self._m_failures.inc()
        return container.mark_failed()

    def loaded_containers(self) -> list[AtomContainer]:
        return [c for c in self.containers if c.is_available()]

    def busy_containers(self) -> list[AtomContainer]:
        return [c for c in self.containers if c.is_busy()]

    def containers_holding(self, atom: str) -> list[AtomContainer]:
        return [
            c for c in self.containers if c.is_available() and c.atom == atom
        ]

    def containers_owned_by(self, owner: str) -> list[AtomContainer]:
        return [c for c in self.containers if c.owner == owner]

    # -- validation ----------------------------------------------------------------

    def check_rotatable(self, atom: str) -> None:
        """Reject rotations of unknown or static atom kinds."""
        if atom not in self.space:
            raise ValueError(f"unknown atom kind {atom!r}")
        if atom not in self._reconfigurable:
            raise ValueError(f"atom kind {atom!r} is static and never rotates")

    def touch_atoms(self, molecule: Molecule, now: int) -> None:
        """Mark containers backing ``molecule``'s reconfigurable atoms as used.

        One pass over the containers (id order, matching the original
        per-kind ``containers_holding`` walk) instead of one scan per
        atom kind — this sits on the SI-execution hot path.
        """
        needed: dict[str, int] = {}
        for kind in molecule.kinds_used():
            if kind in self._reconfigurable:
                needed[kind] = molecule.count(kind)
        if not needed:
            return
        for c in self.containers:
            if not c.is_available():
                continue
            remaining = needed.get(c.atom or "", 0)
            if remaining > 0:
                c.last_used = now
                needed[c.atom or ""] = remaining - 1

    def utilisation(self) -> float:
        """Fraction of containers holding or loading an Atom."""
        if not self.containers:
            return 0.0
        active = sum(
            1 for c in self.containers if c.state is not ContainerState.EMPTY
        )
        return active / len(self.containers)

    def describe(self) -> list[str]:
        """One human-readable line per container (Fig. 6-style timeline rows)."""
        lines = []
        for c in self.containers:
            state = c.state.value
            atom = c.atom or "-"
            owner = c.owner or "-"
            lines.append(
                f"AC{c.container_id}: {atom:<12} [{state:<7}] owner={owner}"
            )
        return lines
