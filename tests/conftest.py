"""Shared fixtures: a small SI library and profiled CFGs used across tests."""

import pytest

from repro.cfg import ControlFlowGraph
from repro.core import (
    AtomCatalogue,
    AtomKind,
    MoleculeImpl,
    ReferenceBackend,
    SILibrary,
    SpecialInstruction,
)
from repro.core import backend as backend_mod


def build_mini_catalogue() -> AtomCatalogue:
    """Load is static; Pack/Transform/SATD rotate through containers."""
    return AtomCatalogue.of(
        [
            AtomKind("Load", reconfigurable=False),
            AtomKind("Pack", bitstream_bytes=65_713),
            AtomKind("Transform", bitstream_bytes=59_353),
            AtomKind("SATD", bitstream_bytes=58_141),
        ]
    )


def build_mini_library(mini_catalogue: AtomCatalogue | None = None) -> SILibrary:
    """HT and SATD, three molecules each; a fresh catalogue by default."""
    if mini_catalogue is None:
        mini_catalogue = build_mini_catalogue()
    space = mini_catalogue.space
    ht = SpecialInstruction(
        "HT",
        space,
        298,
        [
            MoleculeImpl(space.molecule({"Load": 1, "Pack": 1, "Transform": 1}), 22),
            MoleculeImpl(space.molecule({"Load": 1, "Pack": 1, "Transform": 2}), 17),
            MoleculeImpl(space.molecule({"Load": 4, "Pack": 4, "Transform": 4}), 8),
        ],
    )
    satd = SpecialInstruction(
        "SATD",
        space,
        544,
        [
            MoleculeImpl(
                space.molecule({"Load": 1, "Pack": 1, "Transform": 1, "SATD": 1}), 24
            ),
            MoleculeImpl(
                space.molecule({"Load": 2, "Pack": 1, "Transform": 2, "SATD": 1}), 18
            ),
            MoleculeImpl(
                space.molecule({"Load": 4, "Pack": 4, "Transform": 4, "SATD": 2}), 12
            ),
        ],
    )
    return SILibrary(mini_catalogue, [ht, satd])


@pytest.fixture(params=["numpy", "reference"])
def kernels(request, monkeypatch):
    """Run the test on the shipped numpy kernels, then on the reference.

    The reference case swaps :data:`repro.core.backend.SHIPPED` for a
    :class:`ReferenceBackend`, so everything that selects without an
    explicit ``backend=`` runs on the executable specification.
    """
    if request.param == "reference":
        monkeypatch.setattr(backend_mod, "SHIPPED", ReferenceBackend())
    return backend_mod.SHIPPED


@pytest.fixture()
def mini_catalogue() -> AtomCatalogue:
    return build_mini_catalogue()


@pytest.fixture()
def mini_library(mini_catalogue) -> SILibrary:
    return build_mini_library(mini_catalogue)


@pytest.fixture()
def hotspot_cfg() -> ControlFlowGraph:
    """A two-hot-spot program with warm-up blocks providing rotation lead time.

    ``init -> warmA -> loopA(SATD x100) -> mid -> warmB -> loopB(HT x50) -> end``

    With a rotation time of ~50 cycles the natural FC candidates are
    ``init`` for SATD (120 cycles of warmA ahead of the hot loop) and
    ``mid`` for HT (90 cycles of warmB ahead); blocks directly preceding a
    hot loop are too close (distance 0), blocks before the *other* loop
    are too far (thousands of cycles).
    """
    cfg = ControlFlowGraph()
    cfg.block("init", cycles=50)
    cfg.block("warmA", cycles=120)
    cfg.block("loopA", cycles=100, si_usages={"SATD": 1})
    cfg.block("mid", cycles=30)
    cfg.block("warmB", cycles=90)
    cfg.block("loopB", cycles=80, si_usages={"HT": 1})
    cfg.block("end", cycles=10)
    cfg.add_edge("init", "warmA", count=1)
    cfg.add_edge("warmA", "loopA", count=1)
    cfg.add_edge("loopA", "loopA", count=99)
    cfg.add_edge("loopA", "mid", count=1)
    cfg.add_edge("mid", "warmB", count=1)
    cfg.add_edge("warmB", "loopB", count=1)
    cfg.add_edge("loopB", "loopB", count=49)
    cfg.add_edge("loopB", "end", count=1)
    cfg.set_profile(
        {
            "init": 1,
            "warmA": 1,
            "loopA": 100,
            "mid": 1,
            "warmB": 1,
            "loopB": 50,
            "end": 1,
        }
    )
    return cfg
