"""The ComputeBackend facade: the shipped instance and the kernels."""

import pytest

from repro.core import (
    AtomSpace,
    ComputeBackend,
    ForecastedSI,
    NumpyBackend,
    ReferenceBackend,
    infimum,
    resolve_backend,
    select_exhaustive,
    select_greedy,
    supremum,
)
from repro.core import backend as backend_mod
from repro.runtime import RisppRuntime


class TestShippedInstance:
    def test_default_is_the_shipped_numpy_instance(self):
        assert resolve_backend() is backend_mod.SHIPPED
        assert type(backend_mod.SHIPPED) is NumpyBackend

    def test_instance_specs_pass_through(self):
        mine = ReferenceBackend()
        assert resolve_backend(mine) is mine

    def test_unpinned_selection_runs_numpy_kernels(
        self, mini_library, monkeypatch
    ):
        calls = []
        numpy_greedy = NumpyBackend.greedy_choose

        def probe(self, *args):
            calls.append("greedy")
            return numpy_greedy(self, *args)

        # Only a NumpyBackend reaches the probe: with no ``backend=``,
        # both selection and a runtime replan must run the numpy kernels.
        monkeypatch.setattr(NumpyBackend, "greedy_choose", probe)
        select_greedy(mini_library, [ForecastedSI(mini_library.get("HT"), 10)], 3)
        assert calls == ["greedy"]
        rt = RisppRuntime(mini_library, 4, core_mhz=100.0)
        rt.forecast("SATD", 0, expected=40.0)
        assert rt.stats.replans == 1
        assert calls == ["greedy", "greedy"]


KERNELS = {"reference": ReferenceBackend, "numpy": NumpyBackend}


@pytest.fixture(params=KERNELS)
def kernel(request):
    return KERNELS[request.param]()


class TestBatchedKernels:
    ROWS = [(0, 2, 1), (3, 0, 1), (1, 1, 1)]

    def test_sup(self, kernel):
        assert kernel.sup(self.ROWS, 3) == (3, 2, 1)
        assert kernel.sup([], 3) == (0, 0, 0)

    def test_inf(self, kernel):
        assert kernel.inf(self.ROWS) == (0, 0, 1)
        with pytest.raises(ValueError):
            kernel.inf([])

    def test_residual(self, kernel):
        assert kernel.residual(self.ROWS, (1, 1, 1)) == [
            (0, 1, 0),
            (2, 0, 0),
            (0, 0, 0),
        ]
        assert kernel.residual([], (1, 1, 1)) == []

    def test_determinants(self, kernel):
        assert kernel.determinants(self.ROWS) == [3, 4, 3]
        assert kernel.determinants([]) == []

    def test_pareto_mask_drops_dominated(self, kernel):
        atoms = [1, 2, 3, 3]
        cycles = [9, 5, 5, 2]
        # (3, 5) is dominated by (2, 5); everything else survives.
        assert kernel.pareto_mask(atoms, cycles) == [
            True, True, False, True,
        ]

    def test_pareto_mask_keeps_exact_duplicates(self, kernel):
        assert kernel.pareto_mask([1, 1, 2], [5, 5, 9]) == [
            True, True, False,
        ]

    def test_pareto_mask_empty(self, kernel):
        assert kernel.pareto_mask([], []) == []


class TestMoleculeBackendRouting:
    """The batched kernels agree with the molecule lattice's reductions."""

    SPACE = AtomSpace(["A", "B", "C"])

    def mols(self):
        return [
            self.SPACE.molecule({"A": 2, "B": 1}),
            self.SPACE.molecule({"B": 3, "C": 1}),
            self.SPACE.molecule({"A": 1, "C": 2}),
        ]

    def test_supremum_matches_pairwise_reduction(self, kernel):
        mols = self.mols()
        rows = [m.counts for m in mols]
        assert kernel.sup(rows, 3) == supremum(mols).counts

    def test_infimum_matches_pairwise_reduction(self, kernel):
        mols = self.mols()
        rows = [m.counts for m in mols]
        assert kernel.inf(rows) == infimum(mols).counts

    def test_empty_supremum_needs_space(self, kernel):
        zero = supremum([], space=self.SPACE)
        assert kernel.sup([], self.SPACE.dimension) == zero.counts


class TestSelectionBackendArg:
    def test_greedy_accepts_backend_instances(self, mini_library):
        reqs = [ForecastedSI(mini_library.get("SATD"), 7)]
        shipped = select_greedy(mini_library, reqs, 4)
        for backend in (NumpyBackend(), ReferenceBackend()):
            assert select_greedy(mini_library, reqs, 4, backend=backend) == shipped

    def test_exhaustive_accepts_backend(self, mini_library):
        reqs = [
            ForecastedSI(mini_library.get("HT"), 5),
            ForecastedSI(mini_library.get("SATD"), 20),
        ]
        ref = select_exhaustive(mini_library, reqs, 6, backend=ReferenceBackend())
        fast = select_exhaustive(mini_library, reqs, 6, backend=NumpyBackend())
        assert ref == fast

    def test_custom_backend_subclass_is_usable(self, mini_library):
        class Recording(ReferenceBackend):
            def __init__(self):
                self.exhaustive_calls = 0

            def exhaustive_choose(self, *a, **kw):
                self.exhaustive_calls += 1
                return super().exhaustive_choose(*a, **kw)

        probe = Recording()
        assert isinstance(probe, ComputeBackend)
        reqs = [ForecastedSI(mini_library.get("HT"), 5)]
        select_exhaustive(mini_library, reqs, 3, backend=probe)
        assert probe.exhaustive_calls == 1
