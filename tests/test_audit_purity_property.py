"""rispp-audit's backend-purity verdict cross-checked against runtime.

AUD009/AUD010 statically claim that every ``ComputeBackend`` kernel of
``repro.core.backend`` treats its arguments as immutable and touches no
undeclared state.  A static claim that quietly diverged from runtime
behaviour would be worse than no claim, so hypothesis drives the real
kernels over random libraries/workloads and asserts *observed*
non-mutation exactly where the analyzer claims purity.
"""

import copy

from hypothesis import given, settings

from repro.analysis.audit import package_root, run_audit
from repro.core import NumpyBackend, ReferenceBackend
from tests.test_backend_equivalence import library_and_workload

KERNEL_CLASSES = ("ReferenceBackend", "NumpyBackend")


def audited_impure_kernels():
    """``Class.method`` symbols the analyzer flags as impure."""
    backend_py = package_root() / "core" / "backend.py"
    result = run_audit(backend_py, baseline=None)
    return {
        str(d.context["symbol"])
        for d in result.report.diagnostics
        if d.rule_id in ("AUD009", "AUD010")
    }


def library_fingerprint(library):
    return tuple(
        (
            si.name,
            si.software_cycles,
            tuple(
                (impl.molecule.counts, impl.cycles, impl.label)
                for impl in si.implementations
            ),
        )
        for si in library
    )


def requests_fingerprint(requests):
    return tuple((f.si.name, f.expected_executions) for f in requests)


def exercise_kernels(backend, library, requests, budget):
    """Call every ComputeBackend kernel once on the given inputs."""
    space = library.catalogue.space
    dim = space.dimension
    rows = [list(impl.molecule.counts) for si in library for impl in si.implementations]
    rows_snapshot = copy.deepcopy(rows)
    available = [1] * dim

    backend.sup(rows, dim)
    backend.inf(rows)
    backend.residual(rows, available)
    backend.determinants(rows)
    atoms = [sum(r) for r in rows]
    cycles = list(range(1, len(rows) + 1))
    backend.pareto_mask(atoms, cycles)
    backend.greedy_choose(library, requests, budget, space.zero())
    backend.exhaustive_choose(library, requests, budget)

    assert rows == rows_snapshot, "a lattice kernel mutated its row input"
    assert available == [1] * dim, "residual mutated its available vector"


class TestStaticVerdict:
    def test_audit_claims_every_shipped_kernel_pure(self):
        """The analyzer's claim this module cross-checks at runtime."""
        impure = audited_impure_kernels()
        assert not any(
            symbol.split(".")[0] in KERNEL_CLASSES for symbol in impure
        ), impure


@settings(max_examples=40, deadline=None)
@given(library_and_workload())
def test_reference_kernels_do_not_mutate_inputs(bundle):
    library, requests, budget = bundle
    before_lib = library_fingerprint(library)
    before_req = requests_fingerprint(requests)
    exercise_kernels(ReferenceBackend(), library, requests, budget)
    assert library_fingerprint(library) == before_lib
    assert requests_fingerprint(requests) == before_req


@settings(max_examples=40, deadline=None)
@given(library_and_workload())
def test_numpy_kernels_do_not_mutate_inputs(bundle):
    library, requests, budget = bundle
    before_lib = library_fingerprint(library)
    before_req = requests_fingerprint(requests)
    exercise_kernels(NumpyBackend(), library, requests, budget)
    assert library_fingerprint(library) == before_lib
    assert requests_fingerprint(requests) == before_req
