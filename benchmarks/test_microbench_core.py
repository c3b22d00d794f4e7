"""Micro-benchmarks of the core substrate.

These time the hot paths of the Section 5.2 optimization — the indexed
statement traversal, functionality precomputation, a single instance
pass, and a single relation pass on the dict reference and on the
vectorized kernel — so performance regressions in the substrate show up
even when end-to-end numbers drift.
"""

from __future__ import annotations

import pytest

from repro.core.equivalence import instance_equivalence_pass
from repro.core.functionality import FunctionalityOracle
from repro.core.literal_index import LiteralIndex
from repro.core.matrix import SubsumptionMatrix
from repro.core.parallel import parallel_subrelation_pass
from repro.core.store import EquivalenceStore
from repro.core.subrelations import subrelation_pass
from repro.core.vectorized import VectorizedKernel
from repro.core.view import EquivalenceView
from repro.datasets import yago_dbpedia_pair
from repro.literals import IdentitySimilarity


@pytest.fixture(scope="module")
def pair():
    return yago_dbpedia_pair(num_persons=600, num_works=300, seed=5)


@pytest.fixture(scope="module")
def view(pair):
    similarity = IdentitySimilarity()
    return EquivalenceView(
        EquivalenceStore(),
        LiteralIndex(pair.ontology2, similarity),
        LiteralIndex(pair.ontology1, similarity),
    )


@pytest.mark.benchmark(group="micro")
def test_bench_statement_traversal(benchmark, pair):
    onto = pair.ontology1

    def traverse():
        count = 0
        for instance in onto.instances:
            for _relation, _obj in onto.statements_about(instance):
                count += 1
        return count

    assert benchmark(traverse) > 0


@pytest.mark.benchmark(group="micro")
def test_bench_functionality_oracle(benchmark, pair):
    oracle = benchmark(lambda: FunctionalityOracle(pair.ontology1))
    assert oracle.fun(pair.ontology1.relations()[0]) >= 0


@pytest.mark.benchmark(group="micro")
def test_bench_literal_index_build(benchmark, pair):
    index = benchmark(lambda: LiteralIndex(pair.ontology2, IdentitySimilarity()))
    assert len(index) > 0


@pytest.mark.benchmark(group="micro")
def test_bench_instance_pass(benchmark, pair, view):
    fun1 = FunctionalityOracle(pair.ontology1)
    fun2 = FunctionalityOracle(pair.ontology2)
    rel12 = SubsumptionMatrix.bootstrap(0.1)
    rel21 = SubsumptionMatrix.bootstrap(0.1)

    store = benchmark.pedantic(
        lambda: instance_equivalence_pass(
            pair.ontology1, pair.ontology2, view, fun1, fun2, rel12, rel21,
            truncation_threshold=0.1,
        ),
        rounds=3,
        iterations=1,
    )
    assert len(store) > 0


@pytest.fixture(scope="module")
def filled_view(pair, view):
    """The view after one bootstrap instance pass: Eq. 12 has evidence."""
    store = instance_equivalence_pass(
        pair.ontology1, pair.ontology2, view,
        FunctionalityOracle(pair.ontology1), FunctionalityOracle(pair.ontology2),
        SubsumptionMatrix.bootstrap(0.1), SubsumptionMatrix.bootstrap(0.1),
        truncation_threshold=0.1,
    )
    similarity = IdentitySimilarity()
    return EquivalenceView(
        store,
        LiteralIndex(pair.ontology2, similarity),
        LiteralIndex(pair.ontology1, similarity),
    )


RELATION_PASS = dict(truncation_threshold=0.1, max_pairs=10_000, bootstrap_theta=0.1)


@pytest.mark.benchmark(group="micro")
def test_bench_subrelation_pass(benchmark, pair, filled_view):
    matrix = benchmark.pedantic(
        lambda: subrelation_pass(
            pair.ontology1, pair.ontology2, filled_view, **RELATION_PASS
        ),
        rounds=3,
        iterations=1,
    )
    assert len(matrix) > 0


@pytest.mark.benchmark(group="micro")
def test_bench_kernel_relation_pass(benchmark, pair, filled_view):
    """The Eq. 12 kernel on the same inputs; its static arrays are built
    outside the timed rounds, as a cold align builds them once."""
    pytest.importorskip("numpy")
    kernel = VectorizedKernel(
        pair.ontology1,
        pair.ontology2,
        FunctionalityOracle(pair.ontology1),
        FunctionalityOracle(pair.ontology2),
        filled_view._right_index,
        filled_view._left_index,
    )
    kernel.relation_scores(filled_view, False, RELATION_PASS["max_pairs"])
    matrix = benchmark.pedantic(
        lambda: parallel_subrelation_pass(
            pair.ontology1, pair.ontology2, filled_view, kernel=kernel, **RELATION_PASS
        ),
        rounds=3,
        iterations=1,
    )
    expected = subrelation_pass(pair.ontology1, pair.ontology2, filled_view, **RELATION_PASS)
    assert len(matrix) > 0
    assert list(matrix.items()) == list(expected.items())
    assert matrix._sub_defaults == expected._sub_defaults
