"""Vectorized Eq. 13 and Eq. 12 kernel vs the dict reference passes.

The kernel (`repro.core.vectorized`) must be *bit-identical* to the
dict path — same entries, same insertion order, same floats — because
later iterations accumulate products over store dict order and the
1e-12 warm/cold equality guarantees of the service stack inherit from
it.  Hypothesis drives the same seeded ontology generator the parallel
properties use; every failure shrinks to a reproducible seed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_parallel_properties import pass_inputs, random_pair

from repro import OntologyBuilder, ParisConfig, align
from repro.core import aligner as aligner_module
from repro.core.equivalence import instance_equivalence_pass, ordered_instances, score_instances
from repro.core.functionality import FunctionalityOracle
from repro.core.literal_index import LiteralIndex
from repro.core.parallel import parallel_subrelation_pass
from repro.core.store import EquivalenceStore
from repro.core.subrelations import subrelation_pass
from repro.core.vectorized import HAVE_NUMPY, VectorizedKernel
from repro.core.view import EquivalenceView
from repro.literals import EditDistanceSimilarity
from repro.rdf.terms import Relation, Resource

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="kernel requires numpy")

TOLERANCE = 1e-12


def make_kernel(left, right, view, fun1, fun2):
    return VectorizedKernel(left, right, fun1, fun2, view._right_index, view._left_index)


def result_snapshot(result):
    """Every scored surface of an alignment, order-independent."""
    return tuple(
        sorted((str(a), str(b), p) for a, b, p in matrix.items())
        for matrix in (
            result.instances,
            result.relations12,
            result.relations21,
            result.classes12,
            result.classes21,
        )
    )


class TestKernelExactness:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=40_000))
    def test_pass_matches_dict_reference(self, seed):
        left, right, view, fun1, fun2, rel12, rel21, theta = pass_inputs(random_pair(seed))
        instances = ordered_instances(left.instances)
        expected = score_instances(
            instances, left, right, view, fun1, fun2, rel12, rel21, theta
        )
        kernel = make_kernel(left, right, view, fun1, fun2)
        prepared = kernel.prepare_pass(view.store, rel12, rel21)
        got = kernel.score_entries(instances, prepared, theta)
        # Not just 1e-12-close: identical entries in identical order.
        assert [(a, b) for a, b, _p in got] == [(a, b) for a, b, _p in expected]
        for (_, _, got_p), (_, _, want_p) in zip(got, expected):
            assert got_p == pytest.approx(want_p, abs=TOLERANCE)

    def test_full_align_matches_dict_engine(self):
        for seed in range(8):
            left, right = random_pair(seed)
            reference = align(left, right, ParisConfig(scoring="dict"))
            vectorized = align(left, right, ParisConfig(scoring="vectorized"))
            assert result_snapshot(vectorized) == result_snapshot(reference)

    def test_store_lowering_roundtrip_preserves_order(self):
        left, right, view, fun1, fun2, rel12, rel21, theta = pass_inputs(random_pair(7))
        kernel = make_kernel(left, right, view, fun1, fun2)
        prepared = kernel.prepare_pass(view.store, rel12, rel21)
        store = EquivalenceStore()
        store.update(kernel.entries_for(*kernel.score_ids(kernel.ordered_ids, prepared, theta)))
        lowered = kernel.lower_store(store)
        assert lowered is not None
        rebuilt = kernel.rebuild_store(lowered, store.truncation_threshold)
        # Both dict orders survive the array round-trip: forward rows…
        assert list(rebuilt.items()) == list(store.items())
        # …and the backward rows the reverse relation pass folds over.
        assert list(rebuilt.backward_items()) == list(store.backward_items())

    def test_ids_for_marks_statementless_instances(self):
        left, right, view, fun1, fun2, _rel12, _rel21, _theta = pass_inputs(random_pair(3))
        kernel = make_kernel(left, right, view, fun1, fun2)
        ids = kernel.ids_for([next(iter(left.instances)), Resource("never-seen")])
        assert ids[0] >= 0
        assert ids[1] == -1


def relation_snapshot(matrix):
    """A relation matrix in full: entries, per-sub defaults and the
    reverse index, each in insertion order, floats compared with ``==``."""
    return (
        list(matrix.items()),
        list(matrix._sub_defaults.items()),
        [(sup, list(row.items())) for sup, row in matrix._by_super.items()],
    )


def relation_passes(left, right, view, reverse, max_pairs=10_000):
    """``(kernel pass, dict pass)`` of one Eq. 12 direction over ``view``."""
    kernel = make_kernel(left, right, view, FunctionalityOracle(left), FunctionalityOracle(right))
    first, second = (right, left) if reverse else (left, right)
    kwargs = dict(
        truncation_threshold=0.1, max_pairs=max_pairs, reverse=reverse, bootstrap_theta=0.1
    )
    return (
        parallel_subrelation_pass(first, second, view, kernel=kernel, **kwargs),
        subrelation_pass(first, second, view, **kwargs),
    )


class TestRelationKernelExactness:
    """The Eq. 12 kernel fills the matrix exactly like ``subrelation_pass``."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=40_000),
        st.booleans(),
        st.booleans(),
        st.sampled_from([1, 2, 10_000]),
    )
    def test_pass_matches_dict_reference(self, seed, reverse, restricted, max_pairs):
        inputs = pass_inputs(random_pair(seed))
        left, right, view = inputs[:3]
        store = instance_equivalence_pass(*inputs)
        if restricted:
            store = store.restricted_to_maximal()
        filled = EquivalenceView(store, view._right_index, view._left_index)
        got, expected = relation_passes(left, right, filled, reverse, max_pairs)
        assert relation_snapshot(got) == relation_snapshot(expected)

    def test_cap_below_relation_size(self):
        left, right = random_pair(21)
        inputs = pass_inputs((left, right))
        view = inputs[2]
        filled = EquivalenceView(
            instance_equivalence_pass(*inputs), view._right_index, view._left_index
        )
        assert max(left.num_statements(r) for r in left.relations()) > 1
        for reverse in (False, True):
            got, expected = relation_passes(left, right, filled, reverse, max_pairs=1)
            assert relation_snapshot(got) == relation_snapshot(expected)
            uncapped = relation_passes(left, right, filled, reverse)[0]
            assert relation_snapshot(got) != relation_snapshot(uncapped)

    def test_multi_candidate_literals(self):
        left = OntologyBuilder("left")
        right = OntologyBuilder("right")
        for n, (name, city) in enumerate([("Alice", "Paris"), ("Alicia", "Rome")]):
            left.value(f"p{n}", "name", name).value(f"p{n}", "city", city)
            right.value(f"x{n}", "label", name).value(f"x{n}", "place", city)
        right.value("x2", "label", "Alica").value("x2", "place", "Pariz")
        left, right = left.build(), right.build()
        similarity = EditDistanceSimilarity()
        right_index = LiteralIndex(right, similarity)
        assert max(
            len(right_index.candidates(literal)) for literal in left.literals
        ) >= 2
        store = EquivalenceStore()
        store.set(Resource("p0"), Resource("x0"), 0.8)
        store.set(Resource("p0"), Resource("x2"), 0.5)
        store.set(Resource("p1"), Resource("x1"), 0.9)
        view = EquivalenceView(store, right_index, LiteralIndex(left, similarity))
        for reverse in (False, True):
            got, expected = relation_passes(left, right, view, reverse)
            assert relation_snapshot(got) == relation_snapshot(expected)
            assert list(got.items())

    def test_empty_store_falls_back_to_the_bootstrap_default(self):
        left, right, view = pass_inputs(random_pair(4))[:3]
        for reverse in (False, True):
            got, expected = relation_passes(left, right, view, reverse)
            assert relation_snapshot(got) == relation_snapshot(expected)
            first = right if reverse else left
            assert list(got.items()) == []
            assert list(got._sub_defaults) == first.relations(include_inverses=True)
            assert set(got._sub_defaults.values()) == {0.1}

    def test_candidate_without_statements_counts_in_the_denominator(self):
        left = OntologyBuilder("left").value("p0", "name", "Ann").value("p1", "name", "Bo")
        right = OntologyBuilder("right").value("x0", "label", "Ann").value("x1", "label", "Bo")
        left, right = left.build(), right.build()
        ghost = Resource("ghost")
        assert ghost not in set(right.nodes_with_statements())
        store = EquivalenceStore()
        store.set(Resource("p0"), Resource("x0"), 0.9)
        store.set(Resource("p0"), ghost, 0.6)
        store.set(Resource("p1"), Resource("x1"), 0.7)
        view = pass_inputs((left, right))[2]
        view = EquivalenceView(store, view._right_index, view._left_index)
        for reverse in (False, True):
            got, expected = relation_passes(left, right, view, reverse)
            assert relation_snapshot(got) == relation_snapshot(expected)
        # the ghost lowers Pr(name ⊆ label) below the ghost-free score
        name, label = Relation("name"), Relation("label")
        got, _expected = relation_passes(left, right, view, reverse=False)
        without = EquivalenceStore()
        without.set(Resource("p0"), Resource("x0"), 0.9)
        without.set(Resource("p1"), Resource("x1"), 0.7)
        clean = EquivalenceView(without, view._right_index, view._left_index)
        assert got.get(name, label) < relation_passes(left, right, clean, False)[0].get(
            name, label
        )


class TestEngineSelection:
    def test_vectorized_scoring_rejects_negative_evidence(self):
        with pytest.raises(ValueError, match="negative evidence"):
            ParisConfig(scoring="vectorized", use_negative_evidence=True)

    def test_unknown_scoring_mode_rejected(self):
        with pytest.raises(ValueError, match="scoring"):
            ParisConfig(scoring="simd")

    def test_negative_evidence_auto_falls_back_to_dict(self):
        left, right = random_pair(11)
        reference = align(left, right, ParisConfig(scoring="dict", use_negative_evidence=True))
        auto = align(left, right, ParisConfig(scoring="auto", use_negative_evidence=True))
        assert result_snapshot(auto) == result_snapshot(reference)


class TestWorkerPoolPath:
    def test_pool_align_matches_sequential(self, monkeypatch):
        """The persistent-pool engine must be exact.

        The gates that keep the pool away from tiny inputs are lowered
        so these small fixtures actually exercise the fork/dispatch/
        merge machinery end to end.
        """
        monkeypatch.setattr(aligner_module, "POOL_MIN_FRONTIER", 0)
        monkeypatch.setattr(aligner_module, "KERNEL_REBUILD_MIN_FRONTIER", 0)
        for seed in (0, 5, 9):
            left, right = random_pair(seed)
            reference = align(left, right, ParisConfig(scoring="dict"))
            pooled = align(left, right, ParisConfig(workers=2))
            assert result_snapshot(pooled) == result_snapshot(reference)

    def test_pool_align_with_classes_matches_sequential(self, monkeypatch):
        """Typed fixture: the pooled Eq. 17 class pass must be exact too."""
        from repro.datasets.incremental import family_pair

        monkeypatch.setattr(aligner_module, "POOL_MIN_FRONTIER", 0)
        monkeypatch.setattr(aligner_module, "KERNEL_REBUILD_MIN_FRONTIER", 0)
        left, right = family_pair(4, with_classes=True)
        reference = align(left, right, ParisConfig(scoring="dict"))
        pooled = align(left, right, ParisConfig(workers=2))
        assert result_snapshot(pooled) == result_snapshot(reference)
        assert result_snapshot(pooled)[3]  # classes12 actually non-empty
