"""Vectorized Eq. 13 kernel vs the dict reference implementation.

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

from repro import ParisConfig, align
from repro.core import aligner as aligner_module
from repro.core.equivalence import ordered_instances, score_instances
from repro.core.store import EquivalenceStore
from repro.core.vectorized import HAVE_NUMPY, VectorizedKernel
from repro.rdf.terms import Resource

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="kernel requires numpy")

TOLERANCE = 1e-12


def make_kernel(left, right, view, fun1, fun2):
    return VectorizedKernel(left, right, fun1, fun2, view._right_index)


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
