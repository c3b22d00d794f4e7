"""Property-based equivalence tests for the worker-pool route.

For randomly generated small ontology pairs, the pooled passes must
produce scores equal to the sequential passes — within 1e-12, for
workers ∈ {1, 2, 4}, read through *both* directions of the store.
Hypothesis drives a seeded-random ontology generator, so every failure
shrinks to a reproducible seed.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OntologyBuilder, ParisAligner, ParisConfig, align
from repro.core.equivalence import instance_equivalence_pass
from repro.core.functionality import FunctionalityOracle
from repro.core.literal_index import LiteralIndex
from repro.core.matrix import SubsumptionMatrix
from repro.core.store import EquivalenceStore
from repro.core.view import EquivalenceView
from repro.literals import IdentitySimilarity

TOLERANCE = 1e-12

#: Small pools so random ontologies overlap enough to produce matches.
_VALUES = ["Alice", "Bob", "Carol", "Dave", "Erin", "1959", "1961", "Tupelo"]
_LEFT_RELATIONS = ["born", "name", "city", "year"]
_RIGHT_RELATIONS = ["birth", "label", "place", "date"]


def random_pair(seed: int):
    """Two random small ontologies with partially overlapping literals."""
    rng = random.Random(seed)
    left = OntologyBuilder("left")
    right = OntologyBuilder("right")
    num_entities = rng.randint(2, 8)
    for n in range(num_entities):
        for _ in range(rng.randint(1, 4)):
            left.value(f"p{n}", rng.choice(_LEFT_RELATIONS), rng.choice(_VALUES))
        # The right-hand twin keeps some of the left's facts (same
        # literals through different relation names) and adds noise.
        for _ in range(rng.randint(0, 4)):
            right.value(f"x{n}", rng.choice(_RIGHT_RELATIONS), rng.choice(_VALUES))
        if rng.random() < 0.7:
            right.value(f"x{n}", rng.choice(_RIGHT_RELATIONS), rng.choice(_VALUES))
    # Occasional entity links on both sides (resource-valued facts).
    for _ in range(rng.randint(0, num_entities)):
        a, b = rng.randrange(num_entities), rng.randrange(num_entities)
        left.fact(f"p{a}", "knows", f"p{b}")
        if rng.random() < 0.5:
            right.fact(f"x{a}", "friend", f"x{b}")
    return left.build(), right.build()


def pass_inputs(pair):
    left, right = pair
    similarity = IdentitySimilarity()
    view = EquivalenceView(
        EquivalenceStore(),
        LiteralIndex(right, similarity),
        LiteralIndex(left, similarity),
    )
    return (
        left,
        right,
        view,
        FunctionalityOracle(left),
        FunctionalityOracle(right),
        SubsumptionMatrix.bootstrap(0.1),
        SubsumptionMatrix.bootstrap(0.1),
        0.1,
    )


def assert_scores_close(parallel_store, sequential_store):
    forward_seq = {(l, r): p for l, r, p in sequential_store.items()}
    forward_par = {(l, r): p for l, r, p in parallel_store.items()}
    assert forward_par.keys() == forward_seq.keys()
    for key, expected in forward_seq.items():
        assert abs(forward_par[key] - expected) <= TOLERANCE, key
    # the backward direction must carry the very same probabilities
    for (left, right), expected in forward_seq.items():
        backward = parallel_store.equals_of_right(right)
        assert abs(backward[left] - expected) <= TOLERANCE, (left, right)


def pooled_instance_pass(inputs, workers):
    """One instance pass through the aligner's routing (the pool for
    ``workers >= 2``, the in-process kernel for ``workers=1``)."""
    left, right, view, _fun1, _fun2, rel12, rel21, _theta = inputs
    aligner = ParisAligner(left, right, ParisConfig(workers=workers))
    try:
        return aligner._instance_pass(view, rel12, rel21)
    finally:
        aligner.close()


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=30, deadline=None)
def test_random_ontologies_parallel_equals_sequential(seed):
    inputs = pass_inputs(random_pair(seed))
    sequential = instance_equivalence_pass(*inputs)
    for workers in (1, 2, 4):
        assert_scores_close(pooled_instance_pass(inputs, workers), sequential)


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=15, deadline=None)
def test_random_ontologies_full_align_equal(seed):
    left, right = random_pair(seed)
    sequential = align(left, right, ParisConfig(max_iterations=3))
    parallel = align(left, right, ParisConfig(max_iterations=3, workers=4))
    assert_scores_close(parallel.instances, sequential.instances)
    assert parallel.assignment12 == sequential.assignment12
    assert parallel.assignment21 == sequential.assignment21


@pytest.mark.parametrize("seed", [0, 7, 2011])
def test_random_ontologies_process_backend(seed):
    """Fixed seeds through the worker pool's processes, bit-exact: the
    pooled store holds the sequential entries in the same order."""
    inputs = pass_inputs(random_pair(seed))
    sequential = instance_equivalence_pass(*inputs)
    pooled = pooled_instance_pass(inputs, workers=2)
    assert list(pooled.items()) == list(sequential.items())
