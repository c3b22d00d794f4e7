"""Vectorized Eq. 13 and Eq. 12 kernel vs the dict reference passes.

The kernel (`repro.core.vectorized`) must be *bit-identical* to the
dict path — same entries, same insertion order, same floats — because
later iterations accumulate products over store dict order and the
1e-12 warm/cold equality guarantees of the service stack inherit from
it.  The aligner runs every pass on one route; the tests reach the dict
route by switching the kernel off (``ParisAligner._kernel_allowed``),
which is what negative evidence does.  Hypothesis drives a seeded
random ontology generator, so every failure shrinks to a reproducible
seed.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import OntologyBuilder, ParisAligner, ParisConfig, align
from repro.core import aligner as aligner_module
from repro.core.equivalence import instance_equivalence_pass, ordered_instances, score_instances
from repro.core.functionality import FunctionalityOracle
from repro.core.incremental import IncrementalRelationPass, StatementTerms
from repro.core.literal_index import LiteralIndex
from repro.core.matrix import SubsumptionMatrix
from repro.core.pass_state import KernelPassState, StorePassState
from repro.core.store import EquivalenceStore
from repro.core.subrelations import parallel_subrelation_pass, subrelation_pass
from repro.core.vectorized import VectorizedKernel
from repro.core.view import EquivalenceView
from repro.literals import EditDistanceSimilarity, IdentitySimilarity
from repro.rdf.terms import Relation, Resource
from repro.rdf.triples import Triple

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
    """First-iteration instance-pass inputs over ``pair`` (empty store)."""
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


def make_kernel(left, right, view, fun1, fun2):
    return VectorizedKernel(left, right, fun1, fun2, view._right_index, view._left_index)


def dict_route(patch):
    """Switch the kernel off for every aligner, as negative evidence does."""
    patch.setattr(ParisAligner, "_kernel_allowed", lambda self: False)


def dict_align(left, right, config=None):
    """``align`` on the dict reference passes."""
    with pytest.MonkeyPatch.context() as patch:
        dict_route(patch)
        return align(left, right, config)


def relation_snapshot(matrix):
    """A relation matrix in full: entries, per-sub defaults and the
    reverse index, each in insertion order, floats compared with ``==``."""
    return (
        list(matrix.items()),
        list(matrix._sub_defaults.items()),
        [(sup, list(row.items())) for sup, row in matrix._by_super.items()],
    )


def exact_snapshot(result):
    """Every scored surface of an alignment, in insertion order."""
    return (
        list(result.instances.items()),
        [(right, list(row.items())) for right, row in result.instances.rows(reverse=True)],
        relation_snapshot(result.relations12),
        relation_snapshot(result.relations21),
        list(result.classes12.items()),
        list(result.classes21.items()),
        result.assignment12,
        result.assignment21,
        result.converged,
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
            reference = dict_align(left, right)
            vectorized = align(left, right)
            assert exact_snapshot(vectorized) == exact_snapshot(reference)

    def test_full_align_with_classes_matches_dict_engine(self):
        """Typed fixture: the class pass reads the kernel's store exactly
        as it reads the dict pass's."""
        from repro.datasets.incremental import family_pair

        left, right = family_pair(4, with_classes=True)
        vectorized = align(left, right)
        assert exact_snapshot(vectorized) == exact_snapshot(dict_align(left, right))
        assert list(vectorized.classes12.items())

    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=15, deadline=None)
    def test_random_ontologies_full_align_equal(self, seed):
        left, right = random_pair(seed)
        config = ParisConfig(max_iterations=3)
        assert exact_snapshot(align(left, right, config)) == exact_snapshot(
            dict_align(left, right, config)
        )

    def test_ids_for_marks_statementless_instances(self):
        left, right, view, fun1, fun2, _rel12, _rel21, _theta = pass_inputs(random_pair(3))
        kernel = make_kernel(left, right, view, fun1, fun2)
        ids = kernel.ids_for([next(iter(left.instances)), Resource("never-seen")])
        assert ids[0] >= 0
        assert ids[1] == -1


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


def relation_caches(left, right, view, reverse, max_pairs):
    """``(kernel-built, dict-built)`` relation caches of one direction."""
    kernel = make_kernel(left, right, view, FunctionalityOracle(left), FunctionalityOracle(right))
    first, second = (right, left) if reverse else (left, right)
    kwargs = dict(
        truncation_threshold=0.1, max_pairs=max_pairs, reverse=reverse, bootstrap_theta=0.1
    )
    return (
        IncrementalRelationPass(first, second, view, kernel=kernel, **kwargs),
        IncrementalRelationPass(first, second, view, **kwargs),
    )


def cache_snapshot(cache):
    """A relation cache in full, each part in order, floats with ``==``."""
    return (
        list(cache._den.items()),
        [(relation, list(num.items())) for relation, num in cache._num.items()],
        [
            (relation, [(s, den, list(num.items())) for s, (den, num) in terms.items()])
            for relation, terms in cache._terms.items()
        ],
        relation_snapshot(cache.matrix),
        cache._capped,
    )


def change_snapshot(changes):
    return [
        (relation, change.max_delta, change.changed_supers, change.default_changed)
        for relation, change in changes.items()
    ]


def random_refresh(rng, cache, store, sub_nodes, super_nodes):
    """One random change to the view or the sub side's graph, applied,
    and the ``refresh`` arguments that report it."""
    ontology = cache.ontology1
    kind = rng.choice(["view", "view", "remove", "add"])
    if kind == "view":
        node, other = rng.choice(sub_nodes), rng.choice(super_nodes)
        left, right = (other, node) if cache.reverse else (node, other)
        if rng.random() < 0.3:
            store.discard(left, right)
        else:
            store.set(left, right, rng.choice([0.2, 0.5, 0.9, 1.0]))
        return dict(changed_nodes=[node])
    relations = ontology.relations(include_inverses=False)
    if kind == "remove":
        statements = [(r, x, y) for r in relations for x, y in ontology.pairs(r)]
        if not statements:
            return {}
        relation, subject, obj = rng.choice(statements)
        assert ontology.remove_triple(Triple(subject, relation, obj))
    else:
        relation = rng.choice(relations)
        subject, obj = rng.choice(sub_nodes), rng.choice(sub_nodes)
        if subject == obj or not ontology.add(subject, relation, obj):
            return {}
    return dict(changed_statements=[(relation, subject, obj)])


class TestRelationCacheFromKernel:
    """``IncrementalRelationPass(kernel=...)`` builds the caches the dict
    sweep builds, and stays bit-equal to it through refreshes."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=40_000),
        st.booleans(),
        st.booleans(),
        st.sampled_from([1, 2, 10_000]),
    )
    def test_matches_the_dict_sweep(self, seed, reverse, restricted, max_pairs):
        left, right = random_pair(seed)
        inputs = pass_inputs((left, right))
        store = instance_equivalence_pass(*inputs)
        if restricted:
            store = store.restricted_to_maximal()
        view = EquivalenceView(store, inputs[2]._right_index, inputs[2]._left_index)
        got, expected = relation_caches(left, right, view, reverse, max_pairs)
        assert cache_snapshot(got) == cache_snapshot(expected)
        if max_pairs == 10_000:
            assert all(isinstance(terms, StatementTerms) for terms in got._terms.values())
        # the same refreshes keep both bit-equal
        first, second = (right, left) if reverse else (left, right)
        sub_nodes = sorted(first.instances, key=str)
        super_nodes = sorted(second.instances, key=str)
        rng = random.Random(seed)
        for _ in range(rng.randint(1, 8)):
            changes = random_refresh(rng, got, store, sub_nodes, super_nodes)
            assert change_snapshot(got.refresh(view, **changes)) == change_snapshot(
                expected.refresh(view, **changes)
            )
            assert cache_snapshot(got) == cache_snapshot(expected)

    def test_literal_statements_read_from_the_arrays(self, kb_pass_inputs):
        """Literal-valued statements keep their terms in the arrays until
        popped, and pop the dict sweep's terms."""
        left, right, view = kb_pass_inputs[:3]
        filled = EquivalenceView(
            instance_equivalence_pass(*kb_pass_inputs).restricted_to_maximal(),
            view._right_index,
            view._left_index,
        )
        got, expected = relation_caches(left, right, filled, False, 10_000)
        literal = [
            (relation, statement)
            for relation, terms in expected._terms.items()
            for statement in terms
            if not isinstance(statement[1], Resource)
        ]
        assert literal
        for relation, statement in literal:
            terms = got._terms[relation]
            assert isinstance(terms, StatementTerms)
            assert terms[statement] == expected._terms[relation][statement]
            assert terms.pop(statement) == expected._terms[relation].pop(statement)
            assert statement not in terms
            assert terms.pop(statement, None) is None
        assert cache_snapshot(got) == cache_snapshot(expected)
        # a write to a statement the arrays still hold replaces it
        relation, statement = literal[0]
        terms = relation_caches(left, right, filled, False, 10_000)[0]._terms[relation]
        size = len(terms)
        terms[statement] = (0.5, {})
        assert len(terms) == size and list(terms).count(statement) == 1
        assert terms[statement] == (0.5, {})

    def test_matched_statement_with_zero_terms_is_kept(self):
        """A pair probability too small to move ``1 − p`` off 1.0 gives a
        statement zero terms, yet its matched ``r'`` makes the dict sweep
        keep it; the arrays keep it too."""
        left = OntologyBuilder("left").value("p0", "name", "Ann").build()
        right = OntologyBuilder("right").value("x0", "label", "Ann").build()
        store = EquivalenceStore()
        store.set(Resource("p0"), Resource("x0"), 1e-17)
        view = pass_inputs((left, right))[2]
        view = EquivalenceView(store, view._right_index, view._left_index)
        for reverse in (False, True):
            got, expected = relation_caches(left, right, view, reverse, 10_000)
            assert cache_snapshot(got) == cache_snapshot(expected)
            kept = [terms for t in expected._terms.values() for terms in t.values()]
            assert kept and all(den == 0.0 and list(num.values()) == [0.0] for den, num in kept)

    def test_stale_kernel_is_refused(self):
        left, right, view, fun1, fun2 = pass_inputs(random_pair(3))[:5]
        kernel = make_kernel(left, right, view, fun1, fun2)
        assert left.add(Resource("p0"), Relation("knows"), Resource("newcomer"))
        with pytest.raises(ValueError):
            IncrementalRelationPass(left, right, view, 0.1, 10_000, kernel=kernel)


class TestEngineSelection:
    def test_default_config_runs_on_the_kernel(self):
        """The switch the dict-route tests use really takes the kernel
        off (otherwise they would compare the kernel with itself)."""
        left, right = random_pair(5)
        aligner = ParisAligner(left, right)
        aligner.align()
        assert aligner._kernel is not None
        with pytest.MonkeyPatch.context() as patch:
            dict_route(patch)
            aligner = ParisAligner(left, right)
            aligner.align()
        assert aligner._kernel is None

    def test_negative_evidence_auto_falls_back_to_dict(self):
        left, right = random_pair(11)
        config = ParisConfig(use_negative_evidence=True)
        aligner = ParisAligner(left, right, config)
        result = aligner.align()
        assert aligner._kernel is None
        assert exact_snapshot(result) == exact_snapshot(dict_align(left, right, config))


@pytest.fixture(scope="module")
def kb_pass_inputs():
    """First-iteration inputs over a mid-sized benchmark pair."""
    from repro.datasets import yago_dbpedia_pair

    pair = yago_dbpedia_pair(num_persons=120, num_works=60, seed=17)
    return pass_inputs((pair.ontology1, pair.ontology2))


class TestAlignerRoutes:
    """The aligner's own pass methods, kernel route against dict route."""

    @pytest.mark.parametrize("reverse", [False, True])
    def test_relation_pass_matches_dict(self, kb_pass_inputs, reverse, monkeypatch):
        """Each direction of the relation pass, over a view filled by a
        bootstrap instance pass: the kernel route, the dict route and
        ``subrelation_pass`` fill the same matrix."""
        left, right, view = kb_pass_inputs[:3]
        filled = EquivalenceView(
            instance_equivalence_pass(*kb_pass_inputs).restricted_to_maximal(),
            view._right_index,
            view._left_index,
        )
        first, second = (right, left) if reverse else (left, right)
        expected = subrelation_pass(
            first, second, filled, 0.1, 10_000, reverse=reverse, bootstrap_theta=0.1
        )
        on_kernel = ParisAligner(left, right)._relation_pass(filled, reverse=reverse)
        dict_route(monkeypatch)
        on_dict = ParisAligner(left, right)._relation_pass(filled, reverse=reverse)
        assert relation_snapshot(on_kernel) == relation_snapshot(expected)
        assert relation_snapshot(on_dict) == relation_snapshot(expected)

    def test_warm_frontier_subsets_match_dict(self, kb_pass_inputs, monkeypatch):
        """A warm pass's frontier scores the same entries, in input
        order, on the kernel and on the dict path."""
        left, right, view, _fun1, _fun2, rel12, rel21, _theta = kb_pass_inputs
        subset = ordered_instances(left.instances)[:40]
        expected = score_instances(subset, *kb_pass_inputs)
        # Below KERNEL_REBUILD_MIN_FRONTIER a fresh aligner has no kernel
        # and does not build one for 40 instances: the dict path scores.
        aligner = ParisAligner(left, right)
        assert aligner._score_frontier(subset, view, rel12, rel21) == expected
        assert aligner._kernel is None
        # With the gate lowered the same frontier builds the kernel.
        monkeypatch.setattr(aligner_module, "KERNEL_REBUILD_MIN_FRONTIER", 0)
        assert aligner._score_frontier(subset, view, rel12, rel21) == expected
        assert aligner._kernel is not None

    def test_person_fixture_exact(self, person_pair, person_result):
        reference = dict_align(person_pair.ontology1, person_pair.ontology2)
        assert exact_snapshot(person_result) == exact_snapshot(reference)

    def test_kb_fixture_exact(self, kb_pair, kb_result):
        config = ParisConfig(max_iterations=4, convergence_threshold=0.0)
        reference = dict_align(kb_pair.ontology1, kb_pair.ontology2, config)
        assert exact_snapshot(kb_result) == exact_snapshot(reference)


def row_lists(rows):
    """Each node's ``(counterpart ids, probabilities)`` of kernel rows."""
    starts, counts, ids, probs = rows
    return [
        (ids[start : start + count].tolist(), probs[start : start + count].tolist())
        for start, count in zip(starts.tolist(), counts.tolist())
    ]


def random_states(kernel, rng, size):
    """A random kernel pass state over ``kernel``'s resources and the
    dict store filled in the same order; probabilities come from a
    small pool, so rows hold exact ties."""
    lefts = [i for i, node in enumerate(kernel.table1) if isinstance(node, Resource)]
    rights = [i for i, node in enumerate(kernel.table2) if isinstance(node, Resource)]
    candidates = [(x, xp) for x in lefts for xp in rights]
    pairs = rng.sample(candidates, min(size, len(candidates)))
    probs = [rng.choice([0.2, 0.5, 0.5, 0.9, 1.0]) for _ in pairs]
    state = KernelPassState(
        kernel,
        np.array([x for x, _xp in pairs], dtype=np.int64),
        np.array([xp for _x, xp in pairs], dtype=np.int64),
        np.array(probs, dtype=np.float64),
        0.1,
    )
    store = EquivalenceStore(0.1)
    store.update(kernel.entries_for(state.x, state.xp, state.p))
    return state, StorePassState(store)


class TestKernelPassState:
    """The cold loop's array state against the dict store it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=40_000), st.integers(0, 40), st.integers(0, 40))
    def test_matches_the_dict_store(self, seed, size, previous_size):
        left, right, view, fun1, fun2 = pass_inputs(random_pair(seed))[:5]
        kernel = make_kernel(left, right, view, fun1, fun2)
        rng = random.Random(seed)
        state, reference = random_states(kernel, rng, size)
        before, before_reference = random_states(kernel, rng, previous_size)
        # Both assignments, in the order maximal_assignment lists them.
        assert [list(a.items()) for a in state.assignments()] == [
            list(a.items()) for a in reference.assignments()
        ]
        # Restricted and whole views: every row, in the dict row order.
        for restrict in (True, False):
            rows = state.view(restrict)
            expected = reference.view(restrict)
            for reverse in (False, True):
                assert row_lists(rows.rows(reverse)) == row_lists(
                    kernel.lower_rows(expected, reverse)
                )
        # The loop's checks and dampening.
        assert state.change_from(before) == reference.change_from(before_reference)
        assert state.same_targets(before) == reference.same_targets(before_reference)
        assert state.same_targets(state)
        assert state.max_difference(before) == reference.max_difference(before_reference)
        assert [list(d.items()) for d in state.assignment_deltas(before)] == [
            list(d.items()) for d in reference.assignment_deltas(before_reference)
        ]
        blended = state.dampened(before, 0.3)
        assert list(blended.to_store().items()) == list(
            reference.dampened(before_reference, 0.3).store.items()
        )


class TestColdLoopOnArrays:
    @pytest.mark.parametrize(
        "config",
        [
            ParisConfig(score_stationarity=True, max_iterations=12),
            ParisConfig(dampening=0.3),
            ParisConfig(dampening=0.3, restrict_to_maximal_assignment=False, max_iterations=4),
        ],
        ids=["stationarity", "dampening", "dampening-unrestricted"],
    )
    def test_kernel_route_matches_dict_route(self, config):
        from repro.datasets.incremental import family_pair

        pairs = [random_pair(seed) for seed in range(6)] + [family_pair(4, with_classes=True)]
        for left, right in pairs:
            vectorized = align(left, right, config)
            reference = dict_align(left, right, config)
            assert exact_snapshot(vectorized) == exact_snapshot(reference)
            # The per-iteration assignments the snapshot chain rebuilds.
            assert [
                (s.change_fraction, s.num_equivalences, s.assignment12, s.assignment21)
                for s in vectorized.iterations
            ] == [
                (s.change_fraction, s.num_equivalences, s.assignment12, s.assignment21)
                for s in reference.iterations
            ]

    def test_store_is_built_once(self, kb_pair, monkeypatch):
        """A kernel-route cold align writes dict stores only at the end:
        the result's store, in one unchecked fill, and the class pass's
        restricted view."""
        calls = {"set": 0, "update": 0, "fill": 0}
        original_set, original_update = EquivalenceStore.set, EquivalenceStore.update
        original_fill = EquivalenceStore.fill_accepted

        def counting_set(self, *args):
            calls["set"] += 1
            return original_set(self, *args)

        def counting_update(self, entries):
            calls["update"] += 1
            return original_update(self, entries)

        def counting_fill(self, entries):
            calls["fill"] += 1
            return original_fill(self, entries)

        monkeypatch.setattr(EquivalenceStore, "set", counting_set)
        monkeypatch.setattr(EquivalenceStore, "update", counting_update)
        monkeypatch.setattr(EquivalenceStore, "fill_accepted", counting_fill)
        aligner = ParisAligner(kb_pair.ontology1, kb_pair.ontology2)
        result = aligner.align()
        assert aligner._kernel is not None
        assert len(result.iterations) > 1
        assert calls["update"] == 0
        assert calls["fill"] == 1
        assert calls["set"] == len(result.assignment12) + len(result.assignment21)
