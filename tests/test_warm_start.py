"""Warm-start fixpoint correctness.

The incremental service's contract: after ``apply_delta(Δ)``, the
stored scores equal a cold ``score_stationarity`` realignment of the
updated ontologies within 1e-9, read through *both* directions of the
store — for add-only and add+remove deltas.  Enforced here on the
uniform family fixture (the bench workload) and property-based over
randomized clustered ontologies (instance stores *and* both class
matrices, so the delta-aware class cache is covered by the same
property), plus unit coverage for the incremental relation matrices,
the copy-on-write overlay store, the restricted-view maintainer and
the stationarity mode itself.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ParisConfig, align
from repro.core.incremental import IncrementalRelationPass, RestrictedViewMaintainer
from repro.core.store import EquivalenceStore
from repro.core.subrelations import subrelation_pass
from repro.datasets.incremental import family_addition, family_pair, family_removal
from repro.rdf.ontology import Ontology
from repro.rdf.terms import Literal, Relation, Resource
from repro.rdf.triples import Triple
from repro.rdf.vocabulary import RDF_TYPE
from repro.service import AlignmentService, Delta

TOLERANCE = 1e-9


def assert_stores_match(warm_store, cold_store, tolerance=TOLERANCE):
    """Equality over the pair union, read through both directions."""
    mismatches = list(warm_store.diff(cold_store, tolerance))
    assert not mismatches, mismatches[:5]
    for left, right, probability in cold_store.items():
        assert warm_store.get(left, right) == pytest.approx(probability, abs=tolerance)
        assert warm_store.equals_of_right(right)[left] == pytest.approx(
            probability, abs=tolerance
        )
    for left, right, probability in warm_store.items():
        assert cold_store.get(left, right) == pytest.approx(probability, abs=tolerance)


def assert_class_matrices_match(warm, cold, tolerance=TOLERANCE):
    """Class-matrix equality over the entry union (both read orders)."""
    for sub, sup, probability in cold.items():
        assert warm.get(sub, sup) == pytest.approx(probability, abs=tolerance), (sub, sup)
    for sub, sup, probability in warm.items():
        assert cold.get(sub, sup) == pytest.approx(probability, abs=tolerance), (sub, sup)


def matrix_entries(matrix):
    return {(sub, sup): p for sub, sup, p in matrix.items()}


# ----------------------------------------------------------------------
# family fixture (the bench workload): 1 % deltas, 1e-9 equality
# ----------------------------------------------------------------------


class TestFamilyFixtureEquality:
    BASE = 100

    @pytest.fixture()
    def service(self):
        left, right = family_pair(self.BASE)
        return AlignmentService.cold_start(left, right, ParisConfig())

    def cold_reference(self, num_families, removals=((), ()), **config):
        left, right = family_pair(num_families)
        for triple in removals[0]:
            left.remove_triple(triple)
        for triple in removals[1]:
            right.remove_triple(triple)
        return align(left, right, ParisConfig(score_stationarity=True, **config))

    def test_add_only_delta_matches_cold_run(self, service):
        add1, add2 = family_addition(self.BASE, 1)
        report = service.apply_delta(Delta(add1=tuple(add1), add2=tuple(add2)))
        assert report.converged
        assert report.version == 1
        # The frontier stays inside the new family: the fixture's
        # clusters are disconnected, so 1 % of the data means far less
        # than 1 % of the instances get re-scored.
        assert report.dirty <= 2 * len(add1)
        reference = self.cold_reference(self.BASE + 1)
        assert_stores_match(service.state.store, reference.instances)

    def test_add_and_remove_delta_matches_cold_run(self, service):
        add1, add2 = family_addition(self.BASE, 1)
        rem1, rem2 = family_removal([4, 17])
        report = service.apply_delta(
            Delta(
                add1=tuple(add1),
                add2=tuple(add2),
                remove1=tuple(rem1),
                remove2=tuple(rem2),
            )
        )
        assert report.converged
        assert report.applied_remove == len(rem1) + len(rem2)
        reference = self.cold_reference(self.BASE + 1, removals=(rem1, rem2))
        assert_stores_match(service.state.store, reference.instances)

    def test_dampened_delta_matches_cold_run(self):
        """Dampening slows stationarity past the paper's 10-pass cap:
        the service must still start from a stationary baseline, and
        the warm run's dampened rows must land on the cold fixpoint."""
        left, right = family_pair(self.BASE)
        service = AlignmentService.cold_start(left, right, ParisConfig(dampening=0.3))
        assert service.state.converged
        add1, add2 = family_addition(self.BASE, 1)
        rem1, rem2 = family_removal([4, 17])
        report = service.apply_delta(
            Delta(
                add1=tuple(add1),
                add2=tuple(add2),
                remove1=tuple(rem1),
                remove2=tuple(rem2),
            )
        )
        assert report.converged
        reference = self.cold_reference(
            self.BASE + 1, removals=(rem1, rem2), dampening=0.3, max_iterations=100
        )
        assert reference.converged
        assert_stores_match(service.state.store, reference.instances)

    def test_successive_deltas_stay_equal(self, service):
        for step in range(3):
            add1, add2 = family_addition(self.BASE + step, 1)
            report = service.apply_delta(Delta(add1=tuple(add1), add2=tuple(add2)))
            assert report.version == step + 1
        reference = self.cold_reference(self.BASE + 3)
        assert_stores_match(service.state.store, reference.instances)

    def test_noop_delta_changes_nothing(self, service):
        before = service.state.store.copy()
        version = service.state.version
        add1, _add2 = family_addition(0, 1)  # already present on both sides
        report = service.apply_delta(Delta(add1=tuple(add1)))
        assert report.applied_add == 0
        assert report.dirty == 0
        assert service.state.version == version
        assert service.state.store.max_difference(before) == 0.0

    def test_empty_delta(self, service):
        report = service.apply_delta(Delta())
        assert report.applied_add == 0 and report.applied_remove == 0

    def test_warm_snapshots_do_not_alias_live_matrices(self, service):
        """Per-pass snapshots must capture the matrices at that pass,
        not the live cache objects later passes mutate in place."""
        from repro.service.delta import apply_delta as apply_raw

        add1, add2 = family_addition(self.BASE, 1)
        state = service.state
        effect = apply_raw(state.ontology1, state.ontology2, Delta(
            add1=tuple(add1), add2=tuple(add2)
        ))
        dirty, seed1, seed2, full = service._invalidate(effect, 1e-12)
        result = service.aligner.warm_align(
            state.store.copy(),
            service._rel12,
            service._rel21,
            dirty_instances=dirty,
            seed_nodes1=seed1,
            seed_nodes2=seed2,
            delta_statements1=effect.statements1,
            delta_statements2=effect.statements2,
        )
        assert len(result.iterations) >= 2
        first_pass = result.iterations[0]
        assert first_pass.relations12 is not service._rel12.matrix
        assert first_pass.relations21 is not service._rel21.matrix
        # Frozen content: mutating the live cache afterwards must not
        # change what the snapshot recorded.
        before = {(a, b): p for a, b, p in first_pass.relations12.items()}
        service._rel12.matrix.clear_sub(next(iter(before))[0])
        assert {(a, b): p for a, b, p in first_pass.relations12.items()} == before

    def test_warm_snapshots_store_frontier_sized_deltas(self, service):
        """Warm-pass snapshots chain off the pre-delta assignment and
        store only per-pass assignment *deltas* (O(frontier), not
        O(matched) copies), while still reconstructing the full
        assignments exactly."""
        from repro.service.delta import apply_delta as apply_raw

        add1, add2 = family_addition(self.BASE, 1)
        state = service.state
        pre12 = dict(service._assignment12)
        effect = apply_raw(state.ontology1, state.ontology2, Delta(
            add1=tuple(add1), add2=tuple(add2)
        ))
        dirty, seed1, seed2, _full = service._invalidate(effect, 1e-12)
        result = service.aligner.warm_align(
            state.store.copy(),
            service._rel12,
            service._rel21,
            dirty_instances=dirty,
            seed_nodes1=seed1,
            seed_nodes2=seed2,
            delta_statements1=effect.statements1,
            delta_statements2=effect.statements2,
        )
        assert result.iterations
        matched = len(result.assignment12)
        assert matched > 100  # the base corpus is large...
        head = result.iterations[0]
        assert head.previous is None and head.base12 == pre12
        for snapshot in result.iterations:
            # ...but each pass's stored delta is frontier-sized.
            assert len(snapshot.assignment12_delta) <= len(dirty) + 3
            assert len(snapshot.assignment12_delta) < matched // 10
        # Reconstruction still yields the full per-pass assignments.
        assert result.iterations[-1].assignment12 == result.assignment12
        assert result.iterations[-1].assignment21 == result.assignment21


class TestFamilyFixtureWithClasses:
    """The class-enabled family fixture: the delta-aware class cache
    must reproduce a cold run's class matrices, not just the stores."""

    BASE = 60

    @pytest.fixture()
    def service(self):
        left, right = family_pair(self.BASE, with_classes=True)
        return AlignmentService.cold_start(left, right, ParisConfig())

    def cold_reference(self, num_families):
        left, right = family_pair(num_families, with_classes=True)
        return align(left, right, ParisConfig(score_stationarity=True))

    def test_classes_match_cold_run_after_delta(self, service):
        add1, add2 = family_addition(self.BASE, 1, with_classes=True)
        report = service.apply_delta(Delta(add1=tuple(add1), add2=tuple(add2)))
        assert report.converged
        reference = self.cold_reference(self.BASE + 1)
        assert_stores_match(service.state.store, reference.instances)
        assert_class_matrices_match(service.state.classes12, reference.classes12)
        assert_class_matrices_match(service.state.classes21, reference.classes21)
        # The fixture's classes have entries (the taxonomy is aligned).
        assert len(matrix_entries(service.state.classes12)) > 0

    def test_successive_class_deltas_stay_equal(self, service):
        for step in range(3):
            add1, add2 = family_addition(self.BASE + step, 1, with_classes=True)
            service.apply_delta(Delta(add1=tuple(add1), add2=tuple(add2)))
        reference = self.cold_reference(self.BASE + 3)
        assert_class_matrices_match(service.state.classes12, reference.classes12)
        assert_class_matrices_match(service.state.classes21, reference.classes21)

    def test_type_only_delta_refreshes_class_rows(self, service):
        """A pure rdf:type delta (no data statements) must invalidate
        exactly the touched class rows and still match a cold run."""
        retype = Delta(
            add1=(Triple(Resource("p0a"), RDF_TYPE, Resource("Town")),),
            add2=(Triple(Resource("q0a"), RDF_TYPE, Resource("Municipality")),),
        )
        report = service.apply_delta(retype)
        assert report.applied_add == 2
        left, right = family_pair(self.BASE, with_classes=True)
        left.add_type(Resource("p0a"), Resource("Town"))
        right.add_type(Resource("q0a"), Resource("Municipality"))
        reference = align(left, right, ParisConfig(score_stationarity=True))
        assert_stores_match(service.state.store, reference.instances)
        assert_class_matrices_match(service.state.classes12, reference.classes12)
        assert_class_matrices_match(service.state.classes21, reference.classes21)


# ----------------------------------------------------------------------
# property: randomized clustered ontologies
# ----------------------------------------------------------------------


def _cluster_triples(cluster, size, rng):
    """One cluster of anchored entities with partially mirrored facts."""
    left, right = [], []
    for i in range(size):
        p, q = f"p{cluster}_{i}", f"q{cluster}_{i}"
        anchor = Literal(f"Entity {cluster}.{i}")
        left.append(Triple(Resource(p), Relation("name"), anchor))
        right.append(Triple(Resource(q), Relation("label"), anchor))
        year = Literal(f"{1500 + 10 * cluster + i}")
        if rng.random() < 0.8:
            left.append(Triple(Resource(p), Relation("born"), year))
        if rng.random() < 0.8:
            right.append(Triple(Resource(q), Relation("year"), year))
        if rng.random() < 0.5:
            left.append(Triple(Resource(p), RDF_TYPE, Resource("CPerson")))
        if rng.random() < 0.5:
            right.append(Triple(Resource(q), RDF_TYPE, Resource("CHuman")))
    for _ in range(rng.randint(0, 2 * size)):
        i, j = rng.randrange(size), rng.randrange(size)
        left.append(
            Triple(Resource(f"p{cluster}_{i}"), Relation("knows"), Resource(f"p{cluster}_{j}"))
        )
        if rng.random() < 0.7:
            right.append(
                Triple(Resource(f"q{cluster}_{i}"), Relation("friend"), Resource(f"q{cluster}_{j}"))
            )
    return left, right


def _random_workload(seed, with_removal):
    rng = random.Random(seed)
    base1, base2 = [], []
    num_clusters = rng.randint(2, 4)
    for cluster in range(num_clusters):
        left, right = _cluster_triples(cluster, rng.randint(1, 3), rng)
        base1.extend(left)
        base2.extend(right)
    add1, add2 = _cluster_triples(num_clusters, rng.randint(1, 3), rng)
    rem1, rem2 = (), ()
    if with_removal:
        candidates1 = [t for t in base1 if t.relation.name != "name"]
        candidates2 = [t for t in base2 if t.relation.name != "label"]
        if candidates1:
            rem1 = (rng.choice(candidates1),)
        if candidates2:
            rem2 = (rng.choice(candidates2),)
    return base1, base2, Delta(
        add1=tuple(add1), add2=tuple(add2), remove1=rem1, remove2=rem2
    )


def _build(name, triples):
    ontology = Ontology(name)
    for triple in triples:
        ontology.add_triple(triple)
    return ontology


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), with_removal=st.booleans())
def test_warm_start_equals_cold_run_on_random_ontologies(seed, with_removal):
    base1, base2, delta = _random_workload(seed, with_removal)
    service = AlignmentService.cold_start(
        _build("left", base1), _build("right", base2), ParisConfig(max_iterations=30)
    )
    report = service.apply_delta(delta)
    assert report.converged
    cold_left = _build("left", base1)
    cold_right = _build("right", base2)
    for triple in delta.remove1:
        cold_left.remove_triple(triple)
    for triple in delta.remove2:
        cold_right.remove_triple(triple)
    for triple in delta.add1:
        cold_left.add_triple(triple)
    for triple in delta.add2:
        cold_right.add_triple(triple)
    reference = align(
        cold_left, cold_right, ParisConfig(max_iterations=30, score_stationarity=True)
    )
    assert reference.converged
    assert_stores_match(service.state.store, reference.instances)
    # The class cache rides the same property: both directions of the
    # Eq. 17 matrices must equal the cold run's.
    assert_class_matrices_match(service.state.classes12, reference.classes12)
    assert_class_matrices_match(service.state.classes21, reference.classes21)


# ----------------------------------------------------------------------
# incremental relation matrices
# ----------------------------------------------------------------------


class TestIncrementalRelationPass:
    @pytest.fixture()
    def setup(self):
        left, right = family_pair(12)
        service = AlignmentService.cold_start(left, right, ParisConfig())
        return service

    def test_fresh_build_is_bit_identical_to_sequential_pass(self, setup):
        aligner = setup.aligner
        state = setup.state
        view = aligner._view(state.store)
        cache = IncrementalRelationPass(
            state.ontology1,
            state.ontology2,
            view,
            truncation_threshold=0.1,
            max_pairs=10_000,
            bootstrap_theta=0.1,
        )
        fresh = subrelation_pass(
            state.ontology1,
            state.ontology2,
            view,
            truncation_threshold=0.1,
            max_pairs=10_000,
            bootstrap_theta=0.1,
        )
        assert matrix_entries(cache.matrix) == matrix_entries(fresh)

    def test_refresh_tracks_graph_change(self, setup):
        aligner = setup.aligner
        state = setup.state
        view = aligner._view(state.store)
        cache = IncrementalRelationPass(
            state.ontology1,
            state.ontology2,
            view,
            truncation_threshold=0.1,
            max_pairs=10_000,
            bootstrap_theta=0.1,
        )
        # Retract one marriage statement and refresh incrementally.
        triple = Triple(Resource("p5a"), Relation("marriedTo"), Resource("p5b"))
        assert state.ontology1.remove_triple(triple)
        changes = cache.refresh(
            view, changed_statements=[(triple.relation, triple.subject, triple.object)]
        )
        fresh = subrelation_pass(
            state.ontology1,
            state.ontology2,
            view,
            truncation_threshold=0.1,
            max_pairs=10_000,
            bootstrap_theta=0.1,
        )
        for (sub, sup), probability in matrix_entries(fresh).items():
            assert cache.matrix.get(sub, sup) == pytest.approx(probability, abs=1e-12)
        assert all(isinstance(relation, Relation) for relation in changes)

    def test_negative_den_drift_triggers_rebuild(self, setup):
        """A denominator driven to <= 0 by subtraction drift while terms
        remain must rebuild exactly, not install the no-evidence default."""
        aligner = setup.aligner
        state = setup.state
        view = aligner._view(state.store)
        cache = IncrementalRelationPass(
            state.ontology1,
            state.ontology2,
            view,
            truncation_threshold=0.1,
            max_pairs=10_000,
            bootstrap_theta=0.1,
        )
        relation = Relation("marriedTo")
        assert cache._terms[relation]
        # Simulate accumulated drift below zero.
        cache._den[relation] = -1e-16
        statement = next(iter(cache._terms[relation]))
        change = cache.refresh(
            view, changed_statements=[(relation, statement[0], statement[1])]
        )
        fresh = subrelation_pass(
            state.ontology1,
            state.ontology2,
            view,
            truncation_threshold=0.1,
            max_pairs=10_000,
            bootstrap_theta=0.1,
        )
        for relation2, probability in fresh.supers_of(relation).items():
            assert cache.matrix.get(relation, relation2) == pytest.approx(
                probability, abs=1e-12
            )
        assert change.keys() <= {relation}

    def test_attach_builds_one_kernel_and_no_statement_terms(self, setup, monkeypatch):
        """Attach fills both relation caches from one kernel sweep: no
        statement goes through the dict code, and the caches match the
        dict sweep's."""
        from repro.core import incremental, subrelations
        from repro.core.vectorized import VectorizedKernel

        calls = {"statement_terms": 0, "kernels": 0}
        original_terms = subrelations.statement_terms
        original_init = VectorizedKernel.__init__

        def counting_terms(*args, **kwargs):
            calls["statement_terms"] += 1
            return original_terms(*args, **kwargs)

        def counting_init(self, *args, **kwargs):
            calls["kernels"] += 1
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(incremental, "statement_terms", counting_terms)
        monkeypatch.setattr(subrelations, "statement_terms", counting_terms)
        monkeypatch.setattr(VectorizedKernel, "__init__", counting_init)
        service = AlignmentService(setup.state)
        assert calls == {"statement_terms": 0, "kernels": 1}
        assert matrix_entries(service._rel12.matrix) == matrix_entries(setup._rel12.matrix)
        assert matrix_entries(service._rel21.matrix) == matrix_entries(setup._rel21.matrix)

    def test_capped_relation_falls_back_to_full_recompute(self, setup):
        aligner = setup.aligner
        state = setup.state
        view = aligner._view(state.store)
        cache = IncrementalRelationPass(
            state.ontology1,
            state.ontology2,
            view,
            truncation_threshold=0.1,
            max_pairs=3,  # every family relation exceeds this
            bootstrap_theta=0.1,
        )
        fresh = subrelation_pass(
            state.ontology1,
            state.ontology2,
            view,
            truncation_threshold=0.1,
            max_pairs=3,
            bootstrap_theta=0.1,
        )
        assert matrix_entries(cache.matrix) == matrix_entries(fresh)


class TestNonStationaryExit:
    """Oscillating inputs: the warm loop must stop via cycle detection
    and still leave the service's relation caches consistent with the
    returned store (a resident process reuses them for later deltas)."""

    def test_caches_consistent_after_cycle_exit(self):
        from repro.datasets import yago_dbpedia_pair
        from repro.rdf.triples import Triple

        pair = yago_dbpedia_pair(num_persons=120, num_works=60, seed=17)
        service = AlignmentService.cold_start(
            pair.ontology1, pair.ontology2, ParisConfig(max_iterations=8)
        )
        delta = Delta(
            add1=(
                Triple(Resource("FreshP"), Relation("label"), Literal("Utterly Fresh")),
                Triple(Resource("FreshP"), Relation("wasBornIn"), Resource("FreshTown")),
            ),
            add2=(
                Triple(Resource("fresh_p"), Relation("name"), Literal("Utterly Fresh")),
                Triple(Resource("fresh_p"), Relation("birthPlace"), Resource("fresh_town")),
            ),
        )
        report = service.apply_delta(delta)
        # The noisy fixture oscillates: the warm loop must terminate
        # well below the iteration cap via the cycle guard.
        assert report.converged
        assert report.passes < service.state.config.warm_max_iterations
        # Invariant: whatever the exit path, the incremental matrices
        # equal a fresh relation pass over the returned state.
        aligner = service.aligner
        view = aligner._view(service.state.store)
        for cache, (first, second), reverse in [
            (service._rel12, (pair.ontology1, pair.ontology2), False),
            (service._rel21, (pair.ontology2, pair.ontology1), True),
        ]:
            fresh = subrelation_pass(
                first, second, view,
                truncation_threshold=0.1, max_pairs=10_000,
                reverse=reverse, bootstrap_theta=0.1,
            )
            for sub, sup, probability in fresh.items():
                assert cache.matrix.get(sub, sup) == pytest.approx(
                    probability, abs=1e-9
                ), (sub, sup)
            for sub, sup, probability in cache.matrix.items():
                assert fresh.get(sub, sup) == pytest.approx(
                    probability, abs=1e-9
                ), (sub, sup)


# ----------------------------------------------------------------------
# copy-on-write overlay + restricted-view maintenance
# ----------------------------------------------------------------------

_RESOURCES = [Resource(f"x{i}") for i in range(6)]
_COUNTERPARTS = [Resource(f"y{i}") for i in range(6)]

_op = st.tuples(
    st.sampled_from(_RESOURCES),
    st.sampled_from(_COUNTERPARTS),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


def _seeded_store(entries, threshold=0.1):
    store = EquivalenceStore(threshold)
    for left, right, probability in entries:
        store.set(left, right, probability)
    return store


class TestOverlayStore:
    """The overlay must be observationally equal to an eager copy,
    through both read directions, before and after commit."""

    @settings(max_examples=60, deadline=None)
    @given(
        base_entries=st.lists(_op, max_size=25),
        cleared=st.lists(st.sampled_from(_RESOURCES), max_size=4),
        writes=st.lists(_op, max_size=25),
    )
    def test_overlay_equals_eager_copy(self, base_entries, cleared, writes):
        base = _seeded_store(base_entries)
        pristine = base.copy()
        eager = base.copy()
        overlay = base.overlay()
        for left in cleared:
            eager.clear_left(left)
            overlay.clear_left(left)
        for left, right, probability in writes:
            eager.set(left, right, probability)
            overlay.set(left, right, probability)
        # The base is untouched until commit.
        assert base.max_difference(pristine) == 0.0
        # Forward and backward reads agree with the eager copy.
        for left in _RESOURCES:
            assert dict(overlay.equals_of(left)) == dict(eager.equals_of(left))
            for right in _COUNTERPARTS:
                assert overlay.get(left, right) == eager.get(left, right)
        for right in _COUNTERPARTS:
            assert dict(overlay.equals_of_right(right)) == dict(
                eager.equals_of_right(right)
            )
        # Commit folds into the base in place and both directions match.
        committed = overlay.commit()
        assert committed is base
        assert committed.max_difference(eager) == 0.0
        for right in _COUNTERPARTS:
            assert dict(committed.equals_of_right(right)) == dict(
                eager.equals_of_right(right)
            )

    def test_pairs_touched_counts_only_touched_rows(self):
        base = _seeded_store(
            [(Resource(f"x{i}"), Resource(f"y{i}"), 0.9) for i in range(100)]
        )
        overlay = base.overlay()
        overlay.clear_left(Resource("x3"))
        overlay.set(Resource("x3"), Resource("y3"), 0.8)
        assert overlay.pairs_touched == 2
        assert overlay.pairs_touched < len(base)


class TestRestrictedViewMaintainer:
    """The maintained view must equal ``restricted_to_maximal()`` (and
    both maximal assignments) after arbitrary row replacements."""

    @settings(max_examples=60, deadline=None)
    @given(
        base_entries=st.lists(_op, max_size=25),
        rounds=st.lists(
            st.tuples(
                st.lists(st.sampled_from(_RESOURCES), min_size=1, max_size=3),
                st.lists(_op, max_size=10),
            ),
            max_size=3,
        ),
    )
    def test_maintained_view_equals_fresh_restriction(self, base_entries, rounds):
        store = _seeded_store(base_entries)
        maintainer = RestrictedViewMaintainer(store)
        for cleared, writes in rounds:
            overlay = store.overlay()
            for left in cleared:
                overlay.clear_left(left)
            for left, right, probability in writes:
                overlay.set(left, right, probability)
            changes = maintainer.apply(overlay)
            overlay.commit()
            fresh = store.restricted_to_maximal()
            assert maintainer.view_store.max_difference(fresh) == 0.0
            assert maintainer.assignment12 == store.maximal_assignment()
            assert maintainer.assignment21 == store.maximal_assignment(reverse=True)
            for (left, right), (old, new) in changes.items():
                assert old != new
                assert fresh.get(left, right) == new


# ----------------------------------------------------------------------
# score-stationarity mode (the cold reference the service relies on)
# ----------------------------------------------------------------------


class TestScoreStationarity:
    def test_reaches_exact_stationarity(self, person_pair):
        from repro.core.aligner import ParisAligner

        config = ParisConfig(score_stationarity=True, max_iterations=30)
        aligner = ParisAligner(person_pair.ontology1, person_pair.ontology2, config)
        result = aligner.align()
        assert result.converged
        # The declared fixpoint must actually be one: a further full
        # instance pass from the final state, against the final
        # relation matrices, must not move a single score.
        view = aligner._view(result.instances)
        replayed = aligner._instance_pass(view, result.relations12, result.relations21)
        assert result.instances.max_difference(replayed.to_store()) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ParisConfig(warm_tolerance=1.5)
        with pytest.raises(ValueError):
            ParisConfig(warm_full_pass_fraction=0.0)
        with pytest.raises(ValueError):
            ParisConfig(warm_max_iterations=0)
