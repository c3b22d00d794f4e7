"""Unit tests for EquivalenceStore and SubsumptionMatrix."""

import pytest

from repro.core.matrix import SubsumptionMatrix
from repro.core.store import EquivalenceStore
from repro.rdf.terms import Relation, Resource


def R(name):
    return Resource(name)


class TestStoreBasics:
    def test_set_get(self):
        store = EquivalenceStore()
        store.set(R("a"), R("x"), 0.8)
        assert store.get(R("a"), R("x")) == 0.8

    def test_unknown_is_zero(self):
        store = EquivalenceStore()
        assert store.get(R("a"), R("x")) == 0.0

    def test_bidirectional(self):
        store = EquivalenceStore()
        store.set(R("a"), R("x"), 0.8)
        assert dict(store.equals_of(R("a"))) == {R("x"): 0.8}
        assert dict(store.equals_of_right(R("x"))) == {R("a"): 0.8}

    def test_truncation(self):
        store = EquivalenceStore(truncation_threshold=0.1)
        store.set(R("a"), R("x"), 0.05)
        assert store.get(R("a"), R("x")) == 0.0
        assert len(store) == 0

    def test_truncation_erases_existing(self):
        store = EquivalenceStore(truncation_threshold=0.1)
        store.set(R("a"), R("x"), 0.5)
        store.set(R("a"), R("x"), 0.05)
        assert store.get(R("a"), R("x")) == 0.0

    def test_zero_not_stored(self):
        store = EquivalenceStore()
        store.set(R("a"), R("x"), 0.0)
        assert len(store) == 0

    def test_overwrite(self):
        store = EquivalenceStore()
        store.set(R("a"), R("x"), 0.5)
        store.set(R("a"), R("x"), 0.9)
        assert store.get(R("a"), R("x")) == 0.9
        assert len(store) == 1

    def test_clamp_slightly_above_one(self):
        store = EquivalenceStore()
        store.set(R("a"), R("x"), 1.0 + 1e-12)
        assert store.get(R("a"), R("x")) == 1.0

    def test_out_of_range_rejected(self):
        store = EquivalenceStore()
        with pytest.raises(ValueError):
            store.set(R("a"), R("x"), 1.5)
        with pytest.raises(ValueError):
            store.set(R("a"), R("x"), -0.1)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            EquivalenceStore(truncation_threshold=1.0)

    def test_discard(self):
        store = EquivalenceStore()
        store.set(R("a"), R("x"), 0.5)
        store.discard(R("a"), R("x"))
        assert len(store) == 0
        store.discard(R("a"), R("x"))  # idempotent

    def test_items_and_len(self):
        store = EquivalenceStore()
        store.set(R("a"), R("x"), 0.5)
        store.set(R("b"), R("y"), 0.6)
        assert len(store) == 2
        assert set(store.items()) == {(R("a"), R("x"), 0.5), (R("b"), R("y"), 0.6)}

    def test_clear(self):
        store = EquivalenceStore()
        store.set(R("a"), R("x"), 0.5)
        store.clear()
        assert len(store) == 0

    def test_fill_accepted_matches_update(self):
        """The unchecked fill of accepted, distinct pairs builds the rows
        ``update`` builds, in the same order, with the same count."""
        entries = [
            (R("b"), R("y"), 0.6),
            (R("a"), R("x"), 0.5),
            (R("b"), R("x"), 1.0),
            (R("c"), R("y"), 0.1),
            (R("a"), R("z"), 0.7),
        ]
        filled, updated = EquivalenceStore(0.1), EquivalenceStore(0.1)
        filled.fill_accepted(entries)
        updated.update(entries)
        for reverse in (False, True):
            assert [(node, list(row.items())) for node, row in filled.rows(reverse)] == [
                (node, list(row.items())) for node, row in updated.rows(reverse)
            ]
        assert len(filled) == len(updated) == len(entries)


class TestTruncationBoundary:
    """Regression: the Section 5.2 truncation is ``Pr < θ ⇒ 0``.

    A score *exactly equal* to the threshold must be stored; strictly
    below must be dropped — and the shard-merge order of the parallel
    engine must not disturb maximal-assignment tie-breaking.
    """

    def test_exact_threshold_is_stored(self):
        store = EquivalenceStore(truncation_threshold=0.3)
        store.set(R("a"), R("x"), 0.3)
        assert store.get(R("a"), R("x")) == 0.3
        assert len(store) == 1

    def test_strictly_below_is_dropped(self):
        store = EquivalenceStore(truncation_threshold=0.3)
        store.set(R("a"), R("x"), 0.3 - 1e-15)
        assert store.get(R("a"), R("x")) == 0.0
        assert len(store) == 0

    def test_exact_threshold_survives_both_directions(self):
        store = EquivalenceStore(truncation_threshold=0.3)
        store.set(R("a"), R("x"), 0.3)
        assert dict(store.equals_of(R("a"))) == {R("x"): 0.3}
        assert dict(store.equals_of_right(R("x"))) == {R("a"): 0.3}

    def test_update_applies_truncation_per_entry(self):
        store = EquivalenceStore(truncation_threshold=0.3)
        store.update([
            (R("a"), R("x"), 0.3),
            (R("a"), R("y"), 0.2999999),
            (R("b"), R("z"), 0.9),
        ])
        assert set(store.items()) == {
            (R("a"), R("x"), 0.3),
            (R("b"), R("z"), 0.9),
        }

    def test_tie_break_independent_of_merge_order(self):
        # Two shards both scoring `a` with the same probability against
        # different counterparts: whichever shard order the parallel
        # merge applies, the assignment must pick the same counterpart.
        entries = [
            (R("a"), R("z"), 0.5),
            (R("a"), R("y"), 0.5),
            (R("b"), R("y"), 0.5),
        ]
        assignments = []
        for ordering in (entries, list(reversed(entries))):
            store = EquivalenceStore(truncation_threshold=0.3)
            store.update(ordering)
            assignments.append(
                (store.maximal_assignment(), store.maximal_assignment(reverse=True))
            )
        assert assignments[0] == assignments[1]
        forward, backward = assignments[0]
        assert forward[R("a")] == (R("y"), 0.5)  # lexicographic tie-break
        assert backward[R("y")] == (R("a"), 0.5)

    def test_boundary_scores_tie_break_at_threshold(self):
        store = EquivalenceStore(truncation_threshold=0.5)
        store.update([(R("a"), R("x"), 0.5), (R("a"), R("w"), 0.5)])
        assert store.maximal_assignment()[R("a")] == (R("w"), 0.5)


class TestMaximalAssignment:
    def test_picks_best(self):
        store = EquivalenceStore()
        store.set(R("a"), R("x"), 0.5)
        store.set(R("a"), R("y"), 0.9)
        assert store.maximal_assignment()[R("a")] == (R("y"), 0.9)

    def test_reverse_direction(self):
        store = EquivalenceStore()
        store.set(R("a"), R("x"), 0.5)
        store.set(R("b"), R("x"), 0.9)
        assert store.maximal_assignment(reverse=True)[R("x")] == (R("b"), 0.9)

    def test_tie_breaks_deterministically(self):
        store = EquivalenceStore()
        store.set(R("a"), R("z"), 0.5)
        store.set(R("a"), R("y"), 0.5)
        # lexicographically smaller name wins on exact ties
        assert store.maximal_assignment()[R("a")] == (R("y"), 0.5)

    def test_assignment_change(self):
        old = {R("a"): (R("x"), 0.5), R("b"): (R("y"), 0.5)}
        new = {R("a"): (R("x"), 0.9), R("b"): (R("z"), 0.5)}
        assert EquivalenceStore.assignment_change(old, new) == 0.5

    def test_assignment_change_appearance_counts(self):
        old = {}
        new = {R("a"): (R("x"), 0.5)}
        assert EquivalenceStore.assignment_change(old, new) == 1.0

    def test_assignment_change_empty(self):
        assert EquivalenceStore.assignment_change({}, {}) == 0.0

    def test_restricted_to_maximal_keeps_both_sides(self):
        store = EquivalenceStore()
        store.set(R("a"), R("x"), 0.9)
        store.set(R("a"), R("y"), 0.5)
        store.set(R("b"), R("y"), 0.4)
        store.set(R("b"), R("x"), 0.3)
        restricted = store.restricted_to_maximal()
        assert restricted.get(R("a"), R("x")) == 0.9
        # a->y survives: it is y's best incoming match
        assert restricted.get(R("a"), R("y")) == 0.5
        # b->y survives: it is b's best outgoing match
        assert restricted.get(R("b"), R("y")) == 0.4
        # b->x is maximal for neither side: dropped
        assert restricted.get(R("b"), R("x")) == 0.0

    def test_restricted_to_maximal_from_known_assignments(self):
        """Handing in the store's own assignments gives the same store,
        rows in the same order (the cold loop passes the ones it has)."""
        store = EquivalenceStore()
        store.set(R("a"), R("x"), 0.9)
        store.set(R("a"), R("y"), 0.5)
        store.set(R("b"), R("y"), 0.4)
        assignments = (store.maximal_assignment(), store.maximal_assignment(reverse=True))
        reused = store.restricted_to_maximal(assignments)
        fresh = store.restricted_to_maximal()
        assert list(reused.items()) == list(fresh.items())
        assert [(right, list(row.items())) for right, row in reused.rows(reverse=True)] == [
            (right, list(row.items())) for right, row in fresh.rows(reverse=True)
        ]

    def test_repr(self):
        assert "0 pairs" in repr(EquivalenceStore())


class TestSubsumptionMatrix:
    def test_set_get(self):
        matrix = SubsumptionMatrix()
        matrix.set(Relation("r"), Relation("s"), 0.7)
        assert matrix.get(Relation("r"), Relation("s")) == 0.7

    def test_default(self):
        matrix = SubsumptionMatrix(default=0.1)
        assert matrix.get(Relation("r"), Relation("s")) == 0.1

    def test_bootstrap(self):
        matrix = SubsumptionMatrix.bootstrap(0.1)
        assert matrix.get(Relation("anything"), Relation("else")) == 0.1
        assert len(matrix) == 0

    def test_explicit_beats_default(self):
        matrix = SubsumptionMatrix(default=0.1)
        matrix.set(Relation("r"), Relation("s"), 0.7)
        assert matrix.get(Relation("r"), Relation("s")) == 0.7
        assert matrix.get(Relation("r"), Relation("t")) == 0.1

    def test_sub_default(self):
        matrix = SubsumptionMatrix()
        matrix.set_sub_default(Relation("r"), 0.1)
        assert matrix.get(Relation("r"), Relation("s")) == 0.1
        assert matrix.get(Relation("q"), Relation("s")) == 0.0

    def test_sub_default_overridden_by_entry(self):
        matrix = SubsumptionMatrix()
        matrix.set_sub_default(Relation("r"), 0.1)
        matrix.set(Relation("r"), Relation("s"), 0.7)
        assert matrix.get(Relation("r"), Relation("s")) == 0.7
        assert matrix.get(Relation("r"), Relation("t")) == 0.1

    def test_zero_removes_entry(self):
        matrix = SubsumptionMatrix()
        matrix.set(Relation("r"), Relation("s"), 0.7)
        matrix.set(Relation("r"), Relation("s"), 0.0)
        assert len(matrix) == 0

    def test_reverse_index(self):
        matrix = SubsumptionMatrix()
        matrix.set(Relation("r"), Relation("s"), 0.7)
        matrix.set(Relation("q"), Relation("s"), 0.4)
        assert dict(matrix.subs_of(Relation("s"))) == {
            Relation("r"): 0.7,
            Relation("q"): 0.4,
        }
        assert dict(matrix.supers_of(Relation("r"))) == {Relation("s"): 0.7}

    def test_best_super(self):
        matrix = SubsumptionMatrix()
        matrix.set(Relation("r"), Relation("s"), 0.7)
        matrix.set(Relation("r"), Relation("t"), 0.9)
        assert matrix.best_super(Relation("r")) == (Relation("t"), 0.9)
        assert matrix.best_super(Relation("unknown")) is None

    def test_pairs_above_sorted(self):
        matrix = SubsumptionMatrix()
        matrix.set(Relation("a"), Relation("x"), 0.3)
        matrix.set(Relation("b"), Relation("y"), 0.9)
        matrix.set(Relation("c"), Relation("z"), 0.6)
        pairs = matrix.pairs_above(0.5)
        assert [p[2] for p in pairs] == [0.9, 0.6]

    def test_subs_with_match_above(self):
        matrix = SubsumptionMatrix()
        matrix.set(Resource("c1"), Resource("d1"), 0.3)
        matrix.set(Resource("c1"), Resource("d2"), 0.8)
        matrix.set(Resource("c2"), Resource("d1"), 0.4)
        assert matrix.subs_with_match_above(0.5) == 1
        assert matrix.subs_with_match_above(0.3) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SubsumptionMatrix(default=1.5)
        matrix = SubsumptionMatrix()
        with pytest.raises(ValueError):
            matrix.set(Relation("r"), Relation("s"), -0.1)
        with pytest.raises(ValueError):
            matrix.set_sub_default(Relation("r"), 2.0)
