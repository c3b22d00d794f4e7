"""End-to-end tests of the ParisAligner fixpoint driver."""

import pytest

from repro import (
    AlignmentResult,
    NormalizedIdentitySimilarity,
    OntologyBuilder,
    ParisAligner,
    ParisConfig,
    align,
)
from repro.core.functionality import FunctionalityDefinition
from repro.rdf.terms import Relation, Resource


class TestBasicAlignment:
    def test_two_person_pair(self, tiny_pair):
        left, right = tiny_pair
        result = align(left, right)
        assert result.assignment12[Resource("p1")][0] == Resource("x9")
        assert result.assignment12[Resource("p2")][0] == Resource("x7")

    def test_relation_alignment_found(self, tiny_pair):
        left, right = tiny_pair
        result = align(left, right)
        assert result.relations12.get(Relation("bornIn"), Relation("birthPlace")) > 0.5
        assert result.relations12.get(Relation("name"), Relation("label")) > 0.5

    def test_class_alignment_found(self, tiny_pair):
        left, right = tiny_pair
        result = align(left, right)
        assert result.classes12.get(Resource("L_Singer"), Resource("R_Musician")) > 0.9
        assert result.classes21.get(Resource("R_Musician"), Resource("L_Singer")) > 0.9

    def test_converges(self, tiny_pair):
        left, right = tiny_pair
        result = align(left, right)
        assert result.converged
        assert result.num_iterations <= 4

    def test_result_summary(self, tiny_pair):
        left, right = tiny_pair
        summary = align(left, right).summary()
        assert "left" in summary and "right" in summary
        assert "converged" in summary

    def test_instance_pairs_thresholded(self, tiny_pair):
        left, right = tiny_pair
        result = align(left, right)
        assert len(result.instance_pairs(threshold=0.5)) == 2
        assert len(result.instance_pairs(threshold=1.1)) == 0

    def test_relation_pairs_are_maximal_only(self, tiny_pair):
        left, right = tiny_pair
        result = align(left, right)
        subs = [str(sub) for sub, _sup, _score in result.relation_pairs()]
        assert len(subs) == len(set(subs))


class TestEdgeCases:
    def test_empty_ontologies(self):
        left = OntologyBuilder("left").build()
        right = OntologyBuilder("right").build()
        result = align(left, right)
        assert isinstance(result, AlignmentResult)
        assert len(result.assignment12) == 0

    def test_no_shared_literals(self):
        left = OntologyBuilder("left").value("a", "name", "Alpha").build()
        right = OntologyBuilder("right").value("x", "label", "Omega").build()
        result = align(left, right)
        assert len(result.assignment12) == 0

    def test_same_name_rejected(self):
        onto = OntologyBuilder("same").build()
        other = OntologyBuilder("same").build()
        with pytest.raises(ValueError):
            ParisAligner(onto, other)

    def test_one_empty_side(self, tiny_pair):
        left, _right = tiny_pair
        result = align(left, OntologyBuilder("empty").build())
        assert len(result.assignment12) == 0

    def test_literal_heavy_asymmetric_sizes(self):
        left = OntologyBuilder("left").value("a", "n", "shared").build()
        builder = OntologyBuilder("right")
        for i in range(20):
            builder.value(f"x{i}", "m", f"val{i}")
        builder.value("x20", "m", "shared")
        result = align(left, builder.build())
        assert result.assignment12[Resource("a")][0] == Resource("x20")


class TestConfigOptions:
    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            ParisConfig(theta=0.0)
        with pytest.raises(ValueError):
            ParisConfig(theta=1.0)

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            ParisConfig(max_iterations=0)

    def test_invalid_dampening(self):
        with pytest.raises(ValueError):
            ParisConfig(dampening=1.0)

    def test_invalid_functionality(self):
        with pytest.raises(TypeError):
            ParisConfig(functionality="harmonic")

    def test_snapshots_disabled(self, tiny_pair):
        left, right = tiny_pair
        result = align(left, right, ParisConfig(keep_snapshots=False))
        assert result.iterations == []
        assert len(result.assignment12) == 2

    def test_max_iterations_respected(self, tiny_pair):
        left, right = tiny_pair
        result = align(
            left, right, ParisConfig(max_iterations=1, keep_snapshots=True)
        )
        assert result.num_iterations == 1
        assert not result.converged

    def test_dampening_still_aligns(self, tiny_pair):
        left, right = tiny_pair
        result = align(left, right, ParisConfig(dampening=0.5, max_iterations=6))
        assert result.assignment12[Resource("p1")][0] == Resource("x9")

    def test_alternative_functionality_definition(self, tiny_pair):
        left, right = tiny_pair
        config = ParisConfig(functionality=FunctionalityDefinition.ARITHMETIC_MEAN)
        result = align(left, right, config)
        assert result.assignment12[Resource("p1")][0] == Resource("x9")

    def test_custom_literal_similarity(self):
        left = OntologyBuilder("left").value("a", "phone", "213/467-1108").build()
        right = OntologyBuilder("right").value("x", "tel", "213-467-1108").build()
        strict = align(left, right)
        assert len(strict.assignment12) == 0
        relaxed = align(
            left,
            right,
            ParisConfig(literal_similarity=NormalizedIdentitySimilarity()),
        )
        assert relaxed.assignment12[Resource("a")][0] == Resource("x")

    def test_negative_evidence_kills_contradicted_match(self):
        left = (
            OntologyBuilder("left")
            .value("a", "name", "Kim")
            .value("a", "born", "1950-01-01")
            .build()
        )
        right = (
            OntologyBuilder("right")
            .value("x", "label", "Kim")
            .value("x", "birth", "1970-05-05")
            .value("y", "label", "Lee")
            .value("y", "birth", "1950-01-01")
            .build()
        )
        positive_only = align(left, right, ParisConfig(max_iterations=5))
        with_negative = align(
            left, right, ParisConfig(max_iterations=5, use_negative_evidence=True)
        )
        score_positive = with_negative.instances.get(Resource("a"), Resource("x"))
        assert score_positive <= positive_only.instances.get(Resource("a"), Resource("x"))

    def test_unrestricted_assignment_mode(self, tiny_pair):
        left, right = tiny_pair
        result = align(
            left, right, ParisConfig(restrict_to_maximal_assignment=False)
        )
        assert result.assignment12[Resource("p1")][0] == Resource("x9")


class TestDeterminism:
    def test_same_inputs_same_outputs(self, tiny_pair):
        left, right = tiny_pair
        first = align(left, right)
        second = align(left, right)
        assert {
            (l.name, r.name, round(p, 12)) for l, (r, p) in first.assignment12.items()
        } == {
            (l.name, r.name, round(p, 12)) for l, (r, p) in second.assignment12.items()
        }
        assert set(
            (str(a), str(b), round(p, 12)) for a, b, p in first.relations12.items()
        ) == set(
            (str(a), str(b), round(p, 12)) for a, b, p in second.relations12.items()
        )


class TestSnapshots:
    def test_snapshot_contents(self, tiny_pair):
        left, right = tiny_pair
        result = align(left, right)
        assert result.iterations[0].index == 1
        assert result.iterations[0].change_fraction is None
        for snapshot in result.iterations[1:]:
            assert snapshot.change_fraction is not None
        for snapshot in result.iterations:
            assert snapshot.duration_seconds >= 0
            assert snapshot.num_equivalences >= 0

    def test_capture_reconstructs_old_behaviour_exactly(self):
        """Equality against the old full-copy behaviour: a chain built
        from known full assignments must hand back exactly those
        assignments through the reconstruction properties."""
        from repro.core.matrix import SubsumptionMatrix
        from repro.core.result import IterationSnapshot, assignment_delta

        a, b, c = Resource("a"), Resource("b"), Resource("c")
        x, y = Resource("x"), Resource("y")
        passes = [
            ({a: (x, 0.5)}, {x: (a, 0.5)}),
            ({a: (y, 0.8), b: (x, 0.4)}, {x: (b, 0.4), y: (a, 0.8)}),
            ({b: (x, 0.4), c: (y, 0.9)}, {x: (b, 0.4), y: (c, 0.9)}),  # a dropped
        ]
        snapshots = []
        previous12, previous21 = {}, {}
        for index, (assignment12, assignment21) in enumerate(passes, start=1):
            snapshots.append(
                IterationSnapshot(
                    index=index,
                    duration_seconds=0.0,
                    change_fraction=None,
                    num_equivalences=len(assignment12),
                    assignment12_delta=assignment_delta(previous12, assignment12),
                    assignment21_delta=assignment_delta(previous21, assignment21),
                    relations12=SubsumptionMatrix(),
                    relations21=SubsumptionMatrix(),
                    previous=snapshots[-1] if snapshots else None,
                )
            )
            previous12, previous21 = assignment12, assignment21
        for snapshot, (assignment12, assignment21) in zip(snapshots, passes):
            assert snapshot.assignment12 == assignment12
            assert snapshot.assignment21 == assignment21
        # The storage really is the delta, not a copy: the unchanged
        # entry (b → x) of pass 3 is not in its delta.
        assert b not in snapshots[2].assignment12_delta
        assert snapshots[2].assignment12_delta[a] is None  # drop recorded

    def test_capture_from_nonempty_base(self):
        """A warm chain starts from the pre-delta assignment: the head
        carries it as base and reconstruction includes it."""
        from repro.core.matrix import SubsumptionMatrix
        from repro.core.result import IterationSnapshot, assignment_delta

        base12 = {Resource("a"): (Resource("x"), 0.7)}
        base21 = {Resource("x"): (Resource("a"), 0.7)}
        current12 = {**base12, Resource("b"): (Resource("y"), 0.6)}
        current21 = {**base21, Resource("y"): (Resource("b"), 0.6)}
        head = IterationSnapshot(
            index=1,
            duration_seconds=0.0,
            change_fraction=None,
            num_equivalences=2,
            assignment12_delta=assignment_delta(base12, current12),
            assignment21_delta=assignment_delta(base21, current21),
            relations12=SubsumptionMatrix(),
            relations21=SubsumptionMatrix(),
            base12=base12,
            base21=base21,
        )
        assert head.assignment12 == current12
        assert head.assignment21 == current21
        # Only the new entry is in the delta; the base entry is not.
        assert list(head.assignment12_delta) == [Resource("b")]

    def test_cold_run_snapshot_chain_is_consistent(self, tiny_pair):
        """Reconstruction agrees with everything the loop computed from
        the live assignments: the recorded change fractions and the
        final result's assignments."""
        from repro.core.store import EquivalenceStore

        left, right = tiny_pair
        result = align(left, right)
        assert len(result.iterations) >= 2
        assert result.iterations[-1].assignment12 == result.assignment12
        assert result.iterations[-1].assignment21 == result.assignment21
        for earlier, later in zip(result.iterations, result.iterations[1:]):
            assert later.change_fraction == pytest.approx(
                EquivalenceStore.assignment_change(
                    earlier.assignment12, later.assignment12
                )
            )

    def test_theta_invariance_of_final_assignment(self, tiny_pair):
        """Section 6.3: the choice of θ does not affect the result."""
        left, right = tiny_pair
        assignments = []
        for theta in (0.01, 0.05, 0.1, 0.2):
            result = align(left, right, ParisConfig(theta=theta))
            assignments.append(
                {(l.name, r.name) for l, (r, _p) in result.assignment12.items()}
            )
        assert all(a == assignments[0] for a in assignments)


class ScriptedState:
    """A pass state whose answers are scripted: the largest score
    change, the assignment change fraction, an assignment label (equal
    labels mean equal targets) and the score-level cycle verdict."""

    def __init__(self, difference=1.0, change=1.0, targets=None, cycled=False):
        self.difference = difference
        self.change = change
        self.targets = targets if targets is not None else object()
        self.cycled = cycled

    def __len__(self):
        return 0

    def assignments(self):
        return {}, {}

    def assignment_deltas(self, previous):
        return {}, {}

    def max_difference(self, previous):
        return self.difference

    def change_from(self, previous):
        return self.change

    def same_targets(self, other):
        return self.targets is other.targets

    def scores_cycled(self, previous, tolerance):
        return self.cycled


class TestStopPolicy:
    """The shared fixpoint loop stops where the config says, on scripted
    pass states: one exit per test, at the expected iteration."""

    @staticmethod
    def run(config, script, warm=False, start=None):
        from repro.rdf.ontology import Ontology

        aligner = ParisAligner(Ontology("left"), Ontology("right"), config)
        states = iter(script)
        _state, converged, snapshots = aligner._fixpoint(
            ScriptedState() if start is None else start,
            (("pass.scripted", lambda state, _span: next(states)),),
            lambda: (None, None),
            warm=warm,
        )
        return len(snapshots), converged

    def test_change_fraction_under_threshold(self):
        # the first pass has nothing to compare with, whatever it reads
        script = [ScriptedState(change=0.0), ScriptedState(change=0.5), ScriptedState(change=0.005)]
        assert self.run(ParisConfig(), script) == (3, True)

    def test_assignment_period_two(self):
        first, second = object(), object()
        script = [ScriptedState(targets=t) for t in (first, second, first, second)]
        assert self.run(ParisConfig(max_iterations=4), script) == (3, True)
        script = [ScriptedState(targets=t) for t in (first, second, first, second)]
        assert self.run(ParisConfig(max_iterations=4, detect_cycles=False), script) == (4, False)
        # the second pass is never compared with the state before the first
        script = [ScriptedState(targets=t) for t in (first, second, object())]
        start = ScriptedState(targets=second)
        assert self.run(ParisConfig(max_iterations=3), script, start=start) == (3, False)

    def test_stationarity_suspends_cycle_checks(self):
        first, second = object(), object()
        script = [
            ScriptedState(difference=0.0, change=0.0, targets=first),
            ScriptedState(difference=0.5, change=0.0, targets=second),
            ScriptedState(difference=0.2, change=0.0, targets=first),
            ScriptedState(difference=1e-13, change=0.0, targets=second),
        ]
        config = ParisConfig(score_stationarity=True, max_iterations=5)
        assert self.run(config, script) == (4, True)

    def test_warm_stationarity(self):
        script = [ScriptedState(difference=0.5), ScriptedState(difference=0.0)]
        assert self.run(ParisConfig(), script, warm=True) == (2, True)

    def test_warm_score_period_two(self):
        script = [ScriptedState(difference=0.5)] + [ScriptedState(difference=0.1, cycled=True)] * 3
        assert self.run(ParisConfig(), script, warm=True) == (2, True)
        config = ParisConfig(detect_cycles=False, warm_max_iterations=4)
        script = [ScriptedState(difference=0.5)] + [ScriptedState(difference=0.1, cycled=True)] * 3
        assert self.run(config, script, warm=True) == (4, False)

    def test_warm_stall_window(self):
        from repro.core.aligner import WARM_STALL_WINDOW

        script = [ScriptedState(difference=0.5), ScriptedState(difference=0.2)] + [
            ScriptedState(difference=d) for d in [0.3, 0.2] * WARM_STALL_WINDOW
        ]
        # the minimum 0.2 of pass 2 is never beaten: no new minimum for
        # WARM_STALL_WINDOW passes after it
        assert self.run(ParisConfig(), script, warm=True) == (2 + WARM_STALL_WINDOW, True)
