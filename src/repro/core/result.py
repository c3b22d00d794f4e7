"""Result objects of an alignment run.

An :class:`AlignmentResult` bundles everything Section 6 evaluates:

* final instance equivalences and their maximal assignments (both
  directions),
* relation-inclusion matrices in both directions (Tables 3–5 report
  them separately as ``yago ⊆ DBp`` and ``DBp ⊆ yago``),
* class-inclusion matrices in both directions,
* per-iteration snapshots carrying the maximal assignment and relation
  matrices of each iteration, which is what the per-iteration rows of
  Tables 3 and 5 are computed from.

Snapshots store assignment state *frontier-proportionally*: each
:class:`IterationSnapshot` holds only the delta of the maximal
assignments against the previous pass (the chain head additionally
carries the assignments the run started from), and the
``assignment12``/``assignment21`` properties reconstruct the full
per-pass assignment by replaying the chain.  A cold run starts from
empty assignments, so its first snapshot's delta is the full
first-pass assignment — same cost as before — while a warm-start run
(whose passes move only a small dirty frontier) stores O(changed)
entries per pass instead of O(matched) copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..rdf.terms import Relation, Resource
from .matrix import SubsumptionMatrix
from .store import EquivalenceStore

#: Maximal assignment: instance → (best counterpart, probability).
Assignment = Dict[Resource, Tuple[Resource, float]]

#: One pass's change to a maximal assignment: instance → its new
#: (counterpart, probability), or ``None`` when the instance dropped
#: out of the assignment entirely.
AssignmentDelta = Dict[Resource, Optional[Tuple[Resource, float]]]


def assignment_delta(previous: Assignment, current: Assignment) -> AssignmentDelta:
    """The delta that turns ``previous`` into ``current``.

    Inverse of :func:`apply_assignment_delta`:
    ``apply_assignment_delta(dict(previous), assignment_delta(previous,
    current)) == current`` for any two assignments.
    """
    delta: AssignmentDelta = {}
    for entity, match in current.items():
        if previous.get(entity) != match:
            delta[entity] = match
    for entity in previous:
        if entity not in current:
            delta[entity] = None
    return delta


def apply_assignment_delta(assignment: Assignment, delta: AssignmentDelta) -> Assignment:
    """Apply one pass's delta to ``assignment`` in place (and return it)."""
    for entity, match in delta.items():
        if match is None:
            assignment.pop(entity, None)
        else:
            assignment[entity] = match
    return assignment


def iter_pair_changes(
    changes: AssignmentDelta, previous: Assignment
) -> Iterable[Tuple[Resource, Optional[Tuple[Resource, float]], Optional[Tuple[Resource, float]]]]:
    """``(entity, old match, new match)`` rows of one net change log.

    ``previous`` must be the assignment *before* ``changes`` applied —
    the convention every consumer of the change log shares (change
    events, the query index, the state digest): the old side of a row
    comes from the pre-delta assignment, the new side from the delta
    itself, and an entity absent from either side reads as ``None``.
    """
    for entity, match in changes.items():
        yield entity, previous.get(entity), match


def merge_assignment_deltas(
    deltas: Iterable[AssignmentDelta], base: Assignment
) -> AssignmentDelta:
    """Collapse consecutive per-pass deltas into one *net* delta.

    Later passes win per entity, and entities whose final value equals
    what ``base`` already held (a change that reverted mid-run) drop
    out — the result is exactly the change log a downstream consumer
    (secondary query indexes, change subscriptions) must apply to move
    from the pre-run assignment to the post-run one, computed in
    O(total changes), never O(matched).
    """
    merged: AssignmentDelta = {}
    for delta in deltas:
        merged.update(delta)
    return {
        entity: match
        for entity, match in merged.items()
        if base.get(entity) != match
    }


@dataclass
class IterationSnapshot:
    """State captured at the end of one fixpoint iteration.

    Read the full per-pass assignments back through the
    ``assignment12`` / ``assignment21`` properties; the raw delta fields
    exist for introspection and for tests asserting the O(changed)
    storage bound.
    """

    #: 1-based iteration number.
    index: int
    #: Wall-clock seconds spent in this iteration.
    duration_seconds: float
    #: Fraction of instances whose maximal assignment changed relative
    #: to the previous iteration (the "Change to prev." column of
    #: Tables 3 and 5); ``None`` for the first iteration.
    change_fraction: Optional[float]
    #: Number of stored positive equivalences after this iteration.
    num_equivalences: int
    #: Changes of the left → right maximal assignment relative to the
    #: previous pass (or to ``base12`` on the chain head).
    assignment12_delta: AssignmentDelta
    #: Changes of the right → left maximal assignment.
    assignment21_delta: AssignmentDelta
    #: Relation inclusions left ⊆ right computed in this iteration.
    relations12: SubsumptionMatrix[Relation]
    #: Relation inclusions right ⊆ left computed in this iteration.
    relations21: SubsumptionMatrix[Relation]
    #: The previous pass's snapshot (``None`` on the chain head).
    previous: Optional["IterationSnapshot"] = field(default=None, repr=False)
    #: Assignments the chain starts from; only read on the head
    #: (empty for cold runs, the pre-delta assignment for warm runs).
    base12: Assignment = field(default_factory=dict, repr=False)
    base21: Assignment = field(default_factory=dict, repr=False)

    def _reconstruct(self, forward: bool) -> Assignment:
        chain: List["IterationSnapshot"] = []
        node: Optional["IterationSnapshot"] = self
        while node is not None:
            chain.append(node)
            node = node.previous
        chain.reverse()
        head = chain[0]
        assignment = dict(head.base12 if forward else head.base21)
        for snapshot in chain:
            apply_assignment_delta(
                assignment,
                snapshot.assignment12_delta if forward else snapshot.assignment21_delta,
            )
        return assignment

    @property
    def assignment12(self) -> Assignment:
        """Maximal assignment, left ontology → right ontology.

        Reconstructed by replaying the delta chain on *every* access —
        O(matched + changes), not a stored dict — so callers that read
        it repeatedly (e.g. inside per-entity loops) should hoist it
        into a local first.
        """
        return self._reconstruct(forward=True)

    @property
    def assignment21(self) -> Assignment:
        """Maximal assignment, right ontology → left ontology (same
        access cost caveat as :attr:`assignment12`)."""
        return self._reconstruct(forward=False)


@dataclass
class AlignmentResult:
    """Complete output of a PARIS run."""

    #: Name of the left ontology.
    left_name: str
    #: Name of the right ontology.
    right_name: str
    #: Final instance-equivalence store.
    instances: EquivalenceStore
    #: Final maximal assignment, left → right.
    assignment12: Assignment
    #: Final maximal assignment, right → left.
    assignment21: Assignment
    #: Final relation inclusions, left ⊆ right.
    relations12: SubsumptionMatrix[Relation]
    #: Final relation inclusions, right ⊆ left.
    relations21: SubsumptionMatrix[Relation]
    #: Class inclusions, left ⊆ right (computed after the fixpoint).
    classes12: SubsumptionMatrix[Resource]
    #: Class inclusions, right ⊆ left.
    classes21: SubsumptionMatrix[Resource]
    #: Whether the run stopped because the change criterion was met
    #: (as opposed to hitting the iteration cap).
    converged: bool
    #: Per-iteration snapshots (empty if ``keep_snapshots`` was off).
    iterations: List[IterationSnapshot] = field(default_factory=list)
    #: Store/view entry writes performed by the warm-start fixpoint
    #: (0 for cold runs) — the O(frontier) work metric the incremental
    #: microbenchmark asserts against the store size.
    pairs_touched: int = 0

    @property
    def num_iterations(self) -> int:
        """Number of fixpoint iterations that ran."""
        return len(self.iterations)

    def net_assignment_changes(
        self,
    ) -> Optional[Tuple[AssignmentDelta, AssignmentDelta]]:
        """The run's net change log for both maximal assignments.

        Merges the per-iteration snapshot deltas against the chain
        head's base assignment (:func:`merge_assignment_deltas`), so a
        warm run costs O(changes) — the frontier — not O(matched).  An
        entity maps to its new ``(counterpart, probability)`` or
        ``None`` when it dropped out of the assignment.  Returns
        ``None`` when the run kept no snapshots (``keep_snapshots``
        off); callers then diff the full assignments themselves.
        """
        if not self.iterations:
            return None
        head = self.iterations[0]
        return (
            merge_assignment_deltas(
                (snap.assignment12_delta for snap in self.iterations), head.base12
            ),
            merge_assignment_deltas(
                (snap.assignment21_delta for snap in self.iterations), head.base21
            ),
        )

    def instance_pairs(self, threshold: float = 0.0) -> List[Tuple[Resource, Resource, float]]:
        """Maximal-assignment pairs with probability ≥ ``threshold``.

        This is the output evaluated against gold standards in
        Section 6.1 ("For instances, we considered only the assignment
        with the maximal score").
        """
        return [
            (left, right, probability)
            for left, (right, probability) in self.assignment12.items()
            if probability >= threshold
        ]

    def relation_pairs(
        self, threshold: float = 0.0, reverse: bool = False
    ) -> List[Tuple[Relation, Relation, float]]:
        """Maximally-assigned relation inclusions with score ≥ ``threshold``.

        Section 6.4: "We consider only the maximally assigned relation,
        because the relations do not form a hierarchy."
        """
        matrix = self.relations21 if reverse else self.relations12
        pairs: List[Tuple[Relation, Relation, float]] = []
        for sub in {sub for sub, _sup, _p in matrix.items()}:
            best = matrix.best_super(sub)
            if best is not None and best[1] >= threshold:
                pairs.append((sub, best[0], best[1]))
        pairs.sort(key=lambda entry: -entry[2])
        return pairs

    def class_pairs(
        self, threshold: float = 0.0, reverse: bool = False
    ) -> List[Tuple[Resource, Resource, float]]:
        """All class inclusions with score ≥ ``threshold`` (best first).

        Unlike relations, classes keep *all* assignments above the
        threshold: "paris assigns one class of one ontology to multiple
        classes in the taxonomy of the other ontology" (Section 6.4).
        """
        matrix = self.classes21 if reverse else self.classes12
        return matrix.pairs_above(threshold)

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        status = "converged" if self.converged else "stopped at iteration cap"
        return (
            f"PARIS alignment {self.left_name} <-> {self.right_name}: "
            f"{self.num_iterations} iterations ({status}), "
            f"{len(self.assignment12)} instances matched left-to-right, "
            f"{len(self.assignment21)} right-to-left, "
            f"{len(self.relations12)} relation inclusions left-in-right, "
            f"{len(self.relations21)} right-in-left, "
            f"{len(self.classes12)} class inclusions left-in-right, "
            f"{len(self.classes21)} right-in-left."
        )
