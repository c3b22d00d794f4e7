"""What one fixpoint pass hands the next (Sections 4.2, 5.1 and 5.2).

The fixpoint loop (:meth:`repro.core.aligner.ParisAligner._fixpoint`)
alternates instance and relation passes.  Between them it asks the
fresh instance equivalences for the two maximal assignments
(Section 4.2), the change fraction of the convergence test
(Section 6.1), the period-2 cycle check, the stationarity difference,
dampening, and the restricted view the next pass reads (Section 5.2).
It asks these questions of a *pass state*, on one of three routes:

* :class:`KernelPassState` — the kernel route.  The state is the
  ``(x, x', p)`` id arrays :meth:`VectorizedKernel.score_ids` emits, in
  emission order (dampening appends the previous pass's other pairs),
  and every answer is an array computation.  Dict objects are built
  once, at the end of the run (the result's store and both
  assignments), except the per-pass snapshot deltas, which hold only
  the owners that changed.
* :class:`StorePassState` — the dict route (negative evidence), an
  :class:`EquivalenceStore`.  It is the reference the kernel route is
  held bit-identical to (``tests/test_vectorized.py``).
* :class:`FrontierPassState` — the warm route
  (:meth:`~repro.core.aligner.ParisAligner.warm_align`), which
  re-scores only a dirty frontier of rows.  The working store is folded
  in place each pass, so the state keeps what its pass moved: the view
  change log and the assignment owners the
  :class:`~repro.core.incremental.RestrictedViewMaintainer` moved.
  Every answer comes from those logs, in O(frontier).

The cold routes order everything as the dict store orders it: entries in
the order the store receives them, assignments in the order
:meth:`EquivalenceStore.maximal_assignment` lists them (owners by first
appearance), and view rows in the insertion order of
:meth:`EquivalenceStore.restricted_to_maximal`.  Later passes fold
floats in candidate order, so these orders decide the scores.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..obs.trace import span
from ..rdf.terms import Resource
from .incremental import RestrictedViewMaintainer
from .result import Assignment, AssignmentDelta, assignment_delta
from .store import EquivalenceStore
from .vectorized import KernelView, VectorizedKernel, _group_starts


class StorePassState:
    """One pass's equivalences on the dict route."""

    def __init__(self, store: EquivalenceStore) -> None:
        self.store = store
        self._assignments = None

    def __len__(self) -> int:
        return len(self.store)

    def assignments(self) -> Tuple[Assignment, Assignment]:
        """Both maximal assignments (left → right, right → left)."""
        if self._assignments is None:
            store = self.store
            self._assignments = (
                store.maximal_assignment(),
                store.maximal_assignment(reverse=True),
            )
        return self._assignments

    def dampened(self, previous: "StorePassState", factor: float) -> "StorePassState":
        """Blend with the previous estimate (Section 5.1's dampening):
        this pass's pairs in order, then the previous pass's other pairs
        in order, each kept at or above the truncation threshold."""
        if factor <= 0.0:
            return self
        old, new = previous.store, self.store
        blended = EquivalenceStore(new.truncation_threshold)
        for left, right, probability in new.items():
            blended.set(
                left, right, factor * old.get(left, right) + (1.0 - factor) * probability
            )
        for left, right, probability in old.items():
            if new.get(left, right) == 0.0:
                blended.set(left, right, factor * probability)
        return StorePassState(blended)

    def max_difference(self, other: "StorePassState") -> float:
        return self.store.max_difference(other.store)

    def change_from(self, other: "StorePassState") -> float:
        """Fraction of left instances whose assigned counterpart changed."""
        return EquivalenceStore.assignment_change(other.assignments()[0], self.assignments()[0])

    def same_targets(self, other: "StorePassState") -> bool:
        """Whether both left → right assignments pick the same counterparts."""
        first, second = self.assignments()[0], other.assignments()[0]
        return first.keys() == second.keys() and all(
            first[key][0] == second[key][0] for key in first
        )

    def assignment_deltas(
        self, previous: "StorePassState"
    ) -> Tuple[AssignmentDelta, AssignmentDelta]:
        """Both assignments' changes since ``previous`` (snapshot deltas)."""
        (old12, old21), (new12, new21) = previous.assignments(), self.assignments()
        return assignment_delta(old12, new12), assignment_delta(old21, new21)

    def view(self, restrict: bool) -> EquivalenceStore:
        """The store the next pass reads (restricted or whole)."""
        return self.store.restricted_to_maximal(self.assignments()) if restrict else self.store

    def to_store(self) -> EquivalenceStore:
        return self.store


def _maximal(owner, other, probs, ranks):
    """Entry index of each owner's best counterpart, owners in order of
    first appearance: the highest probability, exact ties to the
    smallest counterpart name (:func:`~repro.core.store.best_counterpart`)."""
    if len(owner) == 0:
        return np.empty(0, dtype=np.int64)
    # rows by owner, each in entry order (so a row starts at its first entry)
    order = np.argsort(owner, kind="stable")
    starts = _group_starts(owner[order])
    row = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(order))))
    row_probs = probs[order]
    tied = row_probs == np.maximum.reduceat(row_probs, starts)[row]
    row_ranks = np.where(tied, ranks[other[order]], len(ranks))
    best = row_ranks == np.minimum.reduceat(row_ranks, starts)[row]
    return order[best][np.argsort(order[starts])]


def _lookup(keys, queries):
    """Index of each query in ``keys`` (unique), -1 where absent."""
    if len(keys) == 0:
        return np.full(len(queries), -1, dtype=np.int64)
    order = np.argsort(keys)
    found = order[np.minimum(np.searchsorted(keys[order], queries), len(keys) - 1)]
    return np.where(keys[found] == queries, found, -1)


class KernelPassState:
    """One pass's equivalences on the kernel route: pairs
    ``(x[i], xp[i], p[i])`` of kernel node ids, in the order the dict
    route's store receives them (emission order for a fresh pass).  The
    store's rows, assignments and views all follow from that order."""

    def __init__(self, kernel: VectorizedKernel, x, xp, p, threshold: float) -> None:
        self.kernel = kernel
        self.x = x
        self.xp = xp
        self.p = p
        self.threshold = threshold
        #: Per direction: (best entry per owner in first-appearance
        #: order, dense target id per owner or -1, dense probability).
        self._best = {}

    @classmethod
    def empty(cls, kernel: VectorizedKernel, threshold: float) -> "KernelPassState":
        ids = np.empty(0, dtype=np.int64)
        return cls(kernel, ids, ids, np.empty(0, dtype=np.float64), threshold)

    def __len__(self) -> int:
        return len(self.p)

    def _keys(self):
        return self.x * np.int64(self.kernel.n2) + self.xp

    def _item_order(self):
        """Entry indices in :meth:`EquivalenceStore.items` order: rows by
        first appearance of their left, each row in entry order."""
        _lefts, first, inverse = np.unique(self.x, return_index=True, return_inverse=True)
        return np.argsort(first[inverse.ravel()], kind="stable")

    def _sides(self, reverse: bool):
        """``(owner ids, counterpart ids, owner table, counterpart
        table)`` of one direction: left → right, or right → left."""
        kernel = self.kernel
        if reverse:
            return self.xp, self.x, kernel.table2, kernel.table1
        return self.x, self.xp, kernel.table1, kernel.table2

    def _assignment(self, reverse: bool):
        best = self._best.get(reverse)
        if best is None:
            owner, other, owners, _others = self._sides(reverse)
            ranks = self.kernel.name_rank1 if reverse else self.kernel.name_rank2
            entries = _maximal(owner, other, self.p, ranks)
            target = np.full(len(owners), -1, dtype=np.int64)
            target[owner[entries]] = other[entries]
            prob = np.zeros(len(owners), dtype=np.float64)
            prob[owner[entries]] = self.p[entries]
            best = self._best[reverse] = (entries, target, prob)
        return best

    def _pairs(self, reverse: bool, entries) -> dict:
        """``{owner: (counterpart, p)}`` of ``entries``, in their order."""
        owner, other, owners, others = self._sides(reverse)
        return {
            owners[o]: (others[t], q)
            for o, t, q in zip(
                owner[entries].tolist(), other[entries].tolist(), self.p[entries].tolist()
            )
        }

    def assignments(self) -> Tuple[Assignment, Assignment]:
        """Both maximal assignments as dicts (built for the result)."""
        return tuple(
            self._pairs(reverse, self._assignment(reverse)[0]) for reverse in (False, True)
        )

    def dampened(self, previous: "KernelPassState", factor: float) -> "KernelPassState":
        """:meth:`StorePassState.dampened` on arrays."""
        if factor <= 0.0:
            return self
        order = self._item_order()
        hit = _lookup(previous._keys(), self._keys()[order])
        fresh = factor * np.append(previous.p, 0.0)[hit] + (1.0 - factor) * self.p[order]
        stale = np.ones(len(previous), dtype=bool)
        stale[hit[hit >= 0]] = False
        old_order = previous._item_order()
        old = old_order[stale[old_order]]
        x = np.concatenate((self.x[order], previous.x[old]))
        xp = np.concatenate((self.xp[order], previous.xp[old]))
        p = np.concatenate((fresh, factor * previous.p[old]))
        keep = (p >= self.threshold) & (p != 0.0)
        return KernelPassState(
            self.kernel, x[keep], xp[keep], np.minimum(p[keep], 1.0), self.threshold
        )

    def max_difference(self, other: "KernelPassState") -> float:
        """Largest probability difference over the union of both pair sets."""
        hit = _lookup(other._keys(), self._keys())
        unmatched = np.ones(len(other), dtype=bool)
        unmatched[hit[hit >= 0]] = False
        return float(
            max(
                np.abs(self.p - np.append(other.p, 0.0)[hit]).max(initial=0.0),
                other.p[unmatched].max(initial=0.0),
            )
        )

    def change_from(self, other: "KernelPassState") -> float:
        old, new = other._assignment(False)[1], self._assignment(False)[1]
        keys = int(np.count_nonzero((old >= 0) | (new >= 0)))
        return int(np.count_nonzero(old != new)) / keys if keys else 0.0

    def same_targets(self, other: "KernelPassState") -> bool:
        return bool(np.array_equal(self._assignment(False)[1], other._assignment(False)[1]))

    def assignment_deltas(
        self, previous: "KernelPassState"
    ) -> Tuple[AssignmentDelta, AssignmentDelta]:
        """:func:`~repro.core.result.assignment_delta` of both directions,
        computed on ids: dicts hold only the owners that changed."""
        return tuple(self._delta(previous, reverse) for reverse in (False, True))

    def _delta(self, previous: "KernelPassState", reverse: bool) -> AssignmentDelta:
        entries, target, _prob = self._assignment(reverse)
        old_entries, old_target, old_prob = previous._assignment(reverse)
        owner, other, owners, _others = self._sides(reverse)
        ids = owner[entries]
        moved = (old_target[ids] != other[entries]) | (old_prob[ids] != self.p[entries])
        delta: AssignmentDelta = self._pairs(reverse, entries[moved])
        old_ids = previous._sides(reverse)[0][old_entries]
        for gone in old_ids[target[old_ids] < 0].tolist():
            delta[owners[gone]] = None
        return delta

    def view(self, restrict: bool) -> KernelView:
        """The rows the next pass reads.  Restricted, they follow
        :meth:`EquivalenceStore.restricted_to_maximal`: every left's best
        pair first, then each right's best pair not already in, in
        assignment order."""
        if restrict:
            forward = self._assignment(False)[0]
            backward = self._assignment(True)[0]
            taken = np.zeros(len(self), dtype=bool)
            taken[forward] = True
            entries = np.concatenate((forward, backward[~taken[backward]]))
        else:
            entries = np.arange(len(self), dtype=np.int64)
        return self.kernel.view_of(self.x, self.xp, self.p, entries)

    def to_store(self) -> EquivalenceStore:
        # Distinct pairs, each already truncated and clamped by the
        # kernel pass or by dampened(): no set() needs to check them.
        store = EquivalenceStore(self.threshold)
        with span("kernel.merge"):
            store.fill_accepted(self.kernel.entries_for(self.x, self.xp, self.p))
        return store


class FrontierPassState:
    """One warm pass's equivalences: the working ``store`` with the
    pass's re-scored ``rows`` replaced by ``entries``.

    :meth:`commit` folds the rows into the store through an
    :class:`~repro.core.store.OverlayStore` and the ``maintainer``, and
    keeps what moved: the entries of the view the passes read (the
    restricted view, or the whole store when ``restrict`` is off) and
    the owners of both maximal assignments.  Before the first pass the
    state is the store as the warm run found it, with no log.
    """

    def __init__(
        self,
        store: EquivalenceStore,
        maintainer: RestrictedViewMaintainer,
        restrict: bool,
        rows: Sequence[Resource] = (),
        entries: Sequence[Tuple[Resource, Resource, float]] = (),
    ) -> None:
        self.store = store
        self.maintainer = maintainer
        self.restrict = restrict
        self.rows = rows
        self.entries = entries
        #: The view entries this pass moved, ``(left, right) -> (old,
        #: new)``; ``None`` until committed.
        self.log: Optional[Dict[Tuple[Resource, Resource], Tuple[float, float]]] = None
        self.moved: Tuple[AssignmentDelta, AssignmentDelta] = ({}, {})
        #: Store and view entries this pass wrote or cleared.
        self.pairs_touched = 0

    def __len__(self) -> int:
        return len(self.store)

    def assignments(self) -> Tuple[Assignment, Assignment]:
        """Copies of both maximal assignments as they stand now."""
        return dict(self.maintainer.assignment12), dict(self.maintainer.assignment21)

    def dampened(self, previous: "FrontierPassState", factor: float) -> "FrontierPassState":
        """:meth:`StorePassState.dampened` on the re-scored rows, in its
        order: this pass's pairs, then the old rows' other pairs.  An
        untouched row blends to itself (``f·p + (1−f)·p = p``)."""
        if factor <= 0.0:
            return self
        old = previous.store
        fresh = {(left, right) for left, right, _probability in self.entries}
        blended = [
            (left, right, factor * old.get(left, right) + (1.0 - factor) * probability)
            for left, right, probability in self.entries
        ]
        for left in self.rows:
            blended.extend(
                (left, right, factor * probability)
                for right, probability in old.equals_of(left).items()
                if (left, right) not in fresh
            )
        threshold = self.store.truncation_threshold
        kept = [entry for entry in blended if entry[2] >= threshold]
        return FrontierPassState(self.store, self.maintainer, self.restrict, self.rows, kept)

    def commit(self) -> "FrontierPassState":
        """Replace the rows in the store and log what moved (once)."""
        overlay = self.store.overlay()
        for left in self.rows:
            overlay.clear_left(left)
        overlay.update(self.entries)
        # The maintainer must see the overlay before it commits (old
        # rows are read from the base).
        log = self.maintainer.apply(overlay)
        if not self.restrict:
            log = {(left, right): (old, new) for left, right, old, new in overlay.row_changes()}
        self.log = log
        self.moved = (self.maintainer.moved12, self.maintainer.moved21)
        self.pairs_touched = overlay.pairs_touched + len(log)
        overlay.commit()
        return self

    def max_difference(self, previous: "FrontierPassState") -> float:
        """The largest logged change: every entry the pass did not log
        kept its value."""
        return max((abs(new - old) for old, new in self.log.values()), default=0.0)

    def scores_cycled(self, previous: "FrontierPassState", tolerance: float) -> bool:
        """Score-level period-2 check: is the view within ``tolerance``
        of where it stood before ``previous``'s pass?  Entries outside
        both logs moved in neither pass, so the two logs carry the whole
        difference.  (Scores can oscillate under a stable assignment, so
        :meth:`StorePassState.same_targets` is not enough here.)"""
        if previous.log is None:
            return False
        two_ago = {key: old for key, (old, _new) in self.log.items()}
        two_ago.update((key, old) for key, (old, _new) in previous.log.items())
        view = self.maintainer.view_store if self.restrict else self.store
        return all(
            abs(view.get(left, right) - probability) <= tolerance
            for (left, right), probability in two_ago.items()
        )

    def assignment_deltas(
        self, previous: "FrontierPassState"
    ) -> Tuple[AssignmentDelta, AssignmentDelta]:
        """Both assignments' changes in this pass: only the owners the
        maintainer moved."""
        return self.moved
