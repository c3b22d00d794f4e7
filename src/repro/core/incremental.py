"""Incremental maintenance of the warm-start fixpoint's derived state.

Two structures live here, both with the same contract: equal to their
from-scratch counterpart, at O(what changed) per refresh instead of
O(everything).

**Relation matrices.**  One direction of the relation pass
(:mod:`repro.core.subrelations`) computes, for every relation ``r`` of
the sub-side ontology::

    Pr(r ⊆ r') = num(r, r') / den(r)

where both ``num`` and ``den`` are sums of independent per-statement
terms (:func:`repro.core.subrelations.statement_terms`).  A delta batch
or a warm-start pass changes the equivalents-view of only a few nodes,
hence the terms of only a few statements — so instead of re-walking
every statement of every relation, :class:`IncrementalRelationPass`
caches the per-statement terms and re-aggregates only the rows a change
actually touches.

Who calls :func:`statement_terms` here: a refresh, once per statement
it dirties, and the constructor without a kernel (the dict sweep, one
call per statement), which the tests keep as the oracle.  A service
attach passes a kernel instead: one
:meth:`~repro.core.vectorized.VectorizedKernel.relation_terms` sweep per
direction gives the sums, and each relation's statement terms stay in
its arrays behind a :class:`StatementTerms` until a refresh pops them.

The maintained matrix differs from a fresh sweep only by float
re-association in the running sums (≈1 ulp per update), far inside the
warm-start equality budget; relations whose statement count exceeds the
``max_pairs`` cap are recomputed with the exact sequential code instead
of being cached, because the cap makes their row depend on traversal
order, not just on the term multiset.

**Restricted views.**  Section 5.2 restricts every pass to the previous
maximal assignment.  Rebuilding that restriction
(:meth:`EquivalenceStore.restricted_to_maximal`) scans all pairs; after
a warm pass replaced only a frontier's rows, just those lefts — and the
rights appearing in their old/new rows — can change their best match.
:class:`RestrictedViewMaintainer` keeps both maximal assignments and
the restricted store live under row replacements, applying an
:class:`~repro.core.store.OverlayStore`'s touched rows in O(frontier)
and reporting exactly the view entries that moved (which is also what
replaces the warm loop's full store diffs).
"""

from __future__ import annotations

from collections.abc import MutableMapping
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Optional, Set, Tuple

import numpy as np

from ..rdf.ontology import Ontology
from ..rdf.terms import Node, Relation, Resource
from .matrix import SubsumptionMatrix
from .result import AssignmentDelta
from .store import EquivalenceStore, OverlayStore, best_counterpart
from .subrelations import score_relation, statement_terms
from .view import EquivalenceView

if TYPE_CHECKING:
    from .vectorized import RelationTerms, VectorizedKernel

#: A statement of the sub-side ontology, oriented along its relation.
Statement = Tuple[Node, Node]

#: One statement's Eq. 12 terms: ``(denominator term, {r': numerator term})``.
Terms = Tuple[float, Dict[Relation, float]]

#: Denominators smaller than this are rebuilt from scratch instead of
#: trusted: subtraction drift could otherwise flip a near-empty row's
#: sign or blow up its ratios.
_DEN_REBUILD_FLOOR = 1e-9


class RowChange:
    """How one relation's row moved during a refresh.

    Attributes
    ----------
    max_delta:
        Largest absolute change over the row's explicit entries and its
        default (0.0 when the refresh left the row numerically intact).
    changed_supers:
        Super-relations whose explicit/effective score changed.
    default_changed:
        Whether the row's *default* score changed (a row flipping
        between no-evidence ``θ`` and computed entries changes the
        score of every super-relation at once).
    """

    __slots__ = ("max_delta", "changed_supers", "default_changed")

    def __init__(self) -> None:
        self.max_delta = 0.0
        self.changed_supers: Set[Relation] = set()
        self.default_changed = False

    def note(self, sup: Optional[Relation], delta: float) -> None:
        if delta == 0.0:
            return
        self.max_delta = max(self.max_delta, delta)
        if sup is None:
            self.default_changed = True
        else:
            self.changed_supers.add(sup)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RowChange(max_delta={self.max_delta:.3e}, "
            f"supers={len(self.changed_supers)}, default={self.default_changed})"
        )


class StatementTerms(MutableMapping):
    """One relation's ``statement -> (den term, {r': term})`` cache,
    read from a kernel sweep's arrays.

    The dict sweep builds one entry per statement with a nonzero term;
    this mapping holds the same entries as rows of the arrays and builds
    none of them until asked.  The arrays answer for a statement until
    its first pop (or write); a dict of written terms answers after
    that, so a statement lives in exactly one of the two.  A refresh
    pops each statement it dirties before writing it back, so
    iteration, the array rows still untouched in statement order and
    then the written terms in insertion order, is also the order of the
    dict sweep's cache after the same refreshes.
    """

    __slots__ = ("_source", "_lo", "_hi", "_rows", "_written", "_den", "_bounds", "_sup", "_term")

    def __init__(self, source: "RelationTerms", lo: int, hi: int) -> None:
        # the relation's statements are source's lo:hi; the kernel
        # that made source may be dropped
        self._source = source
        self._lo = lo
        self._hi = hi
        self._rows: Optional[Dict[int, int]] = None
        self._written: Dict[Statement, Terms] = {}

    def _index(self) -> Dict[int, int]:
        """Key → row of each statement the arrays still answer for, in
        statement order; built, with the rows' terms as lists, on the
        relation's first touch."""
        if self._rows is None:
            source, lo, hi = self._source, self._lo, self._hi
            side = source.side
            den = source.den_terms[lo:hi]
            # row i's numerator terms sit at bounds[i]:bounds[i + 1]
            bounds = np.searchsorted(source.num_stmt, np.arange(lo, hi + 1))
            live = np.flatnonzero((den != 0.0) | (bounds[1:] > bounds[:-1]))
            keys = side.stmt_x[lo:hi][live] * len(side.sub_nodes) + side.stmt_y[lo:hi][live]
            self._rows = dict(zip(keys.tolist(), live.tolist()))
            self._den = den.tolist()
            self._bounds = (bounds - bounds[0]).tolist()
            first, last = bounds[0], bounds[-1]
            self._sup = list(map(side.super_table.__getitem__, source.num_sup[first:last].tolist()))
            self._term = source.num_terms[first:last].tolist()
        return self._rows

    def _row(self, statement: Statement, take: bool) -> Optional[int]:
        """The row of ``statement`` while the arrays answer for it (and
        no longer, when ``take``)."""
        rows = self._rows if self._rows is not None else self._index()
        if not rows:
            return None
        nodes = self._source.side.sub_nodes
        x, y = nodes.get(statement[0]), nodes.get(statement[1])
        if x is None or y is None:
            return None
        key = x * len(nodes) + y
        return rows.pop(key, None) if take else rows.get(key)

    def _row_terms(self, row: int) -> Terms:
        lo, hi = self._bounds[row], self._bounds[row + 1]
        return self._den[row], dict(zip(self._sup[lo:hi], self._term[lo:hi]))

    def pop(self, statement: Statement, *default):
        terms = self._written.pop(statement, None)
        if terms is not None:
            return terms
        row = self._row(statement, take=True)
        if row is not None:
            return self._row_terms(row)
        if default:
            return default[0]
        raise KeyError(statement)

    def __getitem__(self, statement: Statement) -> Terms:
        terms = self._written.get(statement)
        if terms is not None:
            return terms
        row = self._row(statement, take=False)
        if row is None:
            raise KeyError(statement)
        return self._row_terms(row)

    def __setitem__(self, statement: Statement, terms: Terms) -> None:
        if statement not in self._written:
            self._row(statement, take=True)
        self._written[statement] = terms

    def __delitem__(self, statement: Statement) -> None:
        self.pop(statement)

    def __iter__(self) -> Iterator[Statement]:
        table = self._source.side.sub_node_table
        for key in self._index():
            yield table[key // len(table)], table[key % len(table)]
        yield from self._written

    def __len__(self) -> int:
        return len(self._index()) + len(self._written)


class IncrementalRelationPass:
    """One direction of the relation pass with per-statement term cache.

    Parameters mirror :func:`repro.core.subrelations.subrelation_pass`;
    ``ontology1`` is the sub-side ontology (the right one when
    ``reverse`` is set).  ``self.matrix`` is always equal to what a
    fresh ``subrelation_pass`` over the current ontology state and the
    last-refreshed view would produce (modulo summation drift, and
    bit-identical right after construction).

    With ``kernel`` (a fresh one over this ontology pair and the
    view's literal indexes) the caches
    come from one :meth:`~repro.core.vectorized.VectorizedKernel.relation_terms`
    sweep: the sums and the rows of capped relations from its
    reductions, each relation's statement terms as a
    :class:`StatementTerms` over its arrays.  Without it every
    statement goes through :func:`statement_terms`.  Both build
    bit-equal sums, rows and terms, in the same order.
    """

    def __init__(
        self,
        ontology1: Ontology,
        ontology2: Ontology,
        view: EquivalenceView,
        truncation_threshold: float,
        max_pairs: int,
        reverse: bool = False,
        bootstrap_theta: float = 0.0,
        kernel: Optional["VectorizedKernel"] = None,
    ) -> None:
        self.ontology1 = ontology1
        self.ontology2 = ontology2
        self.truncation_threshold = truncation_threshold
        self.max_pairs = max_pairs
        self.reverse = reverse
        self.bootstrap_theta = bootstrap_theta
        self.matrix: SubsumptionMatrix[Relation] = SubsumptionMatrix()
        self._terms: Dict[Relation, MutableMapping] = {}
        self._den: Dict[Relation, float] = {}
        self._num: Dict[Relation, Dict[Relation, float]] = {}
        self._capped: Set[Relation] = set()
        if kernel is None:
            for relation in ontology1.relations(include_inverses=True):
                self._rebuild_relation(relation, view)
        else:
            self._fill_from_kernel(kernel, view)

    def _fill_from_kernel(self, kernel: "VectorizedKernel", view: EquivalenceView) -> None:
        sub_ontology = kernel.ontology2 if self.reverse else kernel.ontology1
        if sub_ontology is not self.ontology1 or not kernel.fresh():
            raise ValueError("the kernel must be fresh and over this ontology pair")
        terms = kernel.relation_terms(view, self.reverse, self.max_pairs)
        side = terms.side
        sums: Dict[int, Dict[Relation, float]] = {}
        for r, r2, value in zip(
            terms.row_sub.tolist(), terms.row_sup.tolist(), terms.numerators.tolist()
        ):
            sums.setdefault(r, {})[side.super_table[r2]] = value
        indptr = side.stmt_indptr.tolist()
        for r, (relation, den) in enumerate(zip(side.sub_table, terms.denominators.tolist())):
            num = sums.get(r, {})
            if self._is_capped(relation):
                # score_relation's row over the same capped statements
                self._capped.add(relation)
                scores = (
                    {r2: min(1.0, value / den) for r2, value in num.items()}
                    if den > 0.0
                    else None
                )
                self._install_row(relation, scores)
                continue
            self._terms[relation] = StatementTerms(terms, indptr[r], indptr[r + 1])
            self._den[relation] = den
            self._num[relation] = num
            self._install_row(relation, self._row_from_sums(relation))

    # ------------------------------------------------------------------

    def _is_capped(self, relation: Relation) -> bool:
        return self.ontology1.num_statements(relation) > self.max_pairs

    def _rebuild_relation(self, relation: Relation, view: EquivalenceView) -> RowChange:
        """Recompute one relation's sums (and row) from scratch."""
        if self._is_capped(relation):
            self._capped.add(relation)
            self._terms.pop(relation, None)
            self._den.pop(relation, None)
            self._num.pop(relation, None)
            scores = score_relation(
                relation,
                self.ontology1,
                self.ontology2,
                view,
                self.max_pairs,
                reverse=self.reverse,
            )
            return self._install_row(relation, scores)
        self._capped.discard(relation)
        terms: Dict[Statement, Terms] = {}
        den = 0.0
        num: Dict[Relation, float] = {}
        # Accumulate in the exact statement order of the sequential
        # pass, so a freshly built matrix is bit-identical to its
        # subrelation_pass counterpart.
        for x, y in self.ontology1.pairs(relation):
            den_term, num_terms = statement_terms(
                x, y, self.ontology2, view, reverse=self.reverse
            )
            if den_term != 0.0 or num_terms:
                terms[(x, y)] = (den_term, num_terms)
            den += den_term
            for relation2, term in num_terms.items():
                num[relation2] = num.get(relation2, 0.0) + term
        self._terms[relation] = terms
        self._den[relation] = den
        self._num[relation] = num
        return self._install_row(relation, self._row_from_sums(relation))

    def _row_from_sums(self, relation: Relation) -> Optional[Dict[Relation, float]]:
        den = self._den.get(relation, 0.0)
        if den <= 0.0:
            return None
        return {
            relation2: min(1.0, max(0.0, numerator / den))
            for relation2, numerator in self._num[relation].items()
        }

    def _install_row(
        self, relation: Relation, scores: Optional[Dict[Relation, float]]
    ) -> RowChange:
        """Replace the matrix row of ``relation``; report what moved."""
        old_entries = dict(self.matrix.supers_of(relation))
        old_default = self.matrix.sub_default(relation)
        self.matrix.clear_sub(relation)
        if scores is None:
            self.matrix.set_sub_default(relation, self.bootstrap_theta)
        else:
            for relation2, score in scores.items():
                if score >= self.truncation_threshold:
                    self.matrix.set(relation, relation2, score)
        change = RowChange()
        new_entries = dict(self.matrix.supers_of(relation))
        new_default = self.matrix.sub_default(relation)
        change.note(None, abs(new_default - old_default))
        for relation2 in old_entries.keys() | new_entries.keys():
            before = old_entries.get(relation2, old_default)
            after = new_entries.get(relation2, new_default)
            change.note(relation2, abs(after - before))
        return change

    # ------------------------------------------------------------------

    def refresh(
        self,
        view: EquivalenceView,
        changed_nodes: Iterable[Node] = (),
        changed_statements: Iterable[Tuple[Relation, Node, Node]] = (),
    ) -> Dict[Relation, RowChange]:
        """Bring the matrix up to date after a view or graph change.

        Parameters
        ----------
        view:
            The equivalents-view the matrix should now reflect (the
            warm pass's current restricted store + literal indexes).
        changed_nodes:
            Sub-side nodes whose equivalents changed since the last
            refresh — instances with moved scores, or literals whose
            candidate sets shifted.  Every statement touching such a
            node has stale terms.
        changed_statements:
            ``(relation, subject, object)`` data statements added or
            removed by a delta, oriented along ``relation`` (the
            inverse orientation is derived here).

        Returns the rows that changed, for frontier expansion.
        """
        # Statements in first-touch order (dicts used as sets): the
        # order _update_relation folds their terms into the sums.
        dirty: Dict[Relation, Dict[Statement, None]] = {}
        for node in changed_nodes:
            for relation, other in self.ontology1.statements_about(node):
                dirty.setdefault(relation, {})[(node, other)] = None
                dirty.setdefault(relation.inverse, {})[(other, node)] = None
        for relation, subject, obj in changed_statements:
            dirty.setdefault(relation, {})[(subject, obj)] = None
            dirty.setdefault(relation.inverse, {})[(obj, subject)] = None
        changes: Dict[Relation, RowChange] = {}
        for relation, statements in dirty.items():
            if (
                relation in self._capped
                or relation not in self._terms
                or self._is_capped(relation)
            ):
                change = self._rebuild_relation(relation, view)
            else:
                change = self._update_relation(relation, statements, view)
            if change.max_delta > 0.0:
                changes[relation] = change
        return changes

    def _update_relation(
        self,
        relation: Relation,
        statements: Iterable[Statement],
        view: EquivalenceView,
    ) -> RowChange:
        terms = self._terms[relation]
        den = self._den[relation]
        num = self._num[relation]
        for statement in statements:
            old_den, old_num = terms.pop(statement, (0.0, {}))
            den -= old_den
            for relation2, term in old_num.items():
                num[relation2] = num.get(relation2, 0.0) - term
            x, y = statement
            if self.ontology1.has(x, relation, y):
                new_den, new_num = statement_terms(
                    x, y, self.ontology2, view, reverse=self.reverse
                )
                if new_den != 0.0 or new_num:
                    terms[statement] = (new_den, new_num)
                den += new_den
                for relation2, term in new_num.items():
                    num[relation2] = num.get(relation2, 0.0) + term
        # Drop numerators that cancelled to (numerical) zero so rows do
        # not accumulate ghost entries.
        for relation2 in [r2 for r2, value in num.items() if value <= 0.0]:
            del num[relation2]
        self._num[relation] = num
        if not terms:
            # No contributing statements left: the true sum is exactly
            # zero; discard any subtraction-drift residue so the row
            # falls back to the no-evidence default like a fresh pass.
            den = 0.0
        elif den < _DEN_REBUILD_FLOOR:
            # The running sum is in drift territory (including a sum
            # driven to or below zero while contributing terms remain);
            # recompute exactly instead of trusting it.
            return self._rebuild_relation(relation, view)
        self._den[relation] = max(den, 0.0)
        return self._install_row(relation, self._row_from_sums(relation))


class RestrictedViewMaintainer:
    """Keeps ``store.restricted_to_maximal()`` live under row replacements.

    Parameters
    ----------
    store:
        The live full store.  Built once at attach time (O(store));
        every later :meth:`apply` costs O(frontier).

    Attributes
    ----------
    view_store:
        The maintained restricted store — always equal to
        ``store.restricted_to_maximal()`` (same entries, same floats).
    assignment12, assignment21:
        The maintained maximal assignments, equal to
        ``store.maximal_assignment()`` / ``(reverse=True)``.  Mutated in
        place by :meth:`apply`; copy before handing out.
    moved12, moved21:
        What the last :meth:`apply` changed in each assignment, as an
        :data:`~repro.core.result.AssignmentDelta` (owner → new best
        match, or ``None`` when the owner dropped out).
    """

    def __init__(self, store: EquivalenceStore) -> None:
        self.store = store
        self.assignment12 = store.maximal_assignment()
        self.assignment21 = store.maximal_assignment(reverse=True)
        self.moved12: AssignmentDelta = {}
        self.moved21: AssignmentDelta = {}
        self.view_store = EquivalenceStore(store.truncation_threshold)
        for left, (right, probability) in self.assignment12.items():
            self.view_store.set(left, right, probability)
        for right, (left, probability) in self.assignment21.items():
            self.view_store.set(left, right, probability)

    def apply(
        self, overlay: OverlayStore
    ) -> Dict[Tuple[Resource, Resource], Tuple[float, float]]:
        """Fold an overlay's touched rows into the restricted view.

        Must run *before* ``overlay.commit()`` (old rows are read from
        the base, new rows through the overlay).  Returns the restricted
        view entries that changed, as ``(left, right) -> (old, new)`` —
        the warm loop's convergence/frontier signal, in O(frontier)
        instead of a full store diff.
        """
        if overlay.base is not self.store:
            raise ValueError("overlay must be layered over the maintained store")
        assignment12 = self.assignment12
        assignment21 = self.assignment21
        moved12: AssignmentDelta = {}
        moved21: AssignmentDelta = {}
        # First-touch order (dicts used as sets): the order of the
        # returned log and of the view entries it writes.
        affected_rights: Dict[Resource, None] = {}
        candidates: Dict[Tuple[Resource, Resource], None] = {}
        for left in overlay.touched_lefts:
            old_row = self.store.equals_of(left)
            new_row = overlay.equals_of(left)
            affected_rights.update(dict.fromkeys(old_row))
            affected_rights.update(dict.fromkeys(new_row))
            old_best = assignment12.get(left)
            if old_best is not None:
                candidates[(left, old_best[0])] = None
            new_best = best_counterpart(new_row)
            if new_best != old_best:
                moved12[left] = new_best
            if new_best is None:
                assignment12.pop(left, None)
            else:
                assignment12[left] = new_best
                candidates[(left, new_best[0])] = None
        for right in affected_rights:
            old_best = assignment21.get(right)
            if old_best is not None:
                candidates[(old_best[0], right)] = None
            new_best = best_counterpart(overlay.equals_of_right(right))
            if new_best != old_best:
                moved21[right] = new_best
            if new_best is None:
                assignment21.pop(right, None)
            else:
                assignment21[right] = new_best
                candidates[(new_best[0], right)] = None
        self.moved12, self.moved21 = moved12, moved21
        changes: Dict[Tuple[Resource, Resource], Tuple[float, float]] = {}
        view = self.view_store
        for left, right in candidates:
            best12 = assignment12.get(left)
            best21 = assignment21.get(right)
            if best12 is not None and best12[0] == right:
                desired = best12[1]
            elif best21 is not None and best21[0] == left:
                desired = best21[1]
            else:
                desired = 0.0
            current = view.get(left, right)
            if desired == current:
                continue
            if desired == 0.0:
                view.discard(left, right)
            else:
                view.set(left, right, desired)
            changes[(left, right)] = (current, desired)
        return changes
