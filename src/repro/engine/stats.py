"""Table statistics and cardinality estimation.

The practical setting of Section 9 implies a cost-based layer above the
translation: the emitted algebra leaves freedom (join build sides,
evaluation order among equals) that a real system resolves with
statistics.  This module provides the minimal, classical machinery:

* :class:`TableStats` — row count and per-column distinct counts,
  collected by one scan;
* :func:`estimate_cardinality` — textbook selectivity arithmetic over
  an algebra expression (equality ``1/distinct``, range ``1/3``,
  equi-join ``|L|·|R| / max(d_L, d_R)``).
* :class:`PlanAnalysis` — the per-node facts behind the estimate
  (arity, rows, column distinct counts), memoized for the lifetime of
  one optimizer run.

Estimates feed the :mod:`repro.engine.optimizer`; they are heuristics,
so the tests pin their *monotonicity* and order-of-magnitude behaviour
rather than exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.algebra.ast import (
    AdomK,
    AlgebraExpr,
    Col,
    Condition,
    Diff,
    Enumerate,
    Join,
    Lit,
    Params,
    Product,
    Project,
    Rel,
    Select,
    Union,
    node_arity,
)
from repro.data.instance import Instance

__all__ = ["TableStats", "InstanceStats", "PlanAnalysis", "collect_stats",
           "estimate_cardinality"]

#: Selectivity assumed for range predicates (<, <=, >, >=).
RANGE_SELECTIVITY = 1 / 3
#: Selectivity assumed for inequality predicates.
NEQ_SELECTIVITY = 0.9
#: Fallback distinct count when a column is unknown.
DEFAULT_DISTINCT = 10.0
#: Assumed tuples yielded per input row by an Enumerate operator
#: (annotation enumerators typically return a handful of inverses).
ENUMERATE_FANOUT = 4.0

#: Estimated distinct count of a 1-based output column.
DistinctFn = Callable[[int], float]


@dataclass(frozen=True, slots=True)
class TableStats:
    """Statistics of one stored relation."""

    rows: int
    distinct: tuple[int, ...]  # per column

    def distinct_at(self, column: int) -> float:
        """Distinct count of a 1-based column (fallback when unknown)."""
        if 1 <= column <= len(self.distinct):
            return float(max(self.distinct[column - 1], 1))
        return DEFAULT_DISTINCT


@dataclass(frozen=True, slots=True)
class InstanceStats:
    """Statistics for every relation of an instance."""

    tables: dict

    def table(self, name: str) -> TableStats | None:
        return self.tables.get(name)


def collect_stats(instance: Instance) -> InstanceStats:
    """One pass per relation: row and per-column distinct counts."""
    tables: dict[str, TableStats] = {}
    for name in instance.names:
        rel = instance.relation(name)
        columns = [set() for _ in range(rel.arity)]
        for row in rel:
            for i, value in enumerate(row):
                columns[i].add(value)
        tables[name] = TableStats(len(rel), tuple(len(c) for c in columns))
    return InstanceStats(tables)


def _condition_selectivity(cond: Condition, distinct_of) -> float:
    """Selectivity of one condition; ``distinct_of(col)`` estimates a
    column's distinct count."""
    from repro.algebra.ast import CConst, compare_values
    if isinstance(cond.left, CConst) and isinstance(cond.right, CConst):
        # Constant vs constant is decidable at plan time: exactly 1.0
        # or 0.0, never a guess (the rewrite pass folds these away).
        return 1.0 if compare_values(cond.op, cond.left.value,
                                     cond.right.value) else 0.0
    if cond.op == "=":
        if isinstance(cond.left, Col) and isinstance(cond.right, Col):
            return 1.0 / max(distinct_of(cond.left.index),
                             distinct_of(cond.right.index))
        if isinstance(cond.left, Col) or isinstance(cond.right, Col):
            col = cond.left if isinstance(cond.left, Col) else cond.right
            return 1.0 / distinct_of(col.index)
        return 0.5
    if cond.op == "!=":
        return NEQ_SELECTIVITY
    return RANGE_SELECTIVITY


def estimate_cardinality(expr: AlgebraExpr, stats: InstanceStats,
                         analysis: PlanAnalysis | None = None) -> float:
    """Estimated output rows of ``expr`` (never below 0).

    ``analysis`` (a :class:`PlanAnalysis` over the same ``stats``)
    shares per-node facts across calls; without it each call analyses
    ``expr`` afresh.
    """
    if analysis is None:
        analysis = PlanAnalysis(stats)
    return max(analysis.rows(expr), 0.0)


def _fallback_distinct(_column: int) -> float:
    return DEFAULT_DISTINCT


def _cached_lookup(compute: DistinctFn) -> DistinctFn:
    """``compute`` with a per-column cache, so a column asked for again
    through a long left-deep prefix is one lookup, not a walk down it."""
    cache: dict[int, float] = {}

    def lookup(column: int) -> float:
        value = cache.get(column)
        if value is None:
            value = cache[column] = compute(column)
        return value

    return lookup


class PlanAnalysis:
    """Memoized per-node facts for the plans one optimizer run inspects.

    One instance lives for one :func:`repro.engine.rewrite.optimize_plan`
    call.  Entries are keyed by node identity and hold their node, so
    no id is reused by another node while the analysis lives.  Rewrites
    rebuild nodes around unchanged subtrees, so a rebuilt node costs one
    step over its children's cached facts rather than a walk of its
    subtree.  Each node gets at most one computation of each fact:

    * :meth:`arity` — the type-checked arity of
      :func:`~repro.algebra.ast.arity_of` (needs ``catalog``);
    * :meth:`static_arity` — the arity known from ``stats`` alone,
      ``None`` when a relation below has no statistics;
    * :meth:`rows` — the estimate behind :func:`estimate_cardinality`;
    * :meth:`distinct` — a per-column distinct-count function.

    A computation that raises stores nothing, so a failure is never
    cached.  ``evaluations`` counts node-fact computations (memo
    misses): the analysis work of a call.  :meth:`clear` drops the
    facts and the pinned nodes at once, even while some caller's
    closures still reach the analysis.
    """

    __slots__ = ("stats", "catalog", "evaluations",
                 "_arity", "_static", "_rows", "_distinct")

    def __init__(self, stats: InstanceStats,
                 catalog: Mapping[str, int] | None = None):
        self.stats = stats
        self.catalog: Mapping[str, int] = catalog if catalog is not None else {}
        self.evaluations = 0
        self._arity: dict[int, tuple[AlgebraExpr, int]] = {}
        self._static: dict[int, tuple[AlgebraExpr, int | None]] = {}
        self._rows: dict[int, tuple[AlgebraExpr, float]] = {}
        self._distinct: dict[int, tuple[AlgebraExpr, DistinctFn]] = {}

    def clear(self) -> None:
        """Forget every fact and release the pinned nodes."""
        for memo in (self._arity, self._static, self._rows, self._distinct):
            memo.clear()

    def arity(self, node: AlgebraExpr) -> int:
        """Output arity, checked as :func:`~repro.algebra.ast.arity_of`
        checks it (raises :class:`~repro.errors.EvaluationError`)."""
        hit = self._arity.get(id(node))
        if hit is not None:
            return hit[1]
        self.evaluations += 1
        value = node_arity(node, self.catalog, self.arity)
        self._arity[id(node)] = (node, value)
        return value

    def static_arity(self, node: AlgebraExpr) -> int | None:
        """Arity from the statistics alone, unchecked; ``None`` when it
        depends on a relation without statistics."""
        hit = self._static.get(id(node))
        if hit is not None:
            return hit[1]
        self.evaluations += 1
        value = self._static_arity(node)
        self._static[id(node)] = (node, value)
        return value

    def rows(self, node: AlgebraExpr) -> float:
        """Estimated output rows (may be negative before the clamp of
        :func:`estimate_cardinality`)."""
        hit = self._rows.get(id(node))
        if hit is not None:
            return hit[1]
        self.evaluations += 1
        value = self._estimate(node)
        self._rows[id(node)] = (node, value)
        return value

    def distinct(self, node: AlgebraExpr) -> DistinctFn:
        """Estimated distinct count of each 1-based output column."""
        hit = self._distinct.get(id(node))
        if hit is not None:
            return hit[1]
        self.evaluations += 1
        value = self._column_distinct(node)
        self._distinct[id(node)] = (node, value)
        return value

    def _estimate(self, node: AlgebraExpr) -> float:
        stats = self.stats
        if isinstance(node, Rel):
            table = stats.table(node.name)
            return float(table.rows) if table else 100.0
        if isinstance(node, Lit):
            return float(len(node.rows))
        if isinstance(node, Params):
            return 1.0
        if isinstance(node, AdomK):
            total = sum(t.rows for t in stats.tables.values())
            return float(max(total, 1)) * (2 ** node.level)
        if isinstance(node, Project):
            # set semantics: projection may deduplicate, conservatively
            # keep the child estimate
            return self.rows(node.child)
        if isinstance(node, Select):
            rows = self.rows(node.child)
            distinct_of = self.distinct(node.child)
            for cond in node.conds:
                rows *= _condition_selectivity(cond, distinct_of)
            return rows
        if isinstance(node, Join):
            rows = self.rows(node.left) * self.rows(node.right)
            left_distinct = self.distinct(node.left)
            arity_left = self.static_arity(node.left)
            for cond in node.conds:
                if cond.op != "=":
                    rows *= (RANGE_SELECTIVITY if cond.op != "!="
                             else NEQ_SELECTIVITY)
                    continue
                if isinstance(cond.left, Col) and isinstance(cond.right, Col):
                    a, b = sorted((cond.left.index, cond.right.index))
                    if arity_left is not None and a <= arity_left < b:
                        d = max(left_distinct(a),
                                self.distinct(node.right)(b - arity_left))
                        rows /= d
                        continue
                rows *= 0.5
            return rows
        if isinstance(node, Enumerate):
            return self.rows(node.child) * ENUMERATE_FANOUT
        if isinstance(node, Union):
            return self.rows(node.left) + self.rows(node.right)
        if isinstance(node, Diff):
            return max(self.rows(node.left) - self.rows(node.right) * 0.5, 0.0)
        if isinstance(node, Product):
            return self.rows(node.left) * self.rows(node.right)
        raise TypeError(f"not an algebra expression: {node!r}")

    def _column_distinct(self, node: AlgebraExpr) -> DistinctFn:
        if isinstance(node, Rel):
            table = self.stats.table(node.name)
            if table is not None:
                return table.distinct_at
        if isinstance(node, (Select, Diff)):
            # selections/differences keep a subset of the child's values;
            # the child's distinct counts are a (close) upper bound
            child = node.child if isinstance(node, Select) else node.left
            return self.distinct(child)
        if isinstance(node, Project):
            child_distinct = self.distinct(node.child)
            exprs = node.exprs

            def via_projection(column: int) -> float:
                if 1 <= column <= len(exprs):
                    expr = exprs[column - 1]
                    if isinstance(expr, Col):
                        return child_distinct(expr.index)
                return DEFAULT_DISTINCT

            return _cached_lookup(via_projection)
        if isinstance(node, (Join, Product)):
            left_arity = self.static_arity(node.left)
            if left_arity is not None:
                left_distinct = self.distinct(node.left)
                right_distinct = self.distinct(node.right)

                def via_join(column: int) -> float:
                    if column <= left_arity:
                        return left_distinct(column)
                    return right_distinct(column - left_arity)

                return _cached_lookup(via_join)
        return _fallback_distinct

    def _static_arity(self, node: AlgebraExpr) -> int | None:
        if isinstance(node, Rel):
            table = self.stats.table(node.name)
            if table is not None:
                return len(table.distinct)
            return None
        if isinstance(node, (Lit, Params)):
            return node.arity
        if isinstance(node, AdomK):
            return 1
        if isinstance(node, Project):
            return len(node.exprs)
        if isinstance(node, Select):
            return self.static_arity(node.child)
        if isinstance(node, Enumerate):
            child = self.static_arity(node.child)
            return None if child is None else child + node.out_count
        if isinstance(node, (Join, Product)):
            left = self.static_arity(node.left)
            right = self.static_arity(node.right)
            if left is None or right is None:
                return None
            return left + right
        if isinstance(node, (Union, Diff)):
            return self.static_arity(node.left)
        return None
