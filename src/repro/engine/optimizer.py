"""Cost-based physical tuning of translated plans.

The logical rewrite pass (:mod:`repro.engine.rewrite`) fixes evaluation
*order*; this module makes the one remaining physical decision the
executor exposes — the **hash-join build side**.
:class:`~repro.engine.operators.HashJoinOp` always builds its table on
the right input, so when statistics say the left input is smaller, the
optimizer swaps the join's inputs and renumbers every condition
coordinate accordingly (columns of the old left move right by the new
left's arity, and vice versa).

Swapping changes the joined column order, so the swap is wrapped in a
projection restoring the original order — downstream operators (and the
final head projection) are untouched, which keeps the rewrite purely
local and easy to verify: the optimized plan must evaluate to exactly
the same relation (property-tested).

This module also owns :func:`match_anti_join`, the structural pattern
behind the planner's generalized-difference operator.  Both the planner
and every rewrite that walks through ``Diff`` nodes must agree on the
pattern: a rewrite that changes only *one* of the two occurrences of
the context subplan breaks the structural equality the planner checks,
silently downgrading an anti-join to a diff-over-join.  The build-side
pass therefore rebuilds matched patterns from one rewritten context
rather than recursing into the two occurrences independently.
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra.ast import (
    AlgebraExpr,
    CApp,
    CConst,
    Col,
    ColExpr,
    Condition,
    Diff,
    Enumerate,
    Join,
    Product,
    Project,
    Select,
    Union,
)
from repro.engine.stats import InstanceStats, PlanAnalysis, estimate_cardinality

__all__ = ["choose_build_sides", "match_anti_join"]


def match_anti_join(node: Diff):
    """Detect the translator's generalized-difference shape
    ``Diff(e, Project(identity-over-e, Join(conds, e, X)))`` and return
    ``(conds, e, X)``, or None."""
    right = node.right
    if not isinstance(right, Project):
        return None
    join = right.child
    if not isinstance(join, Join) or join.left != node.left:
        return None
    identity = all(
        isinstance(e, Col) and e.index == i + 1
        for i, e in enumerate(right.exprs)
    )
    if not identity:
        return None
    # the projection must keep exactly the left columns; conditions may
    # reference both sides (they are evaluated over the joined row)
    return join.conds, node.left, join.right


def rebuild_anti_join(conds, context: AlgebraExpr, excluded: AlgebraExpr,
                      context_arity: int) -> Diff:
    """The inverse of :func:`match_anti_join`: the canonical
    generalized-difference shape over (possibly rewritten) children."""
    identity = tuple(Col(i) for i in range(1, context_arity + 1))
    return Diff(context, Project(identity, Join(conds, context, excluded)))


def _shift_colexpr(expr: ColExpr, mapping) -> ColExpr:
    if isinstance(expr, Col):
        return Col(mapping(expr.index))
    if isinstance(expr, CConst):
        return expr
    if isinstance(expr, CApp):
        return CApp(expr.name, tuple(_shift_colexpr(a, mapping) for a in expr.args))
    raise TypeError(f"not a column expression: {expr!r}")


def _swap_join(join: Join, left_arity: int, right_arity: int) -> AlgebraExpr:
    """``join(conds, L, R)`` with R as the new outer input, wrapped in a
    projection restoring the original L-then-R column order."""

    def remap(index: int) -> int:
        if index <= left_arity:          # old left column -> after new left
            return index + right_arity
        return index - left_arity        # old right column -> front

    conds = frozenset(
        Condition(_shift_colexpr(c.left, remap), c.op,
                  _shift_colexpr(c.right, remap))
        for c in join.conds
    )
    swapped = Join(conds, join.right, join.left)
    restore = tuple(
        [Col(right_arity + i) for i in range(1, left_arity + 1)]
        + [Col(i) for i in range(1, right_arity + 1)]
    )
    return Project(restore, swapped)


def choose_build_sides(expr: AlgebraExpr, stats: InstanceStats,
                       catalog: Mapping[str, int],
                       steps: list | None = None,
                       analysis: PlanAnalysis | None = None) -> AlgebraExpr:
    """Swap join inputs so the estimated-smaller side is the build
    (right) side.  Output evaluates identically to the input.

    ``steps`` (a list, when given) receives one ``(detail, before,
    after)`` triple per swap performed — the rewrite-trace hook of the
    optimizer pass, which turns each into a validated
    :class:`~repro.engine.rewrite.RewriteStep`.  ``analysis`` is the
    optimizer run's shared :class:`~repro.engine.stats.PlanAnalysis`
    (a fresh one over ``stats`` and ``catalog`` when omitted).
    """
    if analysis is None:
        analysis = PlanAnalysis(stats, catalog)
    arity = analysis.arity

    def go(node: AlgebraExpr) -> AlgebraExpr:
        if isinstance(node, Project):
            return Project(node.exprs, go(node.child))
        if isinstance(node, Select):
            return Select(node.conds, go(node.child))
        if isinstance(node, Enumerate):
            return Enumerate(node.enumerator, node.inputs, node.out_count,
                             go(node.child))
        if isinstance(node, Union):
            return Union(go(node.left), go(node.right))
        if isinstance(node, Diff):
            anti = match_anti_join(node)
            if anti is not None:
                # The anti-join probes left and builds on the right
                # already; swapping its inner join would break the
                # structural pattern the planner matches.  Tune the two
                # children and rebuild the canonical shape from ONE
                # rewritten context so the pattern still matches.
                conds, context, excluded = anti
                new_context = go(context)
                new_excluded = go(excluded)
                return rebuild_anti_join(conds, new_context, new_excluded,
                                         arity(new_context))
            return Diff(go(node.left), go(node.right))
        if isinstance(node, Product):
            return Product(go(node.left), go(node.right))
        if isinstance(node, Join):
            left = go(node.left)
            right = go(node.right)
            rebuilt = Join(node.conds, left, right)
            left_rows = estimate_cardinality(left, stats, analysis)
            right_rows = estimate_cardinality(right, stats, analysis)
            if left_rows < right_rows:
                left_arity = arity(left)
                right_arity = arity(right)
                swapped = _swap_join(rebuilt, left_arity, right_arity)
                if steps is not None:
                    steps.append((
                        f"build-side swap: est left {left_rows:.0f} < "
                        f"est right {right_rows:.0f} rows",
                        rebuilt, swapped))
                return swapped
            return rebuilt
        return node

    return go(expr)
