"""Algebraic plan simplification.

The translator emits structurally regular plans (a projection over a
chain of joins and selections per RANF conjunction); this pass cleans
the common redundancies so the plans in EXPERIMENTS.md read like the
paper's hand-written ones:

* cascade projections (``project(A, project(B, e))`` composes);
* merge cascading selections;
* turn a selection over a product into a join;
* drop identity projections and empty selection sets.

Every rewrite preserves the evaluated relation exactly (tested against
the reference evaluator on random instances).
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.algebra.ast import (
    AlgebraExpr,
    Enumerate,
    CApp,
    CConst,
    Col,
    ColExpr,
    Diff,
    Join,
    Lit,
    Product,
    Project,
    Select,
    Union,
    arity_of,
)

__all__ = ["simplify"]

#: A node's output arity (raises on an ill-typed node).
Arity = Callable[[AlgebraExpr], int]


def _is_true_relation(expr: AlgebraExpr) -> bool:
    """The arity-0 one-row literal: the neutral element of product/join."""
    return isinstance(expr, Lit) and expr.arity == 0 and expr.rows == frozenset({()})


def _substitute_cols(expr: ColExpr, replacements: tuple[ColExpr, ...]) -> ColExpr:
    """Replace ``@i`` by ``replacements[i-1]`` recursively."""
    if isinstance(expr, Col):
        return replacements[expr.index - 1]
    if isinstance(expr, CConst):
        return expr
    if isinstance(expr, CApp):
        return CApp(expr.name, tuple(_substitute_cols(a, replacements) for a in expr.args))
    raise TypeError(f"not a column expression: {expr!r}")


def _is_identity_prefix(exprs: tuple[ColExpr, ...]) -> bool:
    """``exprs`` is exactly ``@1, ..., @k``."""
    return all(isinstance(e, Col) and e.index == i
               for i, e in enumerate(exprs, start=1))


def _rewrite_once(expr: AlgebraExpr, arity: Arity) -> AlgebraExpr:
    """One bottom-up rewrite round.  A node none of whose rewrites fired
    is returned as the same object, so later rounds, the fixed-point
    check and the optimizer's identity-keyed analysis see it unchanged."""
    if isinstance(expr, Project):
        child = _rewrite_once(expr.child, arity)
        # cascade projections: outer expressions are over the inner outputs
        if isinstance(child, Project):
            composed = tuple(_substitute_cols(e, child.exprs) for e in expr.exprs)
            return _rewrite_once(Project(composed, child.child), arity)
        # identity projection: only an @1..@k prefix needs the child's arity
        if (_is_identity_prefix(expr.exprs)
                and arity(child) == len(expr.exprs)):
            return child
        return expr if child is expr.child else Project(expr.exprs, child)
    if isinstance(expr, Select):
        child = _rewrite_once(expr.child, arity)
        if not expr.conds:
            return child
        if isinstance(child, Select):
            return _rewrite_once(Select(child.conds | expr.conds, child.child), arity)
        if isinstance(child, Product):
            return _rewrite_once(Join(expr.conds, child.left, child.right), arity)
        if isinstance(child, Join):
            return _rewrite_once(Join(child.conds | expr.conds, child.left, child.right),
                                 arity)
        return expr if child is expr.child else Select(expr.conds, child)
    if isinstance(expr, Join):
        left = _rewrite_once(expr.left, arity)
        right = _rewrite_once(expr.right, arity)
        if _is_true_relation(left):
            out: AlgebraExpr = right
            if expr.conds:
                out = Select(expr.conds, out)
            return _rewrite_once(out, arity)
        if _is_true_relation(right):
            out = left
            if expr.conds:
                out = Select(expr.conds, out)
            return _rewrite_once(out, arity)
        if not expr.conds:
            return Product(left, right)
        if left is expr.left and right is expr.right:
            return expr
        return Join(expr.conds, left, right)
    if isinstance(expr, (Union, Diff)):
        left = _rewrite_once(expr.left, arity)
        right = _rewrite_once(expr.right, arity)
        if left is expr.left and right is expr.right:
            return expr
        return type(expr)(left, right)
    if isinstance(expr, Enumerate):
        child = _rewrite_once(expr.child, arity)
        if child is expr.child:
            return expr
        return Enumerate(expr.enumerator, expr.inputs, expr.out_count, child)
    if isinstance(expr, Product):
        left = _rewrite_once(expr.left, arity)
        right = _rewrite_once(expr.right, arity)
        if _is_true_relation(left):
            return right
        if _is_true_relation(right):
            return left
        if left is expr.left and right is expr.right:
            return expr
        return Product(left, right)
    return expr


def simplify(expr: AlgebraExpr, catalog: Mapping[str, int],
             max_rounds: int = 8, verify: bool = False,
             arity: Arity | None = None) -> AlgebraExpr:
    """Apply the rewrites to a fixed point (bounded by ``max_rounds``).

    ``arity`` reports a node's arity under ``catalog`` (default
    :func:`~repro.algebra.ast.arity_of`); the optimizer passes its
    memoized per-call analysis.

    With ``verify=True`` the plan sanitizer
    (:mod:`repro.analysis.sanitizer`) re-checks the plan after every
    rewrite round and raises
    :class:`~repro.errors.PlanInvariantError` naming the round that
    corrupted it — each rewrite must preserve arity, not just the
    fixed point.
    """
    if verify:
        # Imported lazily: the sanitizer depends on this package.
        from repro.analysis.sanitizer import check_plan
        expected = len(expr.exprs) if isinstance(expr, Project) else None
        check_plan(expr, catalog, phase="simplify input",
                   expected_arity=expected)
    else:
        check_plan = None
        expected = None
    node_arity: Arity = (arity if arity is not None
                         else lambda node: arity_of(node, catalog))
    current = expr
    for round_no in range(max_rounds):
        rewritten = _rewrite_once(current, node_arity)
        if check_plan is not None:
            check_plan(rewritten, catalog,
                       phase=f"simplifier round {round_no + 1}",
                       expected_arity=expected)
        if rewritten == current:
            return current
        current = rewritten
    return current
