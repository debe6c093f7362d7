"""Cost-based logical rewrite pass (translation → **rewrite** → planning).

The translator emits algebra in whatever shape the em-allowed
compilation happens to produce; the paper leaves evaluation order among
equals free (Section 9's practical setting), and that freedom is where
an evaluator wins or loses its constant factors.  This pass sits
between :func:`repro.translate` output and the physical planner and
applies four families of semantics-preserving rewrites:

1. **Constant folding** — ``const op const`` conditions are decided at
   plan time (they cost one comparison per *row* at run time otherwise)
   and empty literal relations are propagated through the operators
   that annihilate on them.
2. **Selection / projection pushdown** — single-side join conditions
   move below the join, selections distribute through unions and into
   difference and :class:`~repro.algebra.ast.Enumerate` inputs, and
   dead columns are pruned below joins and products so intermediate
   tuples stay narrow.
3. **Greedy join reordering** — maximal Join/Product regions are
   flattened into (leaves, conditions), then rebuilt left-deep starting
   from the estimated-smallest leaf, preferring connected (condition-
   sharing) extensions, with every condition attached at the earliest
   join where its columns are available.  A restoring projection keeps
   the region's external column order unchanged.
4. **Common-subexpression detection** — structurally identical
   subplans (the [AB88] baseline emits the same ``AdomK`` scan and the
   same quantifier subplans many times) are reported to the planner,
   which computes each **once** behind a shared
   :class:`~repro.engine.operators.MaterializeOp` and re-reads the
   cached batches at every other occurrence.

Finally the (previously free-standing) build-side chooser
(:func:`repro.engine.optimizer.choose_build_sides`) runs over the
result.  Every rewrite here must preserve the anti-join pattern
(:func:`repro.engine.optimizer.match_anti_join`): walking through a
matched ``Diff`` rebuilds the canonical shape from **one** rewritten
context, because rewriting the two structurally equal occurrences
independently would silently downgrade the planner's anti-join to a
diff-over-join.

The pass is on by default; ``REPRO_OPTIMIZE=0`` (or
``--no-optimize``) disables it entirely, restoring the exact plans the
engine executed before the pass existed.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.algebra.ast import (
    AdomK,
    AlgebraExpr,
    CConst,
    Col,
    ColExpr,
    Condition,
    Diff,
    Enumerate,
    Join,
    Lit,
    Product,
    Project,
    Select,
    Union,
    colexpr_columns,
    compare_values,
)
from repro.algebra.simplifier import simplify
from repro.analysis.sanitizer import check_plan, verify_plans_enabled
from repro.analysis.validate import check_rewrites
from repro.core.schema import DatabaseSchema
from repro.engine.optimizer import (
    _shift_colexpr,
    choose_build_sides,
    match_anti_join,
    rebuild_anti_join,
)
from repro.engine.stats import InstanceStats, PlanAnalysis, estimate_cardinality
from repro.errors import EvaluationError

__all__ = [
    "RewriteStep",
    "OptimizationResult",
    "optimize_enabled",
    "optimize_plan",
    "shared_subplans",
]

#: Environment variable gating the pass (default: enabled).
OPTIMIZE_ENV = "REPRO_OPTIMIZE"

#: Upper bound on pushdown/simplify alternation rounds.
MAX_PUSHDOWN_ROUNDS = 5


def optimize_enabled(override: bool | None = None) -> bool:
    """Resolve the optimizer switch: explicit override, else the
    ``REPRO_OPTIMIZE`` environment variable, else on."""
    if override is not None:
        return override
    raw = os.environ.get(OPTIMIZE_ENV, "").strip().lower()
    return raw not in {"0", "false", "no", "off"}


@dataclass(frozen=True, slots=True)
class RewriteStep:
    """One applied rewrite, for the trace / EXPLAIN output — and for
    the translation validator (:mod:`repro.analysis.validate`), which
    replays each step's soundness obligation from its payload.

    ``before`` is the redex (rebuilt over already-rewritten children),
    ``after`` its replacement; ``data`` carries rule-specific evidence
    (for ``fold-const``: the decided condition and the decision).  All
    three default empty so bare ``RewriteStep(rule, detail)`` values —
    and their rendering — are unchanged.
    """

    rule: str
    detail: str
    before: AlgebraExpr | None = None
    after: AlgebraExpr | None = None
    data: tuple[object, ...] = ()

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail}"


@dataclass(frozen=True, slots=True)
class OptimizationResult:
    """Outcome of :func:`optimize_plan`."""

    plan: AlgebraExpr
    steps: tuple[RewriteStep, ...]
    #: Structurally repeated subplans the planner should compute once.
    shared: frozenset[AlgebraExpr]


# ---------------------------------------------------------------------------
# 1. Constant folding and empty propagation
# ---------------------------------------------------------------------------

def _is_empty(node: AlgebraExpr) -> bool:
    return isinstance(node, Lit) and not node.rows


def _empty(arity: int) -> Lit:
    return Lit(arity, frozenset())


def _fold_conds(conds: Iterable[Condition],
                steps: list[RewriteStep],
                ) -> tuple[frozenset[Condition], bool]:
    """Decide every const-vs-const condition.  Returns the remaining
    conditions and whether any condition is statically false."""
    remaining = []
    for cond in conds:
        if isinstance(cond.left, CConst) and isinstance(cond.right, CConst):
            if compare_values(cond.op, cond.left.value, cond.right.value):
                steps.append(RewriteStep(
                    "fold-const", f"dropped tautology {cond}",
                    data=(cond, True)))
            else:
                steps.append(RewriteStep(
                    "fold-const", f"{cond} is statically false",
                    data=(cond, False)))
                return frozenset(), True
        else:
            remaining.append(cond)
    return frozenset(remaining), False


def _fold_constants(expr: AlgebraExpr, analysis: PlanAnalysis,
                    steps: list[RewriteStep]) -> AlgebraExpr:
    arity = analysis.arity

    def empty_step(what: str, before: AlgebraExpr,
                   after: AlgebraExpr) -> AlgebraExpr:
        steps.append(RewriteStep("fold-empty", what, before=before,
                                 after=after))
        return after

    def go(node: AlgebraExpr) -> AlgebraExpr:
        if isinstance(node, Select):
            child = go(node.child)
            conds, false = _fold_conds(node.conds, steps)
            if false or _is_empty(child):
                return empty_step("selection can never pass",
                                  Select(node.conds, child),
                                  _empty(arity(child)))
            if not conds:
                return child
            return Select(conds, child)
        if isinstance(node, Project):
            child = go(node.child)
            if _is_empty(child):
                return empty_step("projection over empty input",
                                  Project(node.exprs, child),
                                  _empty(len(node.exprs)))
            return Project(node.exprs, child)
        if isinstance(node, Join):
            left, right = go(node.left), go(node.right)
            conds, false = _fold_conds(node.conds, steps)
            width = arity(left) + arity(right)
            if false or _is_empty(left) or _is_empty(right):
                return empty_step(
                    "join can never produce a row",
                    Join(node.conds, left, right), _empty(width))
            if not conds:
                return Product(left, right)
            return Join(conds, left, right)
        if isinstance(node, Product):
            left, right = go(node.left), go(node.right)
            if _is_empty(left) or _is_empty(right):
                return empty_step(
                    "product with an empty input",
                    Product(left, right),
                    _empty(arity(left) + arity(right)))
            return Product(left, right)
        if isinstance(node, Union):
            left, right = go(node.left), go(node.right)
            if _is_empty(left):
                return empty_step("union with an empty input",
                                  Union(left, right), right)
            if _is_empty(right):
                return empty_step("union with an empty input",
                                  Union(left, right), left)
            return Union(left, right)
        if isinstance(node, Diff):
            anti = match_anti_join(node)
            if anti is not None:
                conds0, context, excluded = anti
                new_context = go(context)
                new_excluded = go(excluded)
                redex = rebuild_anti_join(conds0, new_context, new_excluded,
                                          arity(new_context))
                if _is_empty(new_context):
                    return empty_step("anti-join over empty context",
                                      redex, new_context)
                conds, false = _fold_conds(conds0, steps)
                if false or _is_empty(new_excluded):
                    # nothing can ever match: the difference keeps all
                    return empty_step("anti-join excludes nothing",
                                      redex, new_context)
                return rebuild_anti_join(conds, new_context, new_excluded,
                                         arity(new_context))
            left, right = go(node.left), go(node.right)
            if _is_empty(left) or _is_empty(right):
                if _is_empty(right):
                    return empty_step("difference of nothing",
                                      Diff(left, right), left)
                return empty_step("difference over empty input",
                                  Diff(left, right), left)
            return Diff(left, right)
        if isinstance(node, Enumerate):
            child = go(node.child)
            if _is_empty(child):
                return empty_step(
                    "enumeration over empty input",
                    Enumerate(node.enumerator, node.inputs, node.out_count,
                              child),
                    _empty(arity(child) + node.out_count))
            return Enumerate(node.enumerator, node.inputs, node.out_count,
                             child)
        return node  # Rel, Lit, Params, AdomK

    return go(expr)


# ---------------------------------------------------------------------------
# 2. Selection / projection pushdown
# ---------------------------------------------------------------------------

def _prune_join_columns(exprs: Sequence[ColExpr], child: Join | Product,
                        arity: Callable[[AlgebraExpr], int],
                        steps: list[RewriteStep]) -> AlgebraExpr | None:
    """Dead-column elimination below ``Project(exprs, Join/Product)``.

    Columns referenced by neither the projection nor the join
    conditions are dropped from the children (sound under set
    semantics: rows agreeing on every *needed* column contribute the
    same output tuples, so deduplicating them early is harmless — and
    usually a win).
    """
    conds = child.conds if isinstance(child, Join) else frozenset()
    left_arity = arity(child.left)
    right_arity = arity(child.right)
    needed: set[int] = set()
    for e in exprs:
        needed |= colexpr_columns(e)
    for c in conds:
        needed |= c.columns()
    keep_left = [i for i in range(1, left_arity + 1) if i in needed]
    keep_right = [i for i in range(left_arity + 1,
                                   left_arity + right_arity + 1)
                  if i in needed]
    if len(keep_left) == left_arity and len(keep_right) == right_arity:
        return None
    mapping: dict[int, int] = {}
    for pos, col in enumerate(keep_left, start=1):
        mapping[col] = pos
    for pos, col in enumerate(keep_right, start=len(keep_left) + 1):
        mapping[col] = pos
    remap = mapping.__getitem__
    new_left = (child.left if len(keep_left) == left_arity
                else Project(tuple(Col(i) for i in keep_left), child.left))
    new_right = (child.right if len(keep_right) == right_arity
                 else Project(tuple(Col(i - left_arity) for i in keep_right),
                              child.right))
    new_conds = frozenset(
        Condition(_shift_colexpr(c.left, remap), c.op,
                  _shift_colexpr(c.right, remap))
        for c in conds
    )
    dropped = left_arity + right_arity - len(keep_left) - len(keep_right)
    new_child = (Join(new_conds, new_left, new_right)
                 if isinstance(child, Join)
                 else Product(new_left, new_right))
    result = Project(tuple(_shift_colexpr(e, remap) for e in exprs),
                     new_child)
    steps.append(RewriteStep(
        "pushdown-project",
        f"pruned {dropped} dead column(s) below "
        f"{'join' if isinstance(child, Join) else 'product'}",
        before=Project(tuple(exprs), child), after=result))
    return result


def _pushdown(expr: AlgebraExpr, analysis: PlanAnalysis,
              steps: list[RewriteStep]) -> AlgebraExpr:
    arity = analysis.arity

    def go(node: AlgebraExpr) -> AlgebraExpr:
        if isinstance(node, Select):
            child = go(node.child)
            redex = Select(node.conds, child)
            if isinstance(child, Union):
                result = Union(Select(node.conds, child.left),
                               Select(node.conds, child.right))
                steps.append(RewriteStep(
                    "pushdown-select", "selection through union",
                    before=redex, after=result))
                return result
            if isinstance(child, Diff):
                anti = match_anti_join(child)
                if anti is not None:
                    conds, context, excluded = anti
                    result = rebuild_anti_join(
                        conds, Select(node.conds, context), excluded,
                        arity(context))
                    steps.append(RewriteStep(
                        "pushdown-select", "selection into anti-join input",
                        before=redex, after=result))
                    return result
                result = Diff(Select(node.conds, child.left), child.right)
                steps.append(RewriteStep(
                    "pushdown-select", "selection into difference input",
                    before=redex, after=result))
                return result
            if isinstance(child, Enumerate):
                inner_arity = arity(child.child)
                inside = frozenset(
                    c for c in node.conds
                    if all(i <= inner_arity for i in c.columns()))
                if inside:
                    outside = node.conds - inside
                    pushed = Enumerate(child.enumerator, child.inputs,
                                       child.out_count,
                                       Select(inside, child.child))
                    result = Select(outside, pushed) if outside else pushed
                    steps.append(RewriteStep(
                        "pushdown-select",
                        f"{len(inside)} condition(s) below enumerate",
                        before=redex, after=result))
                    return result
            return redex
        if isinstance(node, Join):
            left, right = go(node.left), go(node.right)
            left_arity = arity(left)
            push_left, push_right, keep = [], [], []
            for c in node.conds:
                cols = c.columns()
                if all(i <= left_arity for i in cols):
                    push_left.append(c)
                elif all(i > left_arity for i in cols):
                    shifted = (lambda i, off=left_arity: i - off)
                    push_right.append(Condition(
                        _shift_colexpr(c.left, shifted), c.op,
                        _shift_colexpr(c.right, shifted)))
                else:
                    keep.append(c)
            if not push_left and not push_right:
                return Join(node.conds, left, right)
            redex = Join(node.conds, left, right)
            if push_left:
                left = Select(frozenset(push_left), left)
            if push_right:
                right = Select(frozenset(push_right), right)
            result = (Join(frozenset(keep), left, right) if keep
                      else Product(left, right))
            steps.append(RewriteStep(
                "pushdown-select",
                f"{len(push_left) + len(push_right)} condition(s) "
                "below join", before=redex, after=result))
            return result
        if isinstance(node, Project):
            child = go(node.child)
            if isinstance(child, Union):
                result = Union(Project(node.exprs, child.left),
                               Project(node.exprs, child.right))
                steps.append(RewriteStep(
                    "pushdown-project", "projection through union",
                    before=Project(node.exprs, child), after=result))
                return result
            if isinstance(child, (Join, Product)):
                pruned = _prune_join_columns(node.exprs, child, arity, steps)
                if pruned is not None:
                    return pruned
            return Project(node.exprs, child)
        if isinstance(node, Enumerate):
            return Enumerate(node.enumerator, node.inputs, node.out_count,
                             go(node.child))
        if isinstance(node, Union):
            return Union(go(node.left), go(node.right))
        if isinstance(node, Diff):
            anti = match_anti_join(node)
            if anti is not None:
                conds, context, excluded = anti
                new_context = go(context)
                return rebuild_anti_join(conds, new_context, go(excluded),
                                         arity(new_context))
            return Diff(go(node.left), go(node.right))
        if isinstance(node, Product):
            return Product(go(node.left), go(node.right))
        return node

    return go(expr)


# ---------------------------------------------------------------------------
# 3. Greedy join reordering
# ---------------------------------------------------------------------------

def _region_projection(n: AlgebraExpr) -> bool:
    """A pure column shuffle sitting on a join: transparent to the
    region flattener.  (Translated plans interleave joins with
    column-pruning projections; under set semantics the kept columns
    determine the final answer, so the shuffle can be deferred to the
    region's restoring projection.)"""
    return (isinstance(n, Project)
            and all(isinstance(e, Col) for e in n.exprs)
            and isinstance(n.child, (Join, Product, Project)))


def _flatten_region(
        node: AlgebraExpr, analysis: PlanAnalysis,
) -> tuple[list[AlgebraExpr], list[Condition], tuple[int, ...]]:
    """Flatten a maximal Join/Product region into its non-join leaves,
    all conditions in region coordinates (the concatenation of the
    leaves' columns), and the region's output columns as a tuple of
    region coordinates.  Pure-``Col`` projections between joins are
    flattened through — they only relabel coordinates."""
    leaves: list[AlgebraExpr] = []
    conds: list[Condition] = []
    next_col = 0

    def walk(n: AlgebraExpr) -> tuple[int, ...]:
        nonlocal next_col
        if isinstance(n, (Join, Product)):
            out = walk(n.left) + walk(n.right)
            if isinstance(n, Join):
                get = (lambda i, cols=out: cols[i - 1])
                for c in n.conds:
                    conds.append(Condition(_shift_colexpr(c.left, get),
                                           c.op,
                                           _shift_colexpr(c.right, get)))
            return out
        if _region_projection(n):
            out = walk(n.child)
            return tuple(out[e.index - 1] for e in n.exprs)
        leaves.append(n)
        width = analysis.arity(n)
        out = tuple(range(next_col + 1, next_col + width + 1))
        next_col += width
        return out

    outcols = walk(node)
    return leaves, conds, outcols


def _rebuild_region(node: AlgebraExpr,
                    leaf_iter: Iterator[AlgebraExpr]) -> AlgebraExpr:
    """Rebuild the original region shape around rewritten leaves
    (mirrors :func:`_flatten_region`'s traversal order)."""
    if isinstance(node, (Join, Product)):
        left = _rebuild_region(node.left, leaf_iter)
        right = _rebuild_region(node.right, leaf_iter)
        if isinstance(node, Join):
            return Join(node.conds, left, right)
        return Product(left, right)
    if _region_projection(node):
        return Project(node.exprs, _rebuild_region(node.child, leaf_iter))
    return next(leaf_iter)


def _greedy_join_order(leaves: Sequence[AlgebraExpr],
                       conds: Sequence[Condition],
                       outcols: Sequence[int], analysis: PlanAnalysis,
                       steps: list[RewriteStep],
                       region_before: AlgebraExpr | None = None,
                       ) -> AlgebraExpr:
    """Left-deep greedy order: start from the estimated-smallest leaf,
    extend with the estimated-cheapest join, preferring connected
    extensions; every condition attaches at the earliest join where all
    of its columns are available.  Returns the rebuilt region wrapped
    in a projection restoring the region's original output columns.

    Each trial extension is costed through ``analysis``: the current
    prefix keeps its identity from step to step, so a trial costs its
    new leaf and new conditions, not a re-walk of the prefix."""
    stats = analysis.stats
    arities = [analysis.arity(leaf) for leaf in leaves]
    starts: list[int] = []
    offset = 0
    for a in arities:
        starts.append(offset)
        offset += a

    def leaf_of(col: int) -> int:
        for idx in range(len(leaves)):
            if starts[idx] < col <= starts[idx] + arities[idx]:
                return idx
        raise AssertionError(f"column @{col} outside join region")

    cond_leaves = [frozenset(leaf_of(i) for i in c.columns()) for c in conds]
    estimates = [estimate_cardinality(leaf, stats, analysis)
                 for leaf in leaves]

    start = min(range(len(leaves)), key=lambda i: (estimates[i], i))
    col_map: dict[int, int] = {
        starts[start] + j: j for j in range(1, arities[start] + 1)
    }
    current = leaves[start]
    current_arity = arities[start]
    placed = {start}
    order = [start]

    def remap_cond(cond: Condition, get: Callable[[int], int]) -> Condition:
        return Condition(_shift_colexpr(cond.left, get), cond.op,
                         _shift_colexpr(cond.right, get))

    ready = frozenset(remap_cond(conds[k], col_map.__getitem__)
                      for k in range(len(conds))
                      if cond_leaves[k] <= placed)
    pending = [k for k in range(len(conds)) if not cond_leaves[k] <= placed]
    if ready:
        current = Select(ready, current)

    while len(placed) < len(leaves):
        best = None
        for cand in range(len(leaves)):
            if cand in placed:
                continue
            reach = placed | {cand}
            usable = [k for k in pending if cond_leaves[k] <= reach]
            # the candidate's region columns follow the prefix's
            low, high = starts[cand], starts[cand] + arities[cand]
            shift = current_arity - low

            def trial_col(g: int, low: int = low, high: int = high,
                          shift: int = shift) -> int:
                return g + shift if low < g <= high else col_map[g]

            mapped = frozenset(remap_cond(conds[k], trial_col)
                               for k in usable)
            trial = (Join(mapped, current, leaves[cand]) if mapped
                     else Product(current, leaves[cand]))
            score = estimate_cardinality(trial, stats, analysis)
            key = (not usable, score, cand)
            if best is None or key < best[0]:
                best = (key, cand, usable, trial)
        assert best is not None
        _, cand, usable, current = best
        for j in range(1, arities[cand] + 1):
            col_map[starts[cand] + j] = current_arity + j
        current_arity += arities[cand]
        placed.add(cand)
        order.append(cand)
        pending = [k for k in pending if k not in usable]

    restore = tuple(Col(col_map[g]) for g in outcols)
    result = Project(restore, current)
    if order != sorted(order):
        steps.append(RewriteStep(
            "join-reorder",
            f"{len(leaves)}-way region evaluated in leaf order "
            f"{order} (estimated rows: "
            f"{', '.join(f'{e:.0f}' for e in estimates)})",
            before=region_before, after=result))
    return result


def _reorder_joins(expr: AlgebraExpr, analysis: PlanAnalysis,
                   steps: list[RewriteStep]) -> AlgebraExpr:
    def go(node: AlgebraExpr) -> AlgebraExpr:
        if isinstance(node, (Join, Product)):
            leaves, conds, outcols = _flatten_region(node, analysis)
            new_leaves = [go(leaf) for leaf in leaves]
            if len(new_leaves) >= 3:
                region_before = _rebuild_region(node, iter(new_leaves))
                return _greedy_join_order(new_leaves, conds, outcols,
                                          analysis, steps, region_before)
            return _rebuild_region(node, iter(new_leaves))
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
                conds, context, excluded = anti
                new_context = go(context)
                return rebuild_anti_join(conds, new_context, go(excluded),
                                         analysis.arity(new_context))
            return Diff(go(node.left), go(node.right))
        return node

    return go(expr)


# ---------------------------------------------------------------------------
# 4. Common-subexpression detection
# ---------------------------------------------------------------------------

def _cse_eligible(node: AlgebraExpr) -> bool:
    """Worth materializing when repeated: anything that does work.
    Scans (Rel/Lit/Params) are excluded — re-reading them is as cheap
    as re-reading a materialization."""
    return isinstance(node, (AdomK, Project, Select, Join, Union, Diff,
                             Product, Enumerate))


def shared_subplans(plan: AlgebraExpr) -> frozenset[AlgebraExpr]:
    """Structurally repeated subplans worth computing once.

    Occurrences *inside* an already-repeated subplan are not counted
    again (the whole subplan is shared, so its parts come for free),
    and the two structurally equal context occurrences of an anti-join
    pattern count as one — the planner builds that operator once.
    """
    counts: Counter = Counter()

    def visit(node: AlgebraExpr) -> None:
        if _cse_eligible(node):
            counts[node] += 1
            if counts[node] > 1:
                return
        if isinstance(node, Diff):
            anti = match_anti_join(node)
            if anti is not None:
                _conds, context, excluded = anti
                visit(context)
                visit(excluded)
                return
        if isinstance(node, (Project, Select, Enumerate)):
            visit(node.child)
        elif isinstance(node, (Join, Union, Diff, Product)):
            visit(node.left)
            visit(node.right)

    visit(plan)
    return frozenset(node for node, n in counts.items() if n >= 2)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def optimize_plan(expr: AlgebraExpr, stats: InstanceStats,
                  catalog: Mapping[str, int],
                  verify: bool | None = None,
                  schema: DatabaseSchema | None = None) -> OptimizationResult:
    """Run the full rewrite pipeline over ``expr``.

    Order: constant folding, then pushdown alternated with the
    algebraic simplifier to a fixed point, then join reordering, then
    build-side selection, then shared-subplan detection.  The result
    evaluates to exactly the same relation as the input (property-
    tested against both the unoptimized plan and the reference
    calculus evaluator, and — under ``verify``, which defers to the
    same module-wide default as the plan sanitizer — *certified* per
    run by the translation validator,
    :mod:`repro.analysis.validate`: every recorded step's obligation
    is replayed and :class:`~repro.errors.RewriteValidationError`
    raised on any violation).  ``schema``, when given, feeds declared
    column types and function signatures to the validator's
    column-fact refinement check.

    If the pipeline itself fails with an
    :class:`~repro.errors.EvaluationError` (an un-typable plan), the
    steps recorded up to that point are attached to the exception as
    ``rewrite_steps`` so callers falling back to the unoptimized plan
    can report what was attempted.  The input is type-checked before
    any rewrite, so an ill-typed plan fails with no steps.

    Every pass reads arities and estimates through one
    :class:`~repro.engine.stats.PlanAnalysis` for the call, so no
    subtree is analysed twice: greedy reordering of an ``n``-leaf chain
    costs ``O(n²)`` analysis steps instead of re-walking the left-deep
    prefix for every trial.  The memo changes no arithmetic, so plans,
    steps and shared sets are those of unmemoized analysis.
    """
    steps: list[RewriteStep] = []
    analysis = PlanAnalysis(stats, catalog)
    arity = analysis.arity
    try:
        # Type-check the input once; its nodes' arities stay cached.
        expected_arity = arity(expr)
        plan = _fold_constants(expr, analysis, steps)
        plan = simplify(plan, catalog, arity=arity)
        # Reorder before pushdown: the simplifier has merged selections
        # into the join nodes, so Join/Product regions are maximal here —
        # column pruning below would interpose projections and split them.
        plan = simplify(_reorder_joins(plan, analysis, steps), catalog,
                        arity=arity)
        for _ in range(MAX_PUSHDOWN_ROUNDS):
            round_steps: list[RewriteStep] = []
            candidate = simplify(_pushdown(plan, analysis, round_steps),
                                 catalog, arity=arity)
            if candidate == plan:
                break
            plan = candidate
            steps.extend(round_steps)
        swaps: list[tuple[str, AlgebraExpr, AlgebraExpr]] = []
        plan = choose_build_sides(plan, stats, catalog, swaps, analysis)
        steps.extend(RewriteStep("build-side", detail, before=b, after=a)
                     for detail, b, a in swaps)
        shared = shared_subplans(plan)
        if shared:
            steps.append(RewriteStep(
                "cse", f"{len(shared)} repeated subplan(s) computed once"))
    except EvaluationError as err:
        err.rewrite_steps = tuple(steps)
        raise
    finally:
        # The passes' recursive closures keep the analysis reachable
        # until the cycle collector runs: release its pinned nodes now.
        analysis.clear()
    if verify_plans_enabled(verify):
        check_plan(plan, catalog, phase="optimize",
                   expected_arity=expected_arity)
        check_rewrites(expr, plan, steps, shared, catalog, schema=schema,
                       phase="optimize")
    return OptimizationResult(plan, tuple(steps), shared)
