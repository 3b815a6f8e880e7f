"""Structural logic optimisation passes.

Pre-mapping cleanups applied to expression trees:

* constant folding and identity removal;
* double-negation elimination;
* flattening of nested same-operator nodes into n-ary form;
* balanced decomposition of wide operators (a chain of ANDs becomes a
  tree, cutting depth from n-1 to ceil(log2 n) -- the single biggest
  structural lever on "levels of logic on the critical path", Section 4).
"""

from __future__ import annotations

from repro.synth.ast import (
    And,
    Const,
    Expr,
    FALSE,
    Not,
    Or,
    SynthesisError,
    TRUE,
    Var,
    Xor,
)


def simplify(expr: Expr) -> Expr:
    """Constant-fold and remove double negations, bottom-up."""
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Not):
        child = simplify(expr.child)
        if isinstance(child, Const):
            return FALSE if child.value else TRUE
        if isinstance(child, Not):
            return child.child
        return Not(child)
    if isinstance(expr, Xor):
        left = simplify(expr.left)
        right = simplify(expr.right)
        if isinstance(left, Const):
            return simplify(Not(right)) if left.value else right
        if isinstance(right, Const):
            return simplify(Not(left)) if right.value else left
        if left == right:
            return FALSE
        return Xor(left, right)
    if isinstance(expr, (And, Or)):
        dominant = FALSE if isinstance(expr, And) else TRUE
        identity = TRUE if isinstance(expr, And) else FALSE
        children = []
        for raw in expr.children:
            child = simplify(raw)
            if child == dominant:
                return dominant
            if child == identity:
                continue
            children.append(child)
        unique = []
        for child in children:
            if child not in unique:
                unique.append(child)
        for child in unique:
            complement = child.child if isinstance(child, Not) else Not(child)
            if complement in unique:
                return dominant  # x & ~x = 0, x | ~x = 1
        if not unique:
            return identity
        if len(unique) == 1:
            return unique[0]
        return type(expr)(unique)
    raise SynthesisError(f"unknown expression node {type(expr).__name__}")


def flatten(expr: Expr) -> Expr:
    """Merge nested same-operator AND/OR nodes into single n-ary nodes.

    ``(a & (b & c)) & d`` becomes ``a & b & c & d``, exposing the full
    operator width to the balancer and the mapper's wide-gate selection.
    """
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Not):
        return Not(flatten(expr.child))
    if isinstance(expr, Xor):
        return Xor(flatten(expr.left), flatten(expr.right))
    if isinstance(expr, (And, Or)):
        op = type(expr)
        merged: list[Expr] = []
        for raw in expr.children:
            child = flatten(raw)
            if isinstance(child, op):
                merged.extend(child.children)
            else:
                merged.append(child)
        return op(merged)
    raise SynthesisError(f"unknown expression node {type(expr).__name__}")


def balance(expr: Expr, max_arity: int = 2) -> Expr:
    """Decompose wide AND/OR nodes into balanced trees of bounded arity.

    Children are paired shallowest-first (a Huffman-style construction),
    which minimises the depth of the resulting tree when operand depths
    are unequal -- the "balance the logic in pipeline stages" idea of
    Section 4.1 applied at the cone level.
    """
    if max_arity < 2:
        raise SynthesisError("max arity must be at least 2")
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Not):
        return Not(balance(expr.child, max_arity))
    if isinstance(expr, Xor):
        return Xor(balance(expr.left, max_arity), balance(expr.right, max_arity))
    if isinstance(expr, (And, Or)):
        op = type(expr)
        items = [balance(child, max_arity) for child in expr.children]
        # Huffman-style: repeatedly group the shallowest max_arity operands.
        while len(items) > max_arity:
            items.sort(key=lambda e: e.depth())
            group = items[:max_arity]
            items = items[max_arity:]
            items.append(op(group))
        if len(items) == 1:
            return items[0]
        return op(items)
    raise SynthesisError(f"unknown expression node {type(expr).__name__}")


def optimize(expr: Expr, max_arity: int = 2) -> Expr:
    """Full pre-mapping pipeline: simplify, flatten, balance, simplify."""
    return simplify(balance(flatten(simplify(expr)), max_arity))
