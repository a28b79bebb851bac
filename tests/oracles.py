"""Independent oracles that only the tests use.

Each one recomputes by a different route something the library computes,
so the tests can check the library against it: Lagrange interpolation for
symbolically built polynomials, point evaluation for interval enclosures, a
printer for the real-map parser, and a model invariant sweep.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from physmodels.exact_arith import Coeffs, poly, poly_add, poly_mul, poly_scale
from physmodels.model_core import Budget, Model, _apply_observable
from physmodels.spec_lang import _PRECEDENCE, RealExpr, RealFn, RLit, RNeg, RVar, eval_real_bounds


def interpolate(fn: Callable[[Fraction], Fraction], nodes: Sequence[Fraction]) -> Coeffs:
    """Lagrange interpolation through distinct rational nodes, exact.

    Recovers a polynomial of degree < len(nodes) from point evaluations;
    used as an independent oracle for symbolically built polynomials.
    """
    xs = [Fraction(x) for x in nodes]
    acc: Coeffs = ()
    for i, xi in enumerate(xs):
        term = poly(1)
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if i != j:
                term = poly_mul(term, poly(-xj, 1))
                denom *= xi - xj
        acc = poly_add(acc, poly_scale(term, fn(xi) / denom))
    return acc


def spot_check(model: Model, budget: Budget) -> None:
    """Validate model invariants on the budgeted prefix.

    Every enumerated state must evaluate under every observable; declared
    range deciders must accept the produced values; a membership decider on
    the state space must accept every enumerated state.
    """
    for state in model.states.enumerate(budget):
        if model.states.membership(state) is False:
            raise ValueError(f"enumerator produced non-member state {state}")
        for obs in model.observables:
            value = _apply_observable(obs, state, budget)
            if obs.range_decider is not None and not obs.range_decider(value):
                raise ValueError(
                    f"range decider for {obs.symbol!r} rejects produced value {value}"
                )


def eval_real_point(e: RealExpr, env: dict[str, Fraction]) -> Fraction:
    boxed = {k: (v, v) for k, v in env.items()}
    lo, hi = eval_real_bounds(e, boxed)
    assert lo == hi
    return lo


def format_real_expr(e: RealExpr, parent_prec: int = 0) -> str:
    if isinstance(e, RLit):
        text = str(e.value)
        return f"({text})" if e.value < 0 and parent_prec >= 3 else text
    if isinstance(e, RVar):
        return e.name
    if isinstance(e, RNeg):
        return f"-{format_real_expr(e.arg, 3)}"
    prec = _PRECEDENCE[e.op]
    body = f"{format_real_expr(e.left, prec)} {e.op} {format_real_expr(e.right, prec + 1)}"
    return f"({body})" if prec < parent_prec else body


def format_real_fn(fn: RealFn) -> str:
    outs = ", ".join(format_real_expr(o) for o in fn.outputs)
    if len(fn.outputs) > 1:
        outs = f"({outs})"
    return f"map({', '.join(fn.params)}) = {outs}"
