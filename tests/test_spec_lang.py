"""Parser, printer, and evaluator tests for the model-spec language."""

import random
from fractions import Fraction
from importlib import resources

import pytest

from physmodels import model_core
from physmodels.encodings import Interval, pair
from physmodels.model_core import Budget, model_from_spec
from physmodels.spec_lang import (
    And,
    BinOp,
    Cmp,
    Cond,
    EvalError,
    Lit,
    Not,
    Or,
    PairOp,
    Proj,
    RealFn,
    RBin,
    RLit,
    RVar,
    SpecSortError,
    SpecSyntaxError,
    StepCounter,
    StepLimitExceeded,
    Var,
    compile_expr,
    eval_closed_box,
    eval_int,
    eval_interval,
    eval_pred,
    format_int_expr,
    format_model,
    format_pred,
    int_free_vars,
    lint_model,
    parse_int_expr,
    parse_model,
    parse_pred,
    parse_real_fn,
)

from oracles import eval_real_point, format_real_fn

BARYON_TEXT = """\
model "baryon"
states enumerate s
observable f(s) = 2*s + 2
range f where n mod 2 == 0 and n >= 2
"""


def run_int(text, value, limit=10_000):
    expr = parse_int_expr(text)
    var = (int_free_vars(expr) or {"s"}).pop()
    return eval_int(expr, {var: value}, StepCounter(limit))


def test_parse_baryon_structure():
    spec = parse_model(BARYON_TEXT)
    assert spec.name == "baryon"
    assert spec.state_kind == "enumerate" and spec.state_expr == Var("s")
    assert spec.observables == (
        ("f", "s", BinOp("+", BinOp("*", Lit(2), Var("s")), Lit(2))),
    )
    (range_clause,) = spec.ranges
    assert range_clause[0] == "f"


def test_parse_errors_carry_positions():
    with pytest.raises(SpecSyntaxError) as err:
        parse_model('model "x"\nobservable f(s) = s <\n')
    assert err.value.line == 2

    with pytest.raises(SpecSyntaxError, match="duplicate observable"):
        parse_model('model "x"\nobservable f(s) = s\nobservable f(s) = s + 1\n')

    with pytest.raises(SpecSyntaxError, match="at least one observable"):
        parse_model('model "x"\nstates enumerate i\n')

    with pytest.raises(SpecSyntaxError, match="unbound variable"):
        parse_model('model "x"\nobservable f(s) = t + 1\n')

    with pytest.raises(SpecSyntaxError, match="unknown observable"):
        parse_model('model "x"\nobservable f(s) = s\nrange g where n > 0\n')


def test_sort_errors():
    with pytest.raises(SpecSortError):
        parse_pred("n")  # integer expression where a predicate is needed
    with pytest.raises(SpecSyntaxError):
        parse_int_expr("1 + (2 < 3)")


def test_eval_int_anchors():
    assert run_int("2*s + 2", 3) == 8
    assert run_int("J(s, 5*s)", 2) == pair(2, 10) == 80
    assert run_int("K(s)", 18) == 3
    assert run_int("L(s)", 18) == 2
    assert run_int("left(s)", 18) == 3 and run_int("right(s)", 18) == 2
    assert run_int("pair(s, s)", 3) == pair(3, 3)


def test_truncated_subtraction_and_division():
    assert run_int("3 - 5", 0) == 0
    assert run_int("5 - 3", 0) == 2
    assert run_int("7 div 2", 0) == 3
    assert run_int("7 mod 2", 0) == 1
    with pytest.raises(EvalError):
        run_int("1 div (s - s)", 4)


def test_conditional():
    expr = parse_int_expr("if s < 3 then s else 3*s")
    assert isinstance(expr, Cond)
    assert eval_int(expr, {"s": 2}, StepCounter(100)) == 2
    assert eval_int(expr, {"s": 5}, StepCounter(100)) == 15


def test_step_budget_exhaustion():
    expr = parse_int_expr("s*s*s*s*s*s*s*s")
    with pytest.raises(StepLimitExceeded):
        eval_int(expr, {"s": 2}, StepCounter(3))


def reference_eval(e, env):
    """Direct-recursion reference evaluator, no budget bookkeeping."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, BinOp):
        a, b = reference_eval(e.left, env), reference_eval(e.right, env)
        return {
            "+": a + b,
            "-": max(a - b, 0),
            "*": a * b,
            "div": a // b if b else None,
            "mod": a % b if b else None,
        }[e.op]
    if isinstance(e, PairOp):
        return pair(*(reference_eval(a, env) for a in e.args))
    if isinstance(e, Proj):
        from physmodels.encodings import unpair

        n = reference_eval(e.arg, env)
        return unpair(n)[0 if e.which == "K" else 1]
    if isinstance(e, Cond):
        test = reference_pred(e.test, env)
        return reference_eval(e.then if test else e.other, env)
    raise TypeError(type(e))


def reference_pred(p, env):
    if isinstance(p, Cmp):
        a, b = reference_eval(p.left, env), reference_eval(p.right, env)
        return {"==": a == b, "!=": a != b, "<": a < b,
                "<=": a <= b, ">": a > b, ">=": a >= b}[p.op]
    if isinstance(p, And):
        return reference_pred(p.left, env) and reference_pred(p.right, env)
    if isinstance(p, Or):
        return reference_pred(p.left, env) or reference_pred(p.right, env)
    return not reference_pred(p.arg, env)


def random_int_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Lit(rng.randrange(10)), Var("s")])
    kind = rng.randrange(5)
    if kind == 0:
        return BinOp(
            rng.choice(["+", "-", "*", "div", "mod"]),
            random_int_expr(rng, depth - 1),
            rng.choice([Lit(rng.randrange(1, 9)), random_int_expr(rng, depth - 1)]),
        )
    if kind == 1:
        return PairOp(tuple(random_int_expr(rng, depth - 1) for _ in range(rng.randrange(1, 4))))
    if kind == 2:
        return Proj(rng.choice(["K", "L"]), random_int_expr(rng, depth - 1))
    if kind == 3:
        return Cond(
            random_pred(rng, depth - 1),
            random_int_expr(rng, depth - 1),
            random_int_expr(rng, depth - 1),
        )
    return BinOp("+", random_int_expr(rng, depth - 1), Lit(rng.randrange(5)))


def random_pred(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return Cmp(
            rng.choice(["==", "!=", "<", "<=", ">", ">="]),
            random_int_expr(rng, max(depth - 1, 0)),
            random_int_expr(rng, max(depth - 1, 0)),
        )
    kind = rng.randrange(3)
    if kind == 0:
        return And(random_pred(rng, depth - 1), random_pred(rng, depth - 1))
    if kind == 1:
        return Or(random_pred(rng, depth - 1), random_pred(rng, depth - 1))
    return Not(random_pred(rng, depth - 1))


def test_eval_matches_reference_on_fuzzed_exprs():
    rng = random.Random(42)
    checked = 0
    while checked < 300:
        expr = random_int_expr(rng, 3)
        s = rng.randrange(50)
        try:
            expected = reference_eval(expr, {"s": s})
        except TypeError:
            raise
        except Exception:
            expected = None
        if expected is None:
            checked += 1
            continue
        assert eval_int(expr, {"s": s}, StepCounter(100_000)) == expected
        checked += 1


def worst_case_steps(node):
    """Most steps ``eval_int``/``eval_pred`` can charge for ``node``: a
    conditional its test and its costlier branch, any other node all of
    its children."""
    if isinstance(node, (Lit, Var)):
        return 1
    if isinstance(node, Cond):
        branch = max(worst_case_steps(node.then), worst_case_steps(node.other))
        return 1 + worst_case_steps(node.test) + branch
    if isinstance(node, PairOp):
        children = node.args
    elif isinstance(node, (Proj, Not)):
        children = (node.arg,)
    else:
        children = (node.left, node.right)
    return 1 + sum(worst_case_steps(c) for c in children)


def outcome(evaluate, limit):
    """(value with its type, or exception type and message; steps left)."""
    steps = StepCounter(limit)
    try:
        value = evaluate(steps)
        result = ("value", type(value), value)
    except Exception as exc:
        result = (type(exc), str(exc))
    return result, steps.remaining


def test_compiled_eval_equals_interpreter():
    rng = random.Random(2718)
    kinds = set()
    cases = 0
    for trial in range(600):
        is_pred = trial % 3 == 0
        node = random_pred(rng, 3) if is_pred else random_int_expr(rng, 3)
        var = "s" if trial % 5 else ""  # closed: the variable is unbound
        interpret = eval_pred if is_pred else eval_int
        compiled = compile_expr(node, var)
        for s in (rng.randrange(50), rng.randrange(10**6)):
            env = {var: s} if var else {}
            for limit in range(1, worst_case_steps(node) + 3):
                got = outcome(lambda steps: compiled(s, steps), limit)
                want = outcome(lambda steps: interpret(node, env, steps), limit)
                assert got == want, (node, var, s, limit)
                kinds.add(want[0][0])
                cases += 1
    assert kinds == {"value", StepLimitExceeded, EvalError} and cases > 10_000


def reference_image(run, node, values, limit):
    """The bulk contract element by element: fresh counters, or None when the
    limit is below the worst-case cost or any element raises."""
    if limit < worst_case_steps(node):
        return None
    try:
        return [(type(v), v) for v in (run(x, StepCounter(limit)) for x in values)]
    except EvalError:
        return None


def test_compiled_image_equals_per_element_runs():
    rng = random.Random(1618)
    kinds = set()
    for trial in range(600):
        is_pred = trial % 3 == 0
        node = random_pred(rng, 3) if is_pred else random_int_expr(rng, 3)
        var = "s" if trial % 5 else ""
        compiled = compile_expr(node, var)
        values = [rng.randrange(12) for _ in range(rng.randrange(8))] + [rng.randrange(10**6)]
        worst = worst_case_steps(node)
        for limit in range(1, worst + 3):
            got = compiled.image(values, limit)
            got = None if got is None else [(type(v), v) for v in got]
            want = reference_image(compiled, node, values, limit)
            assert got == want, (node, var, values, limit)
            kinds.add("list" if want is not None else "short" if limit < worst else "raises")
    assert kinds == {"list", "short", "raises"}
    # A zero divisor at a middle element, and the prefix before it.
    middle = compile_expr(parse_int_expr("10 div (3 - s) + s"), "s")
    assert middle.image(range(3), 100) == [3, 6, 12]
    assert middle.image(range(6), 100) is None
    assert middle.image([], 6) is None and middle.image([], 7) == []


def test_compiled_maps_share_one_counter():
    inner = model_core.ExprMap("s", parse_int_expr("if s mod 3 == 0 then J(s, s + 1) else s * s"))
    outer = model_core.ExprMap(
        "x", parse_int_expr("if K(x) > 4 or x == 1 then L(x) div (x - 1) else x + 7")
    )
    composed = model_core.ComposedMap(outer, inner)
    most = worst_case_steps(inner.body) + worst_case_steps(outer.body)
    for s in range(12):
        for limit in range(1, most + 3):
            got = outcome(lambda steps: composed.evaluate(s, steps), limit)
            want = outcome(
                lambda steps: eval_int(outer.body, {"x": eval_int(inner.body, {"s": s}, steps)}, steps),
                limit,
            )
            assert got == want, (s, limit)


def test_print_parse_roundtrip_fuzzed():
    rng = random.Random(4242)
    for _ in range(100):
        expr = random_int_expr(rng, 3)
        assert parse_int_expr(format_int_expr(expr)) == expr
        pred = random_pred(rng, 3)
        assert parse_pred(format_pred(pred)) == pred


def test_model_roundtrip_builtformat():
    models = resources.files("physmodels") / "models"
    packaged = [(models / f"{name}.spec").read_text() for name in ("baryon", "cannon", "decay")]
    for text in (BARYON_TEXT, *packaged):
        spec = parse_model(text)
        assert parse_model(format_model(spec)) == spec
    where = 'model "m"\nstates where s mod 3 == 0 or not s < 5\nobservable f(s) = s\n'
    spec = parse_model(where)
    assert parse_model(format_model(spec)) == spec


def test_model_roundtrip_fuzzed_specs():
    from physmodels.spec_lang import ModelSpec

    rng = random.Random(77)
    for trial in range(100):
        n_obs = rng.randint(1, 4)
        observables = tuple(
            (f"f{k}", "s", random_int_expr(rng, 2)) for k in range(n_obs)
        )
        ranges = tuple(
            (f"f{k}", "n", random_pred(rng, 2))
            for k in range(n_obs)
            if rng.random() < 0.5
        )
        if rng.random() < 0.5:
            state = ("enumerate", "i", random_int_expr(rng, 2))
        else:
            state = ("where", "s", random_pred(rng, 2))
        spec = ModelSpec(
            name=f"fuzz{trial}",
            state_kind=state[0],
            state_var=state[1],
            state_expr=_rebind(state[2], state[1]),
            observables=tuple((s, v, _rebind(e, v)) for s, v, e in observables),
            ranges=tuple((s, v, _rebind(p, v)) for s, v, p in ranges),
        )
        reparsed = parse_model(format_model(spec))
        assert reparsed.observables == spec.observables
        assert reparsed.ranges == spec.ranges
        assert reparsed.state_expr == spec.state_expr


def _rebind(node, var):
    """Rename every variable in a fuzzed expression to the binder."""
    if isinstance(node, Var):
        return Var(var)
    if isinstance(node, Lit):
        return node
    if isinstance(node, BinOp):
        return BinOp(node.op, _rebind(node.left, var), _rebind(node.right, var))
    if isinstance(node, PairOp):
        return PairOp(tuple(_rebind(a, var) for a in node.args))
    if isinstance(node, Proj):
        return Proj(node.which, _rebind(node.arg, var))
    if isinstance(node, Cond):
        return Cond(
            _rebind(node.test, var), _rebind(node.then, var), _rebind(node.other, var)
        )
    if isinstance(node, Cmp):
        return Cmp(node.op, _rebind(node.left, var), _rebind(node.right, var))
    if isinstance(node, And):
        return And(_rebind(node.left, var), _rebind(node.right, var))
    if isinstance(node, Or):
        return Or(_rebind(node.left, var), _rebind(node.right, var))
    if isinstance(node, Not):
        return Not(_rebind(node.arg, var))
    raise TypeError(type(node))


def test_spec_state_spaces_enumerate():
    model = model_from_spec(BARYON_TEXT)
    assert list(model.states.enumerate(Budget(5, 100))) == [0, 1, 2, 3, 4]
    model = model_from_spec('model "m"\nstates where s mod 2 == 0\nobservable f(s) = s\n')
    assert list(model.states.enumerate(Budget(7, 100))) == [0, 2, 4, 6]


def test_parse_real_fn():
    fn = parse_real_fn("map(x) = x*x")
    assert fn == RealFn(("x",), (RBin("*", RVar("x"), RVar("x")),))
    fn = parse_real_fn("map(x, y) = (x + y, x*y - 2/3)")
    assert fn.arity == 2 and fn.out_dim == 2
    assert parse_real_fn(format_real_fn(fn)) == fn
    with pytest.raises(SpecSyntaxError):
        parse_real_fn("map(x) = x /")
    with pytest.raises(Exception):
        parse_real_fn("map(x) = y")


def test_real_literal_folding_roundtrip():
    fn = parse_real_fn("map(x) = -1/2 * x + -3")
    assert parse_real_fn(format_real_fn(fn)) == fn
    assert RLit(Fraction(-1, 2)) == fn.outputs[0].left.left  # type: ignore[union-attr]


def test_eval_interval_containment_random_points():
    rng = random.Random(5)
    fn = parse_real_fn("map(x, y) = (x*y - y, x + y + 1/2, x*x)")
    for _ in range(100):
        box = []
        point = []
        for _ in range(2):
            lo = Fraction(rng.randint(-40, 39), rng.randint(1, 9))
            hi = lo + Fraction(rng.randint(1, 30), rng.randint(1, 9))
            box.append(Interval(lo, hi))
            t = Fraction(rng.randint(1, 999), 1000)
            point.append(lo + (hi - lo) * t)
        for m in (0, 2, 6):
            out = eval_interval(fn, box, m)
            values = [
                eval_real_point(o, dict(zip(fn.params, point))) for o in fn.outputs
            ]
            for value, iv in zip(values, out):
                assert value in iv


def test_eval_interval_inclusion_isotone():
    fn = parse_real_fn("map(x) = x*x")
    outer = Interval(Fraction(-1), Fraction(2))
    inner = Interval(Fraction(0), Fraction(1))
    for m in (0, 1, 4):
        big = eval_interval(fn, [outer], m)[0]
        small = eval_interval(fn, [inner], m)[0]
        assert big.contains_interval(small)


def test_eval_interval_anchor_shapes():
    add = parse_real_fn("map(x, y) = x + y")
    unit = Interval(Fraction(0), Fraction(1))
    out = eval_interval(add, [unit, unit], 0)[0]
    assert out.lo <= 0 and out.hi >= 2  # encloses (0;2)

    square = parse_real_fn("map(x) = x*x")
    for m in (1, 4, 10):
        out = eval_interval(square, [unit], m)[0]
        assert out.lo < 0 < 1 < out.hi
        assert out.width <= 1 + Fraction(2, 2**m)
    # widths tend to the true image width as the margin vanishes
    assert eval_interval(square, [unit], 20)[0].width - 1 <= Fraction(2, 2**20)

    const = parse_real_fn("map(x) = 2/3")
    widths = [eval_interval(const, [unit], m)[0].width for m in range(6)]
    assert all(w2 < w1 for w1, w2 in zip(widths, widths[1:]))
    for m in range(6):
        assert Fraction(2, 3) in eval_interval(const, [unit], m)[0]

    raw = eval_closed_box(square, [unit])
    assert raw == ((Fraction(0), Fraction(1)),)


def test_lint_notes():
    assert lint_model(BARYON_TEXT) == []
    notes = lint_model('observable f(s) = s\n')
    assert any("no range clause" in n for n in notes)
    assert any("no name" in n for n in notes)


def test_identity_margin_at_zero():
    # index 0 margin is min(1, width/2): unit box stays within width 2
    ident = parse_real_fn("map(x) = x")
    out = eval_interval(ident, [Interval(Fraction(0), Fraction(1))], 0)[0]
    assert out.contains_interval(Interval(Fraction(0), Fraction(1)))
    assert out.width <= 1 + 2 * Fraction(1)
