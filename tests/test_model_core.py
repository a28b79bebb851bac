"""Model algebra, faithfulness, and builtin-universe tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physmodels import model_core
from physmodels.encodings import pair
from physmodels.model_core import (
    AllStates,
    Budget,
    ChainReport,
    ChainStageReport,
    Failure,
    FiniteStates,
    MeasuringOperation,
    Model,
    ObservationLog,
    Observable,
    RangeEvaluationError,
    SemiDecidableSet,
    UNKNOWN,
    UnknownSymbolError,
    WITNESSED,
    always_fail_op,
    apply_isomorphism,
    builtin,
    cannon_ranging_op,
    check_faithful,
    check_maximally_faithful,
    compare_strength,
    derive,
    enumerate_range,
    merge_expansions,
    model_from_spec,
    range_table,
    reduct,
    replay_worldline_chain,
    restrict,
    time_slice_set,
    as_map,
)
from physmodels.spec_lang import EvalError, parse_int_expr

from oracles import spot_check

B100 = Budget(100)


def test_builtin_baryon_range():
    model = builtin("baryon")
    assert enumerate_range(model, "f", Budget(5)) == {2, 4, 6, 8, 10}
    spot_check(model, Budget(50))


def test_builtin_cannon_range():
    model = builtin("cannon")
    assert enumerate_range(model, "f", Budget(3)) == {pair(0, 0), pair(1, 5), pair(2, 10)}
    assert enumerate_range(model, "f", Budget(3)) == {0, 22, 80}
    spot_check(model, Budget(50))


def test_zero_budget_range_is_empty():
    assert enumerate_range(builtin("baryon"), "f", Budget(0)) == set()


def test_range_monotone_in_budget():
    for name in ("baryon", "cannon", "decay"):
        model = builtin(name)
        previous = set()
        for n in (1, 3, 10, 40):
            current = enumerate_range(model, "f", Budget(n))
            assert previous <= current
            previous = current


def test_check_faithful_witnessed():
    model = builtin("baryon")
    log = ObservationLog.from_pairs([("f", 2), ("f", 4)])
    verdicts = check_faithful(model, log, B100)
    assert [v.verdict for v in verdicts] == [WITNESSED, WITNESSED]
    assert [v.witness for v in verdicts] == [0, 1]


def test_check_faithful_refuted_by_parity():
    model = builtin("baryon")
    (verdict,) = check_faithful(model, ObservationLog.from_pairs([("f", 3)]), B100)
    assert verdict.verdict == "refuted"


def test_check_faithful_unknown_on_budget_exhaustion():
    model = builtin("baryon")
    log = ObservationLog.from_pairs([("f", 10**18)])
    (verdict,) = check_faithful(model, log, Budget(4))
    assert verdict.verdict == UNKNOWN


def test_check_faithful_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        check_faithful(builtin("baryon"), ObservationLog.from_pairs([("g", 1)]), B100)


def test_unknown_symbol_error_names_first_logged_symbol():
    for first, second in (("g", "h"), ("h", "g")):
        log = ObservationLog.from_pairs([(first, 1), (second, 2), (first, 3)])
        assert log.symbols() == (first, second)
        for check in (check_faithful, check_maximally_faithful):
            with pytest.raises(UnknownSymbolError) as err:
                check(builtin("baryon"), log, Budget(10))
            assert err.value.args == (first,)


def test_step_exhaustion_identifies_state():
    model = builtin("baryon")
    with pytest.raises(RangeEvaluationError) as err:
        enumerate_range(model, "f", Budget(5, max_steps=2))
    assert err.value.state == 0

    deep = model_from_spec('model "m"\nstates enumerate s*s*s*s\nobservable f(s) = s\n')
    with pytest.raises(RangeEvaluationError) as err:
        enumerate_range(deep, "f", Budget(5, max_steps=3))
    assert err.value.state == 0
    assert str(err.value) == "evaluating 'states enumerate s * s * s * s' at index 0 exceeded 3 steps"
    assert enumerate_range(deep, "f", Budget(3, max_steps=7)) == {0, 1, 16}

    where = model_from_spec('model "m"\nstates where s*s*s*s > 3\nobservable f(s) = s\n')
    with pytest.raises(RangeEvaluationError) as err:
        enumerate_range(where, "f", Budget(5, max_steps=3))
    assert str(err.value) == "evaluating 'states where s * s * s * s > 3' at state 0 exceeded 3 steps"
    assert enumerate_range(where, "f", Budget(4, max_steps=9)) == {2, 3}

    renamed = apply_isomorphism(builtin("baryon"), forward="s*s*s*s", backward="s")
    with pytest.raises(RangeEvaluationError) as err:
        enumerate_range(renamed, "f", Budget(5, max_steps=3))
    assert str(err.value) == "evaluating 'state renaming' at state 0 exceeded 3 steps"


def test_check_maximally_faithful():
    model = builtin("baryon")
    log = ObservationLog.from_pairs([("f", 2 * s + 2) for s in range(6)])
    report = check_maximally_faithful(model, log, Budget(6))
    assert report.fully_matched

    report = check_maximally_faithful(model, ObservationLog.from_pairs([("f", 2)]), Budget(3))
    assert report.observed_direction_clean
    assert report.unobserved["f"] == [4, 6]

    report = check_maximally_faithful(model, ObservationLog.from_pairs([]), Budget(3))
    assert report.observed_direction_clean  # vacuously
    assert report.unobserved["f"] == [2, 4, 6]
    assert not report.fully_matched


def test_log_jsonl_roundtrip():
    log = ObservationLog.from_pairs([("f", 2), ("f", 80)])
    assert ObservationLog.from_jsonl(log.to_jsonl()) == log
    with pytest.raises(ValueError):
        ObservationLog.from_jsonl('{"observable": "f", "result": -1}\n')
    with pytest.raises(ValueError):
        ObservationLog.from_jsonl("not json\n")


def test_log_jsonl_rejects_bool_results_and_non_string_observables():
    for line, reason in (
        ('{"observable": "f", "result": true}', "result must be a nonnegative integer"),
        ('{"observable": "f", "result": false}', "result must be a nonnegative integer"),
        ('{"observable": ["f"], "result": 2}', "observable must be a string"),
        ('{"observable": 7, "result": 2}', "observable must be a string"),
    ):
        with pytest.raises(ValueError) as exc:
            ObservationLog.from_jsonl('{"observable": "f", "result": 2}\n' + line + "\n")
        assert str(exc.value) == f"log line 2: {reason}"


def test_reduct_filters_and_preserves():
    expanded = derive(builtin("baryon"), "f", "n div 2 - 1", "g")
    small = reduct(expanded, ["f"])
    assert small.symbols == ("f",)
    assert enumerate_range(small, "f", Budget(7)) == enumerate_range(
        expanded, "f", Budget(7)
    )
    assert reduct(expanded, expanded.symbols) == expanded
    with pytest.raises(UnknownSymbolError):
        reduct(expanded, ["h"])
    with pytest.raises(ValueError):
        reduct(expanded, [])


def test_restrict_baryon_to_greater_than_two():
    q = SemiDecidableSet(decide=lambda n: n > 2, description="n > 2")
    sub = restrict(builtin("baryon"), "f", q, B100)
    assert enumerate_range(sub, "f", Budget(6)) == {4, 6, 8, 10, 12}
    # the composed decider now rejects 2
    (verdict,) = check_faithful(sub, ObservationLog.from_pairs([("f", 2)]), B100)
    assert verdict.verdict == "refuted"


def test_restrict_cannon_time_slice():
    sub = restrict(builtin("cannon"), "f", time_slice_set(2), B100)
    assert list(sub.states.enumerate(Budget(50))) == [2]
    assert enumerate_range(sub, "f", Budget(50)) == {pair(2, 10)}


def test_restrict_with_superset_is_equivalent_at_budget():
    q = SemiDecidableSet(decide=lambda n: True, description="everything")
    model = builtin("baryon")
    sub = restrict(model, "f", q, B100)
    report = compare_strength(sub, model, Budget(20))
    assert report.equivalent()


def test_restrict_requires_single_observable():
    expanded = derive(builtin("baryon"), "f", "n", "g")
    with pytest.raises(ValueError):
        restrict(expanded, "f", SemiDecidableSet(decide=lambda n: True), B100)


def test_restrict_with_enumerator_defers_and_recovers():
    # Q = even numbers, given only by an enumerator: membership is verified
    # once the enumeration effort reaches the value.
    q = SemiDecidableSet(enumerator=lambda i: 2 * i, description="even numbers")
    sub = restrict(builtin("baryon"), "f", q, B100)
    few = set(sub.states.enumerate(Budget(3)))  # effort 3 verifies values 0,2,4
    many = set(sub.states.enumerate(Budget(40)))
    assert few <= many
    assert few == {0, 1}  # f(s) = 2s+2 needs enumeration effort s+2
    assert many == set(range(39))  # state 39 stays deferred at effort 40
    assert 39 in set(sub.states.enumerate(Budget(41)))


def test_restrict_reports_model_defects():
    # a defect in the observable is an error, never a deferral
    model = model_from_spec('model "m"\nstates enumerate s\nobservable f(s) = 10 div s\n')
    sub = restrict(model, "f", SemiDecidableSet.from_pred_text("n >= 0"), Budget(5))
    with pytest.raises(EvalError, match="div by zero"):
        enumerate_range(sub, "f", Budget(5))


BUDGET_PAIRS = st.tuples(st.integers(0, 100), st.integers(0, 100)).map(sorted)


@settings(max_examples=20)
@given(BUDGET_PAIRS, st.sampled_from(["baryon", "cannon", "decay"]), st.integers(1, 5),
       st.integers(0, 4))
def test_restricted_and_derived_ranges_grow_with_budget(budgets, name, k, c):
    b1, b2 = (Budget(b) for b in budgets)
    models = [
        restrict(builtin(name), "f", SemiDecidableSet(decide=lambda n: n % k == c % k), B100),
        restrict(builtin(name), "f", SemiDecidableSet(enumerator=lambda i: k * i + c), B100),
        derive(builtin(name), "f", f"n div {k} + {c}", "g"),
    ]
    for model in models:
        sym = model.symbols[-1]
        assert enumerate_range(model, sym, b1) <= enumerate_range(model, sym, b2)


@settings(max_examples=20)
@given(BUDGET_PAIRS, st.sampled_from(["baryon", "cannon", "decay"]),
       st.lists(st.integers(0, 3000), max_size=8))
def test_refuted_never_meets_a_later_witness(budgets, name, results):
    model = builtin(name)
    b1, b2 = (Budget(b) for b in budgets)
    table = range_table(model, "f", b2)
    log = ObservationLog.from_pairs(("f", n) for n in [*table, *results])
    for verdict in check_faithful(model, log, b1):
        if verdict.verdict == "refuted":
            assert verdict.result not in table


def test_derive_time_slice_distance():
    u = 3
    b_u = restrict(builtin("cannon"), "f", time_slice_set(u), B100)
    c_u = derive(b_u, "f", parse_int_expr("L(x)"), f"g{u}")
    assert enumerate_range(c_u, f"g{u}", Budget(50)) == {15}
    assert enumerate_range(c_u, "f", Budget(50)) == {pair(3, 15)}


def test_derive_identity_keeps_range():
    model = builtin("baryon")
    expanded = derive(model, "f", "n", "same")
    assert enumerate_range(expanded, "same", Budget(9)) == enumerate_range(
        model, "f", Budget(9)
    )


def test_derive_inverse_map():
    expanded = derive(builtin("baryon"), "f", "n div 2 - 1", "s")
    assert enumerate_range(expanded, "s", Budget(6)) == {0, 1, 2, 3, 4, 5}
    with pytest.raises(ValueError):
        derive(expanded, "f", "n", "s")


def test_compare_strength_submodel():
    model = builtin("baryon")
    q = SemiDecidableSet(decide=lambda n: n > 2, description="n > 2")
    sub = restrict(model, "f", q, B100)
    report = compare_strength(sub, model, Budget(25))
    assert report.left_in_right["f"].verdict == "subset"  # sub is stronger
    assert report.right_in_left["f"].verdict == "counterexample"
    assert report.right_in_left["f"].counterexample == 2


def test_compare_strength_self_equivalence():
    model = builtin("cannon")
    assert compare_strength(model, model, Budget(30)).equivalent()


def test_compare_strength_requires_matching_symbols():
    with pytest.raises(ValueError):
        compare_strength(builtin("baryon"), builtin("chain_Eu", u=1), Budget(5))


def test_chain_stage_builtins():
    b2 = builtin("chain_Bu", u=2)
    assert enumerate_range(b2, "f", Budget(50)) == {pair(2, 10)}
    c2 = builtin("chain_Cu", u=2)
    assert c2.symbols == ("f", "g2")
    assert enumerate_range(c2, "g2", Budget(50)) == {10}
    d2 = builtin("chain_Du", u=2)
    assert d2.symbols == ("g2",)


def test_chain_models_match_isomorphic_pair():
    d3 = builtin("chain_Du", u=3)
    e3 = builtin("chain_Eu", u=3)
    assert enumerate_range(e3, "g3", Budget(10)) == {15}
    report = compare_strength(e3, d3, Budget(30))
    assert report.equivalent()


def test_merge_expansions():
    parts = [builtin("chain_Eu", u=u) for u in range(4)]
    merged = merge_expansions(parts)
    assert enumerate_range(merged, "g2", Budget(5)) == {10}
    assert merged.symbols == ("g0", "g1", "g2", "g3")
    assert reduct(merged, parts[1].symbols) == parts[1]
    assert merge_expansions([parts[0]]) == parts[0]


def test_merge_rejects_mismatched_spaces_and_collisions():
    with pytest.raises(ValueError):
        merge_expansions([builtin("chain_Eu", u=0), builtin("baryon")])
    with pytest.raises(ValueError):
        merge_expansions([builtin("chain_Eu", u=1), builtin("chain_Eu", u=1)])


def test_simulate_always_fail():
    op = always_fail_op()
    assert all(isinstance(op.program(seed), Failure) for seed in range(20))


def test_simulated_cannon_results_are_exact():
    op = builtin("cannon").measuring_ops["f"]
    from physmodels.encodings import unpair

    for seed in range(200):
        result = op.program(seed)
        assert not isinstance(result, Failure)
        t, m = unpair(result)
        assert m == 5 * t


def test_restriction_wrapper_fails_outside_q():
    u = 2
    sub = restrict(builtin("cannon"), "f", time_slice_set(u), B100)
    op = sub.measuring_ops["f"]
    from physmodels.encodings import first

    hits = misses = 0
    for seed in range(200):
        result = op.program(seed)
        if isinstance(result, Failure):
            misses += 1
        else:
            assert first(result) == u
            hits += 1
    assert hits > 0 and misses > 0


def test_derived_natural_op_failure_propagates():
    model = Model(
        states=AllStates(),
        observables=(Observable("f", as_map("2*s + 2")),),
        measuring_ops={"f": always_fail_op()},
    )
    expanded = derive(model, "f", "n div 2", "g")
    assert isinstance(expanded.measuring_ops["g"].program(1), Failure)


def test_reduct_faithfulness_property():
    """Records witnessed in the full model stay witnessed in any reduct."""
    model = derive(builtin("cannon"), "f", parse_int_expr("L(x)"), "dist")
    small = reduct(model, ["dist"])
    for seed in range(100):
        result = model.measuring_ops["dist"].program(seed)
        assert not isinstance(result, Failure)
        log = ObservationLog.from_pairs([("dist", result)])
        (full_verdict,) = check_faithful(model, log, B100)
        (reduct_verdict,) = check_faithful(small, log, B100)
        assert full_verdict.verdict == WITNESSED
        assert reduct_verdict.verdict == WITNESSED


def test_restriction_faithfulness_property():
    """Non-failure results of the wrapped operation are witnessed."""
    for u in (0, 3, 7):
        sub = restrict(builtin("cannon"), "f", time_slice_set(u), B100)
        op = sub.measuring_ops["f"]
        produced = 0
        for seed in range(100):
            result = op.program(seed)
            if isinstance(result, Failure):
                continue
            produced += 1
            (verdict,) = check_faithful(
                sub, ObservationLog.from_pairs([("f", result)]), B100
            )
            assert verdict.verdict == WITNESSED
        assert produced > 0

    q = SemiDecidableSet(decide=lambda n: n > 2, description="n > 2")
    sub = restrict(builtin("baryon"), "f", q, B100)
    op = sub.measuring_ops["f"]
    for seed in range(100):
        result = op.program(seed)
        if isinstance(result, Failure):
            continue
        (verdict,) = check_faithful(sub, ObservationLog.from_pairs([("f", result)]), B100)
        assert verdict.verdict == WITNESSED


def test_derived_faithfulness_property():
    """Natural-operation logs are witnessed whenever base logs are."""
    model = derive(builtin("baryon"), "f", "n div 2 - 1", "halves")
    for seed in range(100):
        base = model.measuring_ops["f"].program(seed)
        derived = model.measuring_ops["halves"].program(seed)
        assert not isinstance(base, Failure) and not isinstance(derived, Failure)
        (bv,) = check_faithful(model, ObservationLog.from_pairs([("f", base)]), B100)
        (dv,) = check_faithful(model, ObservationLog.from_pairs([("halves", derived)]), B100)
        assert bv.verdict == WITNESSED and dv.verdict == WITNESSED


def test_extension_weakness():
    """A state-superset extension allows at least the original results."""
    base = model_from_spec('model "m"\nstates where s >= 5\nobservable f(s) = 3*s\n')
    extension = model_from_spec('model "m"\nstates enumerate s\nobservable f(s) = 3*s\n')
    for n in (5, 10, 30):
        small = enumerate_range(base, "f", Budget(n))
        big = enumerate_range(extension, "f", Budget(n))
        assert small <= big


def test_isomorphism_spot_check():
    d = builtin("chain_Du", u=2)
    with pytest.raises(ValueError):
        apply_isomorphism(
            d,
            forward="s - 2",
            backward="t + 1",  # wrong inverse
            states=FiniteStates((0,)),
            check_budget=Budget(10),
        )


def test_replay_worldline_chain():
    report = replay_worldline_chain(range(5), Budget(64), seeds=range(40))
    assert report.values == {u: 5 * u for u in range(5)}
    assert report.clean


def reference_chain_replay(u_values, budget, seeds):
    """The chain replay with every stage measuring afresh: each stage's
    operation runs the projectile's operation again for every seed."""
    stages, parts, values = [], [], {}

    def run_stage(name, model, symbol):
        allowed = enumerate_range(model, symbol, budget)
        results = [model.measuring_ops[symbol].program(seed) for seed in seeds]
        failures = sum(isinstance(r, Failure) for r in results)
        misses = tuple(r for r in results if not isinstance(r, Failure) and r not in allowed)
        witnessed = len(results) - failures - len(misses)
        stages.append(ChainStageReport(name, len(results), failures, witnessed, misses))

    for u in u_values:
        for builtin_name, stage, symbol in (("chain_Bu", "restriction", "f"),
                                            ("chain_Cu", "derivation", f"g{u}"),
                                            ("chain_Du", "reduct", f"g{u}"),
                                            ("chain_Eu", "isomorph", f"g{u}")):
            model = builtin(builtin_name, u=u, budget=budget)
            run_stage(f"{stage} u={u}", model, symbol)
        parts.append(model)
    merged = merge_expansions(parts)
    for u in u_values:
        run_stage(f"merge u={u}", merged, f"g{u}")
        (values[u],) = enumerate_range(merged, f"g{u}", Budget(1, budget.max_steps))
    return ChainReport(values, stages)


def test_chain_replay_measures_each_seed_once(monkeypatch):
    measured = []

    def counting_cannon_op():
        op = cannon_ranging_op()

        def program(seed):
            measured.append(seed)
            return op.program(seed)

        return MeasuringOperation(program, op.description)

    monkeypatch.setitem(model_core._SIMOPS, "cannon", counting_cannon_op)
    report = replay_worldline_chain(range(20), Budget(64), range(50))
    assert sorted(measured) == list(range(50))
    measured.clear()
    assert report == reference_chain_replay(range(20), Budget(64), range(50))
    assert len(measured) == 20 * 5 * 50
    assert report.values == {u: 5 * u for u in range(20)} and report.clean
    # Every flight time (0..31) has its slice here, so every seed's result
    # is witnessed by exactly one restriction.
    assert replay_worldline_chain(range(32), Budget(64), range(50, 60)) == reference_chain_replay(
        range(32), Budget(64), range(50, 60)
    )


def test_builtin_chain_f():
    merged = builtin("chain_F", u_max=6)
    for u in range(6):
        assert enumerate_range(merged, f"g{u}", Budget(3)) == {5 * u}


def test_builtin_decay_states_and_annotation():
    from fractions import Fraction

    model = builtin("decay", b=Fraction(1, 3))
    allowed = enumerate_range(model, "f", Budget(256))
    assert pair(3, 2) in allowed
    assert pair(2, 3) not in allowed  # tagged count cannot exceed total
    q = model.annotations["probability"](pair(3, 2))
    assert q == Fraction(2, 9)
    spot_check(model, Budget(64))


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin("perpetuum_mobile")
