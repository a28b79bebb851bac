"""Basis codecs, nested oracles, machines, and graph-range enumeration tests."""

from fractions import Fraction
from itertools import product

import pytest

from physmodels.encodings import (
    Interval,
    pair,
    parse_interval,
    rect_code,
    rect_decode,
    seg_code,
    unpair,
)
from physmodels import neighborhoods
from physmodels.model_core import Budget, enumerate_range
from physmodels.neighborhoods import (
    EuclideanBasis,
    GraphRangeRequest,
    IDENTITY_MAP,
    NestedOracle,
    NonNestedOracleError,
    OracleMachine,
    ProductBasis,
    SQUARING_MAP,
    SegmentBasis,
    SingletonBasis,
    enumerate_graph_range,
    farey_values,
    ideal_gas_map,
    membership_probe,
    neighborhood_model,
    refined_values,
    GAS_CONSTANT,
)
from physmodels.spec_lang import eval_closed_box, parse_real_fn, widen_to_open

F = Fraction
UNIT = Interval(F(0), F(1))


def iv(text):
    return parse_interval(text)


def test_subset_codes_euclidean():
    basis = EuclideanBasis(1)
    assert basis.subset(rect_code([iv("(0;1)")]), rect_code([iv("(-1;2)")]))
    assert not basis.subset(rect_code([iv("(0;2)")]), rect_code([iv("(1;3)")]))


def test_subset_codes_discrete():
    seg = SegmentBasis()
    assert seg.subset(seg_code(3, 1), seg_code(2, 4))  # {3,4} in {2..6}
    assert not seg.subset(seg_code(2, 4), seg_code(3, 1))
    sing = SingletonBasis()
    assert sing.subset(7, 7) and not sing.subset(7, 8)


def test_subset_codes_product():
    basis = ProductBasis(EuclideanBasis(1), EuclideanBasis(1))
    small = pair(rect_code([iv("(0;1)")]), rect_code([iv("(0;1)")]))
    big = pair(rect_code([iv("(-1;2)")]), rect_code([iv("(-1;2)")]))
    assert basis.subset(small, big)
    assert not basis.subset(big, small)


def test_machine_step_identity_constant_oracle():
    machine = OracleMachine(IDENTITY_MAP)
    oracle = NestedOracle.from_sequence([rect_code([UNIT])], EuclideanBasis(1))
    code = machine.step(oracle, 0)
    (out,) = rect_decode(code, 1)
    assert out.contains_interval(UNIT)
    assert out.width <= 1 + 2 * F(1)
    assert machine.instrumentation.max_index_queried == 0


def test_machine_step_outputs_shrink_and_nest():
    machine = OracleMachine(SQUARING_MAP)
    boxes = [Interval(1 - F(1, 2**i), 1 + F(1, 2**i)) for i in range(8)]
    oracle = NestedOracle.from_sequence([rect_code([b]) for b in boxes], EuclideanBasis(1))
    outs = [rect_decode(machine.step(oracle, m), 1)[0] for m in range(8)]
    for big, small in zip(outs, outs[1:]):
        assert big.contains_interval(small)
    assert all(1 in out for out in outs)  # 1^2 = 1 stays inside
    assert outs[-1].width < outs[0].width / 8


def test_machine_step_constant_map():
    machine = OracleMachine(
        __import__("physmodels.spec_lang", fromlist=["parse_real_fn"]).parse_real_fn(
            "map(x) = 0"
        )
    )
    oracle = NestedOracle.from_sequence([rect_code([UNIT])], EuclideanBasis(1))
    outs = [rect_decode(machine.step(oracle, m), 1)[0] for m in range(5)]
    for big, small in zip(outs, outs[1:]):
        assert F(0) in small and big.contains_interval(small)


def test_machine_step_budget():
    machine = OracleMachine(SQUARING_MAP)
    oracle = NestedOracle.from_sequence([rect_code([UNIT])], EuclideanBasis(1))
    assert machine.step(oracle, 3, max_steps=1) is None


def test_non_nested_oracle_rejected():
    grow = [rect_code([UNIT]), rect_code([Interval(F(-5), F(5))])]
    oracle = NestedOracle.from_sequence(grow, EuclideanBasis(1))
    machine = OracleMachine(IDENTITY_MAP)
    machine.step(oracle, 0)
    with pytest.raises(NonNestedOracleError):
        machine.step(oracle, 1)


SMALL = dict(num_bound=2, den_bound=2, refine=3, chain_len=3, budget=Budget(100_000))


def small_range(fn):
    return enumerate_graph_range(GraphRangeRequest(fn, **SMALL))


def identity_intersects(d1, d2):
    return max(d1.lo, d2.lo) < min(d1.hi, d2.hi)


def squaring_intersects(d1, d2):
    a, b, c, d = d1.lo, d1.hi, d2.lo, d2.hi
    if b <= 0:
        lo, hi = b * b, a * a
        return max(lo, c) < min(hi, d)
    if a >= 0:
        lo, hi = a * a, b * b
        return max(lo, c) < min(hi, d)
    top = max(a * a, b * b)  # image is [0, top)
    if c < 0:
        return min(top, d) > 0
    return min(top, d) > c


def test_graph_range_identity_examples():
    grange = small_range(IDENTITY_MAP)
    unit_code = rect_code([UNIT])
    outputs = [
        rect_decode(unpair(code)[1], 1)[0]
        for code in grange.codes
        if unpair(code)[0] == unit_code
    ]
    assert outputs
    assert any(out.lo <= 0 and 1 <= out.hi for out in outputs)
    for out in outputs:  # every pairing still meets the identity graph
        assert identity_intersects(UNIT, out)
    # D-saturation admits the wider output (-1;2)
    assert pair(unit_code, rect_code([iv("(-1;2)")])) in grange.codes


def test_graph_range_zero_budget():
    req = GraphRangeRequest(IDENTITY_MAP, num_bound=2, den_bound=2, budget=Budget(0))
    grange = enumerate_graph_range(req)
    assert grange.codes == frozenset() and grange.truncated


def test_graph_range_soundness_small():
    for fn, oracle in ((IDENTITY_MAP, identity_intersects), (SQUARING_MAP, squaring_intersects)):
        grange = small_range(fn)
        assert grange.codes and not grange.truncated
        for code in grange.codes:
            left, right = unpair(code)
            (d1,) = rect_decode(left, 1)
            (d2,) = rect_decode(right, 1)
            assert oracle(d1, d2)


def test_graph_range_completeness_small():
    values = farey_values(2, 2)
    intervals = [
        Interval(a, b) for i, a in enumerate(values) for b in values[i + 1 :]
    ]
    cases = (
        (IDENTITY_MAP, [(x, x) for x in values]),
        (SQUARING_MAP, [(x, x * x) for x in values if x * x in set(values)]),
    )
    for fn, witnesses in cases:
        grange = small_range(fn)
        for x, gx in witnesses:
            for d1 in intervals:
                if not d1.lo < x < d1.hi:
                    continue
                for d2 in intervals:
                    if d2.lo < gx < d2.hi:
                        assert pair(rect_code([d1]), rect_code([d2])) in grange.codes


def test_graph_range_upward_closed():
    grange = small_range(SQUARING_MAP)
    basis = grange.basis
    pool = sorted(grange.codes)
    sample = pool[:: max(1, len(pool) // 50)]
    for code in sample:
        for other in sample:
            if basis.subset(code, other):
                assert other in grange.codes


def test_graph_range_monotone_in_bounds():
    small = enumerate_graph_range(
        GraphRangeRequest(SQUARING_MAP, num_bound=1, den_bound=2, refine=2,
                          chain_len=2, budget=Budget(100_000))
    )
    bigger = enumerate_graph_range(
        GraphRangeRequest(SQUARING_MAP, num_bound=2, den_bound=2, refine=3,
                          chain_len=3, budget=Budget(200_000))
    )
    assert small.codes <= bigger.codes


def full_walk_range(req):
    """Reference enumerator: evaluate every fine box of the budgeted walk.

    Walks ``product(fine intervals, repeat=arity)`` in order, stops after
    ``budget.max_states`` boxes, and emits every pair of pool rectangles
    containing a box and its widened output.
    """
    fn = req.machine
    fine = refined_values(req.num_bound, req.den_bound, req.refine)
    fine_intervals = [Interval(lo, hi) for i, lo in enumerate(fine) for hi in fine[i + 1 :]]
    values = farey_values(req.num_bound, req.den_bound)
    pool = [Interval(lo, hi) for i, lo in enumerate(values) for hi in values[i + 1 :]]
    evaluated, truncated = 0, False
    supersets = set()
    for box in product(fine_intervals, repeat=fn.arity):
        if evaluated >= req.budget.max_states:
            truncated = True
            break
        evaluated += 1
        out = [widen_to_open(b, req.chain_len - 1) for b in eval_closed_box(fn, box)]
        supersets.add(tuple(
            tuple(p for p in pool if p.contains_interval(iv)) for iv in (*box, *out)
        ))
    codes = set()
    for lists in supersets:
        for left in product(*lists[: fn.arity]):
            for right in product(*lists[fn.arity :]):
                codes.add(pair(rect_code(left), rect_code(right)))
    return frozenset(codes), evaluated, truncated


REFERENCE_MAPS = {
    "identity": (IDENTITY_MAP, [(1, 1, 0), (1, 2, 1), (2, 2, 2), (2, 1, 2)]),
    "squaring": (SQUARING_MAP, [(1, 1, 1), (1, 2, 2), (2, 2, 1)]),
    "cubic": (parse_real_fn("map(x) = x*x*x - x"), [(1, 2, 1), (2, 1, 2), (2, 2, 0)]),
    "constant": (parse_real_fn("map(x) = 0*x + 1"), [(2, 1, 2), (2, 2, 1)]),
    "ideal_gas": (ideal_gas_map(), [(1, 1, 0), (1, 1, 1), (1, 2, 1)]),
    "two_outputs": (parse_real_fn("map(x, y) = (x*y - x, y*y + x)"), [(1, 1, 1), (2, 1, 1)]),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_MAPS))
def test_graph_range_equals_full_walk(name):
    fn, bounds = REFERENCE_MAPS[name]
    for num, den, refine in bounds:
        n = len(refined_values(num, den, refine))
        total = (n * (n - 1) // 2) ** fn.arity
        for budget in sorted({0, 1, total // 7, total // 3, total - 1, total, total + 5}):
            for chain_len in (1, 3):
                req = GraphRangeRequest(fn, num, den, refine, chain_len, Budget(budget))
                got = enumerate_graph_range(req)
                expected = full_walk_range(req)
                assert (got.codes, got.boxes_evaluated, got.truncated) == expected
                assert got.truncated == (budget < total)


def test_graph_range_evaluates_only_atom_boxes(monkeypatch):
    calls = []

    def counting(fn, box):
        calls.append(box)
        return eval_closed_box(fn, box)

    monkeypatch.setattr(neighborhoods, "eval_closed_box", counting)
    grange = enumerate_graph_range(GraphRangeRequest(IDENTITY_MAP, 3, 3, 3, 2))
    assert not grange.truncated
    assert grange.boxes_evaluated == 18_528
    assert len(calls) == 192


def test_probe_on_graph_point_stays_consistent():
    grange = small_range(SQUARING_MAP)
    oracle = NestedOracle.around_graph_point((F(1),), (F(1),))
    result = membership_probe(grange, oracle, 6)
    assert result.outcome == "consistent_at_depth" and result.depth == 6


def test_probe_excludes_off_graph_point():
    grange = small_range(SQUARING_MAP)
    oracle = NestedOracle.around_graph_point((F(1),), (F(2),))
    result = membership_probe(grange, oracle, 6)
    assert result.excluded
    # the witness rectangle is never emitted: no x has x in (3/4,5/4)
    # and x^2 in (7/4,9/4), since sup x^2 = 25/16 < 7/4
    probe_code = pair(rect_code([iv("(3/4;5/4)")]), rect_code([iv("(7/4;9/4)")]))
    assert probe_code not in grange.codes
    left, right = unpair(result.witness)
    assert rect_decode(left, 1) == (iv("(3/4;5/4)"),)
    assert rect_decode(right, 1) == (iv("(7/4;9/4)"),)
    assert result.witness_absent_from_range


def test_probe_depth_zero_is_vacuous():
    grange = small_range(SQUARING_MAP)
    oracle = NestedOracle.around_graph_point((F(1),), (F(2),))
    assert membership_probe(grange, oracle, 0).outcome == "consistent_at_depth"


def test_equivalence_of_ranges():
    # same machine, same bounds: identical ranges; different machines differ
    a = small_range(SQUARING_MAP)
    b = small_range(SQUARING_MAP)
    assert a.codes == b.codes
    c = small_range(IDENTITY_MAP)
    difference = a.codes ^ c.codes
    assert difference
    witness = sorted(difference)[0]
    left, right = unpair(witness)
    (d1,) = rect_decode(left, 1)
    (d2,) = rect_decode(right, 1)
    assert identity_intersects(d1, d2) != squaring_intersects(d1, d2)


def test_molecule_sing_model():
    model = neighborhood_model("molecule_sing", n=7)
    assert enumerate_range(model, "f", Budget(5)) == {7}
    assert model.observable("f").range_decider(7)
    assert not model.observable("f").range_decider(8)


def test_molecule_seg_model():
    model = neighborhood_model("molecule_seg", n=2)
    allowed = enumerate_range(model, "f", Budget(40))
    for a, k in ((0, 2), (1, 1), (2, 0), (2, 3), (0, 5)):
        assert pair(a, k) in allowed or not (a <= 2 <= a + k) or k > 6
    assert pair(2, 0) in allowed
    assert pair(0, 2) in allowed
    assert pair(3, 1) not in allowed  # {3,4} misses 2
    decider = model.observable("f").range_decider
    assert decider(pair(1, 1)) and not decider(pair(3, 4))


def test_gas_constant_value():
    assert GAS_CONSTANT == F(602214076 * 1380649, 10**14)


def test_ideal_gas_model_soundness():
    model = neighborhood_model("ideal_gas")
    codes = enumerate_range(model, "f", Budget(4000))
    assert codes
    fn = ideal_gas_map()
    for code in codes:
        left, right = unpair(code)
        p_iv, v_iv = rect_decode(left, 2)
        (t_iv,) = rect_decode(right, 1)
        corners = [
            p * v / GAS_CONSTANT
            for p in (p_iv.lo, p_iv.hi)
            for v in (v_iv.lo, v_iv.hi)
        ]
        lo, hi = min(corners), max(corners)
        # some (P, V) in the open box maps into the open temperature window
        assert max(lo, t_iv.lo) < min(hi, t_iv.hi)


def test_graph_model_range_decider():
    grange = small_range(IDENTITY_MAP)
    model = neighborhood_model(
        "graph", machine=IDENTITY_MAP, **SMALL
    )
    allowed = enumerate_range(model, "f", Budget(len(grange.codes)))
    assert allowed == set(grange.codes)
    decider = model.observable("f").range_decider
    assert all(decider(code) for code in list(grange.codes)[:20])
