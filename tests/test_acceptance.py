"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints a PASS line with its headline numbers.
"""

import random
import time
from fractions import Fraction

from physmodels.cli import main
from physmodels.encodings import (
    Interval,
    interval_code,
    pair,
    rat_code,
    rect_code,
    rect_decode,
    unpair,
)
from physmodels.exact_arith import poly, poly_eval
from physmodels.model_core import (
    Budget,
    Failure,
    ObservationLog,
    builtin,
    derive,
    enumerate_range,
    replay_worldline_chain,
    restrict,
    time_slice_set,
    SemiDecidableSet,
)
from physmodels.neighborhoods import (
    GraphRangeRequest,
    IDENTITY_MAP,
    NestedOracle,
    SQUARING_MAP,
    enumerate_graph_range,
    farey_values,
    membership_probe,
)
from physmodels.stats import (
    bounds,
    bounds_grid_scan,
    build_piecewise,
    decay_restriction,
    max_alpha,
    reject,
    tail_prob,
)

F = Fraction


def report(criterion: int, message: str) -> None:
    print(f"criterion {criterion}: PASS - {message}")


def test_criterion_01_interval_estimate_reproduction(capsys):
    start = time.time()
    glb, lub = bounds(3, 2, F(1, 3))
    assert glb.rational == F(1, 3)  # r is exactly 1/3
    assert lub.polynomial == poly(-2, 0, 0, 3)  # s is the root of 3x^3 - 2
    lo, hi = lub.decimal_enclosure(6)
    assert lo == "0.873580" and hi == "0.873581"  # width 1e-6, contains 0.873580
    exit_code = main(["stats", "estimate", "3", "2", "1/3", "--digits", "6"])
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "r = 1/3 (exact)" in out
    assert "s in [0.873580, 0.873581]" in out
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"estimate [1/3; root of 3x^3-2], enclosure 1e-6, {elapsed:.2f}s")


def test_criterion_02_tail_probability_anchors():
    assert tail_prob(3, 2, F(1, 3)) == F(5, 9)
    pw = build_piecewise(3, 2)
    assert poly_eval(pw.pieces[1], F(1, 3)) == F(7, 27)  # left limit at 1/3
    assert tail_prob(3, 2, F(5, 6)) == 1
    assert poly_eval(pw.pieces[5], F(5, 6)) == F(91, 216)  # right limit at 5/6
    assert pw.discontinuities() == [F(1, 3), F(1, 2), F(5, 6)]
    report(2, "5/9, 7/27, 1, 91/216; jumps exactly at {1/3, 1/2, 5/6}")


def test_criterion_03_piecewise_equals_direct():
    start = time.time()
    rng = random.Random(123)
    checked = 0
    for m in range(1, 13):
        for n in range(m + 1):
            pw = build_piecewise(m, n)
            for i in range(2 * m):
                lo, hi = pw.breakpoint(i), pw.breakpoint(i + 1)
                for _ in range(10):
                    b = lo + (hi - lo) * F(rng.randint(1, 4095), 4096)
                    assert poly_eval(pw.pieces[i], b) == tail_prob(m, n, b)
                    checked += 1
            for i in range(2 * m + 1):
                x = pw.breakpoint(i)
                assert pw.breakpoint_values[i] == tail_prob(m, n, x)
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(3, f"{checked} exact piecewise/direct agreements, {elapsed:.1f}s")


def test_criterion_04_estimator_anchors():
    for alpha in (F(1, 4), F(1, 2), F(3, 4)):
        glb, lub = bounds(0, 0, alpha)
        assert glb.rational == 0 and lub.rational == 1
    glb, lub = bounds(1, 1, F(1, 2))
    assert glb.rational == F(1, 2) and lub.rational == 1
    checked = 0
    for m in range(1, 9):
        for n in range(m + 1):
            for alpha in (F(1, 4), F(1, 3), F(1, 2)):
                glb, lub = bounds(m, n, alpha)
                anchor = F(n, m)
                assert glb.compare(anchor) <= 0 <= lub.compare(anchor)
                checked += 1
    report(4, f"zero-trial and single-trial anchors; n/m inside all {checked} estimates")


def test_criterion_05_grid_oracle_agreement():
    start = time.time()
    cell = F(1, 1024)
    checked = 0
    for m in range(1, 9):
        for n in range(m + 1):
            for alpha in (F(1, 4), F(1, 3), F(1, 2)):
                glb, lub = bounds(m, n, alpha)
                grid_lo, grid_hi = bounds_grid_scan(m, n, alpha, grid=1024)
                # the true endpoint lies within one grid cell of the scan
                assert glb.compare(grid_lo) <= 0
                assert glb.compare(grid_lo - cell) >= 0
                assert lub.compare(grid_hi) >= 0
                assert lub.compare(grid_hi + cell) <= 0
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(5, f"{checked} endpoint pairs within 1/1024, {elapsed:.1f}s")


def test_criterion_06_encoding_bijections():
    start = time.time()
    from physmodels.encodings import (
        int_code,
        int_decode,
        rat_decode,
        unpair as _unpair,
    )

    for n in range(100_000):
        a, b = _unpair(n)
        assert pair(a, b) == n
    for i in range(-3000, 3000):
        assert int_decode(int_code(i)) == i
    for n in range(3000):
        assert int_code(int_decode(n)) == n
    rng = random.Random(6)
    for _ in range(500):
        q = F(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
        assert rat_decode(rat_code(q)) == q
    for n in range(500):
        assert rat_code(rat_decode(n)) == n
    assert interval_code(Interval(F(0), F(1))) == 3
    assert pair(3, 2) == 18
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(6, f"pair bijection to 1e5, int/rat both directions, ival(0;1)=3, {elapsed:.1f}s")


def test_criterion_07_worldline_chain_replay():
    chain_report = replay_worldline_chain(range(20), Budget(64), seeds=range(200))
    assert chain_report.values == {u: 5 * u for u in range(20)}
    assert chain_report.clean  # every non-failure result witnessed, every stage
    stage_names = {s.stage.split()[0] for s in chain_report.stages}
    assert stage_names == {"restriction", "derivation", "reduct", "isomorph", "merge"}
    for stage in chain_report.stages:
        assert stage.measured == 200
        assert stage.witnessed > 0  # no stage passes vacuously
    measured = sum(s.measured for s in chain_report.stages)
    witnessed = sum(s.witnessed for s in chain_report.stages)
    report(7, f"g_u(0)=5u for u<20; {witnessed} witnessed over {measured} runs, 0 misses")


def test_criterion_08_faithfulness_property_suites():
    budget = Budget(150)
    misses = 0
    trials = 0

    # reduct faithfulness on expanded baryon and cannon universes
    for name, h in (("baryon", "n div 2"), ("cannon", "L(x)")):
        model = derive(builtin(name), "f", h, "d")
        small = {"f": model, "d": __import__("physmodels.model_core", fromlist=["reduct"]).reduct(model, ["d"])}
        ranges = {
            sym: enumerate_range(m, sym, budget)
            for sym, m in (("f", model), ("d", small["d"]))
        }
        for seed in range(100):
            for sym in ("f", "d"):
                result = model.measuring_ops[sym].program(seed)
                assert not isinstance(result, Failure)
                trials += 1
                if result not in ranges[sym]:
                    misses += 1

    # restriction faithfulness through the verification wrapper
    cases = [
        restrict(builtin("baryon"), "f",
                 SemiDecidableSet(decide=lambda n: n > 2, description="n > 2"), budget),
        restrict(builtin("cannon"), "f", time_slice_set(3), budget),
    ]
    for sub in cases:
        allowed = enumerate_range(sub, "f", budget)
        for seed in range(100):
            result = sub.measuring_ops["f"].program(seed)
            trials += 1
            if not isinstance(result, Failure) and result not in allowed:
                misses += 1

    # derived-observable faithfulness via the natural operation
    for name, h in (("baryon", "n div 2 - 1"), ("cannon", "K(x) + L(x)")):
        model = derive(builtin(name), "f", h, "g")
        allowed = enumerate_range(model, "g", budget)
        base_allowed = enumerate_range(model, "f", budget)
        for seed in range(100):
            base = model.measuring_ops["f"].program(seed)
            derived = model.measuring_ops["g"].program(seed)
            trials += 1
            if base in base_allowed and not isinstance(derived, Failure):
                if derived not in allowed:
                    misses += 1

    assert misses == 0
    report(8, f"reduct/restriction/derivation suites: {trials} trials, 0 misses")


def test_criterion_09_graph_range_enumerator():
    start = time.time()
    requests = {
        fn: GraphRangeRequest(
            fn, num_bound=4, den_bound=4, refine=4, chain_len=3,
            budget=Budget(2_000_000),
        )
        for fn in (IDENTITY_MAP, SQUARING_MAP)
    }
    ranges = {fn: enumerate_graph_range(req) for fn, req in requests.items()}
    assert not any(grange.truncated for grange in ranges.values())

    def identity_meets(d1, d2):
        return max(d1.lo, d2.lo) < min(d1.hi, d2.hi)

    def squaring_meets(d1, d2):
        a, b, c, d = d1.lo, d1.hi, d2.lo, d2.hi
        if b <= 0:
            return max(b * b, c) < min(a * a, d)
        if a >= 0:
            return max(a * a, c) < min(b * b, d)
        top = max(a * a, b * b)
        return min(top, d) > max(c, 0) or (c < 0 < min(top, d))

    oracles = {IDENTITY_MAP: identity_meets, SQUARING_MAP: squaring_meets}

    # soundness: every emitted product rectangle provably meets the graph
    sound = 0
    for fn, grange in ranges.items():
        meets = oracles[fn]
        for code in grange.codes:
            left, right = unpair(code)
            (d1,) = rect_decode(left, 1)
            (d2,) = rect_decode(right, 1)
            assert meets(d1, d2)
            sound += 1

    # completeness: every bounded rectangle pair around a height-4 rational
    # graph point is emitted
    values = farey_values(4, 4)
    intervals = [Interval(a, b) for i, a in enumerate(values) for b in values[i + 1 :]]
    witnesses = {
        IDENTITY_MAP: [(x, x) for x in values],
        SQUARING_MAP: [(x, x * x) for x in values if x * x in set(values)],
    }
    required = 0
    for fn, points in witnesses.items():
        grange = ranges[fn]
        for x, gx in points:
            d1s = [d for d in intervals if d.lo < x < d.hi]
            d2s = [rect_code((d,)) for d in intervals if d.lo < gx < d.hi]
            for d1 in d1s:
                left = rect_code((d1,))
                for right in d2s:
                    assert pair(left, right) in grange.codes
                    required += 1

    # the off-graph probe is excluded with the stated witness
    oracle = NestedOracle.around_graph_point((F(1),), (F(2),))
    result = membership_probe(ranges[SQUARING_MAP], oracle, 8)
    assert result.excluded
    left, right = unpair(result.witness)
    assert rect_decode(left, 1) == (Interval(F(3, 4), F(5, 4)),)
    assert rect_decode(right, 1) == (Interval(F(7, 4), F(9, 4)),)

    elapsed = time.time() - start
    assert elapsed < 120.0
    report(9, f"{sound} sound codes, {required} required pairs emitted, probe excluded, {elapsed:.0f}s")


def test_criterion_10_decay_model_equivalence():
    budget = Budget(256)
    checked = 0
    for alpha in (F(1, 4), F(1, 3)):
        for b in (F(1, 3), F(1, 2), F(1)):
            allowed = enumerate_range(decay_restriction(alpha, b), "f", budget)
            for m in range(11):
                for n in range(m + 1):
                    rejected = reject(m, n, b, alpha)
                    assert rejected == (pair(m, n) not in allowed)
                    checked += 1
    log = ObservationLog.from_pairs([("f", pair(m, m)) for m in range(11)])
    assert max_alpha(log, F(1)) == 1
    report(10, f"reject <=> absent on {checked} measurements; max_alpha = 1 exactly")
