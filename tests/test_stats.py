"""Exact binomial statistics tests; all expected values are exact rationals."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from physmodels import stats
from physmodels.encodings import pair
from physmodels.exact_arith import (
    AlgebraicNumber,
    count_roots,
    degree,
    descartes_sign,
    isolate_roots,
    poly,
    poly_divmod,
    poly_eval,
    poly_sub,
    squarefree,
)
from physmodels.model_core import Budget, ObservationLog, enumerate_range
from physmodels.stats import (
    algebraic_code,
    algebraic_decode,
    binom_pmf,
    bounds,
    bounds_grid_scan,
    build_piecewise,
    decay_restriction,
    interval_estimate,
    interval_estimate_decode,
    max_alpha,
    reject,
    tail_prob,
)

from oracles import interpolate

F = Fraction
ALPHAS = (F(1, 20), F(1, 10), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(19, 20))


def test_pmf_anchors():
    assert binom_pmf(0, F(1, 3), 0) == 1
    assert binom_pmf(0, F(0), 0) == 1  # 0**0 == 1 convention
    assert binom_pmf(0, F(1), 0) == 1
    assert binom_pmf(3, F(1, 3), 2) == F(2, 9)
    assert binom_pmf(2, F(1, 2), 1) == F(1, 2)
    with pytest.raises(ValueError):
        binom_pmf(2, F(1, 2), 3)
    with pytest.raises(ValueError):
        binom_pmf(2, F(3, 2), 1)


def test_pmf_normalization():
    rng = random.Random(13)
    ratios = [F(rng.randint(0, 50), 50) for _ in range(50)]
    for i in range(21):
        for b in ratios:
            assert sum(binom_pmf(i, b, j) for j in range(i + 1)) == 1


def test_tail_prob_anchors():
    assert tail_prob(3, 2, F(1, 3)) == F(5, 9)
    assert tail_prob(3, 2, F(0)) == 0
    assert tail_prob(3, 2, F(5, 6)) == 1
    for m, n in ((1, 1), (4, 2), (7, 3)):
        assert tail_prob(m, n, F(n, m)) == 1
    for m, n in ((2, 3), (3, -2), (-1, -2)):
        with pytest.raises(ValueError, match="need 0 <= n <= m"):
            tail_prob(m, n, F(1, 2))
    for m, n in ((2, 3), (2, -1)):
        with pytest.raises(ValueError, match="need 0 <= n <= m"):
            build_piecewise(m, n)
    for m, n in ((3, -1), (0, -1)):
        with pytest.raises(ValueError, match="need 0 <= n <= m"):
            bounds(m, n, F(1, 2))


def test_reject_anchors():
    assert reject(3, 2, F(1, 3), F(1, 3)) is False  # 5/9 >= 1/3
    assert reject(3, 0, F(5, 6), F(1, 3)) is True  # 1/216 < 1/3
    assert reject(0, 0, F(1, 2), F(1, 2)) is False  # tail probability 1
    with pytest.raises(ValueError):
        reject(3, 2, F(1, 3), F(1))


def test_piecewise_anchor_polynomials():
    pw = build_piecewise(3, 2)
    assert pw.pieces[0] == poly(0, 0, 3, -2)  # 3b^2 - 2b^3
    assert pw.pieces[1] == poly(0, 0, 3, -2)
    assert pw.pieces[2] == poly(1, -3, 6, -3)  # 1 - 3b(1-b)^2
    assert pw.pieces[5] == poly(1, 0, 0, -1)  # 1 - b^3
    assert pw.breakpoint_values[2] == F(5, 9)


def test_piecewise_limits_and_discontinuities():
    pw = build_piecewise(3, 2)
    from physmodels.exact_arith import poly_eval

    assert poly_eval(pw.pieces[1], F(1, 3)) == F(7, 27)  # left limit at 1/3
    assert poly_eval(pw.pieces[2], F(1, 3)) == F(5, 9)  # right limit at 1/3
    assert pw.breakpoint_values[5] == 1  # value at 5/6
    assert poly_eval(pw.pieces[5], F(5, 6)) == F(91, 216)  # right limit at 5/6
    assert pw.discontinuities() == [F(1, 3), F(1, 2), F(5, 6)]


def test_piecewise_matches_direct_summation():
    rng = random.Random(2026)
    for m in range(1, 8):
        for n in range(m + 1):
            pw = build_piecewise(m, n)
            for i in range(2 * m):
                lo, hi = pw.breakpoint(i), pw.breakpoint(i + 1)
                for _ in range(4):
                    b = lo + (hi - lo) * F(rng.randint(1, 63), 64)
                    assert pw.evaluate(b) == tail_prob(m, n, b)
            for i in range(2 * m + 1):
                assert pw.evaluate(pw.breakpoint(i)) == tail_prob(m, n, pw.breakpoint(i))


def test_piecewise_matches_interpolation_oracle():
    """Each piece, rebuilt by exact Lagrange interpolation of the direct sum,
    equals the symbolically assembled polynomial coefficient for coefficient."""
    for m, n in ((1, 0), (2, 1), (3, 2), (4, 4), (5, 2)):
        pw = build_piecewise(m, n)
        for i in range(2 * m):
            lo, hi = pw.breakpoint(i), pw.breakpoint(i + 1)
            nodes = [lo + (hi - lo) * F(j, m + 3) for j in range(1, m + 2)]
            oracle = interpolate(lambda b: tail_prob(m, n, b), nodes)
            padded = oracle + (F(0),) * (len(pw.pieces[i]) - len(oracle))
            assert padded == pw.pieces[i]


def test_bounds_worked_example():
    glb, lub = bounds(3, 2, F(1, 3))
    assert glb.rational == F(1, 3)
    assert lub.polynomial == poly(-2, 0, 0, 3)  # 3x^3 - 2
    assert lub.isolating.lo >= 0 and lub.isolating.hi <= 1
    lo, hi = lub.decimal_enclosure(6)
    assert lo == "0.873580" and hi == "0.873581"


def test_bounds_zero_trials():
    for alpha in (F(1, 4), F(1, 2), F(3, 4)):
        glb, lub = bounds(0, 0, alpha)
        assert glb.rational == 0 and lub.rational == 1


def test_bounds_single_trial():
    glb, lub = bounds(1, 1, F(1, 2))
    assert glb.rational == F(1, 2) and lub.rational == 1
    # mirrored measurement
    glb, lub = bounds(1, 0, F(1, 2))
    assert glb.rational == 0 and lub.rational == F(1, 2)


def test_bounds_contain_the_observed_ratio():
    for m in range(1, 7):
        for n in range(m + 1):
            for alpha in (F(1, 4), F(1, 3), F(1, 2)):
                glb, lub = bounds(m, n, alpha)
                assert glb.compare(F(n, m)) <= 0
                assert lub.compare(F(n, m)) >= 0


def test_bounds_against_grid_oracle_small():
    cell = F(1, 256)
    for m in range(1, 6):
        for n in range(m + 1):
            for alpha in (F(1, 4), F(1, 2)):
                glb, lub = bounds(m, n, alpha)
                grid_lo, grid_hi = bounds_grid_scan(m, n, alpha, grid=256)
                assert glb.compare(grid_lo) <= 0
                assert glb.compare(grid_lo - cell) >= 0
                assert lub.compare(grid_hi) >= 0
                assert lub.compare(grid_hi + cell) <= 0


def test_bounds_with_high_significance_level():
    # only the plateau where the tail probability is exactly 1 survives,
    # so both endpoints are breakpoints
    glb, lub = bounds(3, 2, F(99, 100))
    assert glb.rational == F(1, 2) and lub.rational == F(5, 6)
    grid_lo, grid_hi = bounds_grid_scan(3, 2, F(99, 100), grid=240)
    assert grid_lo == F(1, 2) and grid_hi == F(5, 6)


def test_bounds_larger_degree_against_fine_grid():
    cell = F(1, 2048)
    for n in (0, 4, 10):
        glb, lub = bounds(10, n, F(1, 3))
        grid_lo, grid_hi = bounds_grid_scan(10, n, F(1, 3), grid=2048)
        assert glb.compare(grid_lo) <= 0 and glb.compare(grid_lo - cell) >= 0
        assert lub.compare(grid_hi) >= 0 and lub.compare(grid_hi + cell) <= 0


def test_algebraic_descriptor_roundtrip():
    glb, lub = bounds(3, 2, F(1, 3))
    for value in (glb, lub):
        decoded = algebraic_decode(algebraic_code(value))
        assert decoded.rational == value.rational
        assert decoded.polynomial == value.polynomial
        assert decoded.isolating == value.isolating


def test_interval_estimate_code():
    code = interval_estimate(3, 2, F(1, 3))
    glb, lub = interval_estimate_decode(code)
    assert glb.rational == F(1, 3)
    assert lub.polynomial == poly(-2, 0, 0, 3)
    refined = lub.refine(F(1, 10**6))
    assert refined.width <= F(1, 10**6)
    assert refined.lo < F(873581, 10**6) and refined.hi > F(873580, 10**6)

    code = interval_estimate(0, 0, F(1, 2))
    glb, lub = interval_estimate_decode(code)
    assert glb.rational == 0 and lub.rational == 1


def test_decay_restriction_membership():
    model = decay_restriction(F(1, 2), F(1))
    allowed = enumerate_range(model, "f", Budget(200))
    for m in range(6):
        assert pair(m, m) in allowed
    assert pair(3, 2) not in allowed

    allowed = enumerate_range(decay_restriction(F(1, 3), F(1, 3)), "f", Budget(200))
    assert pair(3, 2) in allowed  # 5/9 >= 1/3

    allowed = enumerate_range(decay_restriction(F(2, 3), F(1, 3)), "f", Budget(200))
    assert pair(3, 2) not in allowed  # 5/9 < 2/3


def test_reject_iff_absent_from_restriction_range():
    budget = Budget(256)
    for alpha in (F(1, 4), F(1, 3)):
        for b in (F(1, 3), F(1)):
            allowed = enumerate_range(decay_restriction(alpha, b), "f", budget)
            for m in range(7):
                for n in range(m + 1):
                    assert reject(m, n, b, alpha) == (pair(m, n) not in allowed)


def test_max_alpha():
    log = ObservationLog.from_pairs([("f", pair(m, m)) for m in range(11)])
    assert max_alpha(log, F(1)) == 1
    assert max_alpha(ObservationLog.from_pairs([("f", pair(3, 2))]), F(1, 3)) == F(5, 9)
    assert max_alpha(ObservationLog.from_pairs([]), F(1, 2)) is None
    with pytest.raises(ValueError):
        max_alpha(ObservationLog.from_pairs([("f", pair(2, 3))]), F(1, 2))
    with pytest.raises(ValueError, match="zzz"):
        max_alpha(ObservationLog.from_pairs([("f", pair(3, 2)), ("zzz", pair(3, 2))]), F(1, 3))


@given(
    st.integers(min_value=0, max_value=30).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(min_value=0, max_value=m))
    ),
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
)
def test_tail_prob_equals_pmf_sum(mn, b):
    m, n = mn
    qualifying = [k for k in range(m + 1) if abs(k - m * b) >= abs(n - m * b)]
    assert tail_prob(m, n, b) == sum((binom_pmf(m, b, k) for k in qualifying), F(0))


# The eager algorithm: every piece is reduced to its squarefree part and
# isolated with Sturm sequences before either scan starts.  It is the
# reference for ``bounds``, which analyses pieces only as its scans reach them
# and excludes root-free pieces by Descartes' rule of signs first.


def _remove_root(p, x):
    quotient, remainder = poly_divmod(p, poly(-x, 1))
    assert not remainder
    return quotient


def _reduced_piece(g, lo, hi):
    """Squarefree part of ``g`` with any root at ``lo`` or ``hi`` divided out."""
    reduced = squarefree(g)
    for endpoint in (lo, hi):
        if poly_eval(reduced, endpoint) == 0:
            reduced = _remove_root(reduced, endpoint)
    return reduced


def _eager_piece(g, lo, hi):
    if not g:
        return ("full", [], True, True)
    reduced = _reduced_piece(g, lo, hi)
    roots = isolate_roots(reduced, lo, hi) if degree(reduced) >= 1 else []
    members = [AlgebraicNumber.from_root(reduced, iv) for iv in roots]
    samples = [roots[0].lo if roots else (lo + hi) / 2]
    samples += [iv.hi for iv in roots]
    signs = [poly_eval(g, x) > 0 for x in samples]
    if not members and not any(signs):
        return None
    return ("mixed", members, signs[0], signs[-1])


def _eager_bounds(analyses, pw, alpha):
    m = pw.m
    member = [v >= alpha for v in pw.breakpoint_values]
    glb = lub = None
    for i in range(2 * m + 1):
        if member[i]:
            glb = AlgebraicNumber.from_rational(pw.breakpoint(i))
            break
        if i < 2 * m and analyses[i] is not None:
            _, members, touches_left, _ = analyses[i]
            glb = AlgebraicNumber.from_rational(pw.breakpoint(i)) if touches_left else members[0]
            break
    for i in range(2 * m, -1, -1):
        if member[i]:
            lub = AlgebraicNumber.from_rational(pw.breakpoint(i))
            break
        if i > 0 and analyses[i - 1] is not None:
            _, members, _, touches_right = analyses[i - 1]
            lub = AlgebraicNumber.from_rational(pw.breakpoint(i)) if touches_right else members[-1]
            break
    return glb, lub


def test_bounds_equal_eager_sturm_reference():
    """``bounds`` returns the eager algorithm's endpoints, and Descartes' rule
    never excludes a piece in which Sturm isolation finds a root."""
    for m in range(1, 13):
        for n in range(m + 1):
            pw = build_piecewise(m, n)
            for alpha in ALPHAS:
                analyses = []
                for i in range(2 * m):
                    lo, hi = pw.breakpoint(i), pw.breakpoint(i + 1)
                    g = poly_sub(pw.pieces[i], (alpha,))
                    analysis = _eager_piece(g, lo, hi)
                    sign = descartes_sign(g, lo, hi) if g else None
                    if sign is not None:
                        assert analysis in (None, ("mixed", [], True, True)), (m, n, alpha, i)
                        assert (sign > 0) == (analysis is not None), (m, n, alpha, i)
                    analyses.append(analysis)
                got = bounds(m, n, alpha)
                want = _eager_bounds(analyses, pw, alpha)
                assert got == want, (m, n, alpha)
                assert [algebraic_code(a) for a in got] == [algebraic_code(a) for a in want]


def test_piece_root_counts_against_sympy():
    """Sturm counts of distinct roots per piece match sympy's, and Descartes'
    rule excludes only pieces where both find none."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m, n in ((4, 1), (7, 3), (9, 0), (10, 4), (12, 5)):
        pw = build_piecewise(m, n)
        for alpha in ALPHAS:
            for i in range(2 * m):
                lo, hi = pw.breakpoint(i), pw.breakpoint(i + 1)
                g = poly_sub(pw.pieces[i], (alpha,))
                reduced = _reduced_piece(g, lo, hi)
                count = count_roots(reduced, lo, hi) if degree(reduced) >= 1 else 0
                sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(g)], x)
                lo_s = sympy.Rational(lo.numerator, lo.denominator)
                hi_s = sympy.Rational(hi.numerator, hi.denominator)
                # sympy counts distinct roots in the closed interval
                expected = sp.count_roots(lo_s, hi_s) - (sp.eval(lo_s) == 0) - (sp.eval(hi_s) == 0)
                assert count == expected, (m, n, alpha, i)
                assert descartes_sign(g, lo, hi) is None or expected == 0, (m, n, alpha, i)


def test_bounds_run_sturm_on_few_pieces(monkeypatch):
    """Only pieces Descartes' rule cannot clear reach ``squarefree``: at most
    two per call over the whole grid (measured: max 2, mean under 0.5)."""
    calls = []

    def counting_squarefree(p):
        calls.append(p)
        return squarefree(p)

    monkeypatch.setattr(stats, "squarefree", counting_squarefree)
    for m in range(1, 25):
        for n in range(m + 1):
            for alpha in ALPHAS:
                calls.clear()
                bounds(m, n, alpha)
                assert len(calls) <= 2, (m, n, alpha)
