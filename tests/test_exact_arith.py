"""Sturm counting, isolation, refinement, and algebraic comparison tests."""

import random
from fractions import Fraction

import pytest

from physmodels.encodings import Interval
from physmodels.exact_arith import (
    AlgebraicNumber,
    EndpointRootError,
    count_roots,
    degree,
    derivative,
    descartes_sign,
    integer_primitive,
    isolate_roots,
    poly,
    poly_eval,
    poly_divmod,
    poly_gcd,
    poly_mul,
    squarefree,
    sturm_chain,
)

X2_MINUS_2 = poly(-2, 0, 1)
CUBIC = poly(-2, 0, 0, 3)  # 3x^3 - 2, unique real root at (2/3)^(1/3)


def brute_eval(p, x):
    """Monomial-summation oracle for Horner evaluation."""
    return sum(c * x**i for i, c in enumerate(p))


def test_poly_eval_matches_monomial_sum():
    rng = random.Random(3)
    for _ in range(100):
        p = poly(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)))
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        assert poly_eval(p, q) == brute_eval(p, q)


def test_squarefree_removes_repeated_roots():
    # (x - 1)^2 -> x - 1
    assert squarefree(poly(1, -2, 1)) == poly(-1, 1)
    assert squarefree(X2_MINUS_2) == X2_MINUS_2
    assert squarefree(CUBIC) == CUBIC
    with pytest.raises(ValueError):
        squarefree(poly())


def test_squarefree_normalization():
    # -4x^2 + 8x - 4 = -4(x-1)^2 -> positive lead, content 1
    assert squarefree(poly(-4, 8, -4)) == poly(-1, 1)
    assert integer_primitive(poly(Fraction(2, 3), Fraction(4, 3))) == poly(1, 2)


def test_gcd_with_derivative_oracle():
    # squarefree(p) equals p / gcd(p, p') up to normalization, by construction;
    # cross-check on a product with known multiplicities.
    p = poly_mul(poly_mul(poly(-1, 1), poly(-1, 1)), poly(-3, 1))  # (x-1)^2 (x-3)
    g = poly_gcd(p, derivative(p))
    assert degree(g) == 1 and poly_eval(g, Fraction(1)) == 0
    assert squarefree(p) == poly_mul(poly(-1, 1), poly(-3, 1))


def test_count_roots_anchors():
    assert count_roots(CUBIC, Fraction(0), Fraction(1)) == 1
    assert count_roots(poly(1, 0, 1), Fraction(-10), Fraction(10)) == 0
    assert count_roots(X2_MINUS_2, Fraction(-2), Fraction(2)) == 2


def test_count_roots_rejects_endpoint_roots():
    with pytest.raises(EndpointRootError):
        count_roots(poly(-1, 1), Fraction(1), Fraction(2))


def test_isolate_roots_anchors():
    two = isolate_roots(X2_MINUS_2, Fraction(-2), Fraction(2))
    assert len(two) == 2
    assert two[0].lo < Fraction(-141421, 100000) < two[0].hi or (
        two[0].lo < Fraction(-14143, 10000) and two[0].hi > Fraction(-14142, 10000)
    )
    # each interval brackets a sign change and they are ordered and disjoint
    for iv in two:
        assert (poly_eval(X2_MINUS_2, iv.lo) > 0) != (poly_eval(X2_MINUS_2, iv.hi) > 0)
    assert two[0].hi <= two[1].lo
    assert isolate_roots(poly(1, 0, 1), Fraction(-1), Fraction(1)) == []
    (one,) = isolate_roots(CUBIC, Fraction(0), Fraction(1))
    root = AlgebraicNumber.from_root(CUBIC, one)
    assert root.compare(Fraction(873580, 1000000)) == 1
    assert root.compare(Fraction(873581, 1000000)) == -1


def random_squarefree(rng):
    while True:
        p = poly(*(rng.randint(-5, 5) for _ in range(rng.randint(2, 7))))
        if degree(p) >= 1 and degree(poly_gcd(p, derivative(p))) == 0:
            return p


def test_isolation_partitions_the_count():
    rng = random.Random(11)
    for _ in range(60):
        p = random_squarefree(rng)
        lo, hi = Fraction(-8), Fraction(8)
        if poly_eval(p, lo) == 0 or poly_eval(p, hi) == 0:
            continue
        ivs = isolate_roots(p, lo, hi)
        assert len(ivs) == count_roots(p, lo, hi)
        for iv in ivs:
            assert count_roots(p, iv.lo, iv.hi) == 1
            assert (poly_eval(p, iv.lo) > 0) != (poly_eval(p, iv.hi) > 0)
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi <= b.lo


def test_refine_root_anchors():
    (iv,) = isolate_roots(CUBIC, Fraction(0), Fraction(1))
    root = AlgebraicNumber.from_root(CUBIC, iv)
    got = root.refine(Fraction(1, 10**6))
    assert got.width <= Fraction(1, 10**6)
    # 0.873580 is inside the refined interval
    assert got.lo < Fraction(8735805, 10**7) < got.hi

    exact = AlgebraicNumber.from_rational(Fraction(1, 3))
    got = exact.refine(Fraction(1, 100))
    assert got.lo < Fraction(1, 3) < got.hi and got.width <= Fraction(1, 100)

    (iv,) = isolate_roots(X2_MINUS_2, Fraction(1), Fraction(2))
    got = AlgebraicNumber.from_root(X2_MINUS_2, iv).refine(Fraction(1, 1000))
    sqrt2 = Fraction(14142135, 10**7)
    assert got.lo < sqrt2 + Fraction(1, 1000) and got.hi > sqrt2 - Fraction(1, 1000)


def test_refinement_is_nested():
    (iv,) = isolate_roots(CUBIC, Fraction(0), Fraction(1))
    root = AlgebraicNumber.from_root(CUBIC, iv)
    outer = root.refine(Fraction(1, 10))
    inner = root.refine(Fraction(1, 10**5))
    assert outer.contains_interval(inner)
    exact = AlgebraicNumber.from_rational(Fraction(2, 7))
    assert exact.refine(Fraction(1, 4)).contains_interval(
        exact.refine(Fraction(1, 64))
    )


def test_alg_compare_anchors():
    (iv,) = isolate_roots(X2_MINUS_2, Fraction(1), Fraction(2))
    sqrt2 = AlgebraicNumber.from_root(X2_MINUS_2, iv)
    assert sqrt2.compare(Fraction(3, 2)) == -1
    assert AlgebraicNumber.from_rational(Fraction(1, 3)).compare(Fraction(1, 3)) == 0
    (iv,) = isolate_roots(CUBIC, Fraction(0), Fraction(1))
    cbrt = AlgebraicNumber.from_root(CUBIC, iv)
    assert cbrt.compare(Fraction(5, 6)) == 1


def test_alg_compare_agrees_with_deep_refinement():
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        p = random_squarefree(rng)
        lo, hi = Fraction(-8), Fraction(8)
        if poly_eval(p, lo) == 0 or poly_eval(p, hi) == 0:
            continue
        for iv in isolate_roots(p, lo, hi):
            root = AlgebraicNumber.from_root(p, iv)
            q = Fraction(rng.randint(-800, 800), 100)
            fine = root.refine(Fraction(1, 10**12))
            if fine.lo < q < fine.hi:
                expected = 0 if poly_eval(p, q) == 0 else None
            elif q <= fine.lo:
                expected = 1
            else:
                expected = -1
            got = root.compare(q)
            if expected is not None:
                assert got == expected
            checked += 1


def test_rational_root_hit_by_bisection_midpoint():
    # (x - 1/2)(x - 5) has the root 1/2 exactly at the midpoint of (0, 1).
    p = integer_primitive(poly_mul(poly(Fraction(-1, 2), 1), poly(-5, 1)))
    (iv,) = isolate_roots(p, Fraction(0), Fraction(1))
    root = AlgebraicNumber.from_root(p, iv)
    assert root.compare(Fraction(1, 2)) == 0
    fine = root.refine(Fraction(1, 10**6))
    assert fine.lo < Fraction(1, 2) < fine.hi


def test_decimal_enclosure():
    (iv,) = isolate_roots(CUBIC, Fraction(0), Fraction(1))
    root = AlgebraicNumber.from_root(CUBIC, iv)
    lo, hi = root.decimal_enclosure(6)
    assert lo == "0.873580" and hi == "0.873581"


def test_sturm_chain_endpoints():
    chain = sturm_chain(X2_MINUS_2)
    assert chain[0] == X2_MINUS_2
    assert chain[1] == derivative(X2_MINUS_2)
    assert all(degree(q) >= 0 for q in chain)


def test_from_root_rejects_bad_intervals():
    with pytest.raises(ValueError):
        AlgebraicNumber.from_root(X2_MINUS_2, Interval(Fraction(-2), Fraction(2)))


def test_descartes_sign_anchors():
    F = Fraction
    q = poly_mul(poly(-1, 3), poly(-2, 3))  # roots 1/3 and 2/3
    assert descartes_sign(q, F(0), F(1)) is None
    assert descartes_sign(q, F(2, 5), F(3, 5)) == -1
    assert descartes_sign(q, F(1, 3), F(2, 3)) == -1  # endpoint roots lie outside
    assert descartes_sign(q, F(-5), F(1, 3)) == 1
    assert descartes_sign(poly(F(-7, 3)), F(0), F(1)) == -1
    # (x - 1/2)^2 + 1/100 has no real root, yet the rule cannot show it on
    # (0, 1); on (0, 1/2) it can.  None does not mean a root exists.
    r = poly(F(26, 100), -1, 1)
    assert descartes_sign(r, F(0), F(1)) is None
    assert descartes_sign(r, F(0), F(1, 2)) == 1
    with pytest.raises(ValueError):
        descartes_sign((), F(0), F(1))
    with pytest.raises(ValueError):
        descartes_sign(q, F(1), F(1))


def test_descartes_sign_agrees_with_sturm():
    rng = random.Random(31)
    for _ in range(300):
        p = poly(*(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 7))))
        if not p:
            continue
        lo = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        hi = lo + Fraction(rng.randint(1, 12), rng.randint(1, 6))
        sign = descartes_sign(p, lo, hi)
        if sign is None:
            continue
        reduced = squarefree(p)
        for x in (lo, hi):
            if poly_eval(reduced, x) == 0:
                reduced = poly_divmod(reduced, poly(-x, 1))[0]
        assert degree(reduced) < 1 or count_roots(reduced, lo, hi) == 0
        assert (poly_eval(p, (lo + hi) / 2) > 0) == (sign > 0)
