"""Codec tests: frozen formula values plus the bijection/monotonicity laws."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from physmodels import encodings
from physmodels.encodings import (
    DecodeError,
    Interval,
    _factorize,
    dyadic_shrink,
    first,
    format_rect,
    int_code,
    int_decode,
    interval_code,
    interval_decode,
    pair,
    parse_interval,
    parse_rational,
    parse_rect,
    rat_code,
    rat_decode,
    rect_code,
    rect_decode,
    second,
    seg_code,
    seg_decode,
    sing_code,
    unpair,
    unpair_tuple,
)


def brute_unpair(n, bound=10):
    """Independent inverse: exhaustive search over small arguments."""
    for a in range(bound + 1):
        for b in range(bound + 1):
            if pair(a, b) == n:
                return a, b
    raise AssertionError(f"no preimage of {n} below {bound}")


def test_pair_anchor_values():
    assert pair(0, 0) == 0
    assert pair(0, 1) == 1
    assert pair(1, 0) == 2
    assert pair(3, 2) == 18
    assert unpair(18) == brute_unpair(18) == (3, 2)


def test_pair_roundtrip_exhaustive():
    for n in range(100_000):
        a, b = unpair(n)
        assert pair(a, b) == n
    for a in range(300):
        for b in range(300):
            assert unpair(pair(a, b)) == (a, b)


def test_pair_strictly_monotone_in_each_argument():
    for a in range(100):
        for b in range(100):
            assert pair(a + 1, b) > pair(a, b)
            assert pair(a, b + 1) > pair(a, b)


def test_tuple_pairing_left_associative():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rng.randrange(10_000) for _ in range(3))
        assert pair(a, b, c) == pair(pair(a, b), c)
        assert unpair_tuple(pair(a, b, c), 3) == (a, b, c)
    assert pair(5) == 5


def test_pair_rejects_negative():
    with pytest.raises(ValueError):
        pair(-1, 0)


def test_pair_fast_path_equals_closed_form():
    rng = random.Random(600)
    for _ in range(2000):
        a, b = (rng.randrange(10 ** rng.randrange(1, 601)) for _ in range(2))
        n = pair(a, b)
        assert n == ((a + b) ** 2 + 3 * a + b) // 2
        t = (isqrt(8 * n + 1) - 1) // 2
        assert unpair(n) == (n - t * (t + 1) // 2, t - (n - t * (t + 1) // 2)) == (a, b)
        assert (first(n), second(n)) == (a, b)


def test_pair_and_unpair_outside_plain_ints():
    class Count(int):
        pass

    assert pair(Count(3), 2) == pair(3, Count(2)) == pair(Count(3), Count(2)) == 18
    assert unpair(Count(18)) == (3, 2) and type(pair(Count(3), 2)) is int
    for args in ((True, 1), (1, False), (-1, 0), (0, -1), (2.0, 1), (1, 2.5), ("1", 2)):
        with pytest.raises(ValueError, match="expected a nonnegative integer, got"):
            pair(*args)
    for n in (True, False, -1, 18.0, "18"):
        with pytest.raises(ValueError, match=f"expected a nonnegative integer, got {n!r}"):
            unpair(n)


def test_projections():
    assert first(18) == 3
    assert second(18) == 2


def test_int_code_anchor_values():
    assert int_code(0) == 0
    assert int_code(-1) == 1
    assert int_code(1) == 2
    assert int_code(-2) == 3
    assert int_decode(7) == -4


@given(st.integers(min_value=-(10**12), max_value=10**12))
def test_int_code_roundtrip(i):
    assert int_decode(int_code(i)) == i


def test_int_code_total_on_naturals():
    seen = set()
    for n in range(2000):
        i = int_decode(n)
        assert int_code(i) == n
        seen.add(i)
    assert len(seen) == 2000


def test_rat_code_anchor_values():
    assert rat_code(Fraction(0)) == 0
    assert rat_code(Fraction(1, 2)) == 4
    assert rat_code(Fraction(-1, 2)) == 3
    assert rat_code(Fraction(1)) == 2


def _rat_code_factoring_both(q):
    """The code as the prime-exponent product, factoring both numerator and
    denominator (the definition the closed form must agree with)."""
    if q == 0:
        return int_code(0)
    num_exp = _factorize(abs(q.numerator))
    den_exp = _factorize(q.denominator)
    inner = 1
    for p in set(num_exp) | set(den_exp):
        inner *= p ** int_code(num_exp.get(p, 0) - den_exp.get(p, 0))
    return int_code(inner if q > 0 else -inner)


def test_rat_code_equals_prime_exponent_product():
    rng = random.Random(3505)
    qs = [Fraction(0), Fraction(1), Fraction(-1)]
    qs += [Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4)) for _ in range(2000)]
    qs += [Fraction(rng.randint(-(10**9), 10**9), 2**k) for k in range(41) for _ in range(12)]
    qs += [Fraction(p, q) for p in range(-12, 13) for q in range(1, 13)]
    for q in qs:
        assert rat_code(q) == _rat_code_factoring_both(q), q


def test_rat_code_roundtrip_random():
    rng = random.Random(20260808)
    for _ in range(1000):
        q = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
        assert rat_decode(rat_code(q)) == q


def test_rat_code_total_on_naturals():
    for n in range(500):
        assert rat_code(rat_decode(n)) == n


def test_factorize_stops_at_the_trial_divisor_cap(monkeypatch):
    # With 10 trial divisors (2, 3, 5, ..., 19) a rest below 21**2 with no
    # factor up to 19 is prime; a larger one cannot be decided.
    monkeypatch.setattr(encodings, "MAX_TRIAL_DIVISORS", 10)
    assert _factorize(2 * 439) == {2: 1, 439: 1}
    assert _factorize(19 * 19 * 3) == {3: 1, 19: 2}
    for n in (443, 23 * 23, 2 * 29 * 31):
        with pytest.raises(DecodeError, match="more than 10 trial divisors"):
            _factorize(n)
    with pytest.raises(DecodeError):
        rat_decode(int_code(23 * 23))
    assert rat_decode(rat_code(Fraction(-2, 439))) == Fraction(-2, 439)


def test_interval_code_anchor_values():
    assert interval_code(Interval(Fraction(0), Fraction(1))) == 3
    assert interval_decode(3) == Interval(Fraction(0), Fraction(1))


def test_interval_decode_rejects_empty():
    # pair(2, 0) decodes endpoint-wise to lo=1, hi=0.
    with pytest.raises(DecodeError):
        interval_decode(pair(2, 0))
    with pytest.raises(DecodeError):
        rect_decode(pair(3, pair(2, 0)), 2)  # bad second component


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(1))


def test_rect_code_dimension_one_degenerates_to_interval():
    unit = Interval(Fraction(0), Fraction(1))
    assert rect_code([unit]) == interval_code(unit) == 3


def test_rect_code_two_dimensional_value():
    # pair(3, 3) == ((3+3)**2 + 3*3 + 3) // 2 == 24, fixed by the formula.
    unit = Interval(Fraction(0), Fraction(1))
    assert rect_code([unit, unit]) == pair(3, 3) == 24


def test_rect_roundtrip_random():
    rng = random.Random(99)
    for _ in range(100):
        dim = rng.randint(1, 4)
        rect = []
        for _ in range(dim):
            lo = Fraction(rng.randint(-50, 49), rng.randint(1, 20))
            hi = lo + Fraction(rng.randint(1, 30), rng.randint(1, 20))
            rect.append(Interval(lo, hi))
        rect = tuple(rect)
        assert rect_decode(rect_code(rect), dim) == rect


def test_discrete_basis_codes():
    assert sing_code(7) == 7
    assert seg_code(5, 0) == 20
    assert seg_decode(20) == (5, 0)


def test_parsers():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_interval("(0;1)") == Interval(Fraction(0), Fraction(1))
    assert parse_interval("1/2 ; 5/2") == Interval(Fraction(1, 2), Fraction(5, 2))
    rect = parse_rect("(0;1)x(-1/2;1/2)")
    assert rect == (
        Interval(Fraction(0), Fraction(1)),
        Interval(Fraction(-1, 2), Fraction(1, 2)),
    )
    assert parse_rect(format_rect(rect)) == rect
    with pytest.raises(ValueError):
        parse_rational("one")
    with pytest.raises(ValueError):
        parse_interval("(1;2;3)")


def test_dyadic_shrink_is_nested():
    point = (Fraction(1), Fraction(2))
    rects = [dyadic_shrink(point, i) for i in range(8)]
    assert rects[2] == (
        Interval(Fraction(3, 4), Fraction(5, 4)),
        Interval(Fraction(7, 4), Fraction(9, 4)),
    )
    for prev, cur in zip(rects, rects[1:]):
        for big, small in zip(prev, cur):
            assert big.contains_interval(small)
