"""Exact bijective codecs between structured values and nonnegative integers.

Everything a model can observe is ultimately a nonnegative integer, so this
module provides the codecs that let richer values travel through that bottleneck:

* ``pair``/``unpair`` -- Cantor's pairing function ``((a+b)^2 + 3a + b) / 2``
  and its inverse.  Tuples fold left-nested: ``pair(a, b, c) == pair(pair(a, b), c)``,
  and a 1-tuple is its own code.
* ``int_code`` -- signed integers, ``2i`` for ``i >= 0`` and ``-2i - 1`` otherwise.
* ``rat_code`` -- rationals in lowest terms, via the signed product
  ``sgn(a) * prod(p_k ** int_code(a_k - b_k))`` over the prime factorizations
  of numerator and denominator, followed by ``int_code``.  Numerator and
  denominator share no prime, so for ``q = ±x/y`` the product is
  ``±x**2 * y**2 / rad(y)`` (``rad(y)``: the product of y's distinct primes),
  and only the denominator is factored.  Decoding factors the code itself.
  Factoring is trial division by at most ``MAX_TRIAL_DIVISORS`` divisors and
  raises ``DecodeError`` past them, so every rational code and denominator
  is handled in bounded time.
* ``interval_code`` -- open rational intervals ``(lo; hi)`` as
  ``pair(rat_code(lo), rat_code(hi))``.
* ``rect_code`` -- open rational rectangles, a left-nested pairing of the
  component interval codes (one interval degenerates to ``interval_code``).
* ``sing_code``/``seg_code`` -- discrete basis elements over the nonnegative
  integers: the singleton ``{a}`` is coded as ``a`` itself, the segment
  ``{a, a+1, ..., a+k}`` as ``pair(a, k)``.

All arithmetic is arbitrary precision; codes nest and grow quadratically, so no
fixed-width assumption is ever safe.  Every function here is pure and all the
value types are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import isqrt, prod
from typing import Sequence


class DecodeError(ValueError):
    """Raised when an integer is not a valid code for the requested type."""


def pair(*parts: int) -> int:
    """Encode one or more nonnegative integers as a single one.

    ``pair(a, b) == ((a + b)**2 + 3*a + b) // 2``; longer tuples fold from the
    left, and ``pair(a) == a``.
    """
    if len(parts) == 2:
        a, b = parts
        # Two plain nonnegative ints, the common case, skip the general
        # check; bools, int subclasses and the rest go through it below.
        if type(a) is int and type(b) is int and a >= 0 and b >= 0:
            s = a + b
            return (s * s + 3 * a + b) // 2
    if not parts:
        raise ValueError("pair() needs at least one component")
    for p in parts:
        _check_nonneg(p)
    code = parts[0]
    for p in parts[1:]:
        s = code + p
        code = (s * s + 3 * code + p) // 2
    return code


def unpair(n: int) -> tuple[int, int]:
    """Invert ``pair`` on two components."""
    if type(n) is not int or n < 0:
        _check_nonneg(n)
    t = (isqrt(8 * n + 1) - 1) // 2
    a = n - t * (t + 1) // 2
    return a, t - a


def unpair_tuple(n: int, k: int) -> tuple[int, ...]:
    """Invert the left-nested ``pair`` on ``k`` components."""
    if k < 1:
        raise ValueError("component count must be positive")
    out: list[int] = []
    for _ in range(k - 1):
        n, b = unpair(n)
        out.append(b)
    out.append(n)
    return tuple(reversed(out))


def first(n: int) -> int:
    """First projection of a pair code."""
    return unpair(n)[0]


def second(n: int) -> int:
    """Second projection of a pair code."""
    return unpair(n)[1]


def int_code(i: int) -> int:
    """Encode a signed integer: ``2i`` if ``i >= 0``, else ``-2i - 1``."""
    return 2 * i if i >= 0 else -2 * i - 1


def int_decode(n: int) -> int:
    _check_nonneg(n)
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


MAX_TRIAL_DIVISORS = 5_000_000
"""Most trial divisors ``_factorize`` tries: 2 and the odd numbers below
``2 * MAX_TRIAL_DIVISORS``.  It bounds the time any rational code takes to
decode, and the time any denominator takes to encode."""


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division with at most
    ``MAX_TRIAL_DIVISORS`` divisors; past them it raises ``DecodeError``."""
    fs: dict[int, int] = {}
    for d in chain((2,), range(3, 2 * MAX_TRIAL_DIVISORS, 2)):
        if d * d > n:
            break
        while n % d == 0:
            fs[d] = fs.get(d, 0) + 1
            n //= d
    else:
        # Every divisor was tried; a rest with no factor up to the next
        # candidate is 1 or a prime, anything larger may still be composite.
        if (d + 2) ** 2 <= n:
            raise DecodeError(
                f"factoring needs more than {MAX_TRIAL_DIVISORS} trial divisors"
            )
    if n > 1:
        fs[n] = fs.get(n, 0) + 1
    return fs


def rat_code(q: Fraction) -> int:
    """Encode a rational number (``Fraction`` keeps it in lowest terms)."""
    q = Fraction(q)
    y = q.denominator
    inner = q.numerator**2 * (y * y // prod(_factorize(y)))
    return int_code(inner if q > 0 else -inner)


def rat_decode(n: int) -> Fraction:
    signed = int_decode(n)
    if signed == 0:
        return Fraction(0)
    num = 1
    den = 1
    for p, e in _factorize(abs(signed)).items():
        d = int_decode(e)
        if d > 0:
            num *= p**d
        else:
            den *= p**-d
    return Fraction(num if signed > 0 else -num, den)


@dataclass(frozen=True)
class Interval:
    """Open rational interval ``(lo; hi)`` with ``lo < hi``."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not self.lo < self.hi:
            raise ValueError(f"empty interval ({self.lo}; {self.hi})")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x: object) -> bool:
        return self.lo < x < self.hi  # type: ignore[operator]

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def __str__(self) -> str:
        return f"({self.lo};{self.hi})"


Rect = tuple[Interval, ...]


def interval_code(iv: Interval) -> int:
    return pair(rat_code(iv.lo), rat_code(iv.hi))


def interval_decode(n: int) -> Interval:
    a, b = unpair(n)
    lo, hi = rat_decode(a), rat_decode(b)
    if not lo < hi:
        raise DecodeError(f"{n} decodes to the empty interval ({lo}; {hi})")
    return Interval(lo, hi)


def rect_code(rect: Sequence[Interval]) -> int:
    if not rect:
        raise ValueError("rectangles have at least one dimension")
    return pair(*(interval_code(iv) for iv in rect))


def rect_decode(n: int, dim: int) -> Rect:
    """Decode a rectangle code; the dimension is not self-describing."""
    return tuple(interval_decode(c) for c in unpair_tuple(n, dim))


def sing_code(a: int) -> int:
    """Code of the singleton ``{a}`` in the discrete basis: ``a`` itself."""
    _check_nonneg(a)
    return a


def sing_decode(n: int) -> int:
    _check_nonneg(n)
    return n


def seg_code(a: int, k: int) -> int:
    """Code of the segment ``{a, a+1, ..., a+k}``."""
    return pair(a, k)


def seg_decode(n: int) -> tuple[int, int]:
    return unpair(n)


def parse_rational(text: str) -> Fraction:
    """Parse ``a/b`` or a plain integer, with optional sign."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def parse_interval(text: str) -> Interval:
    """Parse ``(a/b;c/d)``; the parentheses are optional."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = body.split(";")
    if len(parts) != 2:
        raise ValueError(f"not an interval: {text!r}")
    return Interval(parse_rational(parts[0]), parse_rational(parts[1]))


def parse_rect(text: str) -> Rect:
    """Parse ``(a;b)x(c;d)x...`` into a rectangle."""
    return tuple(parse_interval(part) for part in text.strip().split("x"))


def format_rect(rect: Sequence[Interval]) -> str:
    return "x".join(str(iv) for iv in rect)


def dyadic_shrink(point: Sequence[Fraction], index: int) -> Rect:
    """Canonical shrinking rectangle around a rational point.

    Step ``index`` has half-width ``2**-index`` in every coordinate, so
    successive rectangles are nested and their widths converge to zero.
    """
    h = Fraction(1, 2**index) if index > 0 else Fraction(1)
    return tuple(Interval(x - h, x + h) for x in point)


def _check_nonneg(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n!r}")
