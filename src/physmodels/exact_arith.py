"""Exact polynomial arithmetic and algebraic numbers over the rationals.

Root counting uses Sturm's theorem: build the signed remainder sequence of a
squarefree polynomial, then the difference in sign variations at the endpoints
counts the distinct real roots strictly between them.  Isolation bisects until
each interval holds one root; refinement keeps bisecting the same bracket, so
intervals produced for shrinking widths are nested.  ``descartes_sign`` is a
cheaper test that runs first where many intervals hold no root: Descartes'
rule of signs after a Moebius map, in integers, can show that an interval
holds no root, but never counts or isolates roots.

An algebraic number is carried either as an exact rational or as a squarefree
integer polynomial together with an open rational interval that isolates one
simple root.  Comparison against a rational is exact: decide by the sign of the
polynomial if the rational sits inside the isolating interval, otherwise by
position, refining as needed.  No algebraic-algebraic arithmetic is provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .encodings import Interval

Coeffs = tuple[Fraction, ...]


def poly(*coeffs: Fraction | int) -> Coeffs:
    """Build a polynomial from ascending coefficients, trimming high zeros."""
    return _trim(tuple(Fraction(c) for c in coeffs))


def _trim(cs: Sequence[Fraction]) -> Coeffs:
    cs = tuple(cs)
    while cs and cs[-1] == 0:
        cs = cs[:-1]
    return cs


def degree(p: Coeffs) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(p) - 1


def poly_eval(p: Coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_add(p: Coeffs, q: Coeffs) -> Coeffs:
    n = max(len(p), len(q))
    return _trim(
        tuple(
            (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
            for i in range(n)
        )
    )


def poly_neg(p: Coeffs) -> Coeffs:
    return tuple(-c for c in p)


def poly_sub(p: Coeffs, q: Coeffs) -> Coeffs:
    return poly_add(p, poly_neg(q))


def poly_mul(p: Coeffs, q: Coeffs) -> Coeffs:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def poly_scale(p: Coeffs, k: Fraction) -> Coeffs:
    return _trim(tuple(c * k for c in p))


def poly_divmod(p: Coeffs, q: Coeffs) -> tuple[Coeffs, Coeffs]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    rem = list(p)
    lead = q[-1]
    while len(rem) >= len(q) and _trim(rem):
        rem = list(_trim(rem))
        if len(rem) < len(q):
            break
        k = len(rem) - len(q)
        factor = rem[-1] / lead
        quot[k] = factor
        for i, c in enumerate(q):
            rem[k + i] -= factor * c
        rem = rem[:-1]
    return _trim(quot), _trim(rem)


def derivative(p: Coeffs) -> Coeffs:
    return _trim(tuple(c * i for i, c in enumerate(p)))[1:] if len(p) > 1 else ()


def poly_gcd(p: Coeffs, q: Coeffs) -> Coeffs:
    """Monic gcd over the rationals."""
    a, b = p, q
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return ()
    return poly_scale(a, 1 / a[-1])


def integer_primitive(p: Coeffs) -> Coeffs:
    """Clear denominators, divide out the content, force a positive lead."""
    if not p:
        raise ValueError("the zero polynomial has no primitive form")
    denom = lcm(*(c.denominator for c in p)) if len(p) > 1 else p[0].denominator
    ints = [int(c * denom) for c in p]
    content = 0
    for c in ints:
        content = gcd(content, abs(c))
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(Fraction(c) for c in ints)


def squarefree(p: Coeffs) -> Coeffs:
    """Squarefree part of ``p``: same real roots, all simple, normalized to
    integer coefficients with content 1 and positive leading coefficient."""
    if not p:
        raise ValueError("the zero polynomial has no squarefree part")
    if degree(p) == 0:
        return integer_primitive(p)
    g = poly_gcd(p, derivative(p))
    reduced, rem = poly_divmod(p, g)
    assert not rem
    return integer_primitive(reduced)


def sturm_chain(p: Coeffs) -> list[Coeffs]:
    chain = [p, derivative(p)]
    while chain[-1] and degree(chain[-1]) > 0:
        chain.append(poly_neg(poly_divmod(chain[-2], chain[-1])[1]))
    if chain and not chain[-1]:
        chain.pop()
    return chain


def _variations(chain: Sequence[Coeffs], x: Fraction) -> int:
    signs = [v for q in chain if (v := poly_eval(q, x)) != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


class EndpointRootError(ValueError):
    """An interval endpoint is a root; the caller must perturb it."""


def count_roots(p: Coeffs, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of squarefree ``p`` in the open
    interval ``(lo, hi)``."""
    if not p:
        raise ValueError("the zero polynomial has no root count")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {lo} >= {hi}")
    if poly_eval(p, lo) == 0 or poly_eval(p, hi) == 0:
        raise EndpointRootError(f"root at an endpoint of ({lo}, {hi})")
    chain = sturm_chain(p)
    return _variations(chain, lo) - _variations(chain, hi)


def _taylor_shift(cs: list[int], a: int) -> list[int]:
    """Coefficients of ``p(x + a)`` from those of ``p(x)``, in integers."""
    cs = list(cs)
    for i in range(len(cs) - 1):
        acc = cs[-1]
        for j in range(len(cs) - 2, i - 1, -1):
            acc = cs[j] = cs[j] + a * acc
    return cs


def descartes_sign(p: Coeffs, lo: Fraction, hi: Fraction) -> int | None:
    """The sign (+1 or -1) of nonzero ``p`` throughout the open interval
    ``(lo, hi)`` when Descartes' rule of signs shows that ``p`` has no root
    there, else None.

    The Moebius map ``x = (lo + hi*t)/(1 + t)`` takes ``t`` in (0, oo) onto
    (lo, hi).  ``(1 + t)^d p(x)`` has at most as many positive roots as sign
    variations in its coefficients (the first step of Collins & Akritas
    1976); with none, every nonzero coefficient has the sign of ``p`` on the
    interval.  None does not mean a root exists.  All arithmetic is on
    integers.
    """
    if not p:
        raise ValueError("the zero polynomial has no sign")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {lo} >= {hi}")
    d = degree(p)
    cden = lcm(*(c.denominator for c in p))
    den = lcm(lo.denominator, hi.denominator)
    a, w = int(lo * den), int((hi - lo) * den)
    # cden * den^d * p((a + w*y)/den) for y in (0, 1), then y = 1/(1 + t).
    ints = [c.numerator * (cden // c.denominator) * den ** (d - k) for k, c in enumerate(p)]
    shifted = _taylor_shift(ints, a)
    scaled = [c * w**k for k, c in enumerate(shifted)]
    mapped = [c for c in _taylor_shift(scaled[::-1], 1) if c]
    if all(c > 0 for c in mapped):
        return 1
    if all(c < 0 for c in mapped):
        return -1
    return None


def _interior_point(p: Coeffs, lo: Fraction, hi: Fraction) -> Fraction:
    """A point in (lo, hi) that is not a root, found deterministically by
    walking dyadic cuts; only finitely many points can be roots."""
    k = 2
    while True:
        x = lo + (hi - lo) / k
        if poly_eval(p, x) != 0:
            return x
        k *= 2


def isolate_roots(p: Coeffs, lo: Fraction, hi: Fraction) -> list[Interval]:
    """Disjoint open rational intervals inside ``(lo, hi)``, each isolating
    exactly one root of squarefree ``p``, ordered low to high."""
    total = count_roots(p, lo, hi)
    out: list[Interval] = []

    def bisect(a: Fraction, b: Fraction, n: int) -> None:
        if n == 0:
            return
        if n == 1:
            out.append(Interval(a, b))
            return
        mid = _interior_point(p, a, b)
        left = count_roots(p, a, mid)
        bisect(a, mid, left)
        bisect(mid, b, n - left)

    bisect(lo, hi, total)
    return out


@dataclass(frozen=True)
class AlgebraicNumber:
    """A real algebraic number: exact rational, or isolated polynomial root."""

    rational: Fraction | None = None
    polynomial: Coeffs | None = None
    isolating: Interval | None = None

    @classmethod
    def from_rational(cls, q: Fraction | int) -> "AlgebraicNumber":
        return cls(rational=Fraction(q))

    @classmethod
    def from_root(cls, p: Coeffs, iv: Interval) -> "AlgebraicNumber":
        """The unique root of squarefree integer polynomial ``p`` in ``iv``.

        Endpoints must not be roots, and exactly one root must lie inside.
        """
        p = integer_primitive(p)
        if count_roots(p, iv.lo, iv.hi) != 1:
            raise ValueError(f"{iv} does not isolate exactly one root")
        return cls(polynomial=p, isolating=iv)

    def refine(self, eps: Fraction) -> Interval:
        """An interval of width <= eps containing the number.

        Deterministic bisection from the stored isolating interval, so calls
        with shrinking eps produce nested intervals.
        """
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        if self.rational is not None:
            third = eps / 3
            return Interval(self.rational - third, self.rational + third)
        assert self.polynomial is not None and self.isolating is not None
        p = self.polynomial
        lo, hi = self.isolating.lo, self.isolating.hi
        while hi - lo > eps:
            lo, hi = _halve(p, lo, hi)
        return Interval(lo, hi)

    def compare(self, q: Fraction) -> int:
        """Exact three-way comparison against a rational: -1, 0, or +1."""
        q = Fraction(q)
        if self.rational is not None:
            return (self.rational > q) - (self.rational < q)
        assert self.polynomial is not None and self.isolating is not None
        p = self.polynomial
        lo, hi = self.isolating.lo, self.isolating.hi
        while True:
            if q <= lo:
                return 1
            if q >= hi:
                return -1
            if poly_eval(p, q) == 0:
                return 0
            lo, hi = _halve(p, lo, hi)

    def decimal_enclosure(self, digits: int) -> tuple[str, str]:
        """Decimal strings bounding the number, at most one ulp apart."""
        scale = 10**digits
        if self.rational is not None:
            lo_units = _floor_div(self.rational * scale)
            hi_units = -_floor_div(-self.rational * scale)
            return _decimal(lo_units, digits), _decimal(hi_units, digits)
        eps = Fraction(1, 10 * scale)
        while True:
            iv = self.refine(eps)
            lo_units = _floor_div(iv.lo * scale)
            hi_units = -_floor_div(-iv.hi * scale)
            if hi_units - lo_units <= 1:
                return _decimal(lo_units, digits), _decimal(hi_units, digits)
            # The enclosure straddles the grid point between the bounds; if the
            # root IS that point, report it exactly, otherwise keep refining
            # until the grid point is excluded.
            grid = Fraction(lo_units + 1, scale)
            if self.compare(grid) == 0:
                return _decimal(lo_units + 1, digits), _decimal(lo_units + 1, digits)
            eps /= 4

    def __str__(self) -> str:
        if self.rational is not None:
            return f"{self.rational} (exact)"
        coeffs = ", ".join(str(int(c)) for c in self.polynomial)  # type: ignore[union-attr]
        return f"root of [{coeffs}] in {self.isolating}"


def _halve(p: Coeffs, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """One deterministic bisection step keeping the unique root bracketed."""
    mid = (lo + hi) / 2
    v = poly_eval(p, mid)
    if v == 0:
        # The root is exactly mid; shrink to a quarter-width bracket around it.
        w = (hi - lo) / 4
        return mid - w, mid + w
    if (poly_eval(p, lo) > 0) != (v > 0):
        return lo, mid
    return mid, hi


def _floor_div(q: Fraction) -> int:
    return q.numerator // q.denominator


def _decimal(units: int, digits: int) -> str:
    sign = "-" if units < 0 else ""
    units = abs(units)
    if digits == 0:
        return f"{sign}{units}"
    whole, frac = divmod(units, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"
