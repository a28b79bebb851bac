"""Exact two-tailed binomial statistics for branching-ratio models.

All quantities are exact rationals.  ``tail_prob(m, n, b)`` sums the binomial
probabilities of the outcomes at least as far from the mean ``m*b`` as ``n``;
the test rejects when that probability is strictly below the significance
level.  As a function of ``b`` the tail probability is piecewise polynomial
with breakpoints at ``i/(2m)``: on each open piece the qualifying outcome set
is constant, so the piece is a plain polynomial with rational coefficients,
and the breakpoints carry their own exact values.

``bounds`` computes the exact greatest lower and least upper bound of the
consistency set ``{b in [0,1] : tail_prob(m, n, b) >= alpha}``.  Two scans
walk the breakpoints and pieces outside-in, one from each end, and stop at
the first member of the set; a piece is analysed only when a scan reaches
it.  Descartes' rule of signs clears most pieces of roots of
``piece - alpha`` in integer arithmetic, and such a piece is wholly in or
out of the set by its sign; only the others are reduced to their squarefree
part and isolated with Sturm sequences.  The endpoints come out as
algebraic numbers (rational, or a squarefree integer polynomial with an
isolating interval).  ``interval_estimate`` serializes the two endpoints
into a single nonnegative integer with a small versioned descriptor format,
and ``decay_restriction`` builds the submodel of the decay model whose
states pass the test, which turns rejection into range membership.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb
from dataclasses import dataclass

from . import exact_arith, model_core
from .encodings import (
    DecodeError,
    Interval,
    int_code,
    int_decode,
    interval_code,
    interval_decode,
    pair,
    rat_code,
    rat_decode,
    unpair,
    unpair_tuple,
)
from .exact_arith import (
    AlgebraicNumber,
    Coeffs,
    isolate_roots,
    poly,
    poly_divmod,
    poly_eval,
    poly_sub,
    squarefree,
)
from .model_core import Budget, Model, ObservationLog, SemiDecidableSet, restrict

DESCRIPTOR_VERSION = 1


def binom_pmf(i: int, b: Fraction, j: int) -> Fraction:
    """Probability of ``j`` tagged outcomes among ``i`` trials at ratio ``b``.

    Uses the convention 0**0 == 1, so the endpoints b == 0 and b == 1 are
    exact point masses.
    """
    if j > i or j < 0:
        raise ValueError(f"need 0 <= j <= i, got j={j}, i={i}")
    b = Fraction(b)
    if not 0 <= b <= 1:
        raise ValueError(f"ratio must be in [0, 1], got {b}")
    return comb(i, j) * b**j * (1 - b) ** (i - j)


def _check_counts(m: int, n: int) -> None:
    if not 0 <= n <= m:
        raise ValueError(f"need 0 <= n <= m, got n={n}, m={m}")


def tail_prob(m: int, n: int, b: Fraction) -> Fraction:
    """Exact two-tailed tail probability.

    With ``b = p/q`` an outcome ``k`` qualifies when
    ``|k*q - m*p| >= |n*q - m*p|``, and the sum is one integer numerator
    ``sum comb(m, k) * p^k * (q - p)^(m - k)`` over ``q^m``.
    """
    _check_counts(m, n)
    b = Fraction(b)
    if not 0 <= b <= 1:
        raise ValueError(f"ratio must be in [0, 1], got {b}")
    p, q = b.numerator, b.denominator
    mean = m * p
    distance = abs(n * q - mean)
    total = sum(
        comb(m, k) * p**k * (q - p) ** (m - k)
        for k in range(m + 1)
        if abs(k * q - mean) >= distance
    )
    return Fraction(total) / Fraction(q) ** m


def reject(m: int, n: int, b: Fraction, alpha: Fraction) -> bool:
    """Reject at significance ``alpha`` iff the tail probability is < alpha.

    Strictly below: the behavior at tail_prob == alpha exactly is
    convention-sensitive, and this library retains in that case.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError(f"significance level must be in (0, 1), got {alpha}")
    return tail_prob(m, n, b) < alpha


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise-polynomial form of the tail probability in the ratio.

    ``pieces[i]`` equals the tail probability on the open interval
    ``(i/(2m); (i+1)/(2m))``; ``breakpoint_values[i]`` is the exact value at
    ``i/(2m)``.
    """

    m: int
    n: int
    pieces: tuple[Coeffs, ...]
    breakpoint_values: tuple[Fraction, ...]

    def breakpoint(self, i: int) -> Fraction:
        return Fraction(i, 2 * self.m)

    def piece_interval(self, i: int) -> Interval:
        return Interval(self.breakpoint(i), self.breakpoint(i + 1))

    def evaluate(self, b: Fraction) -> Fraction:
        """Exact tail probability via the piecewise form."""
        b = Fraction(b)
        if not 0 <= b <= 1:
            raise ValueError(f"ratio must be in [0, 1], got {b}")
        scaled = b * 2 * self.m
        if scaled.denominator == 1:
            return self.breakpoint_values[int(scaled)]
        return poly_eval(self.pieces[int(scaled)], b)

    def discontinuities(self) -> list[Fraction]:
        """Breakpoints where the piecewise function actually jumps."""
        out = []
        for i in range(1, 2 * self.m):
            x = self.breakpoint(i)
            left = poly_eval(self.pieces[i - 1], x)
            right = poly_eval(self.pieces[i], x)
            value = self.breakpoint_values[i]
            if not (left == value == right):
                out.append(x)
        return out


def build_piecewise(m: int, n: int) -> PiecewisePoly:
    """Symbolic piecewise decomposition of the tail probability."""
    if m < 1:
        raise ValueError("the zero-trials case has no piecewise form")
    _check_counts(m, n)
    # rows[k][j]: coefficient of b^j in comb(m, k) * b^k * (1-b)^(m-k)
    rows = [
        [0] * k + [(-1) ** (j - k) * comb(m, k) * comb(m - k, j - k) for j in range(k, m + 1)]
        for k in range(m + 1)
    ]
    pieces = []
    for i in range(2 * m):
        # outcome k qualifies at the midpoint (2i+1)/(4m) iff
        # |4k - (2i+1)| >= |4n - (2i+1)|
        distance = abs(4 * n - (2 * i + 1))
        qualifying = [rows[k] for k in range(m + 1) if abs(4 * k - (2 * i + 1)) >= distance]
        coeffs = [sum(column) for column in zip(*qualifying)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        pieces.append(tuple(Fraction(c) for c in coeffs))
    values = tuple(tail_prob(m, n, Fraction(i, 2 * m)) for i in range(2 * m + 1))
    return PiecewisePoly(m, n, tuple(pieces), values)


# ---------------------------------------------------------------------------
# Exact bounds of the consistency set


def _remove_root(p: Coeffs, x: Fraction) -> Coeffs:
    quotient, remainder = poly_divmod(p, poly(-x, 1))
    assert not remainder
    return quotient


def _piece_candidates(
    piece: Coeffs, alpha: Fraction, lo: Fraction, hi: Fraction
) -> "tuple[list[AlgebraicNumber], bool, bool] | None":
    """Analyze one open piece of the consistency set.

    Returns (member_roots, touches_left, touches_right) where
    ``member_roots`` are the roots of piece - alpha inside the piece (each a
    member of the set), and the touch flags say whether the set accumulates
    at the piece boundary (making the boundary a glb/lub candidate even when
    the boundary value itself fails the test).  Returns None when the piece
    contributes nothing.
    """
    g = poly_sub(piece, (alpha,))
    if not g:
        # identically alpha: the whole open piece is in the set
        return [], True, True
    sign = exact_arith.descartes_sign(g, lo, hi)
    if sign is not None:
        # no root inside: the piece is wholly in the set or wholly out of it
        return ([], True, True) if sign > 0 else None
    reduced = squarefree(g)
    for endpoint in (lo, hi):
        if poly_eval(reduced, endpoint) == 0:
            reduced = _remove_root(reduced, endpoint)
    roots = (
        isolate_roots(reduced, lo, hi) if exact_arith.degree(reduced) >= 1 else []
    )
    members = [AlgebraicNumber.from_root(reduced, iv) for iv in roots]
    # Sample signs strictly between consecutive roots; isolating-interval
    # endpoints are guaranteed non-roots, so they are valid sample points.
    samples = [roots[0].lo if roots else (lo + hi) / 2]
    samples += [iv.hi for iv in roots]
    signs = [poly_eval(g, x) > 0 for x in samples]
    if not members and not any(signs):
        return None
    return members, signs[0], signs[-1]


def bounds(m: int, n: int, alpha: Fraction) -> tuple[AlgebraicNumber, AlgebraicNumber]:
    """Exact glb and lub of ``{b in [0,1] : tail_prob(m, n, b) >= alpha}``.

    With zero trials every ratio is consistent and the bounds are (0, 1).
    The set is never empty: the ratio ``n/m`` always has tail probability 1.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError(f"significance level must be in (0, 1), got {alpha}")
    _check_counts(m, n)
    if m == 0:
        return AlgebraicNumber.from_rational(0), AlgebraicNumber.from_rational(1)
    pw = build_piecewise(m, n)

    # Each scan analyses pieces only until it stops, so pieces inside the
    # set are never analysed; both scans may stop on the same piece.
    @cache
    def analysis(i: int):
        return _piece_candidates(pw.pieces[i], alpha, pw.breakpoint(i), pw.breakpoint(i + 1))

    def breakpoint_member(i: int) -> bool:
        return pw.breakpoint_values[i] >= alpha

    glb: AlgebraicNumber | None = None
    for i in range(2 * m + 1):
        if breakpoint_member(i):
            glb = AlgebraicNumber.from_rational(pw.breakpoint(i))
            break
        if i < 2 * m and analysis(i) is not None:
            members, touches_left, _ = analysis(i)
            if touches_left:
                glb = AlgebraicNumber.from_rational(pw.breakpoint(i))
            else:
                glb = members[0]
            break

    lub: AlgebraicNumber | None = None
    for i in range(2 * m, -1, -1):
        if breakpoint_member(i):
            lub = AlgebraicNumber.from_rational(pw.breakpoint(i))
            break
        if i > 0 and analysis(i - 1) is not None:
            members, _, touches_right = analysis(i - 1)
            if touches_right:
                lub = AlgebraicNumber.from_rational(pw.breakpoint(i))
            else:
                lub = members[-1]
            break

    assert glb is not None and lub is not None, "the consistency set is never empty"
    return glb, lub


def bounds_grid_scan(
    m: int, n: int, alpha: Fraction, grid: int = 1024
) -> tuple[Fraction, Fraction]:
    """Brute-force oracle: extreme grid points ``t/grid`` passing the test."""
    passing = [
        Fraction(t, grid)
        for t in range(grid + 1)
        if tail_prob(m, n, Fraction(t, grid)) >= alpha
    ]
    return passing[0], passing[-1]


# ---------------------------------------------------------------------------
# Estimator descriptor codec

_TAG_RATIONAL = 0
_TAG_ROOT = 1


def algebraic_code(a: AlgebraicNumber) -> int:
    """Serialize an algebraic number into a nonnegative integer.

    Layout: pair(version, pair(tag, body)); tag 0 carries a rational code,
    tag 1 carries pair(degree, left-nested signed coefficient codes,
    isolating interval code).
    """
    if a.rational is not None:
        return pair(DESCRIPTOR_VERSION, pair(_TAG_RATIONAL, rat_code(a.rational)))
    assert a.polynomial is not None and a.isolating is not None
    deg = exact_arith.degree(a.polynomial)
    coeff_code = pair(*(int_code(int(c)) for c in a.polynomial))
    body = pair(deg, coeff_code, interval_code(a.isolating))
    return pair(DESCRIPTOR_VERSION, pair(_TAG_ROOT, body))


def algebraic_decode(n: int) -> AlgebraicNumber:
    version, rest = unpair(n)
    if version != DESCRIPTOR_VERSION:
        raise DecodeError(f"unsupported descriptor version {version}")
    tag, body = unpair(rest)
    if tag == _TAG_RATIONAL:
        return AlgebraicNumber.from_rational(rat_decode(body))
    if tag != _TAG_ROOT:
        raise DecodeError(f"unknown descriptor tag {tag}")
    deg, coeff_code, iv_code = unpair_tuple(body, 3)
    coeffs = [int_decode(c) for c in unpair_tuple(coeff_code, deg + 1)]
    return AlgebraicNumber.from_root(poly(*coeffs), interval_decode(iv_code))


def interval_estimate(m: int, n: int, alpha: Fraction) -> int:
    """Code of the exact interval estimate: pair of endpoint descriptors."""
    glb, lub = bounds(m, n, alpha)
    return pair(algebraic_code(glb), algebraic_code(lub))


def interval_estimate_decode(code: int) -> tuple[AlgebraicNumber, AlgebraicNumber]:
    left, right = unpair(code)
    return algebraic_decode(left), algebraic_decode(right)


# ---------------------------------------------------------------------------
# The decay submodel and the log-level significance bound


def consistency_set(alpha: Fraction, b: Fraction) -> SemiDecidableSet:
    """Measurement codes pair(m, n) whose tail probability passes ``alpha``."""
    alpha = Fraction(alpha)
    b = Fraction(b)

    def accepted(code: int) -> bool:
        m, n = unpair(code)
        return n <= m and tail_prob(m, n, b) >= alpha

    return SemiDecidableSet(decide=accepted, description=f"tail_prob >= {alpha} at b={b}")


def decay_restriction(alpha: Fraction, b: Fraction) -> Model:
    """Submodel of the decay model keeping states that pass the test.

    Rejection becomes range membership: a measurement pair(m, n) is rejected
    at ``alpha`` exactly when it is absent from this model's range.
    """
    b = Fraction(b)
    if not 0 <= b <= 1:
        raise ValueError(f"ratio must be in [0, 1], got {b}")
    base = model_core.builtin("decay", b=b)
    return restrict(base, "f", consistency_set(alpha, b), Budget(1024))


def max_alpha(log: ObservationLog, b: Fraction) -> Fraction | None:
    """Exact minimum tail probability over the logged measurements.

    Any significance level strictly below the returned value keeps the decay
    submodel consistent with every logged record.  An empty log constrains
    nothing, signalled by ``None``.
    """
    b = Fraction(b)
    best: Fraction | None = None
    for sym, result in log.records:
        if sym != "f":
            raise ValueError(f"record for {sym!r}, not the decay observable 'f'")
        m, n = unpair(result)
        if n > m:
            raise ValueError(
                f"malformed decay measurement {result}: tagged count {n} > total {m}"
            )
        p = tail_prob(m, n, b)
        if best is None or p < best:
            best = p
    return best
