"""Neighborhood codes for computable real maps: oracles, machines, ranges.

A point of a space with a countable coded basis is represented by a nested
oracle: a stream of basis codes whose decoded elements shrink to a local
basis of the point.  A machine turns nested input oracles into nested output
oracles by interval evaluation: decode the input code at index ``m``,
evaluate the polynomial map over that box exactly, widen into an open
rectangle with an index-dependent margin, and intersect with the previous
output as a safety net (which also makes nestedness unconditional).

``enumerate_graph_range`` produces the budgeted range of the neighborhood
model of a map's graph.  Conceptually it walks every nested chain of input
codes up to the chain-length bound, runs the machine on each chain prefix,
emits the paired input/output code, and finally saturates upward: every
bounded product code containing an emitted one is allowed.  Because interval
evaluation is inclusion isotone and outputs are intersected with previous
ones, running the machine on a nested chain gives exactly the result of the
constant chain of its deepest element, so the walk is one evaluation per
fine box: the products of open intervals between fine grid points, in
lexicographic order, cut off after ``budget.max_states`` boxes.

That walk collapses further, to one evaluation per *atom* box: a product of
elementary intervals between neighbouring fine grid points.  Two facts make
the emitted set equal:

* Every fine box B contains the atom box A(B) taken at each coordinate's
  lower grid index, and A(B) comes at or before B in walk order, so any
  walked prefix that holds B also holds A(B).
* The pairs a box contributes (the coarse intervals containing each input
  component times those containing each output component) only grow as the
  box shrinks.  The input side grows by definition.  The output side grows
  because ``eval_closed_box`` over + - * and negation is inclusion isotone,
  and so is ``widen_to_open``: its margin ``min(2**-i, w/2)`` does not
  decrease as the width w grows, and on a nonempty box a width-0 enclosure
  comes only from a constant component, which has the same value on every
  box.

So the atoms within the walked prefix contribute every pair of the walk.

The input code pool refines a base Farey-style pool (numerators and
denominators bounded) with dyadic subdivisions, so input chains can shrink
well below the granularity of the saturation pool; the saturation pool
itself uses the plain numerator/denominator bounds.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator, Sequence

from .encodings import (
    Interval,
    Rect,
    dyadic_shrink,
    interval_code,
    pair,
    rect_code,
    rect_decode,
    seg_code,
    seg_decode,
    sing_code,
    sing_decode,
    unpair,
)
from .model_core import AllStates, Budget, FnMap, Model, Observable
from .spec_lang import RealFn, RBin, RLit, RVar, eval_closed_box, parse_real_fn, widen_to_open


# ---------------------------------------------------------------------------
# Coded bases


@dataclass(frozen=True)
class EuclideanBasis:
    """Open rational rectangles in fixed dimension, coded by ``rect_code``."""

    dim: int

    def encode(self, rect: Sequence[Interval]) -> int:
        if len(rect) != self.dim:
            raise ValueError(f"expected {self.dim} components")
        return rect_code(rect)

    def decode(self, code: int) -> Rect:
        return rect_decode(code, self.dim)

    def subset(self, c1: int, c2: int) -> bool:
        r1, r2 = self.decode(c1), self.decode(c2)
        return all(big.contains_interval(small) for small, big in zip(r1, r2))


@dataclass(frozen=True)
class SingletonBasis:
    """Singletons over the nonnegative integers; the code of ``{a}`` is ``a``."""

    def encode(self, a: int) -> int:
        return sing_code(a)

    def decode(self, code: int) -> int:
        return sing_decode(code)

    def subset(self, c1: int, c2: int) -> bool:
        return self.decode(c1) == self.decode(c2)


@dataclass(frozen=True)
class SegmentBasis:
    """Integer segments ``{a, ..., a+k}`` coded as ``pair(a, k)``."""

    def encode(self, a: int, k: int) -> int:
        return seg_code(a, k)

    def decode(self, code: int) -> tuple[int, int]:
        return seg_decode(code)

    def subset(self, c1: int, c2: int) -> bool:
        a1, k1 = self.decode(c1)
        a2, k2 = self.decode(c2)
        return a2 <= a1 and a1 + k1 <= a2 + k2


@dataclass(frozen=True)
class ProductBasis:
    """Pairs of basis elements coded as ``pair(left code, right code)``."""

    left: "Basis"
    right: "Basis"

    def encode(self, left_code: int, right_code: int) -> int:
        return pair(left_code, right_code)

    def decode(self, code: int) -> tuple[int, int]:
        return unpair(code)

    def subset(self, c1: int, c2: int) -> bool:
        l1, r1 = self.decode(c1)
        l2, r2 = self.decode(c2)
        return self.left.subset(l1, l2) and self.right.subset(r1, r2)


Basis = EuclideanBasis | SingletonBasis | SegmentBasis | ProductBasis


# ---------------------------------------------------------------------------
# Nested oracles


class NonNestedOracleError(ValueError):
    pass


class NestedOracle:
    """A stream of basis codes with shrinking decoded elements.

    Probing index ``i`` validates nestedness of the prefix up to ``i``.
    Finite test sequences repeat their last code forever.
    """

    def __init__(
        self,
        code_fn: Callable[[int], int],
        basis: Basis,
        point: "tuple[Fraction, ...] | None" = None,
    ):
        self._code_fn = code_fn
        self.basis = basis
        self.point = point
        self._probed: list[int] = []

    @classmethod
    def from_sequence(cls, codes: Sequence[int], basis: Basis) -> "NestedOracle":
        if not codes:
            raise ValueError("an oracle needs at least one code")
        codes = list(codes)
        return cls(lambda i: codes[min(i, len(codes) - 1)], basis)

    @classmethod
    def around_graph_point(
        cls, in_coords: Sequence[Fraction], out_coords: Sequence[Fraction]
    ) -> "NestedOracle":
        """Product-basis oracle around a point of a graph."""
        ins = tuple(Fraction(c) for c in in_coords)
        outs = tuple(Fraction(c) for c in out_coords)
        basis = ProductBasis(EuclideanBasis(len(ins)), EuclideanBasis(len(outs)))

        def code(i: int) -> int:
            return pair(rect_code(dyadic_shrink(ins, i)), rect_code(dyadic_shrink(outs, i)))

        return cls(code, basis, ins + outs)

    def code(self, i: int) -> int:
        while len(self._probed) <= i:
            nxt = self._code_fn(len(self._probed))
            if self._probed and not self.basis.subset(nxt, self._probed[-1]):
                raise NonNestedOracleError(
                    f"oracle code at index {len(self._probed)} is not nested"
                )
            self._probed.append(nxt)
        return self._probed[i]


# ---------------------------------------------------------------------------
# Oracle machines


def _node_count(e) -> int:
    if isinstance(e, (RLit, RVar)):
        return 1
    if isinstance(e, RBin):
        return 1 + _node_count(e.left) + _node_count(e.right)
    return 1 + _node_count(e.arg)


@dataclass
class MachineInstrumentation:
    max_index_queried: int = -1
    steps_used: int = 0
    calls: int = 0


class OracleMachine:
    """A polynomial map lifted to nested oracles, with instrumentation."""

    def __init__(self, fn: RealFn):
        self.fn = fn
        self.in_basis = EuclideanBasis(fn.arity)
        self.out_basis = EuclideanBasis(fn.out_dim)
        self.instrumentation = MachineInstrumentation()
        self._cost = sum(_node_count(o) for o in fn.outputs)

    def step(
        self, oracle: NestedOracle, m: int, max_steps: int | None = None
    ) -> int | None:
        """Output code at index ``m``; None when the step budget runs out.

        Consults oracle indices 0..m only.  Outputs along one oracle are
        nested by construction: each is intersected with its predecessor.
        """
        inst = self.instrumentation
        inst.calls += 1
        rect = self._chain_output(
            [self.in_basis.decode(oracle.code(i)) for i in range(m + 1)], max_steps
        )
        if rect is None:
            return None
        inst.max_index_queried = max(inst.max_index_queried, m)
        return self.out_basis.encode(rect)

    def _chain_output(
        self, boxes: Sequence[Rect], max_steps: int | None = None
    ) -> Rect | None:
        previous: Rect | None = None
        steps = 0
        for i, box in enumerate(boxes):
            steps += self._cost
            if max_steps is not None and steps > max_steps:
                return None
            raw = eval_closed_box(self.fn, box)
            rect = tuple(widen_to_open(bounds, i) for bounds in raw)
            if previous is not None:
                rect = tuple(a.intersect(b) for a, b in zip(rect, previous))
            previous = rect
        self.instrumentation.steps_used += steps
        assert previous is not None
        return previous


# ---------------------------------------------------------------------------
# Code pools


def farey_values(num_bound: int, den_bound: int) -> list[Fraction]:
    """Rationals with numerator magnitude and denominator bounded."""
    out: set[Fraction] = set()
    for q in range(1, den_bound + 1):
        for p in range(-num_bound, num_bound + 1):
            out.add(Fraction(p, q))
    return sorted(out)


def refined_values(num_bound: int, den_bound: int, refine: int) -> list[Fraction]:
    """Dyadic refinements ``p / (q * 2**k)`` with values within the bound."""
    out: set[Fraction] = set()
    for q in range(1, den_bound + 1):
        for k in range(refine + 1):
            d = q * 2**k
            limit = num_bound * d
            for p in range(-limit, limit + 1):
                out.add(Fraction(p, d))
    return sorted(out)


@dataclass(frozen=True)
class GraphRangeRequest:
    """Bounds for one budgeted graph-range enumeration."""

    machine: RealFn
    num_bound: int = 4
    den_bound: int = 4
    refine: int = 0
    chain_len: int = 1
    budget: Budget = Budget(1_000_000)

    def __post_init__(self) -> None:
        if self.num_bound < 1 or self.den_bound < 1 or self.chain_len < 1:
            raise ValueError("bounds must be positive")
        if self.refine < 0:
            raise ValueError("refinement depth cannot be negative")


@dataclass
class GraphRange:
    """Result of a budgeted graph-range enumeration.

    ``boxes_evaluated`` counts the fine boxes the budgeted walk covered; each
    of them was either evaluated or is dominated by an evaluated atom box
    inside the same prefix (see the module docstring).  ``truncated`` says
    that the budget cut the walk before its last box.
    """

    request: GraphRangeRequest
    codes: frozenset[int]
    boxes_evaluated: int
    truncated: bool

    @property
    def basis(self) -> ProductBasis:
        fn = self.request.machine
        return ProductBasis(EuclideanBasis(fn.arity), EuclideanBasis(fn.out_dim))

    def __contains__(self, code: int) -> bool:
        return code in self.codes


class _CoarsePool:
    """Open intervals between points of a sorted value grid, each coded once.

    Interval ``(values[a], values[b])`` is bit ``a(2n-a-1)/2 + (b-a-1)`` of the
    superset masks and has its ``interval_code`` at that index of ``codes``.
    """

    def __init__(self, values: Sequence[Fraction]):
        self.values = list(values)
        n = len(values)
        self.codes = [
            interval_code(Interval(values[a], values[b]))
            for a in range(n)
            for b in range(a + 1, n)
        ]
        self._masks: dict[tuple[int, int], int] = {}

    def signature(self, iv: Interval) -> tuple[int, int]:
        """Grid positions that decide which pool intervals contain ``iv``."""
        return (bisect_right(self.values, iv.lo), bisect_left(self.values, iv.hi))

    def mask(self, sig: tuple[int, int]) -> int:
        """Bits of the intervals ``(a, b)`` with ``a < x`` and ``b >= y``."""
        mask = self._masks.get(sig)
        if mask is None:
            x, y = sig
            n = len(self.values)
            mask = 0
            for a in range(x):
                first = max(y, a + 1)
                if first < n:
                    start = a * (2 * n - a - 1) // 2 + (first - a - 1)
                    mask |= ((1 << (n - first)) - 1) << start
            self._masks[sig] = mask
        return mask

    def superset_codes(self, sig: tuple[int, int]) -> list[int]:
        return [self.codes[i] for i in _bits(self.mask(sig))]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_graph_range(req: GraphRangeRequest) -> GraphRange:
    """Budgeted enumeration of the graph neighborhood model's range.

    The walk covers the first ``budget.max_states`` fine boxes in
    lexicographic order, but only the atom boxes among them are evaluated;
    the module docstring shows that the emitted set is the same.
    Deterministic; grows monotonically with the pool bounds, refinement
    depth, and chain length whenever the budget does not truncate the walk.
    """
    fn = req.machine
    c, d = fn.arity, fn.out_dim
    fine = refined_values(req.num_bound, req.den_bound, req.refine)
    n = len(fine)
    per = n * (n - 1) // 2  # fine intervals per coordinate
    total = per**c
    walked = min(total, req.budget.max_states)
    atoms = [Interval(fine[k], fine[k + 1]) for k in range(n - 1)]
    atom_index = [k * (2 * n - k - 1) // 2 for k in range(n - 1)]  # in the walk
    coarse = _CoarsePool(farey_values(req.num_bound, req.den_bound))

    deepest = req.chain_len - 1
    sigs: set[tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]] = set()
    # atom_index is increasing, so atom tuples come in walk order
    for ks in product(range(n - 1), repeat=c):
        index = 0
        for k in ks:
            index = index * per + atom_index[k]
        if index >= walked:
            break
        box = tuple(atoms[k] for k in ks)
        raw = eval_closed_box(fn, box)
        out_rect = tuple(widen_to_open(bounds, deepest) for bounds in raw)
        in_sig = tuple(coarse.signature(iv) for iv in box)
        out_sig = tuple(coarse.signature(iv) for iv in out_rect)
        sigs.add((in_sig, out_sig))

    def rect_codes(sig: tuple[tuple[int, int], ...]) -> list[int]:
        return [pair(*parts) for parts in product(*map(coarse.superset_codes, sig))]

    codes: set[int] = set()
    if d == 1:
        rows: dict[int, int] = {}  # input rectangle code -> output interval bits
        for in_sig, (out_sig,) in sigs:
            out_mask = coarse.mask(out_sig)
            if out_mask:
                for left in rect_codes(in_sig):
                    rows[left] = rows.get(left, 0) | out_mask
        for left, row in rows.items():
            codes.update(pair(left, coarse.codes[j]) for j in _bits(row))
    else:
        for in_sig, out_sig in sigs:
            rights = rect_codes(out_sig)
            if rights:
                for left in rect_codes(in_sig):
                    codes.update(pair(left, right) for right in rights)

    return GraphRange(req, frozenset(codes), walked, total > walked)


# ---------------------------------------------------------------------------
# Membership probes


@dataclass(frozen=True)
class ProbeResult:
    outcome: str  # "consistent_at_depth" or "excluded"
    depth: int
    witness: int | None = None
    witness_absent_from_range: bool | None = None

    @property
    def excluded(self) -> bool:
        return self.outcome == "excluded"


def membership_probe(grange: GraphRange, oracle: NestedOracle, depth: int) -> ProbeResult:
    """Probe whether the oracle's point can lie in the coded graph set.

    Each oracle code is a product basis element containing the point.  A code
    is excluded when exact interval analysis proves its input box maps
    entirely outside its output box, so no graph point lies inside; the
    emitted range is consulted as a cross-check.  Without such a certificate
    the probe is only ``consistent_at_depth``: absence from a finite
    enumeration is never evidence on its own.
    """
    fn = grange.request.machine
    for i in range(depth):
        code = oracle.code(i)
        left, right = unpair(code)
        in_box = rect_decode(left, fn.arity)
        out_box = rect_decode(right, fn.out_dim)
        raw = eval_closed_box(fn, in_box)
        disjoint = any(
            hi <= iv.lo or lo >= iv.hi for (lo, hi), iv in zip(raw, out_box)
        )
        if disjoint:
            return ProbeResult(
                "excluded", i, witness=code,
                witness_absent_from_range=code not in grange.codes,
            )
    return ProbeResult("consistent_at_depth", depth)


# ---------------------------------------------------------------------------
# Neighborhood models

AVOGADRO = 602214076 * 10**15
BOLTZMANN = Fraction(1380649, 10**29)
GAS_CONSTANT = AVOGADRO * BOLTZMANN  # exact molar gas constant in SI units

IDENTITY_MAP = parse_real_fn("map(x) = x")
SQUARING_MAP = parse_real_fn("map(x) = x*x")


def ideal_gas_map() -> RealFn:
    """Temperature of one mole of ideal gas from pressure and volume."""
    coeff = RLit(Fraction(1) / GAS_CONSTANT)
    expr = RBin("*", RBin("*", RVar("p"), RVar("v")), coeff)
    return RealFn(("p", "v"), (expr,))


def _indexed_model(name: str, value_at: Callable[[int], int],
                   decider: Callable[[int], bool] | None = None) -> Model:
    """Normalized presentation: states are all naturals, mapped by index."""
    return Model(
        states=AllStates(),
        observables=(Observable("f", FnMap(value_at, name), decider),),
        name=name,
    )


def graph_model(grange: GraphRange, name: str = "graph") -> Model:
    """Neighborhood model of a map's graph, at the enumeration's bounds.

    The observable enumerates the emitted product codes (cycling, so the
    map is total on the naturals); the range decider decides membership in
    the bounded enumeration, which is this model's notion of allowed.
    """
    codes = sorted(grange.codes)
    if not codes:
        raise ValueError("empty range: enlarge the enumeration bounds")
    return _indexed_model(
        name,
        lambda i: codes[i % len(codes)],
        lambda n: n in grange.codes,
    )


def molecule_sing_model(n: int) -> Model:
    """Exact molecule count: the only allowed code is the count itself."""
    return _indexed_model(
        f"molecules={n}",
        lambda i, n=n: sing_code(n),
        lambda code: code == n,
    )


def molecule_seg_model(n: int) -> Model:
    """Bounded molecule count: every segment containing the count is allowed."""

    def contains(code: int) -> bool:
        a, k = seg_decode(code)
        return a <= n <= a + k

    def value_at(i: int) -> int:
        # canonical sweep: widths k = 0, 1, ...; starts a with a <= n <= a+k
        k = 0
        remaining = i
        while True:
            start = max(0, n - k)
            count = n - start + 1
            if remaining < count:
                return seg_code(start + remaining, k)
            remaining -= count
            k += 1

    return _indexed_model(
        f"molecules~{n}",
        value_at,
        contains,
    )


def neighborhood_model(kind: str, **params) -> Model:
    """Construct a complete basic neighborhood model.

    Kinds: ``graph`` (keyword ``machine``: a RealFn or ``map(...) = ...``
    text, plus optional enumeration bounds), ``ideal_gas`` (graph of the
    gas-law temperature map at tiny default bounds), ``molecule_sing`` and
    ``molecule_seg`` (keyword ``n``).
    """
    if kind == "molecule_sing":
        return molecule_sing_model(int(params["n"]))
    if kind == "molecule_seg":
        return molecule_seg_model(int(params["n"]))
    if kind in ("graph", "ideal_gas"):
        if kind == "ideal_gas":
            fn = ideal_gas_map()
            defaults = dict(num_bound=1, den_bound=2, refine=1, chain_len=2,
                            budget=Budget(20_000))
        else:
            fn = params["machine"]
            if isinstance(fn, str):
                fn = parse_real_fn(fn)
            defaults = dict(num_bound=4, den_bound=4, refine=2, chain_len=3,
                            budget=Budget(500_000))
        bounds = {
            key: params.get(key, default)
            for key, default in defaults.items()
        }
        grange = enumerate_graph_range(GraphRangeRequest(fn, **bounds))
        return graph_model(grange, name=kind)
    raise ValueError(f"unknown neighborhood model kind {kind!r}")
