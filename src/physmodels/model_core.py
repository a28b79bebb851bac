"""Integer-coded physical models with budgeted, recursively enumerable semantics.

A model is a state space (an enumerable set of nonnegative integers), one or
more named observables (total maps from states to nonnegative integers), and
optionally a simulated measuring operation per observable.  Because state
spaces are only enumerable, every question about a model is answered relative
to a :class:`Budget` that caps how many enumerator indices are visited and how
many evaluation steps each map may take.

:func:`range_table` is the one enumeration primitive: it maps the budgeted
states through an observable and keeps the first witness state of each
value.  Ranges, faithfulness verdicts, strength comparison and the worldline
chain replay are all read off such tables.

Faithfulness checking is three-valued.  A log record is ``witnessed`` when
some enumerated state maps to the recorded result, ``refuted`` only when the
observable carries a range decider (a plain total predicate on results) that
rejects the result, and ``unknown`` otherwise; membership in an enumerable
range is semidecidable, so "not found yet" is never evidence of absence.

The model algebra follows the usual structure operations: ``reduct`` keeps a
subset of observables, ``restrict`` filters a one-observable model through a
semidecidable set of results (wrapping its measuring operation so unverified
results fail), ``derive`` adds a composed observable with the natural two-step
measuring operation, ``apply_isomorphism`` renames states along an explicit
bijection pair, and ``merge_expansions`` glues expansions over a shared state
space.  ``compare_strength`` orders models by budgeted range inclusion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import encodings, spec_lang
from .spec_lang import (
    EvalError,
    IntExpr,
    ModelSpec,
    Pred,
    StepCounter,
    StepLimitExceeded,
    compile_expr,
    format_int_expr,
    format_pred,
    parse_int_expr,
    parse_model,
)

WITNESSED = "witnessed"
REFUTED = "refuted"
UNKNOWN = "unknown"

SUBSET = "subset"
COUNTEREXAMPLE = "counterexample"

DEFAULT_OP_STEPS = 100_000


class UnknownSymbolError(KeyError):
    pass


class RangeEvaluationError(RuntimeError):
    """A map ran out of steps while states or values were enumerated.

    ``symbol`` names the map: an observable symbol, or the state-space
    clause such as ``states enumerate s*s``; ``state`` is the state, or the
    enumerator index when ``at`` is ``"index"``.
    """

    def __init__(self, symbol: str, state: int, limit: int, at: str = "state"):
        super().__init__(
            f"evaluating {symbol!r} at {at} {state} exceeded {limit} steps"
        )
        self.symbol = symbol
        self.state = state


@dataclass(frozen=True)
class Budget:
    """Finite truncation of enumerable semantics."""

    max_states: int
    max_steps: int = 10_000

    def __post_init__(self) -> None:
        if self.max_states < 0 or self.max_steps < 1:
            raise ValueError("need max_states >= 0 and max_steps >= 1")

    def scaled(self, factor: int) -> "Budget":
        return Budget(self.max_states * factor, self.max_steps)


class Failure:
    """First-class failure outcome of a measuring operation."""

    _singleton: "Failure | None" = None

    def __new__(cls) -> "Failure":
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self) -> str:
        return "FAILED"


FAILED = Failure()


# ---------------------------------------------------------------------------
# Observable maps


@dataclass(frozen=True)
class ExprMap:
    """Map given as a parsed integer expression over one bound variable."""

    var: str
    body: IntExpr

    @cached_property
    def _compiled(self) -> Callable[[int, StepCounter], int]:
        return compile_expr(self.body, self.var)

    def evaluate(self, state: int, steps: StepCounter) -> int:
        return self._compiled(state, steps)


@dataclass(frozen=True)
class FnMap:
    """Map given as a Python callable; each call costs one step."""

    fn: Callable[[int], int]
    label: str = ""

    def evaluate(self, state: int, steps: StepCounter) -> int:
        steps.tick()
        return self.fn(state)


@dataclass(frozen=True)
class ComposedMap:
    """``outer`` after ``inner``, sharing one step budget."""

    outer: "ObservableMap"
    inner: "ObservableMap"

    def evaluate(self, state: int, steps: StepCounter) -> int:
        return self.outer.evaluate(self.inner.evaluate(state, steps), steps)


ObservableMap = ExprMap | FnMap | ComposedMap


def as_map(spec: "ObservableMap | IntExpr | str | Callable[[int], int]") -> ObservableMap:
    if isinstance(spec, (ExprMap, FnMap, ComposedMap)):
        return spec
    if isinstance(spec, str):
        spec = parse_int_expr(spec)
    elif callable(spec):
        return FnMap(spec)
    return ExprMap(_sole_var(spec, "map"), spec)


def _sole_var(node: IntExpr | Pred, what: str) -> str:
    """The one free variable of ``node`` ("" when closed)."""
    names = spec_lang.int_free_vars(node)
    if len(names) > 1:
        raise EvalError(f"{what} must have one variable, found {sorted(names)}")
    return names.pop() if names else ""


def _pred_decider(var: str, pred: Pred) -> Callable[[int], bool]:
    """Total decider for a one-variable predicate; each call gets fresh steps."""
    test = compile_expr(pred, var)
    return lambda n: test(n, StepCounter(DEFAULT_OP_STEPS))


# ---------------------------------------------------------------------------
# Semidecidable sets


class SemiDecidableSet:
    """A set of nonnegative integers given by a decider or an enumerator.

    ``verify`` is tri-valued: True is a verified member, False a definite
    non-member (only available with a decider), None means "not verified at
    this effort" and the caller must treat the question as still open.
    """

    def __init__(
        self,
        decide: Callable[[int], bool] | None = None,
        enumerator: Callable[[int], int] | None = None,
        description: str = "",
    ):
        if decide is None and enumerator is None:
            raise ValueError("need a decider or an enumerator")
        self.decide = decide
        self.enumerator = enumerator
        self.description = description
        self._seen: set[int] = set()
        self._drawn = 0

    @classmethod
    def from_pred_text(cls, text: str) -> "SemiDecidableSet":
        pred = spec_lang.parse_pred(text)
        return cls(decide=_pred_decider(_sole_var(pred, "range predicate"), pred), description=text)

    def verify(self, n: int, effort: int) -> bool | None:
        if self.decide is not None:
            return bool(self.decide(n))
        assert self.enumerator is not None
        while self._drawn < effort:
            self._seen.add(self.enumerator(self._drawn))
            self._drawn += 1
        return True if n in self._seen else None

    def __repr__(self) -> str:
        return f"SemiDecidableSet({self.description or '...'})"


# ---------------------------------------------------------------------------
# State spaces


@dataclass(frozen=True)
class AllStates:
    """Every nonnegative integer, enumerated in order."""

    def enumerate(self, budget: Budget) -> Iterator[int]:
        return iter(range(budget.max_states))

    def membership(self, n: int) -> bool | None:
        return True


@dataclass(frozen=True)
class FiniteStates:
    """An explicit finite state set; enumeration stops once it is covered."""

    states: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("state space must be nonempty")

    def enumerate(self, budget: Budget) -> Iterator[int]:
        for i in range(min(budget.max_states, len(self.states))):
            yield self.states[i]

    def membership(self, n: int) -> bool | None:
        return n in self.states


@dataclass(frozen=True)
class EnumeratedStates:
    """States presented as the image of an index expression."""

    var: str
    expr: IntExpr

    @cached_property
    def _compiled(self) -> Callable[[int, StepCounter], int]:
        return compile_expr(self.expr, self.var)

    def enumerate(self, budget: Budget) -> Iterator[int]:
        run, limit = self._compiled, budget.max_steps
        for i in range(budget.max_states):
            try:
                state = run(i, StepCounter(limit))
            except StepLimitExceeded:
                clause = f"states enumerate {format_int_expr(self.expr)}"
                raise RangeEvaluationError(clause, i, limit, at="index") from None
            yield state

    def membership(self, n: int) -> bool | None:
        return None


@dataclass(frozen=True)
class FilteredStates:
    """States presented as the naturals accepted by a total predicate."""

    var: str
    pred: Pred

    @cached_property
    def _compiled(self) -> Callable[[int, StepCounter], bool]:
        return compile_expr(self.pred, self.var)

    def enumerate(self, budget: Budget) -> Iterator[int]:
        test, limit = self._compiled, budget.max_steps
        for i in range(budget.max_states):
            try:
                member = test(i, StepCounter(limit))
            except StepLimitExceeded:
                clause = f"states where {format_pred(self.pred)}"
                raise RangeEvaluationError(clause, i, limit) from None
            if member:
                yield i

    def membership(self, n: int) -> bool | None:
        return self._compiled(n, StepCounter(DEFAULT_OP_STEPS))


@dataclass(frozen=True)
class MappedStates:
    """Image of a parent space under an explicit renaming map."""

    parent: "StateSpace"
    forward: ObservableMap

    def enumerate(self, budget: Budget) -> Iterator[int]:
        limit = budget.max_steps
        for s in self.parent.enumerate(budget):
            try:
                image = self.forward.evaluate(s, StepCounter(limit))
            except StepLimitExceeded:
                raise RangeEvaluationError("state renaming", s, limit) from None
            yield image

    def membership(self, n: int) -> bool | None:
        return None


@dataclass(frozen=True)
class RestrictedStates:
    """Parent states whose observable value is verified to lie in a set.

    States whose verification is still open at the current effort are
    deferred, not dropped: they are revisited whenever the budget grows,
    so in the limit exactly the states with values in the set appear.
    """

    parent: "StateSpace"
    value_map: ObservableMap
    q: SemiDecidableSet

    def enumerate(self, budget: Budget) -> Iterator[int]:
        for s in self.parent.enumerate(budget):
            try:
                value = self.value_map.evaluate(s, StepCounter(budget.max_steps))
            except StepLimitExceeded:
                continue  # deferred: re-enters at a higher step budget
            if self.q.verify(value, max(budget.max_states, 1)) is True:
                yield s

    def membership(self, n: int) -> bool | None:
        return None


StateSpace = AllStates | FiniteStates | EnumeratedStates | FilteredStates | MappedStates | RestrictedStates


# ---------------------------------------------------------------------------
# Models


@dataclass(frozen=True)
class MeasuringOperation:
    """Seeded simulated measuring procedure; may fail."""

    program: Callable[[int], "int | Failure"]
    description: str = ""


@dataclass(frozen=True)
class Observable:
    symbol: str
    map: ObservableMap
    range_decider: Callable[[int], bool] | None = None


@dataclass(frozen=True)
class Model:
    states: StateSpace
    observables: tuple[Observable, ...]
    measuring_ops: Mapping[str, MeasuringOperation] = field(default_factory=dict)
    annotations: Mapping[str, Callable[[int], object]] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        if not self.observables:
            raise ValueError("a model needs at least one observable")
        symbols = [o.symbol for o in self.observables]
        if len(set(symbols)) != len(symbols):
            raise ValueError("observable symbols must be unique")

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(o.symbol for o in self.observables)

    def observable(self, symbol: str) -> Observable:
        for obs in self.observables:
            if obs.symbol == symbol:
                return obs
        raise UnknownSymbolError(symbol)


@dataclass(frozen=True)
class ObservationLog:
    """Sequence of (observable symbol, result) records."""

    records: tuple[tuple[str, int], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, int]]) -> "ObservationLog":
        return cls(tuple((sym, int(result)) for sym, result in pairs))

    @classmethod
    def from_jsonl(cls, text: str) -> "ObservationLog":
        records = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                sym, result = rec["observable"], rec["result"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"log line {lineno}: {exc}") from exc
            if not isinstance(sym, str):
                raise ValueError(f"log line {lineno}: observable must be a string")
            if not isinstance(result, int) or isinstance(result, bool) or result < 0:
                raise ValueError(f"log line {lineno}: result must be a nonnegative integer")
            records.append((sym, result))
        return cls(tuple(records))

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps({"observable": sym, "result": result}) + "\n"
            for sym, result in self.records
        )

    def symbols(self) -> tuple[str, ...]:
        """Logged symbols in order of first appearance."""
        return tuple(dict.fromkeys(sym for sym, _ in self.records))

    def results_for(self, symbol: str) -> list[int]:
        return [r for s, r in self.records if s == symbol]


# ---------------------------------------------------------------------------
# Range enumeration and faithfulness


def range_table(model: Model, symbol: str, budget: Budget) -> dict[int, int]:
    """Each observable value over the first ``budget.max_states`` enumerated
    states, mapped to the first state that produced it."""
    obs = model.observable(symbol)
    table: dict[int, int] = {}
    for state in model.states.enumerate(budget):
        table.setdefault(_apply_observable(obs, state, budget), state)
    return table


def enumerate_range(model: Model, symbol: str, budget: Budget) -> set[int]:
    """Observable values over the first ``budget.max_states`` enumerated states."""
    return set(range_table(model, symbol, budget))


def _apply_observable(obs: Observable, state: int, budget: Budget) -> int:
    try:
        return obs.map.evaluate(state, StepCounter(budget.max_steps))
    except StepLimitExceeded:
        raise RangeEvaluationError(obs.symbol, state, budget.max_steps) from None


@dataclass(frozen=True)
class RecordVerdict:
    symbol: str
    result: int
    verdict: str
    witness: int | None = None

    def to_json(self) -> str:
        rec: dict[str, object] = {
            "symbol": self.symbol,
            "result": self.result,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            rec["witness_state"] = self.witness
        return json.dumps(rec)


def check_faithful(model: Model, log: ObservationLog, budget: Budget) -> list[RecordVerdict]:
    """Three-valued, per-record faithfulness verdicts at the given budget."""
    tables = {sym: range_table(model, sym, budget) for sym in log.symbols()}
    return _verdicts(model, log, tables)


def _verdicts(
    model: Model, log: ObservationLog, tables: Mapping[str, Mapping[int, int]]
) -> list[RecordVerdict]:
    verdicts = []
    for sym, result in log.records:
        decider = model.observable(sym).range_decider
        if result in tables[sym]:
            verdicts.append(RecordVerdict(sym, result, WITNESSED, tables[sym][result]))
        elif decider is not None and not decider(result):
            verdicts.append(RecordVerdict(sym, result, REFUTED))
        else:
            verdicts.append(RecordVerdict(sym, result, UNKNOWN))
    return verdicts


@dataclass(frozen=True)
class MaximalFaithfulnessReport:
    """Two-directional comparison of budgeted range versus observed results.

    ``verdicts`` covers the direction "observed results are allowed";
    ``unobserved`` lists allowed-but-unobserved values per symbol, which is
    evidence against maximality but never a refutation, because the set of
    physically obtainable results is open-ended.
    """

    verdicts: list[RecordVerdict]
    unobserved: dict[str, list[int]]

    @property
    def observed_direction_clean(self) -> bool:
        return all(v.verdict == WITNESSED for v in self.verdicts)

    @property
    def fully_matched(self) -> bool:
        return self.observed_direction_clean and not any(self.unobserved.values())


def check_maximally_faithful(
    model: Model, log: ObservationLog, budget: Budget
) -> MaximalFaithfulnessReport:
    for sym in log.symbols():
        model.observable(sym)  # raises on unknown symbols before enumerating
    tables = {sym: range_table(model, sym, budget) for sym in model.symbols}
    unobserved = {
        sym: sorted(set(tables[sym]) - set(log.results_for(sym))) for sym in model.symbols
    }
    return MaximalFaithfulnessReport(_verdicts(model, log, tables), unobserved)


# ---------------------------------------------------------------------------
# Model algebra


def reduct(model: Model, symbols: Iterable[str]) -> Model:
    keep = list(symbols)
    if not keep:
        raise ValueError("a reduct keeps at least one observable")
    known = set(model.symbols)
    for sym in keep:
        if sym not in known:
            raise UnknownSymbolError(sym)
    keep_set = set(keep)
    return replace(
        model,
        observables=tuple(o for o in model.observables if o.symbol in keep_set),
        measuring_ops={k: v for k, v in model.measuring_ops.items() if k in keep_set},
    )


def restrict(model: Model, symbol: str, q: SemiDecidableSet, budget: Budget) -> Model:
    """Restriction of a one-observable model to results in ``q``.

    The state space becomes the states whose value is verified in ``q``
    (others are deferred, see :class:`RestrictedStates`), and the measuring
    operation is wrapped: a measured result is passed through only when its
    membership is verified within the restriction budget, otherwise the
    operation fails.
    """
    if len(model.observables) != 1 or model.observables[0].symbol != symbol:
        raise ValueError("restriction is defined for one-observable models only")
    obs = model.observables[0]
    new_states = RestrictedStates(model.states, obs.map, q)
    base_decide, q_decide = obs.range_decider, q.decide
    decider = base_decide or q_decide
    if base_decide is not None and q_decide is not None:
        decider = lambda n: base_decide(n) and q_decide(n)
    new_obs = Observable(symbol, obs.map, decider)
    ops = dict(model.measuring_ops)
    if symbol in ops:
        ops[symbol] = _wrap_restriction_op(ops[symbol], q, budget.max_states)
    return replace(
        model,
        states=new_states,
        observables=(new_obs,),
        measuring_ops=ops,
        name=f"{model.name}|restricted" if model.name else "",
    )


def _wrap_restriction_op(
    op: MeasuringOperation, q: SemiDecidableSet, effort: int
) -> MeasuringOperation:
    def program(seed: int) -> int | Failure:
        result = op.program(seed)
        if isinstance(result, Failure):
            return FAILED
        return result if q.verify(result, effort) is True else FAILED

    return MeasuringOperation(program, f"{op.description} then verify {q.description}")


def derive(
    model: Model,
    base: str,
    h: "ObservableMap | IntExpr | str | Callable[[int], int]",
    new_symbol: str,
    op_steps: int = DEFAULT_OP_STEPS,
) -> Model:
    """Expansion with ``new_symbol`` mapping to ``h`` composed with ``base``.

    The natural measuring operation measures ``base`` and then evaluates
    ``h`` on the result under a step budget; exceeding it is a failure,
    mirroring that the composed procedure need not halt off-range.
    """
    base_obs = model.observable(base)
    if new_symbol in model.symbols:
        raise ValueError(f"symbol {new_symbol!r} already present")
    h_map = as_map(h)
    new_obs = Observable(new_symbol, ComposedMap(h_map, base_obs.map))
    ops = dict(model.measuring_ops)
    if base in ops:
        ops[new_symbol] = _natural_derived_op(ops[base], h_map, op_steps)
    return replace(model, observables=model.observables + (new_obs,), measuring_ops=ops)


def _natural_derived_op(
    base_op: MeasuringOperation, h_map: ObservableMap, op_steps: int
) -> MeasuringOperation:
    def program(seed: int) -> int | Failure:
        result = base_op.program(seed)
        if isinstance(result, Failure):
            return FAILED
        try:
            return h_map.evaluate(result, StepCounter(op_steps))
        except (StepLimitExceeded, EvalError):
            return FAILED

    return MeasuringOperation(program, f"{base_op.description} then compute")


def apply_isomorphism(
    model: Model,
    forward: "ObservableMap | IntExpr | str | Callable[[int], int]",
    backward: "ObservableMap | IntExpr | str | Callable[[int], int]",
    states: StateSpace | None = None,
    check_budget: Budget | None = None,
) -> Model:
    """Rename states along an explicit bijection pair (forward/backward).

    Observable maps become ``map ∘ backward``; measuring operations are kept
    unchanged.  ``states`` optionally names the target space (it must be the
    forward image); when ``check_budget`` is given the bijection equations
    are spot-checked on enumerated states.
    """
    fwd = as_map(forward)
    bwd = as_map(backward)
    new_states = states if states is not None else MappedStates(model.states, fwd)
    if check_budget is not None:
        for s in model.states.enumerate(check_budget):
            image = fwd.evaluate(s, StepCounter(check_budget.max_steps))
            back = bwd.evaluate(image, StepCounter(check_budget.max_steps))
            if back != s:
                raise ValueError(f"backward(forward({s})) == {back}, not a bijection")
            if new_states.membership(image) is False:
                raise ValueError(f"forward image {image} outside the declared space")
    observables = tuple(
        Observable(o.symbol, ComposedMap(o.map, bwd), o.range_decider)
        for o in model.observables
    )
    return replace(model, states=new_states, observables=observables)


def merge_expansions(parts: Sequence[Model]) -> Model:
    """Glue expansions sharing one state space into a single model."""
    if not parts:
        raise ValueError("nothing to merge")
    first = parts[0]
    observables: list[Observable] = []
    ops: dict[str, MeasuringOperation] = {}
    annotations: dict[str, Callable[[int], object]] = {}
    seen: set[str] = set()
    for part in parts:
        if part.states != first.states:
            raise ValueError("merge requires a shared state space")
        for obs in part.observables:
            if obs.symbol in seen:
                raise ValueError(f"symbol collision on {obs.symbol!r}")
            seen.add(obs.symbol)
            observables.append(obs)
        ops.update(part.measuring_ops)
        annotations.update(part.annotations)
    return Model(
        states=first.states,
        observables=tuple(observables),
        measuring_ops=ops,
        annotations=annotations,
        name=first.name,
    )


# ---------------------------------------------------------------------------
# Strength and observational equivalence


@dataclass(frozen=True)
class DirectionVerdict:
    verdict: str  # SUBSET, COUNTEREXAMPLE, UNKNOWN
    counterexample: int | None = None
    missing: tuple[int, ...] = ()


@dataclass(frozen=True)
class StrengthReport:
    """Per-symbol budgeted range comparison between two models."""

    left_in_right: dict[str, DirectionVerdict]
    right_in_left: dict[str, DirectionVerdict]

    def equivalent(self) -> bool:
        return all(v.verdict == SUBSET for v in self.left_in_right.values()) and all(
            v.verdict == SUBSET for v in self.right_in_left.values()
        )


def _direction(
    src: Model, dst: Model, symbol: str, budget: Budget, search_factor: int
) -> DirectionVerdict:
    src_range = sorted(enumerate_range(src, symbol, budget))
    dst_range = enumerate_range(dst, symbol, budget.scaled(search_factor))
    decider = dst.observable(symbol).range_decider
    missing: list[int] = []
    for n in src_range:
        if n in dst_range:
            continue
        if decider is not None and not decider(n):
            return DirectionVerdict(COUNTEREXAMPLE, counterexample=n)
        missing.append(n)
    if missing:
        return DirectionVerdict(UNKNOWN, missing=tuple(missing))
    return DirectionVerdict(SUBSET)


def compare_strength(
    a: Model, b: Model, budget: Budget, search_factor: int = 4
) -> StrengthReport:
    """Budgeted range-inclusion comparison, both directions per symbol.

    Witness search in the other model uses an enumeration budget scaled by
    ``search_factor`` to damp order-of-enumeration false alarms.
    """
    if set(a.symbols) != set(b.symbols):
        raise ValueError("strength comparison needs identical symbol sets")
    return StrengthReport(
        left_in_right={
            sym: _direction(a, b, sym, budget, search_factor) for sym in a.symbols
        },
        right_in_left={
            sym: _direction(b, a, sym, budget, search_factor) for sym in a.symbols
        },
    )


# ---------------------------------------------------------------------------
# Builtin models and simulated universes


def _rng(seed: int):
    import random

    return random.Random(seed)


def always_fail_op() -> MeasuringOperation:
    return MeasuringOperation(lambda seed: FAILED, "always fails")


def baryon_counter_op(max_spare_pairs: int = 64) -> MeasuringOperation:
    """Counts particles produced in a simulated collision: always 2s + 2."""

    def program(seed: int) -> int:
        s = _rng(seed).randrange(max_spare_pairs)
        return 2 * s + 2

    return MeasuringOperation(program, "count collision products")


def cannon_ranging_op(max_time: int = 32) -> MeasuringOperation:
    """Joint time/distance measurement with bounded rounding noise.

    The clock error ds and ranging error dm satisfy 5|ds| + |dm| < 1/2, so
    the measured distance always rounds to the exact kinematics 5t.
    """
    from fractions import Fraction

    def program(seed: int) -> int:
        rng = _rng(seed)
        t = rng.randrange(max_time)
        ds = Fraction(rng.randint(-9, 9), 200)
        dm = Fraction(rng.randint(-9, 9), 40)
        measured = 5 * (t + ds) + dm
        rounded = (measured + Fraction(1, 2)).__floor__()
        return encodings.pair(t, int(rounded))

    return MeasuringOperation(program, "measure flight time and distance")


def decay_counter_op(true_ratio_numerator: int, true_ratio_denominator: int,
                     max_decays: int = 24) -> MeasuringOperation:
    """Counts total decays and mode-tagged decays in a simulated sample."""

    def program(seed: int) -> int:
        rng = _rng(seed)
        total = rng.randrange(max_decays + 1)
        tagged = sum(
            1
            for _ in range(total)
            if rng.randrange(true_ratio_denominator) < true_ratio_numerator
        )
        return encodings.pair(total, tagged)

    return MeasuringOperation(program, "count decays and tagged decays")


_SIMOPS: dict[str, Callable[[], MeasuringOperation]] = {
    "baryon": baryon_counter_op,
    "cannon": cannon_ranging_op,
    "fail": always_fail_op,
}


def model_from_spec(spec: ModelSpec | str) -> Model:
    if isinstance(spec, str):
        spec = parse_model(spec)
    states: StateSpace
    if spec.state_kind == "enumerate":
        states = EnumeratedStates(spec.state_var or "", spec.state_expr)  # type: ignore[arg-type]
    else:
        states = FilteredStates(spec.state_var or "", spec.state_expr)  # type: ignore[arg-type]
    ranges = {sym: (var, pred) for sym, var, pred in spec.ranges}
    observables = []
    for sym, var, body in spec.observables:
        decider = _pred_decider(*ranges[sym]) if sym in ranges else None
        observables.append(Observable(sym, ExprMap(var, body), decider))
    ops = {}
    for sym, op_name in spec.simops:
        try:
            ops[sym] = _SIMOPS[op_name]()
        except KeyError:
            raise ValueError(f"unknown simop {op_name!r}") from None
    return Model(
        states=states,
        observables=tuple(observables),
        measuring_ops=ops,
        name=spec.name,
    )


def _canonical_spec(name: str) -> str:
    return (resources.files(__package__) / "models" / f"{name}.spec").read_text(encoding="utf-8")


def time_slice_set(u: int) -> SemiDecidableSet:
    """Results whose first pair component equals ``u``."""
    return SemiDecidableSet(
        decide=lambda n, u=u: encodings.first(n) == u, description=f"K(n) == {u}"
    )


def builtin(name: str, **params) -> Model:
    """Construct a library model by name.

    Names: ``baryon``, ``cannon``, ``decay`` (keyword ``b`` for the
    annotation ratio), the worldline chain stages ``chain_Bu``/``chain_Cu``/
    ``chain_Du``/``chain_Eu`` (keyword ``u``), and ``chain_F`` (keyword
    ``u_max``).  The first three are read from the packaged
    ``models/<name>.spec`` files.
    """
    if name in ("baryon", "cannon"):
        return model_from_spec(_canonical_spec(name))
    if name == "decay":
        from fractions import Fraction

        from . import stats

        b = Fraction(params.get("b", Fraction(1, 2)))
        annotations = {
            "probability": lambda s, b=b: stats.binom_pmf(
                encodings.first(s), b, encodings.second(s)
            )
        }
        return replace(
            model_from_spec(_canonical_spec("decay")),
            measuring_ops={"f": decay_counter_op(b.numerator, b.denominator)},
            annotations=annotations,
        )
    if name in _CHAIN_BUILTINS:
        u = int(params["u"])
        budget = params.get("budget", Budget(max(4 * (u + 1), 64)))
        return _chain_stages(builtin("cannon"), u, budget)[_CHAIN_BUILTINS.index(name)][1]
    if name == "chain_F":
        u_max = int(params.get("u_max", 20))
        parts = [builtin("chain_Eu", u=u, **{k: v for k, v in params.items() if k == "budget"})
                 for u in range(u_max)]
        return merge_expansions(parts)
    raise ValueError(f"unknown builtin model {name!r}")


# ---------------------------------------------------------------------------
# Worldline chain replay

_CHAIN_BUILTINS = ("chain_Bu", "chain_Cu", "chain_Du", "chain_Eu")


def _chain_stages(cannon: Model, u: int, budget: Budget) -> list[tuple[str, Model, str]]:
    """(stage name, model, symbol) for time slice ``u``: restriction to first
    component ``u``, derivation of the distance, reduct to it, and renaming
    the single state to 0."""
    g = f"g{u}"
    b_u = restrict(cannon, "f", time_slice_set(u), budget)
    c_u = derive(b_u, "f", parse_int_expr("L(x)"), g)
    d_u = reduct(c_u, [g])
    e_u = apply_isomorphism(
        d_u,
        forward=parse_int_expr(f"s - {u}"),
        backward=parse_int_expr(f"t + {u}"),
        states=FiniteStates((0,)),
    )
    return [
        (f"restriction u={u}", b_u, "f"),
        (f"derivation u={u}", c_u, g),
        (f"reduct u={u}", d_u, g),
        (f"isomorph u={u}", e_u, g),
    ]


@dataclass(frozen=True)
class ChainStageReport:
    stage: str
    measured: int
    failures: int
    witnessed: int
    misses: tuple[int, ...]


@dataclass(frozen=True)
class ChainReport:
    values: dict[int, int]  # u -> merged model's value at state 0
    stages: list[ChainStageReport]

    @property
    def clean(self) -> bool:
        return all(not s.misses for s in self.stages)


def replay_worldline_chain(
    u_values: Sequence[int], budget: Budget, seeds: Sequence[int]
) -> ChainReport:
    """Rebuild the static worldline model from the moving-projectile model.

    For each time slice ``u``: restrict the projectile model to results with
    first component ``u``, derive the distance observable, reduce to it,
    rename the single state to 0, and finally merge all slices.  Seeded
    simulated measurements are checked for witnessing at every stage.

    The projectile's measuring operation runs once per seed, up front; the
    chain is built from a copy of the projectile model whose operation reads
    those results.  Every stage still runs its own operation on every seed,
    so each stage's wrapping (the restriction check, the derived ``L(x)``,
    the pass-through of reduct, isomorph and merge) acts on the same
    measurements as if each stage measured afresh.
    """
    cannon = builtin("cannon")
    op = cannon.measuring_ops["f"]
    measured = {seed: op.program(seed) for seed in seeds}
    cannon = replace(
        cannon, measuring_ops={"f": MeasuringOperation(measured.__getitem__, op.description)}
    )
    stages: list[ChainStageReport] = []
    parts: list[Model] = []
    values: dict[int, int] = {}

    def run_stage(stage_name: str, model: Model, symbol: str) -> None:
        op = model.measuring_ops[symbol]
        allowed = enumerate_range(model, symbol, budget)  # witness set, once
        measured = failures = witnessed = 0
        misses: list[int] = []
        for seed in seeds:
            result = op.program(seed)
            measured += 1
            if isinstance(result, Failure):
                failures += 1
            elif result in allowed:
                witnessed += 1
            else:
                misses.append(result)
        stages.append(
            ChainStageReport(stage_name, measured, failures, witnessed, tuple(misses))
        )

    for u in u_values:
        chain = _chain_stages(cannon, u, budget)
        for stage_name, model, symbol in chain:
            run_stage(stage_name, model, symbol)
        parts.append(chain[-1][1])

    merged = merge_expansions(parts)
    for u in u_values:
        g = f"g{u}"
        run_stage(f"merge u={u}", merged, g)
        (value,) = enumerate_range(merged, g, Budget(1, budget.max_steps))
        values[u] = value
    return ChainReport(values, stages)
