"""Batch command-line front end.

Subcommands mirror the library layers: ``encode``/``decode`` for the codecs,
``model ...`` for budgeted model operations, ``range ...`` for neighborhood
enumeration and probing, ``stats ...`` for the exact binomial statistics, and
``spec ...`` for formatting and linting model files.

Exit codes: 0 success, 1 bad input (domain or usage error), 2 a verdict of
"refuted"/"excluded"/"reject" from a check-style command, so scripts can tell
bad invocations from negative verdicts.  All output is deterministic for
fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import encodings, model_core, neighborhoods, spec_lang, stats
from .encodings import (
    format_rect,
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
    seg_code,
    seg_decode,
    sing_code,
    unpair,
    unpair_tuple,
)
from .model_core import Budget, ObservationLog

VERDICT_EXIT = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _parse_budget(text: str) -> Budget:
    states, _, steps = text.partition(":")
    return Budget(int(states), int(steps) if steps else 10_000)


def _parse_u_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        value = int(text)
        return range(value, value + 1)
    return range(int(lo), int(hi) + 1)


def _load_model(spec: str) -> model_core.Model:
    if spec in ("baryon", "cannon", "decay"):
        return model_core.builtin(spec)
    path = Path(spec)
    if not path.exists():
        raise UsageError(f"no such model or file: {spec}")
    return model_core.model_from_spec(path.read_text())


def _load_machine(text: str) -> spec_lang.RealFn:
    if text == "identity":
        return neighborhoods.IDENTITY_MAP
    if text in ("square", "squaring"):
        return neighborhoods.SQUARING_MAP
    if text == "ideal_gas":
        return neighborhoods.ideal_gas_map()
    if text.lstrip().startswith("map"):
        return spec_lang.parse_real_fn(text)
    path = Path(text)
    if path.exists():
        return spec_lang.parse_real_fn(path.read_text())
    raise UsageError(f"no such machine or file: {text}")


def format_poly(coeffs, var: str = "b") -> str:
    terms = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        if power == 0:
            terms.append(str(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            sign = "-" if c < 0 else ""
            head = f"{sign}{mag}" if not terms else ("- " if c < 0 else "+ ") + mag
            suffix = var if power == 1 else f"{var}^{power}"
            terms.append(head + suffix)
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        out += " " + term if term.startswith(("+", "-")) else " + " + term
    return out


# ---------------------------------------------------------------------------
# encode / decode


def _cmd_encode(args) -> int:
    kind = args.kind
    values = args.values
    if kind == "pair":
        print(pair(*(int(v) for v in values)))
    elif kind == "int":
        print(encodings.int_code(int(values[0])))
    elif kind == "rat":
        print(rat_code(parse_rational(values[0])))
    elif kind == "interval":
        print(interval_code(parse_interval(values[0])))
    elif kind == "rect":
        print(rect_code(parse_rect(values[0])))
    elif kind == "sing":
        print(sing_code(int(values[0])))
    elif kind == "seg":
        print(seg_code(int(values[0]), int(values[1])))
    else:
        raise UsageError(f"unknown codec {kind!r}")
    return 0


def _cmd_decode(args) -> int:
    kind = args.kind
    code = int(args.values[0])
    if kind == "pair":
        parts = unpair_tuple(code, args.dim or 2)
        print(" ".join(str(p) for p in parts))
    elif kind == "int":
        print(encodings.int_decode(code))
    elif kind == "rat":
        print(rat_decode(code))
    elif kind == "interval":
        print(interval_decode(code))
    elif kind == "rect":
        print(format_rect(rect_decode(code, args.dim or 1)))
    elif kind == "sing":
        print(encodings.sing_decode(code))
    elif kind == "seg":
        a, k = seg_decode(code)
        print(f"{a} {k}")
    elif kind == "estimate":
        lo, hi = stats.interval_estimate_decode(code)
        print(f"r = {lo}")
        print(f"s = {hi}")
    else:
        raise UsageError(f"unknown codec {kind!r}")
    return 0


# ---------------------------------------------------------------------------
# model


def _cmd_model_check(args) -> int:
    model = _load_model(args.model)
    log = ObservationLog.from_jsonl(Path(args.log).read_text())
    verdicts = model_core.check_faithful(model, log, args.budget)
    for v in verdicts:
        if args.jsonl:
            print(v.to_json())
        elif v.witness is not None:
            print(f"{v.symbol} {v.result} {v.verdict} state={v.witness}")
        else:
            print(f"{v.symbol} {v.result} {v.verdict}")
    return VERDICT_EXIT if any(v.verdict == model_core.REFUTED for v in verdicts) else 0


def _print_ranges(model: model_core.Model, budget: Budget, symbols=None) -> None:
    for sym in symbols or model.symbols:
        for value in sorted(model_core.enumerate_range(model, sym, budget)):
            print(f"{sym} {value}")


def _cmd_model_range(args) -> int:
    model = _load_model(args.model)
    _print_ranges(model, args.budget, [args.observable] if args.observable else None)
    return 0


def _cmd_model_restrict(args) -> int:
    model = _load_model(args.model)
    q = model_core.SemiDecidableSet.from_pred_text(args.where)
    restricted = model_core.restrict(model, model.symbols[0], q, args.budget)
    _print_ranges(restricted, args.budget)
    return 0


def _cmd_model_derive(args) -> int:
    model = _load_model(args.model)
    expanded = model_core.derive(model, args.base, args.map, args.new_symbol)
    _print_ranges(expanded, args.budget, [args.new_symbol])
    return 0


def _cmd_model_reduct(args) -> int:
    model = _load_model(args.model)
    kept = model_core.reduct(model, args.keep.split(","))
    _print_ranges(kept, args.budget)
    return 0


def _cmd_model_compare(args) -> int:
    a = _load_model(args.model)
    b = _load_model(args.other)
    report = model_core.compare_strength(a, b, args.budget)
    for sym in sorted(report.left_in_right):
        for label, verdict in (
            ("left-in-right", report.left_in_right[sym]),
            ("right-in-left", report.right_in_left[sym]),
        ):
            extra = ""
            if verdict.counterexample is not None:
                extra = f" counterexample={verdict.counterexample}"
            elif verdict.missing:
                extra = f" missing={','.join(str(m) for m in verdict.missing)}"
            print(f"{sym} {label} {verdict.verdict}{extra}")
    print(f"equivalent {'yes' if report.equivalent() else 'no'}")
    failed = any(
        v.verdict == model_core.COUNTEREXAMPLE
        for side in (report.left_in_right, report.right_in_left)
        for v in side.values()
    )
    return VERDICT_EXIT if failed else 0


def _cmd_model_chain7(args) -> int:
    u_values = _parse_u_range(args.u)
    seeds = [args.seed + i for i in range(args.seeds)]
    report = model_core.replay_worldline_chain(u_values, args.budget, seeds)
    for u in u_values:
        print(f"g{u}(0) = {report.values[u]}")
    misses = sum(len(s.misses) for s in report.stages)
    witnessed = sum(s.witnessed for s in report.stages)
    failures = sum(s.failures for s in report.stages)
    print(f"stages={len(report.stages)} witnessed={witnessed} failures={failures} misses={misses}")
    return VERDICT_EXIT if misses else 0


# ---------------------------------------------------------------------------
# range (neighborhood enumeration)


def _range_request(args) -> neighborhoods.GraphRangeRequest:
    return neighborhoods.GraphRangeRequest(
        _load_machine(args.machine),
        num_bound=args.height,
        den_bound=args.den if args.den is not None else args.height,
        refine=args.refine,
        chain_len=args.chain,
        budget=args.budget,
    )


def _cmd_range_enumerate(args) -> int:
    grange = neighborhoods.enumerate_graph_range(_range_request(args))
    fn = grange.request.machine
    # codes share their rectangles, so each (code, dim) is decoded once
    rect_text = functools.cache(lambda code, dim: format_rect(rect_decode(code, dim)))
    for code in sorted(grange.codes):
        if args.annotate:
            left, right = unpair(code)
            print(f"{code} {rect_text(left, fn.arity)} -> {rect_text(right, fn.out_dim)}")
        else:
            print(code)
    if grange.truncated:
        print("truncated", file=sys.stderr)
    return 0


def _cmd_range_probe(args) -> int:
    grange = neighborhoods.enumerate_graph_range(_range_request(args))
    fn = grange.request.machine
    ins = tuple(parse_rational(v) for v in args.point_in.split(","))
    outs = tuple(parse_rational(v) for v in args.point_out.split(","))
    if len(ins) != fn.arity or len(outs) != fn.out_dim:
        raise UsageError("point arity does not match the machine")
    oracle = neighborhoods.NestedOracle.around_graph_point(ins, outs)
    result = neighborhoods.membership_probe(grange, oracle, args.depth)
    if result.excluded:
        left, right = unpair(result.witness)
        witness = (
            f"{format_rect(rect_decode(left, fn.arity))} x "
            f"{format_rect(rect_decode(right, fn.out_dim))}"
        )
        print(f"excluded at depth {result.depth} witness {result.witness} {witness}")
        return VERDICT_EXIT
    print(f"consistent at depth {result.depth}")
    return 0


# ---------------------------------------------------------------------------
# stats


def _cmd_stats(args) -> int:
    op = args.stats_op
    if op == "pmf":
        print(stats.binom_pmf(args.m, parse_rational(args.b), args.n))
        return 0
    if op == "tail":
        print(stats.tail_prob(args.m, args.n, parse_rational(args.b)))
        return 0
    if op == "reject":
        b, alpha = parse_rational(args.b), parse_rational(args.alpha)
        tail = stats.tail_prob(args.m, args.n, b)
        rejected = tail < alpha
        note = ""
        if tail == alpha:
            note = " (tail probability equals the level; retained under the strict-< rule)"
        print(("reject" if rejected else "retain") + note)
        return VERDICT_EXIT if rejected else 0
    if op == "pieces":
        pw = stats.build_piecewise(args.m, args.n)
        for i in range(2 * pw.m):
            print(f"value at {pw.breakpoint(i)} = {pw.breakpoint_values[i]}")
            print(f"piece {pw.piece_interval(i)}: {format_poly(pw.pieces[i])}")
        print(f"value at {pw.breakpoint(2 * pw.m)} = {pw.breakpoint_values[2 * pw.m]}")
        jumps = " ".join(str(x) for x in pw.discontinuities())
        print(f"discontinuities: {jumps}")
        return 0
    if op == "estimate":
        alpha = parse_rational(args.alpha)
        lo, hi = stats.bounds(args.m, args.n, alpha)
        print(f"r = {lo}")
        print(f"s = {hi}")
        if args.digits:
            # rational endpoints are already printed exactly
            for name, value in (("r", lo), ("s", hi)):
                if value.rational is None:
                    dec_lo, dec_hi = value.decimal_enclosure(args.digits)
                    print(f"{name} in [{dec_lo}, {dec_hi}]")
        print(f"code = {pair(stats.algebraic_code(lo), stats.algebraic_code(hi))}")
        return 0
    if op == "maxalpha":
        log = ObservationLog.from_jsonl(Path(args.log).read_text())
        bound = stats.max_alpha(log, parse_rational(args.b))
        print("unrestricted" if bound is None else bound)
        return 0
    raise UsageError(f"unknown stats operation {op!r}")


# ---------------------------------------------------------------------------
# spec


def _cmd_spec(args) -> int:
    text = Path(args.path).read_text()
    if args.spec_op == "fmt":
        print(spec_lang.format_model(spec_lang.parse_model(text)), end="")
        return 0
    notes = spec_lang.lint_model(text)
    for note in notes:
        print(note)
    print("clean" if not notes else f"{len(notes)} note(s)")
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="physmodels", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode values as nonnegative integers")
    enc.add_argument("kind", choices=["pair", "int", "rat", "interval", "rect", "sing", "seg"])
    enc.add_argument("values", nargs="+")
    enc.set_defaults(fn=_cmd_encode)

    dec = sub.add_parser("decode", help="decode nonnegative integers")
    dec.add_argument(
        "kind",
        choices=["pair", "int", "rat", "interval", "rect", "sing", "seg", "estimate"],
    )
    dec.add_argument("values", nargs=1)
    dec.add_argument("--dim", type=int, help="components for pair/rect decoding")
    dec.set_defaults(fn=_cmd_decode)

    model = sub.add_parser("model", help="budgeted model operations")
    msub = model.add_subparsers(dest="model_op", required=True)

    def model_common(p):
        p.add_argument("--model", required=True, help="builtin name or spec file")
        p.add_argument("--budget", type=_parse_budget, default=Budget(100))

    check = msub.add_parser("check")
    model_common(check)
    check.add_argument("--log", required=True)
    check.add_argument("--jsonl", action="store_true", help="structured-lines output")
    check.set_defaults(fn=_cmd_model_check)

    rng = msub.add_parser("range")
    model_common(rng)
    rng.add_argument("--observable")
    rng.set_defaults(fn=_cmd_model_range)

    restr = msub.add_parser("restrict")
    model_common(restr)
    restr.add_argument("--where", required=True, help="predicate over results")
    restr.set_defaults(fn=_cmd_model_restrict)

    der = msub.add_parser("derive")
    model_common(der)
    der.add_argument("--base", required=True)
    der.add_argument("--map", required=True, help="integer expression over one variable")
    der.add_argument("--as", dest="new_symbol", required=True)
    der.set_defaults(fn=_cmd_model_derive)

    red = msub.add_parser("reduct")
    model_common(red)
    red.add_argument("--keep", required=True, help="comma-separated symbols")
    red.set_defaults(fn=_cmd_model_reduct)

    cmp_ = msub.add_parser("compare")
    model_common(cmp_)
    cmp_.add_argument("--other", required=True)
    cmp_.set_defaults(fn=_cmd_model_compare)

    chain = msub.add_parser("chain7")
    chain.add_argument("--u", default="0..19", help="slice range, e.g. 0..19")
    chain.add_argument("--budget", type=_parse_budget, default=Budget(64))
    chain.add_argument("--seeds", type=int, default=200)
    chain.add_argument("--seed", type=int, default=0, help="first seed")
    chain.set_defaults(fn=_cmd_model_chain7)

    rng_top = sub.add_parser("range", help="neighborhood-code enumeration")
    rsub = rng_top.add_subparsers(dest="range_op", required=True)

    def range_common(p):
        p.add_argument("--machine", required=True)
        p.add_argument("--height", type=int, default=4, help="numerator bound")
        p.add_argument("--den", type=int, help="denominator bound (default: height)")
        p.add_argument("--refine", type=int, default=2, help="dyadic refinement depth")
        p.add_argument("--chain", type=int, default=3, help="max nested chain length")
        p.add_argument("--budget", type=_parse_budget, default=Budget(1_000_000))

    renum = rsub.add_parser("enumerate")
    range_common(renum)
    renum.add_argument("--annotate", action="store_true", help="decode each code")
    renum.set_defaults(fn=_cmd_range_enumerate)

    rprobe = rsub.add_parser("probe")
    range_common(rprobe)
    rprobe.add_argument("--in", dest="point_in", required=True, help="input coords a/b,...")
    rprobe.add_argument("--out", dest="point_out", required=True, help="output coords")
    rprobe.add_argument("--depth", type=int, default=8)
    rprobe.set_defaults(fn=_cmd_range_probe)

    st = sub.add_parser("stats", help="exact binomial statistics")
    ssub = st.add_subparsers(dest="stats_op", required=True)
    pmf = ssub.add_parser("pmf")
    pmf.add_argument("m", type=int)
    pmf.add_argument("b")
    pmf.add_argument("n", type=int)
    pmf.set_defaults(fn=_cmd_stats)
    tail = ssub.add_parser("tail")
    for name in ("m", "n"):
        tail.add_argument(name, type=int)
    tail.add_argument("b")
    tail.set_defaults(fn=_cmd_stats)
    rej = ssub.add_parser("reject")
    for name in ("m", "n"):
        rej.add_argument(name, type=int)
    rej.add_argument("b")
    rej.add_argument("alpha")
    rej.set_defaults(fn=_cmd_stats)
    pieces = ssub.add_parser("pieces")
    pieces.add_argument("m", type=int)
    pieces.add_argument("n", type=int)
    pieces.set_defaults(fn=_cmd_stats)
    est = ssub.add_parser("estimate")
    est.add_argument("m", type=int)
    est.add_argument("n", type=int)
    est.add_argument("alpha")
    est.add_argument("--digits", type=int, default=0)
    est.set_defaults(fn=_cmd_stats)
    maxa = ssub.add_parser("maxalpha")
    maxa.add_argument("--log", required=True)
    maxa.add_argument("--b", required=True)
    maxa.set_defaults(fn=_cmd_stats)

    spec = sub.add_parser("spec", help="model-spec utilities")
    spsub = spec.add_subparsers(dest="spec_op", required=True)
    for op in ("fmt", "lint"):
        p = spsub.add_parser(op)
        p.add_argument("path")
        p.set_defaults(fn=_cmd_spec)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, model_core.RangeEvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main(argv=None) -> int:
    """Entry point of the ``physmodels`` program: ``main`` with Python's cap
    on the digits of int/str conversion lifted for the duration of the call.

    Codes are exact integers of any size; an estimate code at m = 8 already
    passes the default 4300 digits.  Input size stays bounded by the
    operating system's limit on one argument.  ``main`` itself keeps the
    interpreter's cap, so a program that embeds it keeps its own limit.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(console_main())
