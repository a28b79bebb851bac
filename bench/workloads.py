"""The three benchmark workloads: seeded inputs, operations and output checks.

Each workload is built from a namespace ``pm`` holding the freshly imported
``physmodels`` modules, the run seed and a scratch directory for the files
the command-line operations read.  ``round(r)`` returns the operations of
round ``r``: a fixed mix of operation kinds whose inputs are drawn from
``(seed, r)`` alone, so the same seed always gives the same inputs and every
round has the same composition.

An operation is a ``run`` callable, timed by the caller, and a ``check``
callable, run untimed on the result.  ``check`` returns the canonical text of
the answer, which feeds the output digest, and raises ``Failed`` for an
operation that gave no answer (an error or an unexpected exit code) or
``Wrong`` for an answer that fails its check.

No operation of the timed mix is expected to fail.  A known defect of the
program is kept out of the mix and shown instead by ``defects()``: each
``Defect`` is an operation run once after the timed phase of every run,
reported as present while it fails with its symptom and as fixed once it
answers correctly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

ALPHAS = (F(1, 20), F(1, 10), F(1, 4), F(1, 3), F(1, 2))


class Failed(Exception):
    """The operation gave no answer; ``text`` is what the digest records."""

    def __init__(self, reason: str, text: str = "failed"):
        super().__init__(reason)
        self.text = text


class Wrong(Exception):
    """The operation answered, and the answer failed its check."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]


@dataclass
class Defect:
    """A known defect: ``op`` fails with ``symptom`` in its reason while the
    defect is present."""

    name: str
    op: Op
    symptom: str


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


def canon(x) -> str:
    """Canonical text; integers in hex, since decimal text of a huge
    integer is refused by the interpreter's conversion limit."""
    if isinstance(x, bool) or x is None:
        return str(x)
    if isinstance(x, int):
        return hex(x)
    if isinstance(x, F):
        return f"{hex(x.numerator)}/{hex(x.denominator)}"
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(canon(v) for v in x) + ")"
    return str(x)


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def expect_exit(result: tuple[int, str, str], code: int, text: str) -> tuple[str, str]:
    rc, out, err = result
    if rc != code:
        first = err.strip().splitlines()[0] if err.strip() else ""
        raise Failed(f"exit {rc}: {first}"[:160], text)
    return out, err


def round_rng(name: str, seed: int, r: int) -> random.Random:
    # String seeds are hashed with SHA-512, so draws do not depend on
    # PYTHONHASHSEED.
    return random.Random(f"{name}:{seed}:{r}")


# ---------------------------------------------------------------------------
# estimate


def alg_text(a) -> str:
    if a.rational is not None:
        return "q" + canon(a.rational)
    return "r" + canon(tuple(a.polynomial)) + canon((a.isolating.lo, a.isolating.hi))


def stride(size: int) -> int:
    """The step nearest 0.618 * size that is coprime to size."""
    step = size * 618 // 1000
    while math.gcd(step, size) != 1:
        step += 1
    return step


class Estimate:
    """Exact binomial interval estimates: ``stats`` on ``exact_arith``."""

    name = "estimate"
    CYCLE = 1  # rounds cost alike on their own, see below
    # One op per entry and round.  m is fixed per slot, alpha rotates with the
    # round and n walks through 0..m from a seeded start, so rounds cost
    # alike; the seed draws the starts and the digits.  The walk takes a
    # golden-ratio stride coprime to m + 1, so the n of a run's rounds spread
    # evenly over 0..m whatever the start, and the cost mix, which depends on
    # n, hardly depends on the seed.
    # m = 18 and 20 twice each: the costliest ops are then 4 of 18 a round,
    # so p90 falls inside their band rather than at its lower edge.  Bounds
    # at m = 10 four times: they are ops 8-11 of 18 by cost, so p50 falls
    # inside their band rather than between op kinds.
    # CLI ops stop at m = 6, whose codes stay below 4300 decimal digits for
    # every n and alpha: above that ``stats estimate`` exits 1 for most inputs
    # (the defect in ``defects()``), and the timed mix has no failing op.
    BOUNDS_M = (6, 8, 10, 10, 10, 10, 14, 16, 18, 18, 20, 20)
    ROUNDTRIP_M = (8, 9, 11)
    CLI_M = (4, 5, 6)
    # ``str()`` of the printed code passes the interpreter's 4300-digit limit.
    CODE_TOO_LONG = "exit 1: error: Exceeds the limit (4300 digits) for integer string conversion"
    GRID = 64

    def __init__(self, pm, seed: int, workdir: Path):
        self.pm = pm
        self.seed = seed
        rng = random.Random(f"estimate-setup:{seed}")
        self.slots = [
            (kind, m, rng.randint(0, m))
            for kind, ms in (("bounds", self.BOUNDS_M), ("roundtrip", self.ROUNDTRIP_M), ("cli", self.CLI_M))
            for m in ms
        ]

    def round(self, r: int) -> list[Op]:
        rng = round_rng(self.name, self.seed, r)
        ops = []
        for i, (kind, m, start) in enumerate(self.slots):
            n, alpha = (start + r * stride(m + 1)) % (m + 1), ALPHAS[(i + r) % len(ALPHAS)]
            if kind == "bounds":
                ops.append(self.bounds_op(m, n, alpha, rng.randint(4, 12)))
            elif kind == "roundtrip":
                ops.append(self.roundtrip_op(m, n, alpha))
            else:
                ops.append(self.cli_op(m, n, alpha, rng.randint(4, 12)))
        rng.shuffle(ops)
        return ops

    def defects(self) -> list[Defect]:
        return [
            Defect(f"stats estimate {m} {n} 1/20 --digits 6", self.cli_op(m, n, F(1, 20), 6), self.CODE_TOO_LONG)
            for m, n in ((8, 2), (10, 3), (12, 4))
        ]

    def check_endpoints(self, m: int, n: int, alpha: F, glb, lub) -> None:
        ratio = F(n, m)
        expect(glb.compare(ratio) <= 0 <= lub.compare(ratio), f"n/m outside [glb, lub] for {m},{n},{alpha}")
        if m <= 8:
            stats = self.pm.stats
            cell = F(1, self.GRID)
            grid_lo, grid_hi = stats.bounds_grid_scan(m, n, alpha, grid=self.GRID)
            expect(
                glb.compare(grid_lo) <= 0 <= glb.compare(grid_lo - cell)
                and lub.compare(grid_hi + cell) <= 0 <= lub.compare(grid_hi),
                f"bounds disagree with the {self.GRID}-point grid scan for {m},{n},{alpha}",
            )

    def check_enclosure(self, a, lo: str, hi: str, digits: int) -> None:
        lo_q, hi_q = F(lo), F(hi)
        width = hi_q - lo_q
        expect(
            width == F(1, 10**digits) or (width == 0 and a.compare(lo_q) == 0),
            f"enclosure [{lo}, {hi}] is not 1e-{digits} wide",
        )
        expect(a.compare(lo_q) >= 0 >= a.compare(hi_q), f"enclosure [{lo}, {hi}] misses the endpoint")

    def bounds_op(self, m: int, n: int, alpha: F, digits: int) -> Op:
        stats = self.pm.stats

        def run():
            glb, lub = stats.bounds(m, n, alpha)
            encl = [a.decimal_enclosure(digits) for a in (glb, lub) if a.rational is None]
            return glb, lub, encl

        def check(out) -> str:
            glb, lub, encl = out
            self.check_endpoints(m, n, alpha, glb, lub)
            irrational = [a for a in (glb, lub) if a.rational is None]
            for a, (lo, hi) in zip(irrational, encl):
                self.check_enclosure(a, lo, hi, digits)
            return f"bounds {m} {n} {alpha} {digits}: {alg_text(glb)} {alg_text(lub)} {encl}"

        return Op("bounds", run, check)

    def roundtrip_op(self, m: int, n: int, alpha: F) -> Op:
        stats, enc = self.pm.stats, self.pm.encodings

        def run():
            code = stats.interval_estimate(m, n, alpha)
            return code, stats.interval_estimate_decode(code)

        def check(out) -> str:
            code, (glb, lub) = out
            self.check_endpoints(m, n, alpha, glb, lub)
            again = enc.pair(stats.algebraic_code(glb), stats.algebraic_code(lub))
            expect(again == code, f"decode/encode round trip changed the code for {m},{n},{alpha}")
            return f"roundtrip {m} {n} {alpha}: {code.bit_length()} {canon(code)}"

        return Op("roundtrip", run, check)

    def cli_op(self, m: int, n: int, alpha: F, digits: int) -> Op:
        stats, enc, cli = self.pm.stats, self.pm.encodings, self.pm.cli
        argv = ["stats", "estimate", str(m), str(n), str(alpha), "--digits", str(digits)]

        def check(result) -> str:
            glb, lub = stats.bounds(m, n, alpha)
            code = enc.pair(stats.algebraic_code(glb), stats.algebraic_code(lub))
            text = f"cli estimate {m} {n} {alpha} {digits}: {alg_text(glb)} {alg_text(lub)} {canon(code)}"
            out, _ = expect_exit(result, 0, text)
            want = [f"r = {glb}", f"s = {lub}"]
            for name, a in (("r", glb), ("s", lub)):
                if a.rational is None:
                    lo, hi = a.decimal_enclosure(digits)
                    want.append(f"{name} in [{lo}, {hi}]")
            lines = out.splitlines()
            expect(lines[:-1] == want, f"stats estimate printed {lines[:-1]!r}, expected {want!r}")
            expect(lines[-1].startswith("code = ") and int(lines[-1][7:]) == code, "stats estimate printed a wrong code")
            return text

        return Op("cli_estimate", lambda: call_cli(cli, argv), check)


# ---------------------------------------------------------------------------
# graph


def identity_meets(d1, d2) -> bool:
    return max(d1.lo, d2.lo) < min(d1.hi, d2.hi)


def squaring_meets(d1, d2) -> bool:
    a, b, c, d = d1.lo, d1.hi, d2.lo, d2.hi
    if b <= 0:
        return max(b * b, c) < min(a * a, d)
    if a >= 0:
        return max(a * a, c) < min(b * b, d)
    top = max(a * a, b * b)
    return min(top, d) > max(c, 0) or (c < 0 < min(top, d))


# The soundness predicates of acceptance criterion 9: an emitted product
# rectangle must meet the graph of its map.
MEETS = {"identity": identity_meets, "squaring": squaring_meets}
POINT_MAPS = {"identity": lambda x: x, "squaring": lambda x: x * x}
CUBE_TEXT = "map(x) = x*x*x - x"


class Graph:
    """Neighborhood-code ranges: ``neighborhoods`` on ``spec_lang`` and
    ``encodings``."""

    name = "graph"
    # The machines rotate over the slots with the round, and the machine of
    # the refine-3 slot sets most of a round's cost, so runs take whole
    # cycles of three rounds.
    CYCLE = 3
    # (height, refine) of the library enumerations in every round; height 4
    # stays at refine 0 so no single op dominates a round.
    ENUM_SLOTS = ((3, 0), (3, 1), (3, 2), (3, 3), (4, 0))
    GAS_REFINES = (0, 1)
    CLI_REFINES = (0, 1)
    PROBES = 16
    PROBE_DEPTH = 8
    SAMPLE = 64

    def __init__(self, pm, seed: int, workdir: Path):
        self.pm = pm
        self.seed = seed
        self.workdir = workdir
        nb, spec_lang = pm.neighborhoods, pm.spec_lang
        self.machines = {
            "identity": nb.IDENTITY_MAP,
            "squaring": nb.SQUARING_MAP,
            "cube": spec_lang.parse_real_fn(CUBE_TEXT),
        }
        self.cli_machine = {"identity": "identity", "squaring": "squaring", "cube": CUBE_TEXT}
        # Probes run against ranges built here, so they skip enumeration.
        self.probe_ranges = {
            name: nb.enumerate_graph_range(nb.GraphRangeRequest(self.machines[name], 3, 3, 1, 2))
            for name in MEETS
        }

    def round(self, r: int) -> list[Op]:
        # Costly parameters (machine, height, refine, probe denominator) follow
        # a fixed schedule, so rounds cost alike; the seed draws the rest.
        rng = round_rng(self.name, self.seed, r)
        machines = sorted(self.machines)
        ops = []
        for i, (height, refine) in enumerate(self.ENUM_SLOTS):
            machine = machines[(i + r) % len(machines)]
            ops.append(self.enum_op(machine, height, refine, rng.randint(1, 3), rng))
        for refine in self.GAS_REFINES:
            ops.append(self.gas_op(refine, rng.randint(1, 2)))
        for i, refine in enumerate(self.CLI_REFINES):
            ops.append(self.cli_op(machines[(i + r) % len(machines)], refine, rng.randint(1, 3), rng))
        for i in range(self.PROBES):
            ops.append(self.probe_op(sorted(MEETS)[i % 2], i // 2 % 2 == 0, 1 + i // 4 % 4, rng))
        rng.shuffle(ops)
        return ops

    def defects(self) -> list[Defect]:
        # ``--machine FILE`` fails to parse a file that ends with a newline;
        # the timed mix passes its maps inline.
        path = self.workdir / "cube.machine"
        path.write_text(CUBE_TEXT + "\n")
        op = self.cli_op("cube", 0, 1, random.Random(0), machine_arg=str(path))
        return [Defect("range enumerate --machine FILE ending in a newline", op, "exit 1: error: 1:19: expected 'eof'")]

    def check_codes(self, machine: str, codes, rng: random.Random, arity: int = 1, out_dim: int = 1) -> None:
        enc = self.pm.encodings
        expect(len(codes) > 0, "empty graph range")
        sample = rng.sample(sorted(codes), min(self.SAMPLE, len(codes)))
        meets = MEETS.get(machine)
        for code in sample:
            left, right = enc.unpair(code)
            ins, outs = enc.rect_decode(left, arity), enc.rect_decode(right, out_dim)
            if meets is not None:
                expect(meets(ins[0], outs[0]), f"{machine} emitted code {canon(code)} that misses the graph")

    def enum_op(self, machine: str, height: int, refine: int, chain: int, rng: random.Random) -> Op:
        nb = self.pm.neighborhoods
        req = nb.GraphRangeRequest(self.machines[machine], height, height, refine, chain)
        sample_rng = random.Random(rng.random())

        def check(g) -> str:
            expect(not g.truncated, "graph range truncated")
            self.check_codes(machine, g.codes, sample_rng)
            return f"enum {machine} {height} {refine} {chain}: {g.boxes_evaluated} {canon(sorted(g.codes))}"

        return Op("enumerate", lambda: nb.enumerate_graph_range(req), check)

    def gas_op(self, refine: int, chain: int) -> Op:
        nb = self.pm.neighborhoods
        req = nb.GraphRangeRequest(nb.ideal_gas_map(), 2, 1, refine, chain)
        sample_rng = random.Random(refine * 10 + chain)

        def check(g) -> str:
            expect(not g.truncated, "graph range truncated")
            self.check_codes("ideal_gas", g.codes, sample_rng, arity=2)
            return f"gas {refine} {chain}: {g.boxes_evaluated} {canon(sorted(g.codes))}"

        return Op("ideal_gas", lambda: nb.enumerate_graph_range(req), check)

    def cli_op(self, machine: str, refine: int, chain: int, rng: random.Random, machine_arg: str | None = None) -> Op:
        cli, enc = self.pm.cli, self.pm.encodings
        argv = ["range", "enumerate", "--machine", machine_arg or self.cli_machine[machine], "--height", "3",
                "--refine", str(refine), "--chain", str(chain), "--annotate"]
        sample_rng = random.Random(rng.random())

        def check(result) -> str:
            out, _ = expect_exit(result, 0, "")
            codes = []
            for line in out.splitlines():
                code_text, ins, arrow, outs = line.split(" ")
                code = int(code_text)
                left, right = enc.unpair(code)
                expect(arrow == "->", f"bad annotate line {line!r}")
                expect(
                    ins == enc.format_rect(enc.rect_decode(left, 1))
                    and outs == enc.format_rect(enc.rect_decode(right, 1)),
                    f"annotation of {code} does not decode",
                )
                codes.append(code)
            expect(codes == sorted(set(codes)), "range enumerate output not sorted and unique")
            self.check_codes(machine, codes, sample_rng)
            return f"cli range {machine} {refine} {chain}: {canon(codes)}"

        return Op("cli_range", lambda: call_cli(cli, argv), check)

    def probe_op(self, machine: str, on_graph: bool, q: int, rng: random.Random) -> Op:
        nb, enc = self.pm.neighborhoods, self.pm.encodings
        x = F(rng.randint(-3 * q, 3 * q), q)
        y = POINT_MAPS[machine](x)
        if not on_graph:
            y += F(rng.choice((-1, 1)) * rng.randint(1, 4), 4)
        grange = self.probe_ranges[machine]

        def run():
            oracle = nb.NestedOracle.around_graph_point((x,), (y,))
            return nb.membership_probe(grange, oracle, self.PROBE_DEPTH)

        def check(res) -> str:
            expect(res.excluded != on_graph, f"probe at ({x}, {y}) on {machine}: {res.outcome}")
            if res.excluded:
                left, right = enc.unpair(res.witness)
                (d1,), (d2,) = enc.rect_decode(left, 1), enc.rect_decode(right, 1)
                expect(not MEETS[machine](d1, d2), "exclusion witness meets the graph")
                expect(res.witness_absent_from_range is True, "exclusion witness is in the emitted range")
            return f"probe {machine} {canon((x, y))}: {res.outcome} {res.depth} {canon(res.witness)}"

        return Op("probe", run, check)


# ---------------------------------------------------------------------------
# model


@dataclass
class LogModel:
    """A model under test plus how to draw records of known verdict."""

    name: str
    cli_name: str          # --model argument
    model: object
    in_range: Callable     # (rng, budget) -> result of a state enumerated within budget
    beyond: Callable       # (rng, budget) -> in-range result first reached past the budget
    out_of_range: Callable  # (rng, budget) -> result the range predicate rejects


def gen_model_texts(rng: random.Random) -> list[tuple[str, str, dict]]:
    """Seeded spec-text models whose ranges are known exactly."""
    a, b = rng.randint(2, 6), rng.randint(0, 9)
    k = rng.randint(2, 4)
    j = rng.randrange(k)
    a2, b2 = rng.randint(2, 5), rng.randint(0, 9)
    c = rng.randint(2, 7)
    return [
        ("linear", (
            f'model "linear"\nstates enumerate s\nobservable f(s) = {a}*s + {b}\n'
            f"range f where n >= {b} and (n - {b}) mod {a} == 0\n"), dict(a=a, b=b)),
        ("sliced", (
            f'model "sliced"\nstates where s mod {k} == {j}\nobservable f(s) = J(s, {a2}*s + {b2})\n'
            f"range f where K(n) mod {k} == {j} and L(n) == {a2}*K(n) + {b2}\n"), dict(k=k, j=j, a=a2, b=b2)),
        ("parity", (
            f'model "parity"\nstates enumerate s\nobservable f(s) = if s mod 2 == 0 then {c}*s else {c}*s + 1\n'
            f"range f where n mod {2 * c} == 0 or n mod {2 * c} == {c + 1}\n"), dict(c=c)),
    ]


class ModelWorkload:
    """Budgeted model checks: ``model_core`` on ``spec_lang`` expressions."""

    name = "model"
    # Budgets, log lengths and decay budgets rotate with the round in cycles
    # dividing six, and runs take whole cycles of six rounds, so every run
    # has the same mix of costs.
    CYCLE = 6
    # Log-spaced over 1k-20k, one per model (see round()).
    BUDGETS = (1000, 1800, 3300, 6000, 11_000, 20_000)
    DECAY_BUDGETS = (256, 512, 1024)
    LOGS_PER_MODEL = 2
    LOG_LENGTHS = (200, 260, 320, 380, 440, 500)
    RATIOS = (F(1, 2), F(1, 3), F(1, 4))
    CLI_BUDGET = 2000
    # Budgets of the range operations, rotating with the round like the
    # models they run on.
    RANGE_BUDGETS = (500, 1000, 2000)
    # Four chain replays of 50 measurement seeds a round, each costlier than
    # any check: they are 15 % of the ops, so p90 falls inside their band
    # rather than among the budget-20k checks, whose costs differ by model
    # and, for the generated models, by seed.
    CHAINS = 4
    CHAIN_SEEDS = 50

    def __init__(self, pm, seed: int, workdir: Path):
        self.pm = pm
        self.seed = seed
        mc, enc = pm.model_core, pm.encodings
        rng = random.Random(f"model-setup:{seed}")
        pair, first, second = enc.pair, enc.first, enc.second

        def decay_state(rng, lo, hi):
            while True:
                s = rng.randrange(lo, hi)
                if second(s) <= first(s):
                    return s

        self.log_models = [
            LogModel("baryon", "baryon", mc.builtin("baryon"),
                     lambda rng, B: 2 * rng.randrange(B) + 2,
                     lambda rng, B: 2 * rng.randrange(B, 2 * B) + 2,
                     lambda rng, B: rng.choice((0, 2 * rng.randrange(2 * B) + 1))),
            LogModel("cannon", "cannon", mc.builtin("cannon"),
                     lambda rng, B: (lambda t: pair(t, 5 * t))(rng.randrange(B)),
                     lambda rng, B: (lambda t: pair(t, 5 * t))(rng.randrange(B, 2 * B)),
                     lambda rng, B: (lambda t: pair(t, 5 * t + rng.randint(1, 3)))(rng.randrange(2 * B))),
            LogModel("decay", "decay", mc.builtin("decay"),
                     lambda rng, B: decay_state(rng, 0, B),
                     lambda rng, B: decay_state(rng, B, 4 * B),
                     lambda rng, B: (lambda m: pair(m, m + rng.randint(1, 3)))(rng.randrange(64))),
        ]
        for name, text, p in gen_model_texts(rng):
            path = workdir / f"{name}.spec"
            path.write_text(text)
            model = mc.model_from_spec(text)
            if name == "linear":
                lm = LogModel(name, str(path), model,
                              lambda rng, B, p=p: p["a"] * rng.randrange(B) + p["b"],
                              lambda rng, B, p=p: p["a"] * rng.randrange(B, 2 * B) + p["b"],
                              lambda rng, B, p=p: p["a"] * rng.randrange(2 * B) + p["b"] + rng.randint(1, p["a"] - 1))
            elif name == "sliced":
                # states j, j + k, j + 2k, ...; index i of the slice is state k*i + j
                def sliced(s, p=p):
                    return pair(s, p["a"] * s + p["b"])
                lm = LogModel(name, str(path), model,
                              lambda rng, B, p=p, f=sliced: f(p["k"] * rng.randrange(B // p["k"]) + p["j"]),
                              lambda rng, B, p=p, f=sliced: f(p["k"] * rng.randrange(B // p["k"] + 1, 2 * B // p["k"]) + p["j"]),
                              lambda rng, B, p=p: (lambda s: pair(s, p["a"] * s + p["b"] + 1))(rng.randrange(2 * B)))
            else:
                c = p["c"]
                parity = lambda s, c=c: c * s if s % 2 == 0 else c * s + 1
                lm = LogModel(name, str(path), model,
                              lambda rng, B, f=parity: f(rng.randrange(B)),
                              lambda rng, B, f=parity: f(rng.randrange(B, 2 * B)),
                              lambda rng, B, c=c: 2 * c * rng.randrange(2 * B) + rng.choice([v for v in range(1, 2 * c) if v != c + 1]))
            self.log_models.append(lm)

        # Models and logs for the command-line operations, written once here.
        self.cli_logs = []
        for i, lm in enumerate(self.log_models):
            records = self.draw_log(lm, self.CLI_BUDGET, self.LOG_LENGTHS[i], rng)
            path = workdir / f"{lm.name}.jsonl"
            path.write_text(mc.ObservationLog.from_pairs(("f", v) for v, _ in records).to_jsonl())
            self.cli_logs.append((lm, path, records))
        self.equivalent = mc.model_from_spec(
            'model "twin"\nstates enumerate s\nobservable f(s) = 2*s + 2\nrange f where n mod 2 == 0 and n >= 2\n')
        self.weaker = mc.model_from_spec(
            'model "shifted"\nstates enumerate s\nobservable f(s) = 2*s + 4\nrange f where n mod 2 == 0 and n >= 4\n')

    def defects(self) -> list[Defect]:
        return []

    def draw_log(self, lm: LogModel, budget: int, length: int, rng: random.Random) -> list[tuple[int, str]]:
        """``length`` records with their expected verdict."""
        mc = self.pm.model_core
        out = []
        for _ in range(length):
            kind = rng.random()
            if kind < 0.5:
                out.append((lm.in_range(rng, budget), mc.WITNESSED))
            elif kind < 0.75:
                out.append((lm.beyond(rng, budget), mc.UNKNOWN))
            else:
                out.append((lm.out_of_range(rng, budget), mc.REFUTED))
        return out

    def round(self, r: int) -> list[Op]:
        rng = round_rng(self.name, self.seed, r)
        ops = []
        # Each round checks every model once at every budget of BUDGETS, the
        # pairing rotating with the round, so rounds cost alike and every
        # (model, budget) pair recurs every six rounds.
        for i, lm in enumerate(self.log_models):
            budget = self.BUDGETS[(i + r) % len(self.BUDGETS)]
            for j in range(self.LOGS_PER_MODEL):
                length = self.LOG_LENGTHS[(i * self.LOGS_PER_MODEL + j + r) % len(self.LOG_LENGTHS)]
                ops.append(self.check_op(lm, budget, self.draw_log(lm, budget, length, rng)))
        ops.append(self.restrict_op(r, rng))
        ops.append(self.derive_op(r, rng))
        ops.append(self.reduct_op(self.RANGE_BUDGETS[r % 3]))
        ops.append(self.decay_op(rng.choice(ALPHAS), rng.choice(self.RATIOS),
                                 self.DECAY_BUDGETS[r % len(self.DECAY_BUDGETS)]))
        ops.append(self.max_alpha_op(rng))
        ops += [self.chain_op(rng.randrange(10**6)) for _ in range(self.CHAINS)]
        ops.append(self.compare_op(r % 2 == 0, (200, 400, 800)[r % 3]))
        ops.append(self.cli_check_op(self.cli_logs[r % len(self.cli_logs)]))
        ops.append(self.cli_range_op(self.log_models[3 + r % 3], (200, 500, 1000)[r % 3]))
        ops.append(self.cli_restrict_op(r, rng))
        ops.append(self.cli_derive_op(r, rng))
        rng.shuffle(ops)
        return ops

    def verify_verdicts(self, lm: LogModel, budget: int, records, verdicts) -> str:
        mc, spec_lang = self.pm.model_core, self.pm.spec_lang
        obs = lm.model.observable("f")
        expect(len(verdicts) == len(records), "verdict count differs from record count")
        for (result, want), v in zip(records, verdicts):
            expect(v.result == result and v.verdict == want,
                   f"{lm.name}: result {result} got {v.verdict}, expected {want}")
            if v.verdict == mc.WITNESSED:
                value = obs.map.evaluate(v.witness, spec_lang.StepCounter(10_000))
                expect(value == result, f"{lm.name}: witness {v.witness} gives {value}, not {result}")
            elif v.verdict == mc.REFUTED:
                expect(not obs.range_decider(result), f"{lm.name}: refuted {result} passes its range predicate")
        return canon([(v.result, v.verdict, v.witness) for v in verdicts])

    def check_op(self, lm: LogModel, budget: int, records) -> Op:
        mc = self.pm.model_core
        log = mc.ObservationLog.from_pairs(("f", v) for v, _ in records)

        def check(verdicts) -> str:
            return f"check {lm.name} {budget}: " + self.verify_verdicts(lm, budget, records, verdicts)

        return Op("check", lambda: mc.check_faithful(lm.model, log, mc.Budget(budget)), check)

    def restrict_op(self, r: int, rng: random.Random) -> Op:
        mc = self.pm.model_core
        lm = self.log_models[(0, 3)[r % 2]]
        k = rng.randint(2, 5)
        j = rng.randrange(k)
        budget = self.RANGE_BUDGETS[r % 3]
        where = f"n mod {k} == {j}"

        def run():
            q = mc.SemiDecidableSet.from_pred_text(where)
            return mc.enumerate_range(mc.restrict(lm.model, "f", q, mc.Budget(budget)), "f", mc.Budget(budget))

        def check(values) -> str:
            base = mc.enumerate_range(lm.model, "f", mc.Budget(budget))
            expect(values == {v for v in base if v % k == j}, f"restriction of {lm.name} by {where} is wrong")
            return f"restrict {lm.name} {where} {budget}: {canon(sorted(values))}"

        return Op("restrict", run, check)

    DERIVE_MAPS = (
        ("n div {k}", lambda n, k: n // k),
        ("n mod {k}", lambda n, k: n % k),
        ("n * {k} + 1", lambda n, k: n * k + 1),
        ("n div 2 - {k}", lambda n, k: max(n // 2 - k, 0)),
    )

    def derive_op(self, r: int, rng: random.Random) -> Op:
        mc = self.pm.model_core
        lm = self.log_models[(0, 3, 5)[r % 3]]
        text, fn = rng.choice(self.DERIVE_MAPS)
        k = rng.randint(2, 5)
        text = text.format(k=k)
        budget = self.RANGE_BUDGETS[(r + 1) % 3]

        def run():
            return mc.enumerate_range(mc.derive(lm.model, "f", text, "g"), "g", mc.Budget(budget))

        def check(values) -> str:
            base = mc.enumerate_range(lm.model, "f", mc.Budget(budget))
            expect(values == {fn(v, k) for v in base}, f"derived {text} on {lm.name} is wrong")
            return f"derive {lm.name} {text} {budget}: {canon(sorted(values))}"

        return Op("derive", run, check)

    def reduct_op(self, budget: int) -> Op:
        mc = self.pm.model_core
        cannon = self.log_models[1].model

        def run():
            distance = mc.reduct(mc.derive(cannon, "f", "L(x)", "g"), ["g"])
            return mc.enumerate_range(distance, "g", mc.Budget(budget))

        def check(values) -> str:
            expect(values == {5 * t for t in range(budget)}, "reduct to the distance observable is wrong")
            return f"reduct {budget}: {len(values)}"

        return Op("reduct", run, check)

    def decay_op(self, alpha: F, b: F, budget: int) -> Op:
        mc, stats, enc = self.pm.model_core, self.pm.stats, self.pm.encodings

        def run():
            return mc.enumerate_range(stats.decay_restriction(alpha, b), "f", mc.Budget(budget))

        def check(values) -> str:
            want = set()
            for s in range(budget):
                m, n = enc.unpair(s)
                if n <= m and stats.tail_prob(m, n, b) >= alpha:
                    want.add(s)
            expect(values == want, f"decay restriction at alpha={alpha}, b={b} is wrong")
            return f"decay {alpha} {b} {budget}: {canon(sorted(values))}"

        return Op("decay_restriction", run, check)

    def max_alpha_op(self, rng: random.Random) -> Op:
        mc, stats, enc = self.pm.model_core, self.pm.stats, self.pm.encodings
        b = rng.choice(self.RATIOS)
        pairs = []
        for _ in range(rng.randint(20, 40)):
            m = rng.randint(4, 24)
            pairs.append((m, rng.randint(0, m)))
        log = mc.ObservationLog.from_pairs(("f", enc.pair(m, n)) for m, n in pairs)

        def check(value) -> str:
            expect(value == min(stats.tail_prob(m, n, b) for m, n in pairs), "max_alpha is not the least tail probability")
            return f"max_alpha {b}: {canon(value)}"

        return Op("max_alpha", lambda: stats.max_alpha(log, b), check)

    def chain_op(self, first_seed: int) -> Op:
        mc = self.pm.model_core
        seeds = range(first_seed, first_seed + self.CHAIN_SEEDS)

        def check(report) -> str:
            expect(report.values == {u: 5 * u for u in range(20)}, "chain values differ from g_u(0) = 5u")
            expect(report.clean, "chain replay has misses")
            return f"chain {first_seed}: {canon(sorted(report.values.items()))}"

        return Op("chain", lambda: mc.replay_worldline_chain(range(20), mc.Budget(64), seeds), check)

    def compare_op(self, equivalent: bool, budget: int) -> Op:
        mc = self.pm.model_core
        other = self.equivalent if equivalent else self.weaker

        def check(report) -> str:
            left = report.left_in_right["f"]
            expect(report.equivalent() == equivalent, "strength comparison verdict is wrong")
            if not equivalent:
                expect(left.verdict == mc.COUNTEREXAMPLE and left.counterexample == 2, "missing counterexample 2")
            return f"compare {equivalent} {budget}: {left.verdict} {report.right_in_left['f'].verdict}"

        return Op("compare", lambda: mc.compare_strength(self.log_models[0].model, other, mc.Budget(budget)), check)

    def cli_check_op(self, entry) -> Op:
        lm, path, records = entry
        cli, mc = self.pm.cli, self.pm.model_core
        argv = ["model", "check", "--model", lm.cli_name, "--log", str(path),
                "--budget", str(self.CLI_BUDGET), "--jsonl"]

        def check(result) -> str:
            code = 2 if any(want == mc.REFUTED for _, want in records) else 0
            out, _ = expect_exit(result, code, "")
            verdicts = [
                mc.RecordVerdict(d["symbol"], d["result"], d["verdict"], d.get("witness_state"))
                for d in map(json.loads, out.splitlines())
            ]
            return f"cli check {lm.name}: " + self.verify_verdicts(lm, self.CLI_BUDGET, records, verdicts)

        return Op("cli_check", lambda: call_cli(cli, argv), check)

    def cli_range_op(self, lm: LogModel, budget: int) -> Op:
        cli, mc = self.pm.cli, self.pm.model_core
        argv = ["model", "range", "--model", lm.cli_name, "--budget", str(budget)]

        def check(result) -> str:
            out, _ = expect_exit(result, 0, "")
            want = [f"f {v}" for v in sorted(mc.enumerate_range(lm.model, "f", mc.Budget(budget)))]
            expect(out.splitlines() == want, f"model range of {lm.name} is wrong")
            return f"cli range {lm.name} {budget}: {len(out)}"

        return Op("cli_range", lambda: call_cli(cli, argv), check)

    def cli_restrict_op(self, r: int, rng: random.Random) -> Op:
        cli, mc = self.pm.cli, self.pm.model_core
        k = rng.randint(2, 5)
        where = f"n mod {k} == 0"
        budget = self.RANGE_BUDGETS[(r + 2) % 3]
        argv = ["model", "restrict", "--model", "baryon", "--where", where, "--budget", str(budget)]

        def check(result) -> str:
            out, _ = expect_exit(result, 0, "")
            base = mc.enumerate_range(self.log_models[0].model, "f", mc.Budget(budget))
            expect(out.splitlines() == [f"f {v}" for v in sorted(base) if v % k == 0], "model restrict output is wrong")
            return f"cli restrict {where} {budget}: {len(out)}"

        return Op("cli_restrict", lambda: call_cli(cli, argv), check)

    def cli_derive_op(self, r: int, rng: random.Random) -> Op:
        cli, mc = self.pm.cli, self.pm.model_core
        k = rng.randint(2, 5)
        text = f"n div {k} - 1"
        budget = self.RANGE_BUDGETS[r % 3]
        argv = ["model", "derive", "--model", "baryon", "--base", "f", "--map", text,
                "--as", "g", "--budget", str(budget)]

        def check(result) -> str:
            out, _ = expect_exit(result, 0, "")
            base = mc.enumerate_range(self.log_models[0].model, "f", mc.Budget(budget))
            want = sorted({max(v // k - 1, 0) for v in base})
            expect(out.splitlines() == [f"g {v}" for v in want], "model derive output is wrong")
            return f"cli derive {text} {budget}: {len(out)}"

        return Op("cli_derive", lambda: call_cli(cli, argv), check)


WORKLOADS = {w.name: w for w in (Estimate, Graph, ModelWorkload)}
