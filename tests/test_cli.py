"""CLI behavior: output contracts, exit codes, and byte-stable structured output."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import physmodels
from physmodels.cli import console_main, format_poly, main
from physmodels.encodings import MAX_TRIAL_DIVISORS, pair, parse_rect, rect_decode, unpair
from physmodels.exact_arith import poly
from physmodels.model_core import Budget
from physmodels.neighborhoods import GraphRangeRequest, enumerate_graph_range
from physmodels.stats import interval_estimate
from physmodels.spec_lang import parse_real_fn


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_pair(capsys):
    code, out, _ = run(capsys, "encode", "pair", "3", "2")
    assert code == 0 and out == "18\n"


def test_encode_decode_roundtrips(capsys):
    code, out, _ = run(capsys, "encode", "rat", "--", "-1/2")
    assert code == 0 and out == "3\n"
    code, out, _ = run(capsys, "decode", "rat", "3")
    assert out == "-1/2\n"
    code, out, _ = run(capsys, "encode", "interval", "(0;1)")
    assert out == "3\n"
    code, out, _ = run(capsys, "decode", "interval", "3")
    assert out == "(0;1)\n"
    code, out, _ = run(capsys, "encode", "rect", "(0;1)x(0;1)")
    assert out == "24\n"
    code, out, _ = run(capsys, "decode", "rect", "24", "--dim", "2")
    assert out == "(0;1)x(0;1)\n"
    code, out, _ = run(capsys, "encode", "seg", "5", "0")
    assert out == "20\n"
    code, out, _ = run(capsys, "decode", "seg", "20")
    assert out == "5 0\n"
    code, out, _ = run(capsys, "encode", "int", "--", "-4")
    assert out == "7\n"
    code, out, _ = run(capsys, "decode", "pair", "18")
    assert out == "3 2\n"


def test_encode_rat_large_prime_numerator_is_quick():
    # A 25-digit prime numerator: the code is int_code(x**2) = 2*x**2, and
    # computing it must not factor x.
    x = 10**24 + 7
    src = Path(physmodels.__file__).resolve().parents[1]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "physmodels.cli", "encode", "rat", str(x)],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{2 * x * x}\n", "")


def test_decode_rat_past_the_factoring_cap_fails_quickly():
    # 10**24 + 7 is prime: deciding that by trial division needs about
    # 5 * 10**11 divisors, far past the cap, so decoding stops with an error.
    src = Path(physmodels.__file__).resolve().parents[1]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "physmodels.cli", "decode", "rat", "2000000000000000000000014"],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: factoring needs more than {MAX_TRIAL_DIVISORS} trial divisors\n"


def test_decode_error_exit_code(capsys):
    code, _, err = run(capsys, "decode", "interval", str(pair(2, 0)))
    assert code == 1 and "error" in err


def test_model_check_exit_codes(tmp_path, capsys):
    log = tmp_path / "obs.jsonl"
    log.write_text(
        json.dumps({"observable": "f", "result": 2}) + "\n"
        + json.dumps({"observable": "f", "result": 3}) + "\n"
    )
    code, out, _ = run(
        capsys, "model", "check", "--model", "baryon", "--log", str(log),
        "--budget", "1000",
    )
    assert code == 2
    assert out.splitlines() == ["f 2 witnessed state=0", "f 3 refuted"]

    ok_log = tmp_path / "ok.jsonl"
    ok_log.write_text(json.dumps({"observable": "f", "result": 2}) + "\n")
    code, out, _ = run(
        capsys, "model", "check", "--model", "baryon", "--log", str(ok_log),
        "--jsonl",
    )
    assert code == 0
    assert json.loads(out) == {
        "symbol": "f", "result": 2, "verdict": "witnessed", "witness_state": 0,
    }


def test_model_check_rejects_malformed_log_records(tmp_path, capsys):
    for record, reason in (
        ({"observable": "f", "result": True}, "result must be a nonnegative integer"),
        ({"observable": ["f"], "result": 2}, "observable must be a string"),
    ):
        log = tmp_path / "bad.jsonl"
        log.write_text(json.dumps(record) + "\n")
        for extra in ((), ("--jsonl",)):
            code, out, err = run(
                capsys, "model", "check", "--model", "baryon", "--log", str(log), *extra
            )
            assert (code, out, err) == (1, "", f"error: log line 1: {reason}\n")


def test_model_check_names_first_unknown_symbol(tmp_path, capsys):
    for first, second in (("g", "h"), ("h", "g")):
        log = tmp_path / "two.jsonl"
        log.write_text(
            json.dumps({"observable": first, "result": 1}) + "\n"
            + json.dumps({"observable": second, "result": 1}) + "\n"
        )
        code, out, err = run(
            capsys, "model", "check", "--model", "baryon", "--log", str(log),
            "--budget", "10",
        )
        assert (code, out, err) == (1, "", f"error: '{first}'\n")


def test_model_check_structured_output_is_stable(tmp_path, capsys):
    log = tmp_path / "obs.jsonl"
    log.write_text(json.dumps({"observable": "f", "result": 22}) + "\n")
    results = set()
    for _ in range(3):
        _, out, _ = run(
            capsys, "model", "check", "--model", "cannon", "--log", str(log),
            "--jsonl",
        )
        results.add(out)
    assert len(results) == 1


def test_model_range(capsys):
    code, out, _ = run(capsys, "model", "range", "--model", "baryon", "--budget", "5")
    assert code == 0
    assert out.splitlines() == ["f 2", "f 4", "f 6", "f 8", "f 10"]


def test_model_range_from_file(capsys):
    path = Path(physmodels.__file__).parent / "models" / "cannon.spec"
    code, out, _ = run(
        capsys, "model", "range", "--model", str(path), "--budget", "3"
    )
    assert code == 0
    assert out.splitlines() == ["f 0", "f 22", "f 80"]


def test_model_restrict(capsys):
    code, out, _ = run(
        capsys, "model", "restrict", "--model", "baryon", "--where", "n > 2",
        "--budget", "5",
    )
    assert code == 0
    assert out.splitlines() == ["f 4", "f 6", "f 8", "f 10"]


def test_model_restrict_reports_model_defects(tmp_path, capsys):
    spec = tmp_path / "div.spec"
    spec.write_text('model "div"\nstates enumerate s\nobservable f(s) = 10 div s\n')
    for command in (("range",), ("restrict", "--where", "n >= 0")):
        code, out, err = run(capsys, "model", *command, "--model", str(spec), "--budget", "5")
        assert (code, out) == (1, "") and err == "error: div by zero\n"


def test_model_derive(capsys):
    code, out, _ = run(
        capsys, "model", "derive", "--model", "baryon", "--base", "f",
        "--map", "n div 2 - 1", "--as", "g", "--budget", "4",
    )
    assert code == 0
    assert out.splitlines() == ["g 0", "g 1", "g 2", "g 3"]


def test_model_reduct(capsys):
    code, out, _ = run(
        capsys, "model", "reduct", "--model", "baryon", "--keep", "f", "--budget", "2",
    )
    assert code == 0 and out.splitlines() == ["f 2", "f 4"]


def test_step_exhaustion_exits_one(tmp_path, capsys):
    code, out, err = run(capsys, "model", "range", "--model", "baryon", "--budget", "5:3")
    assert (code, out, err) == (1, "", "error: evaluating 'f' at state 0 exceeded 3 steps\n")
    spec = tmp_path / "deep.spec"
    spec.write_text('model "deep"\nstates enumerate s*s*s*s\nobservable f(s) = s\n')
    code, out, err = run(capsys, "model", "range", "--model", str(spec), "--budget", "5:3")
    assert (code, out) == (1, "")
    assert err == "error: evaluating 'states enumerate s * s * s * s' at index 0 exceeded 3 steps\n"


def test_model_compare(capsys):
    code, out, _ = run(
        capsys, "model", "compare", "--model", "baryon", "--other", "baryon",
        "--budget", "10",
    )
    assert code == 0
    assert out.splitlines()[-1] == "equivalent yes"


def test_model_compare_counterexample_exit(tmp_path, capsys):
    sub = tmp_path / "gt4.spec"
    sub.write_text(
        'model "gt4"\nstates enumerate s\nobservable f(s) = 2*s + 4\n'
        "range f where n mod 2 == 0 and n >= 4\n"
    )
    code, out, _ = run(
        capsys, "model", "compare", "--model", "baryon", "--other", str(sub),
        "--budget", "10",
    )
    assert code == 2
    assert "counterexample=2" in out
    assert out.splitlines()[-1] == "equivalent no"


def test_stats_pieces(capsys):
    code, out, _ = run(capsys, "stats", "pieces", "3", "2")
    assert code == 0
    lines = out.splitlines()
    assert "value at 1/3 = 5/9" in lines
    assert "piece (1/3;1/2): 1 - 3*b + 6*b^2 - 3*b^3" in lines
    assert lines[-1] == "discontinuities: 1/3 1/2 5/6"


def test_model_chain7(capsys):
    code, out, _ = run(
        capsys, "model", "chain7", "--u", "0..3", "--seeds", "25", "--budget", "64"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[:4] == ["g0(0) = 0", "g1(0) = 5", "g2(0) = 10", "g3(0) = 15"]
    assert lines[-1].startswith("stages=")


def test_range_enumerate_and_probe(capsys):
    args = ["--machine", "squaring", "--height", "1", "--den", "2",
            "--refine", "2", "--chain", "2"]
    code, out, _ = run(capsys, "range", "enumerate", *args)
    assert code == 0
    codes = [int(line) for line in out.splitlines()]
    assert codes == sorted(codes) and codes

    code, out2, _ = run(capsys, "range", "enumerate", *args, "--annotate")
    assert code == 0 and "->" in out2.splitlines()[0]
    lines = out2.splitlines()
    assert [int(line.split(" ", 1)[0]) for line in lines] == codes
    for line in lines:
        code_text, in_text, arrow, out_text = line.split(" ")
        left, right = unpair(int(code_text))
        assert arrow == "->"
        assert parse_rect(in_text) == rect_decode(left, 1)
        assert parse_rect(out_text) == rect_decode(right, 1)

    code, out, _ = run(
        capsys, "range", "probe", "--machine", "squaring", "--height", "2",
        "--in", "1", "--out", "1", "--depth", "4",
    )
    assert code == 0 and out == "consistent at depth 4\n"

    code, out, _ = run(
        capsys, "range", "probe", "--machine", "squaring", "--height", "2",
        "--in", "1", "--out", "2", "--depth", "6",
    )
    assert code == 2
    assert "excluded at depth 2" in out and "(3/4;5/4) x (7/4;9/4)" in out


def test_range_enumerate_truncated_budget(capsys):
    fn = parse_real_fn("map(x) = x * x")
    args = ["--machine", "map(x) = x * x", "--height", "1", "--den", "2",
            "--refine", "2", "--chain", "2"]
    full = enumerate_graph_range(GraphRangeRequest(fn, 1, 2, 2, 2))
    assert not full.truncated
    # the last box is dominated by an atom walked before it: same codes
    for budget, smaller in ((full.boxes_evaluated // 3, True), (full.boxes_evaluated - 1, False)):
        grange = enumerate_graph_range(GraphRangeRequest(fn, 1, 2, 2, 2, Budget(budget)))
        assert grange.truncated and grange.codes <= full.codes
        assert (grange.codes < full.codes) == smaller
        code, out, err = run(capsys, "range", "enumerate", *args, "--budget", str(budget))
        assert (code, err) == (0, "truncated\n")
        assert out == "".join(f"{c}\n" for c in sorted(grange.codes))


def test_range_enumerate_machine_file_with_trailing_newlines(tmp_path, capsys):
    args = ["--height", "1", "--den", "2", "--refine", "1", "--chain", "2"]
    code, inline, _ = run(capsys, "range", "enumerate", "--machine", "map(x) = x * x", *args)
    assert code == 0 and inline
    for text in ("map(x) = x * x\n", "map(x) = x * x\n\n# squaring\n"):
        path = tmp_path / "square.machine"
        path.write_text(text)
        code, out, err = run(capsys, "range", "enumerate", "--machine", str(path), *args)
        assert (code, out, err) == (0, inline, "")


def test_stats_commands(capsys):
    code, out, _ = run(capsys, "stats", "pmf", "3", "1/3", "2")
    assert code == 0 and out == "2/9\n"

    code, out, _ = run(capsys, "stats", "tail", "3", "2", "1/3")
    assert code == 0 and out == "5/9\n"

    code, out, _ = run(capsys, "stats", "reject", "3", "2", "1/3", "1/3")
    assert code == 0 and out.startswith("retain")

    code, out, _ = run(capsys, "stats", "reject", "3", "0", "5/6", "1/3")
    assert code == 2 and out == "reject\n"


def test_stats_negative_counts_exit_one(capsys):
    for op, m, n, *rest in (("estimate", "3", "-1", "1/2"), ("tail", "3", "-2", "1/2"),
                            ("tail", "-1", "-2", "1/2"), ("pieces", "2", "-1")):
        code, out, err = run(capsys, "stats", op, m, n, *rest)
        assert (code, out, err) == (1, "", f"error: need 0 <= n <= m, got n={n}, m={m}\n")


def test_stats_estimate_output(capsys):
    code, out, _ = run(capsys, "stats", "estimate", "3", "2", "1/3", "--digits", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r = 1/3 (exact)"
    assert lines[1].startswith("s = root of [-2, 0, 0, 3]")
    assert "s in [0.873580, 0.873581]" in lines
    code_line = [l for l in lines if l.startswith("code = ")][0]
    estimate_code = int(code_line.removeprefix("code = "))

    code, out, _ = run(capsys, "decode", "estimate", str(estimate_code))
    assert code == 0
    assert out.splitlines()[0] == "r = 1/3 (exact)"


def test_program_prints_codes_past_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    for m, n in ((8, 2), (10, 3), (12, 4)):
        argv = ["stats", "estimate", str(m), str(n), "1/20", "--digits", "6"]
        code = console_main(argv)
        out = capsys.readouterr().out
        assert code == 0 and sys.get_int_max_str_digits() == limit
        printed = out.splitlines()[-1].removeprefix("code = ")
        assert len(printed) > limit
        sys.set_int_max_str_digits(0)
        try:
            assert printed == str(interval_estimate(m, n, Fraction(1, 20)))
        finally:
            sys.set_int_max_str_digits(limit)

        assert console_main(["decode", "estimate", printed]) == 0
        assert capsys.readouterr().out.splitlines() == out.splitlines()[:2]
        assert sys.get_int_max_str_digits() == limit

        # main, which a program embeds, keeps the interpreter's limit
        assert main(argv) == 1
        assert "Exceeds the limit" in capsys.readouterr().err
        assert sys.get_int_max_str_digits() == limit


def test_stats_maxalpha(tmp_path, capsys):
    log = tmp_path / "log.jsonl"
    log.write_text(
        "".join(
            json.dumps({"observable": "f", "result": pair(m, m)}) + "\n"
            for m in range(11)
        )
    )
    code, out, _ = run(capsys, "stats", "maxalpha", "--log", str(log), "--b", "1")
    assert code == 0 and out == "1\n"

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, out, _ = run(capsys, "stats", "maxalpha", "--log", str(empty), "--b", "1/2")
    assert code == 0 and out == "unrestricted\n"

    other = tmp_path / "other.jsonl"
    other.write_text(json.dumps({"observable": "zzz", "result": pair(3, 2)}) + "\n")
    code, out, err = run(capsys, "stats", "maxalpha", "--log", str(other), "--b", "1/3")
    assert code == 1 and out == "" and "'zzz'" in err


def test_spec_fmt_and_lint(tmp_path, capsys):
    messy = tmp_path / "m.spec"
    messy.write_text('model "x"\nobservable f(s)=2*s+2\nrange f where n mod 2==0\n')
    code, out, _ = run(capsys, "spec", "fmt", str(messy))
    assert code == 0
    assert "observable f(s) = 2 * s + 2" in out

    code, out, _ = run(capsys, "spec", "lint", str(messy))
    assert code == 0 and out.strip().endswith("clean")

    unnamed = tmp_path / "u.spec"
    unnamed.write_text("observable f(s) = s\n")
    code, out, _ = run(capsys, "spec", "lint", str(unnamed))
    assert code == 0 and "note" in out


def test_bad_usage_exits_one(capsys):
    assert run(capsys, "model", "range", "--model", "missing.spec")[0] == 1
    assert run(capsys, "encode", "rat", "one")[0] == 1
    assert run(capsys, "nonsense")[0] == 1


def test_format_poly():
    assert format_poly(poly(0, 0, 3, -2)) == "3*b^2 - 2*b^3"
    assert format_poly(poly(1, -3, 6, -3)) == "1 - 3*b + 6*b^2 - 3*b^3"
    assert format_poly(poly(1, 0, 0, -1)) == "1 - b^3"
    assert format_poly(poly()) == "0"
