"""Smoke test of the benchmark itself.

    python3 bench/smoke.py [WORKLOAD ...]

1. A known defect's operation counts as present only while it fails with its
   symptom, and a tiny run of every workload prints every end-to-end metric
   named in BENCHMARK.json, with its unit, correct answers and no failed
   operation.
2. Two traced runs of one seed (of each WORKLOAD given, default ``model``)
   print every per-layer metric and give identical counts.
3. In a directory holding only BENCHMARK.json and the benchmark's files, the
   benchmark exits non-zero without printing a result.

Exits non-zero on the first failed check.  Takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

from run import Outcome, defect_state  # noqa: E402


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, check=False,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        sys.exit(f"FAIL: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(metrics: dict, wanted: list[dict], label: str) -> None:
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != units:
        sys.exit(f"FAIL: {label} metrics {sorted(got)} differ from BENCHMARK.json {sorted(units)}")


def check_defect_states() -> None:
    symptom = "exit 1: error: Exceeds the limit (4300 digits) for integer string conversion"
    cases = [  # (status, reason, accepted state or None)
        ("failed", symptom + "; use sys.set_int_max_str_digits()", "present"),
        ("ok", "", "fixed"),
        ("failed", "exit 2: error: alpha must lie in (0, 1)", None),
        ("failed", "ValueError: " + symptom[15:], None),
        ("wrong", "stats estimate printed a wrong code", None),
    ]
    for status, reason, want in cases:
        got = defect_state(Outcome("cli_estimate", 0.1, status, reason, ""), symptom)
        if (got if got in ("present", "fixed") else None) != want:
            sys.exit(f"FAIL: a defect op {status} ({reason}) reads {got!r}, expected {want}")
    print(f"PASS defect states: {len(cases)} cases")


def main() -> None:
    workloads = sys.argv[1:] or ["model"]

    check_defect_states()
    rows = last_json(run(["--workload", "all", "--seed", "1", "--seconds", "1"]))
    for w in (spec["name"] for spec in SPEC["workloads"]):
        row = rows[w]
        check_names(row["metrics"], SPEC["end_to_end"], w)
        if not row["correct"] or row["attempted"] < 100 or row["failed"]:
            sys.exit(f"FAIL: {w} correct={row['correct']} attempted={row['attempted']} failed={row['failed']}")
        print(f"PASS tiny run {w}: {row['attempted']} ops, {row['failed']} failed, every end-to-end metric printed")

    for w in workloads:
        first, second = (last_json(run(["--workload", w, "--seed", "3", "--trace", "1"])) for _ in range(2))
        check_names(first["metrics"], SPEC["per_layer"], f"traced {w}")
        counts = {
            name: (first["metrics"][name]["value"], second["metrics"][name]["value"])
            for name, m in first["metrics"].items() if m["unit"] != "s" and name != "trace.overhead_ratio"
        }
        differ = {name: pair for name, pair in counts.items() if pair[0] != pair[1]}
        if differ or (first["attempted"], first["failed"]) != (second["attempted"], second["failed"]):
            sys.exit(f"FAIL: traced {w} counts differ between two runs of one seed: {differ}")
        print(f"PASS traced {w}: {len(counts)} counts identical across two runs of seed 3")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(["--workload", "estimate", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        sys.exit("FAIL: the benchmark ran without the program's sources")
    print(f"PASS without sources: exit {proc.returncode}, no result printed")


if __name__ == "__main__":
    main()
