"""Benchmark runner for physmodels: one workload per process, closed loop.

    python3 bench/run.py --workload estimate|graph|model|all --seed N \
        --seconds S --trace 0|1

One client runs operations back to back: the next starts when the previous
returns.  Operations come in rounds of a fixed mix (see workloads.py); the
timed phase runs whole cycles of rounds (``CYCLE``, after which a workload's
cost schedule repeats) until it has measured ``--seconds`` seconds of
operations and at least ``MIN_OPS`` of them.  Every output is checked after
its operation returns, outside the timing.  A run is correct when no
operation fails, every answer passes its check, every known defect of the
workload (``defects()``, run once after the timed phase) is either still
present with its symptom or fixed with a correct answer, and the reference
digest matches golden.json.
End-to-end timings are scaled to a reference machine speed, measured by a
calibration loop in the same run (see ``calibrate``), since the machine's
speed drifts; the values as measured are printed and stored beside them.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run of a fixed number of rounds, so its counts repeat exactly for a
seed.  ``--workload all`` runs each workload in its own process, prints one
table and a JSON object keyed by workload.  Results files, and the spans of a
traced run, go to ``.bench_out/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from layertrace import LAYERS, Tracer
from workloads import WORKLOADS, Failed, Wrong

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

MIN_OPS = 100
SETUP_SAMPLES = 9
CALIBRATION_REF_S = 0.020
CALIBRATE_EVERY_S = 0.25
REFERENCE_SEED = 0
TRACE_ROUNDS = {"estimate": 2, "graph": 2, "model": 3}
GROWTH_M = (8, 16, 24, 32)
GROWTH_REFINE = (0, 1, 2, 3)


@dataclass
class Outcome:
    kind: str
    latency: float
    status: str  # "ok", "failed" (no answer) or "wrong" (answer failed its check)
    reason: str
    digest: str  # SHA-256 of the canonical answer text; big answers are not kept
    end: float = 0.0  # perf_counter when the op returned


def metric_units() -> dict[str, str]:
    """The unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def import_physmodels() -> SimpleNamespace:
    package = importlib.import_module("physmodels")
    cli = importlib.import_module("physmodels.cli")
    return SimpleNamespace(
        package=package, cli=cli, encodings=package.encodings, exact_arith=package.exact_arith,
        spec_lang=package.spec_lang, model_core=package.model_core,
        neighborhoods=package.neighborhoods, stats=package.stats,
    )


def set_up(workload_cls, seed: int, workdir: Path):
    """Import, build the workload (models, specs, CLI files) and draw round 0."""
    pm = import_physmodels()
    workload = workload_cls(pm, seed, workdir)
    return pm, workload, workload.round(0)


def time_set_up(workload: str, seed: int) -> tuple[float, list[float]]:
    """One timed set-up in this process, with a scratch directory of its own,
    and the calibration taken just before and just after it."""
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    calibration: list[float] = []
    try:
        calibrate(calibration)
        start = time.perf_counter()
        set_up(WORKLOADS[workload], seed, workdir)
        elapsed = time.perf_counter() - start
        calibrate(calibration)
        return elapsed, calibration
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def sample_set_up(workload: str, seed: int) -> tuple[float, list[float]]:
    """Time a set-up in a fresh interpreter, as a user's first call pays it.

    The machine's speed changes within seconds, so each sample brings the
    calibration taken around it; the samples of a run come from
    several processes, one after another."""
    proc = subprocess.run(
        [sys.executable, "-c", "import json, run, sys; print(json.dumps(run.time_set_up(sys.argv[1], int(sys.argv[2]))))",
         workload, str(seed)],
        cwd=BENCH, capture_output=True, text=True, check=True, timeout=120,
    )
    return tuple(json.loads(proc.stdout))


def run_op(op, tracer=None) -> tuple[float, object, BaseException | None]:
    token = tracer.begin_op() if tracer else None
    start = time.perf_counter()
    try:
        out, error = op.run(), None
    except Exception as exc:  # a raising operation is a failed operation
        out, error = None, exc
    latency = time.perf_counter() - start
    if tracer:
        tracer.end_op(token, op.kind)
    return latency, out, error


def judge(op, latency: float, out, error) -> Outcome:
    def outcome(status: str, reason: str, text: str) -> Outcome:
        return Outcome(op.kind, latency, status, reason, hashlib.sha256(text.encode()).hexdigest())

    if error is not None:
        return outcome("failed", f"{type(error).__name__}: {error}"[:160], "failed")
    try:
        return outcome("ok", "", op.check(out))
    except Failed as exc:
        return outcome("failed", str(exc), exc.text)
    except Wrong as exc:
        return outcome("wrong", str(exc)[:300], "wrong")
    except Exception as exc:  # the output broke its own check
        return outcome("wrong", f"check raised {type(exc).__name__}: {exc}"[:300], "wrong")


def calibrate(samples: list[float], repeats: int = 3) -> None:
    """Time a fixed standard-library workload ``repeats`` times into ``samples``.

    Fraction sums, big-integer products and a dict fill, with the garbage
    collector off so the size of the program's heap does not matter.  The
    virtual machines this benchmark runs on change speed by up to 1.5x for
    minutes at a time; timings are reported scaled by CALIBRATION_REF_S over
    the median of the samples taken just around them (see ``scaled``), which
    cancels that drift while any change to physmodels, which this loop never
    calls, shows in full."""
    gc.disable()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            acc = Fraction(0)
            for i in range(1, 1500):
                acc += Fraction(1, i)
            x, modulus = 3**5000, 7**6000
            for _ in range(20):
                x = x * x % modulus
            {i: i * i for i in range(20000)}
            samples.append(time.perf_counter() - start)
    finally:
        gc.enable()


def scaled(seconds: float, calibration: list[float]) -> float:
    """``seconds`` as taken on a machine whose calibration takes CALIBRATION_REF_S."""
    return seconds * CALIBRATION_REF_S / statistics.median(calibration)


def calibrate_at(marks: list[tuple[float, float]], repeats: int) -> None:
    """``calibrate``, each sample stored as (time it ended, seconds)."""
    samples: list[float] = []
    calibrate(samples, repeats)
    marks += [(time.perf_counter(), t) for t in samples]


def run_rounds(workload, first_ops, seconds: float | None, rounds: int | None,
               calibration: list[tuple[float, float]] | None = None) -> list[list[Outcome]]:
    """Whole cycles of rounds until ``seconds`` of op time and MIN_OPS ops, or ``rounds``.

    Garbage is collected between rounds, outside the timing, so no round
    pays for collecting what an earlier round left.  When ``calibration`` is
    given, the machine is calibrated three times before the first round and
    after every round, and once between ops whenever CALIBRATE_EVERY_S has
    passed since the last sample, all outside the timing, because its speed
    changes within a round (see ``timing_metrics``)."""
    done: list[list[Outcome]] = []
    timed, count, ops = 0.0, 0, first_ops
    if calibration is not None:
        calibrate_at(calibration, 3)
    while True:
        outcomes = []
        for op in ops:
            latency, out, error = run_op(op)
            end = time.perf_counter()
            outcomes.append(judge(op, latency, out, error))
            outcomes[-1].end = end
            if calibration is not None and time.perf_counter() - calibration[-1][0] >= CALIBRATE_EVERY_S:
                calibrate_at(calibration, 1)
        done.append(outcomes)
        gc.collect()
        if calibration is not None:
            calibrate_at(calibration, 3)
        timed += sum(o.latency for o in outcomes)
        count += len(outcomes)
        if rounds is not None and len(done) >= rounds:
            return done
        if rounds is None and timed >= seconds and count >= MIN_OPS and len(done) % workload.CYCLE == 0:
            return done
        ops = workload.round(len(done))


def defect_state(outcome: Outcome, symptom: str) -> str:
    """"present" while the defect fails with its symptom, "fixed" once its op
    answers correctly, else what went wrong (which makes the run incorrect)."""
    if outcome.status == "ok":
        return "fixed"
    if outcome.status == "failed" and symptom in outcome.reason:
        return "present"
    return f"{outcome.status}: {outcome.reason}"


def probe_defects(workload, tracer=None) -> dict[str, str]:
    """Run each known defect's op once, untimed and outside the op counts."""
    return {d.name: defect_state(judge(d.op, *run_op(d.op, tracer)), d.symptom) for d in workload.defects()}


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


def reference_digest(workload_cls, pm, workdir: Path) -> str:
    """Digest of round 0 of the reference seed; compared with golden.json."""
    workload = workload_cls(pm, REFERENCE_SEED, workdir)
    return digest(judge(op, *run_op(op)).digest for op in workload.round(0))


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def summarize(outcomes: list[Outcome]) -> dict:
    by_kind: dict[str, list[float]] = {}
    failures: dict[str, int] = {}
    for o in outcomes:
        by_kind.setdefault(o.kind, []).append(o.latency)
        if o.status != "ok":
            key = f"{o.kind} [{o.status}] {o.reason}"
            failures[key] = failures.get(key, 0) + 1
    return {
        "ops_per_kind": {k: len(v) for k, v in by_kind.items()},
        "median_ms_per_kind": {k: 1000 * statistics.median(v) for k, v in by_kind.items()},
        "failures": failures,
    }


def timing_metrics(done: list[list[Outcome]], calibration: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Rate and latency percentiles over every attempted op of the run, each
    latency scaled to the reference machine speed by the three calibration
    samples just before the op and the three just after it (see
    ``run_rounds``); the extra dict keeps them as measured."""
    latencies = sorted(o.latency for r in done for o in r)
    p90 = percentile(latencies, 90)
    measured = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000 * percentile(latencies, 50),
        "op_p90_ms": 1000 * p90,
    }
    ends = [t for t, _ in calibration]

    def around(o: Outcome) -> list[float]:
        before, after = bisect.bisect_left(ends, o.end - o.latency), bisect.bisect_left(ends, o.end)
        return [t for _, t in calibration[max(0, before - 3):before] + calibration[after:after + 3]]

    rescaled = sorted(scaled(o.latency, around(o)) for r in done for o in r)
    metrics = {
        "ops_per_s": len(rescaled) / sum(rescaled),
        "op_p50_ms": 1000 * percentile(rescaled, 50),
        "op_p90_ms": 1000 * percentile(rescaled, 90),
    }
    extra = {
        "measured": measured,
        "latency_samples": len(latencies),
        "samples_beyond_p90": sum(x > p90 for x in latencies),
        "round_op_s": [sum(o.latency for o in r) for r in done],
        "timed_op_s": sum(latencies),
    }
    return metrics, extra


def growth_curves(pm) -> dict[str, float]:
    """Untraced single timings: bounds against m, graph range against refine."""
    out = {}
    for m in GROWTH_M:
        start = time.perf_counter()
        pm.stats.bounds(m, m // 3, Fraction(1, 20))
        out[f"stats.bounds_s.m{m:02d}"] = time.perf_counter() - start
    nb = pm.neighborhoods
    for refine in GROWTH_REFINE:
        req = nb.GraphRangeRequest(nb.SQUARING_MAP, 4, 4, refine, 3)
        start = time.perf_counter()
        nb.enumerate_graph_range(req)
        out[f"neighborhoods.graph_range_s.refine{refine}"] = time.perf_counter() - start
    return out


def traced_run(name: str, pm, workload, first_ops, stamp: str) -> tuple[list[Outcome], dict, dict]:
    """The first TRACE_ROUNDS rounds untraced, then again traced."""
    rounds = TRACE_ROUNDS[name]
    plain = [o for r in run_rounds(workload, first_ops, None, rounds) for o in r]
    tracer = Tracer({layer: getattr(pm, layer) for layer in LAYERS}, pm.package)
    ops = [op for r in range(rounds) for op in workload.round(r)]
    gc.collect()
    tracer.install()
    try:
        raw = [(op, *run_op(op, tracer)) for op in ops]
        defects = probe_defects(workload, tracer)
    finally:
        tracer.uninstall()
    traced = [judge(op, latency, out, error) for op, latency, out, error in raw]
    del raw
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = sum(o.latency for o in traced) / sum(o.latency for o in plain)
    metrics.update(growth_curves(pm))
    spans_file = OUT / f"spans-{stamp}.jsonl"
    with open(spans_file, "w") as f:
        f.write(json.dumps(["id", "op", "name", "start", "end", "parent"]) + "\n")
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")
    extra = {
        "trace_rounds": rounds,
        "defects": defects,
        "untraced_op_s": sum(o.latency for o in plain),
        "traced_op_s": sum(o.latency for o in traced),
        "untraced_digest": digest(o.digest for o in plain),
        "traced_digest": digest(o.digest for o in traced),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "spans": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
    }
    return plain + traced, metrics, extra


def run_workload(args) -> int:
    if not (SRC / "physmodels" / "__init__.py").is_file():
        print(f"error: no physmodels sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload_cls = WORKLOADS[args.workload]
    units = metric_units()
    OUT.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    stamp = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        calibration: list[float] = []
        calibrate(calibration)
        # A traced run reports no set-up time.
        setup_samples = [] if args.trace else [sample_set_up(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
        pm, workload, first_ops = set_up(workload_cls, args.seed, workdir)

        extra: dict = {}
        if args.trace:
            outcomes, metrics, extra = traced_run(args.workload, pm, workload, first_ops, stamp)
            rounds = extra["trace_rounds"]
            extra["calibration_s"] = calibration
            extra["digests_agree"] = extra["untraced_digest"] == extra["traced_digest"]
        else:
            marks: list[tuple[float, float]] = []
            done = run_rounds(workload, first_ops, args.seconds, None, marks)
            outcomes, rounds = [o for r in done for o in r], len(done)
            metrics, extra = timing_metrics(done, marks)
            calibration += [t for _, t in marks]
            extra["defects"] = probe_defects(workload)
            extra["measured"]["setup_s"] = statistics.median(t for t, _ in setup_samples)
            bad = sum(o.status != "ok" for o in outcomes)
            metrics = {
                "setup_s": statistics.median(scaled(t, cal) for t, cal in setup_samples),
                **metrics,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_ops_ratio": (len(outcomes) - bad) / len(outcomes),
            }
            extra.update({
                "setup_samples_s": setup_samples,
                "calibration_s": calibration,
                "failed_ops_ratio": bad / len(outcomes),
                "round0_digest": digest(o.digest for o in done[0]),
            })
        reference = reference_digest(workload_cls, pm, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    golden = json.loads((BENCH / "golden.json").read_text()).get(args.workload)
    failed = sum(o.status != "ok" for o in outcomes)
    wrong = [o for o in outcomes if o.status == "wrong"]
    defects = extra["defects"]
    correct = (not failed and reference == golden and extra.get("digests_agree", True)
               and all(state in ("present", "fixed") for state in defects.values()))
    summary = summarize(outcomes)
    results = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "machine": machine_info(), "rounds": rounds, "attempted": len(outcomes), "failed": failed,
        **summary, "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "reference_digest": reference, "golden_digest": golden, "correct": correct, **extra,
        "wrong": [f"{o.kind}: {o.reason}" for o in wrong[:20]],
    }
    (OUT / f"results-{stamp}.json").write_text(json.dumps(results, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(outcomes)} ops in {rounds} rounds")
    print(f"  machine: {results['machine']}")
    print(f"  ops per kind: {summary['ops_per_kind']}")
    for key, value in metrics.items():
        print(f"  {key:42s} {value:14.6g} {units[key]}")
    if not args.trace:
        print(f"  as measured, before scaling by the calibration ({1000 * statistics.median(calibration):.3g} ms,"
              f" reference {1000 * CALIBRATION_REF_S:.3g} ms): {extra['measured']}")
        print(f"  latency samples {extra['latency_samples']}, {extra['samples_beyond_p90']} beyond p90")
        print(f"  failed_ops_ratio {extra['failed_ops_ratio']:.6g} ({failed} failed / {len(outcomes)} attempted)")
    for reason, count in summary["failures"].items():
        print(f"  failure x{count}: {reason}")
    for name, state in defects.items():
        print(f"  known defect, run once after the timed ops: {name}: {state}")
    print(f"  reference digest {'matches' if reference == golden else 'DIFFERS from'} golden.json")
    print(json.dumps({
        "correct": correct, "attempted": len(outcomes), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    rows = {}
    for name in ("estimate", "graph", "model"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        sys.stderr.write(proc.stderr)
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(rows["estimate"]["metrics"])
    print(f"{'metric':42s} {'unit':6s}" + "".join(f"{w:>14s}" for w in rows))
    for key in names:
        unit = rows["estimate"]["metrics"][key]["unit"]
        print(f"{key:42s} {unit:6s}" + "".join(f"{rows[w]['metrics'][key]['value']:14.6g}" for w in rows))
    for w, row in rows.items():
        ratio = row["failed"] / row["attempted"]
        print(f"{w}: correct={row['correct']} failed_ops_ratio={ratio:.6g} ({row['failed']} failed / {row['attempted']} attempted)")
    print(json.dumps(rows))
    return 0


def record_golden() -> int:
    """Write golden.json: the reference digest of each workload at this commit."""
    sys.path.insert(0, str(SRC))
    golden = {}
    for name, cls in WORKLOADS.items():
        workdir = WORK / f"golden-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            golden[name] = reference_digest(cls, import_physmodels(), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    print(json.dumps(golden))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("estimate", "graph", "model", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="record the reference digests of every workload and exit")
    args = parser.parse_args()
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
