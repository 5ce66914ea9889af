"""tsred benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Single process, single thread, closed loop: each call into tsred starts only
after the previous one returned; all times are wall clock (perf_counter).
Set-up and call times are scaled to a reference machine speed measured by a
short calibration loop around each (see speed.py); the raw times are noted.

--trace 0 prints the end-to-end metrics: set-up time (median of several
set-ups), one pass over the call list (the sum of each call's median over
the passes) and peak memory.
--trace 1 prints the per-layer metrics: per-family latencies from untraced
passes, then self times and counts from one traced set-up and one traced pass.

The last stdout line is the result object; the line before it holds machine
notes.  Every answer is checked independently (see check.py), and passes at
one seed must agree exactly; each failed check counts one failed operation.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_MIN_REPS = 3  # set-up repeats at least this often and for at least
SETUP_MIN_SECONDS = 3.0  # this long; setup_s is the median
MIN_PASSES = 3
P90_MIN_SAMPLES = 100
NOTE = "single process, single thread, closed loop, wall clock scaled to reference speed"
ORACLE_LAYERS = ("oracle.minimum_cover", "oracle.enumerate_minimum_covers")


@dataclass
class Pass:
    wall: float  # the sum of the raw call times
    times: list[float]  # each call's time at reference speed
    answers: list | None  # kept for the first pass only, see settle()
    errors: dict[int, str]
    counters: dict[str, float]
    differs: list[int] = field(default_factory=list)


def settle(p: Pass, first: Pass) -> Pass:
    """Note which calls a later pass answered unlike the first pass, then
    drop its answers, so memory does not grow with the number of passes."""
    p.differs = [i for i, a in enumerate(p.answers)
                 if i not in p.errors and (i in first.errors or a != first.answers[i])]
    p.answers = None
    return p


def fresh_import():
    """Import tsred from src/ anew, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "tsred" or m.startswith("tsred.")]:
        del sys.modules[name]
    tsred = importlib.import_module("tsred")
    importlib.import_module("tsred.cli")
    if Path(tsred.__file__).resolve().parent != SRC / "tsred":
        raise ImportError(f"tsred imported from {tsred.__file__}, not from {SRC}")
    return tsred


def run_pass(plan, observer, calibrated: bool = True) -> Pass:
    """One pass over the call list.  Only the calls are timed; a calibration
    runs before the first call and after each, and answers are converted
    after the loop.  A traced pass is not calibrated (its times stay raw)."""
    calls = plan.calls
    raw: list = [None] * len(calls)
    times = [0.0] * len(calls)
    calibrate = speed.calibrate if calibrated else lambda: speed.REFERENCE_S
    marks = [calibrate()]
    errors: dict[int, str] = {}
    clock = time.perf_counter
    for i, call in enumerate(calls):
        t0 = clock()
        try:
            raw[i] = call.run()
        except Exception as exc:  # a failing call is counted, the pass goes on
            errors[i] = f"{type(exc).__name__}: {exc}"
        times[i] = clock() - t0
        marks.append(calibrate())
    scaled = [speed.scale(t, a, b) for t, a, b in zip(times, marks, marks[1:])]
    answers = [None if i in errors else c.answer(r) for i, (c, r) in enumerate(zip(calls, raw))]
    return Pass(sum(times), scaled, answers, errors, search_counters(*observer.take()))


def search_counters(fis_results, sa_results) -> dict[str, float]:
    """Seed-determined counters read from the FIS and SA result objects."""

    def useful(history):  # iterations up to the one that reached the final best
        return history.index(history[-1]) + 1 if history else 0

    iters = sum(len(r.history) for r in fis_results)
    steps = sum(len(r.history) for r in sa_results)
    ops = [op for r in fis_results for op in r.operators]
    switches = sum(a != b for r in fis_results for a, b in zip(r.operators, r.operators[1:]))
    out = {f"fis.op.{op}.share": ops.count(op) / len(ops) if ops else 0.0
           for op in ("swap", "insertion", "reversal", "crossover")}
    out["fis.iterations"] = iters
    gaps = iters - len(fis_results)  # operator decisions between iterations
    out["fis.switch_ratio"] = switches / gaps if gaps > 0 else 0.0
    out["fis.last_improvement_ratio"] = (
        sum(useful(r.history) for r in fis_results) / iters if iters else 0.0
    )
    out["baselines.sa.steps"] = steps
    out["baselines.sa.last_improvement_ratio"] = (
        sum(useful(r.history) for r in sa_results) / steps if steps else 0.0
    )
    return out


def failures(plan, passes: list[Pass]) -> tuple[int, int, list[str]]:
    """(attempted, failed, first few problems).  A call fails if it raised,
    if its answer fails a check (answers equal to the first pass's share its
    verdict), or if a later pass answers it differently; a later pass also
    fails once if its search counters differ."""
    attempted = plan.setup_checks
    failed = len(plan.setup_problems)
    problems = list(plan.setup_problems)
    first = passes[0]
    verdicts = [
        [first.errors[i]] if i in first.errors else call.check(first.answers[i], first.answers)
        for i, call in enumerate(plan.calls)
    ]
    for n, p in enumerate(passes):
        attempted += len(plan.calls)
        for i, call in enumerate(plan.calls):
            if i in p.errors:
                bad = [p.errors[i]]
            elif n and i in p.differs:
                bad = ["answer differs from the first pass"]
            else:
                bad = verdicts[i]
            if bad:
                failed += 1
                problems.append(f"pass {n} call {i} ({call.family} on {call.key}): {bad[0]}")
        if n:
            attempted += 1
            if p.counters != first.counters:
                failed += 1
                problems.append(f"pass {n}: search counters differ from the first pass")
    return attempted, failed, problems[:10]


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def measure(plan, observer, seconds: float) -> list[Pass]:
    """Untraced passes until the window is spent, and at least MIN_PASSES.
    Each starts after a full garbage collection, so no pass pays for the
    garbage of the one before."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        gc.collect()
        p = run_pass(plan, observer)
        passes.append(settle(p, passes[0]) if passes else p)
    return passes


def call_times(passes: list[Pass]) -> list[float]:
    """Each call's median time at reference speed over the passes, so that
    neither an interrupt during the call nor one during a calibration
    moves it."""
    return [statistics.median(ts) for ts in zip(*(p.times for p in passes))]


def end_to_end(setups, passes) -> tuple[dict, dict, dict]:
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "sweep_s": (sum(call_times(passes)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {"setup_s": len(setups), "sweep_s": len(passes)}
    raw = {"setup_s": statistics.median(r for _, r in setups),
           "sweep_s": statistics.median(p.wall for p in passes)}
    return metrics, samples, raw


def family_metrics(plan, passes) -> tuple[dict, dict]:
    """Per-family latency and throughput from untraced passes."""
    by_family: dict[str, list[float]] = {}
    for p in passes:
        for call, t in zip(plan.calls, p.times):
            by_family.setdefault(call.family, []).append(t * 1000.0)

    def rate(families):
        ts = [t for f in families for t in by_family.get(f, [])]
        return 1000.0 * len(ts) / sum(ts) if ts else 0.0

    def pct(family, q):
        ts = by_family.get(family, [])
        if not ts or (q > 50 and len(ts) < P90_MIN_SAMPLES):
            return 0.0
        return percentile(ts, q)

    m = {
        "fis.runs_per_s": (rate(["fis"]), "1/s"),
        "fis.run_ms.p50": (pct("fis", 50), "ms"),
        "fis.run_ms.p90": (pct("fis", 90), "ms"),
        "sa.runs_per_s": (rate(["sa"]), "1/s"),
        "sa.run_ms.p50": (pct("sa", 50), "ms"),
        "sa.run_ms.p90": (pct("sa", 90), "ms"),
        "greedy.runs_per_s": (rate(["ge", "gre", "hgs"]), "1/s"),
        "oracle.solves_per_s": (rate(["oracle.solve"]), "1/s"),
        "oracle.solve_ms.p50": (pct("oracle.solve", 50), "ms"),
        "oracle.solve_ms.p90": (pct("oracle.solve", 90), "ms"),
        "oracle.enumerate_ms.p50": (pct("oracle.enumerate", 50), "ms"),
        "fis.mean_excess": (plan.excess("fis", passes[0].answers), "tests"),
        "sa.mean_excess": (plan.excess("sa", passes[0].answers), "tests"),
    }
    enumerated = [a for c, a in zip(plan.calls, passes[0].answers)
                  if c.family == "oracle.enumerate" and a is not None]
    m["oracle.covers_found"] = (sum(len(a[1]) for a in enumerated), "count")
    m["oracle.capped_share"] = (
        sum(not a[2] for a in enumerated) / len(enumerated) if enumerated else 0.0, "ratio")
    samples = {f"{f}.run_ms": len(ts) for f, ts in sorted(by_family.items())}
    return m, samples


def layer_metrics(summary, setup_summary, counters, probe, traced_wall, untraced_wall) -> dict:
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def per_call_us(name, count=None):
        n = get(name, "calls") if count is None else count
        return 1e6 * get(name, "self_s") / n if n else 0.0

    layer_self = sum(v["self_s"] for k, v in summary.items() if not k.startswith("perfbench."))
    oracle_self = sum(get(n, "self_s") for n in ORACLE_LAYERS)
    steps = counters["baselines.sa.steps"]
    iters = counters["fis.iterations"]
    m = {
        "core.objective.calls": (get("core.objective", "calls"), "count"),
        "core.objective.self_s": (get("core.objective", "self_s"), "s"),
        "core.objective.us_per_call": (per_call_us("core.objective"), "us"),
        "core.objective.share": (get("core.objective", "self_s") / traced_wall, "ratio"),
        "core.decode.calls": (get("core.decode", "calls"), "count"),
        "core.is_cover.calls": (get("core.is_cover", "calls"), "count"),
        "core.is_cover.self_s": (get("core.is_cover", "self_s"), "s"),
        "core.validate_instance.self_s": (get("core.validate_instance", "self_s"), "s"),
        "fuzzy.infer.calls": (get("fuzzy.infer", "calls"), "count"),
        "fuzzy.infer.self_s": (get("fuzzy.infer", "self_s"), "s"),
        "fuzzy.infer.us_per_call": (per_call_us("fuzzy.infer"), "us"),
        "fuzzy.infer.share": (get("fuzzy.infer", "self_s") / traced_wall, "ratio"),
        "fuzzy.default_rule_base.self_s": (get("fuzzy.default_rule_base", "self_s"), "s"),
        "fis.apply_operator.calls": (get("fis.apply_operator", "calls"), "count"),
        "fis.apply_operator.self_s": (get("fis.apply_operator", "self_s"), "s"),
        "fis.apply_operator.us_per_call": (per_call_us("fis.apply_operator"), "us"),
        "fis.measure.self_s": (get("fis.measure", "self_s"), "s"),
        "fis.run_fis.self_s": (get("fis.run_fis", "self_s"), "s"),
        "fis.iteration_us": (1e6 * get("fis.run_fis", "total_s") / iters if iters else 0.0, "us"),
        "baselines.sa.self_s": (get("baselines.sa", "self_s"), "s"),
        "baselines.sa.us_per_step": (per_call_us("baselines.sa", steps), "us"),
        "baselines.sa.tail_swap_ratio": (probe.ratio, "ratio"),
        "baselines.swap_at.calls": (get("baselines.swap_at", "calls"), "count"),
        "oracle.minimum_cover.self_s": (get("oracle.minimum_cover", "self_s"), "s"),
        "oracle.enumerate_minimum_covers.self_s": (get(ORACLE_LAYERS[1], "self_s"), "s"),
        "oracle.share": (oracle_self / traced_wall, "ratio"),
        "io.parse_instance.self_s": (get("io.parse_instance", "self_s"), "s"),
        "io.write_report.self_s": (get("io.write_report", "self_s"), "s"),
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "bench.run_algorithm.self_s": (get("bench.run_algorithm", "self_s"), "s"),
        "bench.solve_report.self_s": (get("bench.solve_report", "self_s"), "s"),
        "corpus.builtin.self_s": (setup_summary.get("corpus.builtin", {}).get("self_s", 0.0), "s"),
        "setup.oracle.self_s": (
            sum(setup_summary.get(n, {}).get("self_s", 0.0) for n in ORACLE_LAYERS), "s"),
        "trace.sweep_s": (traced_wall, "s"),
        "trace.layer_share": (layer_self / traced_wall, "ratio"),
        "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
    }
    for alg in ("greedy_ge", "greedy_gre", "hgs"):
        m[f"baselines.{alg}.self_s"] = (get(f"baselines.{alg}", "self_s"), "s")
        m[f"baselines.{alg}.us_per_call"] = (per_call_us(f"baselines.{alg}"), "us")
    for key in ("fis.switch_ratio", "fis.last_improvement_ratio", "baselines.sa.steps",
                "baselines.sa.last_improvement_ratio") + tuple(
                    f"fis.op.{op}.share" for op in ("swap", "insertion", "reversal", "crossover")):
        m[key] = (counters[key], "count" if key.endswith("steps") else "ratio")
    return m


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def timed_setups(workload, seed: int, workdir: Path) -> tuple[list, object, object]:
    """Repeated set-ups, each timed between two calibrations, as
    (time at reference speed, raw time) pairs.  Each starts after a full
    garbage collection, which frees the modules and plan of the one before
    (they hold reference cycles), so peak memory does not depend on when the
    collector happened to run."""
    times = []
    while len(times) < SETUP_MIN_REPS or sum(r for _, r in times) < SETUP_MIN_SECONDS:
        gc.collect()
        before = speed.calibrate()
        t0 = time.perf_counter()
        tsred = fresh_import()
        plan = workload.setup(tsred, seed, workdir)
        t = time.perf_counter() - t0
        times.append((speed.scale(t, before, speed.calibrate()), t))
    return times, tsred, plan


def run_untraced(workload, seed, seconds, workdir, notes) -> tuple[dict, list[Pass], object]:
    from tracing import Observer, Patches

    setup_times, tsred, plan = timed_setups(workload, seed, workdir)
    observer, patches = Observer(), Patches(tsred)
    observer.install(patches)
    try:
        passes = measure(plan, observer, seconds)
    finally:
        patches.restore()
    metrics, samples, raw = end_to_end(setup_times, passes)
    notes["samples"] = samples
    notes["raw_s"] = raw
    return metrics, passes, plan


def run_traced(name, workload, seed, seconds, workdir, notes) -> tuple[dict, list[Pass], object]:
    from tracing import HARNESS, Observer, Patches, SwapProbe, Tracer

    tracer = Tracer()
    tsred = fresh_import()
    patches = Patches(tsred)
    tracer.install(patches)
    try:
        plan = tracer.wrap("perfbench.setup", workload.setup)(tsred, seed, workdir)
    finally:
        patches.restore()
    setup_end = len(tracer)

    observer = Observer()
    patches = Patches(tsred)
    observer.install(patches)
    try:
        passes = measure(plan, observer, seconds)
    finally:
        patches.restore()

    probe = SwapProbe()
    patches = Patches(tsred)
    observer.install(patches)
    tracer.install(patches)
    probe.install(patches)
    try:
        traced = tracer.wrap(HARNESS, run_pass)(plan, observer, calibrated=False)
    finally:
        patches.restore()
    passes.append(settle(traced, passes[0]))

    summary = tracer.summary(setup_end, len(tracer))
    traced_wall = summary[HARNESS]["total_s"]
    untraced_wall = statistics.median(p.wall for p in passes[:-1])
    metrics, samples = family_metrics(plan, passes[:-1])
    metrics.update(layer_metrics(summary, tracer.summary(0, setup_end), traced.counters,
                                 probe, traced_wall, untraced_wall))
    trace_file = OUT / f"trace-{name}-seed{seed}.npz"
    tracer.save(trace_file)
    notes["samples"] = samples
    notes["spans"] = len(tracer)
    notes["trace_file"] = str(trace_file.relative_to(ROOT))
    notes["unwrapped"] = patches.missing
    return metrics, passes, plan


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tsred" / "__init__.py").is_file():
        print(f"perfbench: no tsred sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    workload = WORKLOADS[args.workload]()
    notes = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "method": NOTE,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            metrics, passes, plan = run_traced(
                args.workload, workload, args.seed, args.seconds, workdir, notes)
        else:
            metrics, passes, plan = run_untraced(
                workload, args.seed, args.seconds, workdir, notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, problems = failures(plan, passes)
    notes["passes"] = len(passes)
    notes["calls_per_pass"] = len(plan.calls)
    notes["problems"] = problems
    print(json.dumps({"notes": notes}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
