"""Benchmark harness: run any reducer on an instance, collect repeated-run
reports, and reproduce the result tables for the bundled experiments."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .baselines import SAParams, greedy_ge, greedy_gre, hgs, simulated_annealing
from .core import ALGORITHMS, Instance, ParameterError, check_seed, is_cover
from .corpus import builtin, builtin_names
from .fis import FISConfig, run_fis
from .io import RunReport, RunResult, write_json
from .oracle import minimum_cover

MAX_RUNS = 10_000  # most runs one report or sweep may ask for per (instance, algorithm)


def check_runs(seed: int, runs: int) -> None:
    """Refuse a negative seed (`check_seed`) or a run count outside [1, MAX_RUNS]."""
    check_seed(seed)
    if not 1 <= runs <= MAX_RUNS:
        raise ParameterError(f"runs must lie in [1, {MAX_RUNS}]")


def run_algorithm(
    instance: Instance,
    algorithm: str,
    seed: int = 0,
    *,
    fis_config: FISConfig | None = None,
    sa_params: SAParams | None = None,
) -> tuple[str, ...]:
    """One run of a reducer; returns selected test ids in selection order.

    FIS runs with `fis_config` and SA with `sa_params` (their defaults when
    None), both handed over as they are, with the run's `seed` as their own
    argument.  Reducers are looked up as module globals at call time, so
    replacing one here (to trace or observe it) takes effect.  Every result
    is re-checked with is_cover before it is handed back, so a broken
    reducer fails loudly instead of producing a bogus report.
    """
    if algorithm == "fis":
        selected = run_fis(instance, fis_config, seed=seed).solution.selected
    elif algorithm == "sa":
        selected = simulated_annealing(instance, sa_params, seed=seed).solution.selected
    elif algorithm in ALGORITHMS:
        selected = {"ge": greedy_ge, "gre": greedy_gre, "hgs": hgs}[algorithm](instance)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if not is_cover(instance, selected):
        raise AssertionError(f"{algorithm} returned a non-covering selection")
    return instance.ids(selected)


def solve_report(
    instance: Instance,
    algorithm: str,
    seed: int = 0,
    runs: int = 1,
    *,
    fis_config: FISConfig | None = None,
    sa_params: SAParams | None = None,
    clock=time.perf_counter,
) -> RunReport:
    """Repeated runs as a verifiable report.  Run k of K uses seed + k
    (0-based), so a K-run report at seed s covers seeds s .. s+K-1."""
    check_runs(seed, runs)
    results = []
    for k in range(runs):
        t0 = clock()
        selected = run_algorithm(
            instance, algorithm, seed + k, fis_config=fis_config, sa_params=sa_params
        )
        t1 = clock()
        results.append(RunResult(selected, millis=round((t1 - t0) * 1000.0, 3)))
    return RunReport(instance.name, algorithm, seed, instance.n, runs=tuple(results))


@dataclass(frozen=True)
class BenchSummary:
    """One sweep: the exact minimum of each instance, in suite order, and one
    RunReport per instance x algorithm, in table order."""

    runs: int
    seed: int
    oracle_minimum: dict[str, int]
    reports: tuple[RunReport, ...]


def bench_suite(
    runs: int = 15, seed: int = 1, fis_config: FISConfig | None = None
) -> BenchSummary:
    """Full sweep: every algorithm on every bundled instance, plus the exact
    minimum for reference.  FIS runs with `fis_config`, as in solve_report."""
    check_runs(seed, runs)
    minima: dict[str, int] = {}
    reports = []
    for name in builtin_names():
        inst = builtin(name)
        minima[name] = minimum_cover(inst).minimum_size
        for algorithm in ALGORITHMS:
            reports.append(
                solve_report(inst, algorithm, seed=seed, runs=runs, fis_config=fis_config)
            )
    return BenchSummary(runs=runs, seed=seed, oracle_minimum=minima, reports=tuple(reports))


def render_tables(summary: BenchSummary) -> str:
    """Human-readable tables: best sizes with reduction percentages, then
    mean +/- stddev with mean runtimes."""
    by_key = {(r.instance, r.algorithm): r for r in summary.reports}
    lines = []
    header = f"{'instance':<14}" + "".join(f"{a:>12}" for a in ALGORITHMS) + f"{'exact':>12}"
    lines.append(f"best reduced size over {summary.runs} runs (seed {summary.seed})")
    lines.append(header)
    for name, minimum in summary.oracle_minimum.items():
        row = f"{name:<14}"
        for a in ALGORITHMS:
            report = by_key[(name, a)]
            row += f"{report.best_size:>6} {report.reduction + '%':>5}"
        row += f"{minimum:>12}"
        lines.append(row)
    lines.append("")
    lines.append("mean size +/- stddev (mean ms per run)")
    lines.append(header[: len(f"{'instance':<14}") + 12 * len(ALGORITHMS)])
    for name in summary.oracle_minimum:
        row = f"{name:<14}"
        ms = []
        for a in ALGORITHMS:
            runs = by_key[(name, a)].runs
            sizes = [r.size for r in runs]
            row += f" {statistics.fmean(sizes):>5.2f}+-{statistics.pstdev(sizes):<5.2f}"
            # rounded to the millis' own precision first, so float noise cannot flip a .x5 tie
            ms.append(f"{a}={round(statistics.fmean(r.millis for r in runs), 3):.1f}ms")
        lines.append(row)
        lines.append(f"{'':<14}{'  '.join(ms)}")
    return "\n".join(lines) + "\n"


def summary_json(summary: BenchSummary) -> str:
    """Machine-readable summary.  Runtimes are deliberately excluded so two
    identically seeded sweeps serialize byte for byte."""
    results = []
    for report in summary.reports:
        sizes = [r.size for r in report.runs]
        results.append({
            "instance": report.instance,
            "algorithm": report.algorithm,
            "best_size": report.best_size,
            "best_selected": list(min(report.runs, key=lambda r: r.size).selected),
            "sizes": sizes,
            "mean_size": statistics.fmean(sizes),
            "stddev_size": statistics.pstdev(sizes),
            "reduction_percent": report.reduction,
        })
    return write_json({
        "suite": list(summary.oracle_minimum),
        "runs": summary.runs,
        "seed": summary.seed,
        "oracle_minimum": dict(sorted(summary.oracle_minimum.items())),
        "results": results,
    })
