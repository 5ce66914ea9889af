"""The three workloads.

Each ``setup`` builds a ``Plan``: the inputs, reference minima, one warm-up
call per solver, and the call list that one pass runs.  A call invokes tsred
through a module attribute looked up at call time (``tsred.bench.run_algorithm``,
``tsred.cli.main``, ``tsred.oracle.minimum_cover``), so trace wrappers see it.
Every answer is checked with ``check.Checker``, never with tsred's own code.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
from check import BUNDLED_MINIMA, Checker

ALGORITHMS = ("fis", "sa", "ge", "gre", "hgs")
BUNDLED_RUNS = 15  # runs per (instance, algorithm), as in bench_suite
WIDE_RUNS = 2  # CLI solves per (suite, algorithm), each with its own solver seed
ENUMERATE_CAP = 1000  # default of `tsred oracle --cap`


@dataclass(frozen=True)
class BadAnswer:
    reason: str


@dataclass
class Call:
    family: str  # an algorithm name, "oracle.solve" or "oracle.enumerate"
    key: str  # instance name
    run: Callable[[], object]
    answer: Callable[[object], object]
    check: Callable[[object, list], list[str]]


@dataclass
class Plan:
    calls: list[Call] = field(default_factory=list)
    minima: dict[str, int] = field(default_factory=dict)
    setup_checks: int = 0
    setup_problems: list[str] = field(default_factory=list)

    def excess(self, family: str, answers: list) -> float:
        """Mean selected size minus the reference minimum over one family."""
        gaps = [
            len(a) - self.minima[c.key]
            for c, a in zip(self.calls, answers)
            if c.family == family and isinstance(a, tuple)
        ]
        return sum(gaps) / len(gaps) if gaps else 0.0


def _selection_call(family, key, run, checker, minimum, answer=tuple) -> Call:
    def check(ans, _answers):
        if isinstance(ans, BadAnswer):
            return [ans.reason]
        return checker.selection_problems(ans, minimum)

    return Call(family, key, run, answer, check)


def _solve_call(tsred, key, inst, checker, expected=None) -> Call:
    def answer(result):
        return result.minimum_size, tuple(sorted(inst.tests[j] for j in result.witness))

    def check(ans, _answers):
        size, witness = ans
        problems = checker.minimum_problems(size, witness)
        if expected is not None and size != expected:
            problems.append(f"minimum {size}, reference {expected}")
        return problems

    run = lambda: tsred.oracle.minimum_cover(inst)  # noqa: E731
    return Call("oracle.solve", key, run, answer, check)


def _enumerate_call(tsred, key, inst, checker, solve_index) -> Call:
    def answer(result):
        covers = tuple(tuple(sorted(inst.tests[j] for j in c)) for c in result.covers)
        return result.minimum_size, covers, result.complete

    def check(ans, answers):
        size, covers, complete = ans
        minimum, witness = answers[solve_index]
        return checker.enumeration_problems(
            size, covers, complete, ENUMERATE_CAP, minimum, witness
        )

    run = lambda: tsred.oracle.enumerate_minimum_covers(inst, cap=ENUMERATE_CAP)  # noqa: E731
    return Call("oracle.enumerate", key, run, answer, check)


def _run_algorithm(tsred, inst, alg, seed):
    return tsred.bench.run_algorithm(inst, alg, seed)


class BundledSweep:
    """Every algorithm on the five bundled instances, bench_suite protocol:
    per instance one minimum_cover, then run_algorithm(inst, alg, seed + k)."""

    def setup(self, tsred, seed: int, workdir: Path) -> Plan:
        plan = Plan()
        for name in BUNDLED_MINIMA:
            inst = tsred.corpus.builtin(name)
            doc = tsred.corpus.builtin_document(name)
            checker = Checker(doc.tests, [(r.id, r.candidates) for r in doc.requirements])
            minimum = tsred.oracle.minimum_cover(inst).minimum_size
            plan.minima[name] = minimum
            plan.setup_checks += 1
            if minimum != BUNDLED_MINIMA[name]:
                plan.setup_problems.append(
                    f"{name}: minimum {minimum}, published {BUNDLED_MINIMA[name]}"
                )
            plan.calls.append(_solve_call(tsred, name, inst, checker, BUNDLED_MINIMA[name]))
            for alg in ALGORITHMS:
                for k in range(BUNDLED_RUNS):
                    plan.calls.append(_selection_call(
                        alg, name, functools.partial(_run_algorithm, tsred, inst, alg, seed + k),
                        checker, minimum))
        warm = tsred.corpus.builtin("experiment-4")
        for alg in ALGORITHMS:
            tsred.bench.run_algorithm(warm, alg, seed)
        return plan


class WideSuites:
    """Seeded 48x120 suites solved through ``tsred solve`` (cli.main) by all
    five algorithms; each report is read back with the json module.

    FIS's first operator, which sets most of a run's cost, follows mostly
    from the solver seed, so every suite gets its own solver seeds: 32
    distinct seeds per pass, not 2 shared ones, keep the operator mix, and
    so the pass time, from swinging with the workload seed."""

    def setup(self, tsred, seed: int, workdir: Path) -> Plan:
        plan = Plan()
        suites = gen.wide_suites(seed)
        for n, suite in enumerate(suites):
            path = workdir / f"{suite.name}.json"
            path.write_text(suite.to_json())
            inst = tsred.core.validate_instance(suite.name, suite.tests, suite.requirements)
            plan.minima[suite.name] = tsred.oracle.minimum_cover(inst).minimum_size
            checker = Checker(suite.tests, suite.requirements)
            for alg in ALGORITHMS:
                for k in range(WIDE_RUNS):
                    plan.calls.append(self._cli_call(
                        tsred, workdir, suite, path, alg, seed + WIDE_RUNS * n + k, checker, plan))
        for alg in ALGORITHMS:
            out = workdir / f"warm-{alg}.json"
            tsred.cli.main(self._argv(workdir / f"{suites[0].name}.json", alg, seed, out))
        return plan

    @staticmethod
    def _argv(path: Path, alg: str, seed: int, out: Path) -> list[str]:
        return ["solve", "--instance", str(path), "--algorithm", alg, "--seed", str(seed),
                "--output", str(out)]

    def _cli_call(self, tsred, workdir, suite, path, alg, seed, checker, plan) -> Call:
        out = workdir / f"{suite.name}-{alg}-{seed}.report.json"
        argv = self._argv(path, alg, seed, out)

        def answer(code):
            if code != 0:
                return BadAnswer(f"exit code {code}")
            try:
                report = json.loads(out.read_text())
            except (OSError, ValueError) as exc:
                return BadAnswer(f"unreadable report: {exc}")
            finally:
                out.unlink(missing_ok=True)
            expected = {"instance": suite.name, "algorithm": alg, "seed": seed,
                        "total_tests": len(suite.tests)}
            wrong = [k for k, v in expected.items() if report.get(k) != v]
            runs = report.get("runs") or [{}]
            selected = runs[0].get("selected")
            if wrong or len(runs) != 1 or not isinstance(selected, list):
                return BadAnswer(f"report fields wrong: {wrong or 'runs'}")
            if runs[0].get("size") != len(selected) or report.get("best_size") != len(selected):
                return BadAnswer("report sizes disagree with the selection")
            return tuple(selected)

        return _selection_call(alg, suite.name, lambda: tsred.cli.main(argv), checker,
                               plan.minima[suite.name], answer)


class OracleExact:
    """Many seeded 36-test suites; each gets minimum_cover, then
    enumerate_minimum_covers with the CLI's default cap."""

    def setup(self, tsred, seed: int, workdir: Path) -> Plan:
        plan = Plan()
        instances = []
        for suite in gen.oracle_suites(seed):
            inst = tsred.core.validate_instance(suite.name, suite.tests, suite.requirements)
            checker = Checker(suite.tests, suite.requirements)
            plan.calls.append(_solve_call(tsred, suite.name, inst, checker))
            plan.calls.append(
                _enumerate_call(tsred, suite.name, inst, checker, len(plan.calls) - 1)
            )
            instances.append(inst)
        tsred.oracle.minimum_cover(instances[0])
        tsred.oracle.enumerate_minimum_covers(instances[0], cap=ENUMERATE_CAP)
        return plan


WORKLOADS = {
    "bundled-sweep": BundledSweep,
    "wide-suites": WideSuites,
    "oracle-exact": OracleExact,
}
