"""Command line front end.

Exit codes: 0 success (or VALID), 1 INVALID selection, 2 usage error,
3 instance error (missing, unparseable, or structurally invalid).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import os
import sys
from pathlib import Path

from . import oracle
from .baselines import SAParams
from .bench import ALGORITHMS, bench_suite, render_tables, solve_report, summary_json
from .core import Instance, InvalidInstanceError, ParameterError, is_cover, reduction_percent
from .corpus import UnknownBenchmarkError, builtin, builtin_names
from .fis import FISConfig
from .fuzzy import RuleBase
from .io import ParseError, parse_instance, rule_base_from_json, write_report
from .oracle import enumerate_minimum_covers, minimum_cover

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_INSTANCE = 3

RULEBASE_ENV = "TSRED_RULEBASE"


class _InstanceError(Exception):
    pass


class _UsageError(Exception):
    pass


def _load_instance(source: str) -> Instance:
    try:
        if source.startswith("builtin:"):
            return builtin(source[len("builtin:") :])
        return parse_instance(Path(source).read_bytes()).to_instance()
    except UnknownBenchmarkError as exc:
        raise _InstanceError(f"{exc} (available: {', '.join(builtin_names())})") from exc
    except OSError as exc:
        raise _InstanceError(f"cannot read instance file: {exc}") from exc
    except (ParseError, InvalidInstanceError) as exc:
        raise _InstanceError(str(exc)) from exc


def _rule_base_from_env() -> RuleBase | None:
    path = os.environ.get(RULEBASE_ENV)
    if not path:
        return None
    try:
        return rule_base_from_json(Path(path).read_bytes())
    except (OSError, ValueError) as exc:
        raise _UsageError(f"bad {RULEBASE_ENV}: {exc}") from exc


def _check_output(output: str | None) -> None:
    """Refuse an `output` path that cannot be written before any solver runs,
    leaving the path as it was: opening for appending changes no existing
    file, and one it creates (through a symlink too) is removed again.
    `_emit` writes the result."""
    if output:
        try:
            existed = os.path.exists(output)
            with open(output, "a"):
                pass
            if not existed:
                os.remove(os.path.realpath(output))
        except OSError as exc:
            raise _UsageError(f"cannot write output: {exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            raise _UsageError(f"cannot write output: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    fis_config = FISConfig(
        population_size=args.population,
        max_iterations=args.iterations,
        rule_base=_rule_base_from_env(),
    )
    sa_params = SAParams(alpha=args.alpha, t_initial=args.t_initial)
    _check_output(args.output)
    report = solve_report(
        instance,
        args.algorithm,
        seed=args.seed,
        runs=args.runs,
        fis_config=fis_config,
        sa_params=sa_params,
    )
    _emit(write_report(report, instance), args.output)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    if args.cap < 1:  # refused even without --enumerate, the one mode that reads it
        raise ParameterError("cap must be positive")
    if args.enumerate:
        result = enumerate_minimum_covers(instance, cap=args.cap)
    else:
        result = minimum_cover(instance)
    size = result.minimum_size
    reduction = f"{reduction_percent(instance.n, size)}%"
    if not result.complete and result.covers is None:  # stopped before k was proven minimal
        size = f"at most {size} (search stopped at the node limit)"
        reduction = f"at least {reduction}"
    print(f"instance: {instance.name}")
    print(f"minimum size: {size}")
    print(f"reduction: {reduction}")
    print(f"witness: {', '.join(instance.ids(sorted(result.witness)))}")
    print(f"nodes: {result.nodes}")
    if result.covers is not None:
        cause = "the node limit" if result.nodes > oracle.MAX_NODES else f"cap {args.cap}"
        suffix = "" if result.complete else f" (stopped at {cause})"
        print(f"minimum covers: {len(result.covers)}{suffix}")
        for cover in result.covers:
            print("  " + ", ".join(instance.ids(sorted(cover))))
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    ids = [s.strip() for s in args.selection.split(",") if s.strip()]
    try:
        selection = [instance.index_of[t] for t in ids]
    except KeyError as exc:
        raise _UsageError(f"unknown test id {exc.args[0]!r} for {instance.name}") from exc
    if is_cover(instance, selection):
        reduction = reduction_percent(instance.n, len(set(selection)))
        print(f"VALID: {len(set(selection))} tests cover all {instance.m} requirements "
              f"(reduction {reduction}%)")
        return EXIT_OK
    missing = [req.id for req in instance.requirements if req.candidates.isdisjoint(selection)]
    print(f"INVALID: uncovered requirements: {', '.join(missing)}")
    return EXIT_INVALID


def _cmd_bench(args: argparse.Namespace) -> int:
    fis_config = FISConfig(rule_base=_rule_base_from_env())
    _check_output(args.output)
    summary = bench_suite(runs=args.runs, seed=args.seed, fis_config=fis_config)
    sys.stdout.write(render_tables(summary))
    if args.output:
        _emit(summary_json(summary), args.output)
    return EXIT_OK


def _default(function, name: str):
    """The library's own default for one keyword of `function`."""
    return inspect.signature(function).parameters[name].default


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it holds only constants and the
    `_cmd_*` functions, which look up the library when they run."""
    parser = argparse.ArgumentParser(
        prog="tsred", description="Test redundancy reduction toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance(p):
        p.add_argument(
            "--instance",
            required=True,
            metavar="FILE|builtin:NAME",
            help="instance JSON file, or one of: "
            + ", ".join(f"builtin:{n}" for n in builtin_names()),
        )

    p_solve = sub.add_parser("solve", help="run a reducer and print a run report")
    add_instance(p_solve)
    p_solve.add_argument("--algorithm", choices=ALGORITHMS, default="fis")
    p_solve.add_argument("--seed", type=int, default=_default(solve_report, "seed"))
    p_solve.add_argument("--runs", type=int, default=_default(solve_report, "runs"))
    p_solve.add_argument("--population", type=int, default=FISConfig.population_size)
    p_solve.add_argument("--iterations", type=int, default=FISConfig.max_iterations)
    p_solve.add_argument("--alpha", type=float, default=SAParams.alpha)
    p_solve.add_argument("--t-initial", type=float, default=SAParams.t_initial)
    p_solve.add_argument("--output", help="write the report here instead of stdout")
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="exact minimum cover")
    add_instance(p_oracle)
    p_oracle.add_argument("--enumerate", action="store_true", help="list all minimum covers")
    cap = _default(enumerate_minimum_covers, "cap")
    p_oracle.add_argument("--cap", type=int, default=cap, help="enumeration limit")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_val = sub.add_parser("validate", help="check a comma separated test selection")
    add_instance(p_val)
    p_val.add_argument("--selection", required=True, metavar="t1,t2,...")
    p_val.set_defaults(func=_cmd_validate)

    p_bench = sub.add_parser("bench", help="sweep all algorithms over the bundled instances")
    p_bench.add_argument("--runs", type=int, default=_default(bench_suite, "runs"))
    p_bench.add_argument("--seed", type=int, default=_default(bench_suite, "seed"))
    p_bench.add_argument("--output", help="also write a machine readable JSON summary")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (_UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSTANCE


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
