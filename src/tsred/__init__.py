"""Test redundancy reduction: pick a small subset of a test suite that still
exercises every requirement.

The package bundles five benchmark instances, a fuzzy-controlled search
(`run_fis`), greedy and annealing baselines, an exact branch-and-bound
oracle bounded by the nodes it visits, and a benchmark harness with a CLI.
"""

from .baselines import SAParams, SAResult, greedy_ge, greedy_gre, hgs, simulated_annealing
from .bench import ALGORITHMS, BenchSummary, bench_suite, render_tables, solve_report
from .core import (
    Instance,
    InvalidInstanceError,
    ParameterError,
    Requirement,
    Solution,
    Violation,
    decode,
    instance_violations,
    is_cover,
    objective,
    reduction_percent,
    validate_instance,
)
from .corpus import UnknownBenchmarkError, builtin, builtin_document, builtin_names
from .fis import (
    OPERATORS,
    FISConfig,
    FISResult,
    hamming,
    measure_diversification,
    measure_intensification,
    measure_quality,
    run_fis,
)
from .fuzzy import (
    LinguisticVariable,
    Rule,
    RuleBase,
    Trapezoid,
    centroid,
    default_rule_base,
    infer,
)
from .io import (
    InstanceDocument,
    ParseError,
    RunReport,
    RunResult,
    parse_instance,
    parse_report,
    rule_base_from_json,
    write_instance,
    write_report,
)
from .oracle import OracleResult, enumerate_minimum_covers, minimum_cover, packing_bound

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BenchSummary",
    "FISConfig",
    "FISResult",
    "Instance",
    "InstanceDocument",
    "InvalidInstanceError",
    "LinguisticVariable",
    "OPERATORS",
    "OracleResult",
    "ParameterError",
    "ParseError",
    "Requirement",
    "Rule",
    "RuleBase",
    "RunReport",
    "RunResult",
    "SAParams",
    "SAResult",
    "Solution",
    "Trapezoid",
    "UnknownBenchmarkError",
    "Violation",
    "bench_suite",
    "builtin",
    "builtin_document",
    "builtin_names",
    "centroid",
    "decode",
    "default_rule_base",
    "enumerate_minimum_covers",
    "greedy_ge",
    "greedy_gre",
    "hamming",
    "hgs",
    "infer",
    "instance_violations",
    "is_cover",
    "measure_diversification",
    "measure_intensification",
    "measure_quality",
    "minimum_cover",
    "objective",
    "packing_bound",
    "parse_instance",
    "parse_report",
    "reduction_percent",
    "render_tables",
    "rule_base_from_json",
    "run_fis",
    "simulated_annealing",
    "solve_report",
    "validate_instance",
    "write_instance",
    "write_report",
]
