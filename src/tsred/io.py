"""Every JSON document tsred reads or writes: instances, run reports and the
fuzzy controller's rule base.

    instance:  {"name": "...", "tests": ["t1", ...],
                "requirements": [{"id": "req_1", "candidates": ["t1", "t2"]}, ...]}
    report:    {"instance": "...", "algorithm": "...", "seed": 0, "total_tests": 7,
                "runs": [{"selected": ["t2", "t4", "t1"], "size": 3, "millis": 1.5}],
                "best_size": 3, "reduction_percent": "57.1"}
    rule base: {"variables": {name: {term: [a, b, c, d]}},
                "output": {"name": ..., "terms": {term: [a, b, c, d]}},
                "rules": [{"if": {variable: term}, "then": term}], "samples": 1001}

Every reader takes JSON text or UTF-8 bytes and every writer returns text;
nothing here opens a file (the CLI reads and writes them).
One strict reader parses all three: UTF-8 JSON in which every field has its
JSON type (a boolean is not a number), else a ParseError naming the field.
Semantic checks live in core.validate_instance and the fuzzy dataclasses.
parse_report and write_report judge reports by one rulebook; parse_report also
refuses a stated size, best_size or reduction_percent its runs do not give, and
write_report re-checks every selected set with is_cover before it serializes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from .core import ALGORITHMS, Instance, is_cover, reduction_percent, validate_instance
from .fuzzy import LinguisticVariable, Rule, RuleBase, Trapezoid


class ParseError(ValueError):
    pass


class ParseSyntaxError(ParseError):
    """Malformed JSON; carries the 1-based line and column of the failure."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class MissingFieldError(ParseError):
    def __init__(self, field: str):
        self.field = field
        super().__init__(f"missing field: {field}")


class FieldTypeError(ParseError):
    def __init__(self, field: str, expected: str):
        self.field = field
        super().__init__(f"field {field}: expected {expected}")


class InvalidReportError(ValueError):
    pass


@dataclass(frozen=True)
class RequirementEntry:
    id: str
    candidates: tuple[str, ...]


@dataclass(frozen=True)
class InstanceDocument:
    """Syntactically parsed instance data, not yet semantically validated."""

    name: str
    tests: tuple[str, ...]
    requirements: tuple[RequirementEntry, ...]

    def to_instance(self) -> Instance:
        return validate_instance(
            self.name, self.tests, [(r.id, r.candidates) for r in self.requirements]
        )


def _loads(data: str | bytes) -> Any:
    """One JSON document from text or UTF-8 bytes; anything else is a ParseError."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except ValueError as exc:  # not UTF-8, or an integer too long to convert
        raise ParseError(str(exc)) from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc


def write_json(payload: Any) -> str:
    """The canonical serialization of every document tsred writes."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_NUMBER = (int, float)
_EXPECTED = {dict: "an object", list: "a list", str: "a string", int: "an integer",
             _NUMBER: "a number"}


def _typed(value: Any, kind: Any, path: str) -> Any:
    """`value` itself if it has the JSON type `kind`, else FieldTypeError.
    A number comes back as a float, so one too large for a float is refused."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FieldTypeError(path, _EXPECTED[kind])
    if kind is _NUMBER:
        try:
            return float(value)
        except OverflowError:
            raise FieldTypeError(path, "a number within float range") from None
    return value


def _field(obj: dict, key: str, kind: Any, at: str = "") -> Any:
    """Member `key` of the object at path `at`, which must exist and have type `kind`."""
    path = f"{at}.{key}" if at else key
    if key not in obj:
        raise MissingFieldError(path)
    return _typed(obj[key], kind, path)


def _strings(obj: dict, key: str, at: str = "") -> tuple[str, ...]:
    value = _field(obj, key, list, at)
    if not all(isinstance(v, str) for v in value):
        raise FieldTypeError(f"{at}.{key}" if at else key, "a list of strings")
    return tuple(value)


def parse_instance(data: str | bytes) -> InstanceDocument:
    """Parse an instance document from JSON text or UTF-8 bytes."""
    raw = _typed(_loads(data), dict, "instance")
    name = _field(raw, "name", str)
    tests = _strings(raw, "tests")
    entries = []
    for i, entry in enumerate(_field(raw, "requirements", list)):
        where = f"requirements[{i}]"
        _typed(entry, dict, where)
        entries.append(
            RequirementEntry(_field(entry, "id", str, where), _strings(entry, "candidates", where))
        )
    return InstanceDocument(name, tests, tuple(entries))


def write_instance(doc: InstanceDocument) -> str:
    return write_json({
        "name": doc.name,
        "tests": list(doc.tests),
        "requirements": [
            {"id": r.id, "candidates": list(r.candidates)} for r in doc.requirements
        ],
    })


@dataclass(frozen=True)
class RunResult:
    """One run's best selection: test ids in decoded order (`size` counts them), plus wall time."""

    selected: tuple[str, ...]
    millis: float

    @property
    def size(self) -> int:
        return len(self.selected)


@dataclass(frozen=True)
class RunReport:
    """Repeated runs, as measured; `best_size` and `reduction` derive from `runs`."""

    instance: str
    algorithm: str
    seed: int
    total_tests: int
    runs: tuple[RunResult, ...]

    @property
    def best_size(self) -> int:
        return min(r.size for r in self.runs)

    @property
    def reduction(self) -> str:
        return reduction_percent(self.total_tests, self.best_size)


def _report_problems(report: RunReport, instance: Instance | None = None) -> list[str]:
    """Every rule `report` breaks: on its own terms, and against `instance` when given."""
    problems = []
    if instance is not None and report.instance != instance.name:
        problems.append(f"report names instance {report.instance!r}, got {instance.name!r}")
    if instance is not None and report.total_tests != instance.n:
        problems.append(f"total_tests {report.total_tests} != {instance.n}")
    if report.algorithm not in ALGORITHMS:
        problems.append(f"unknown algorithm {report.algorithm!r}")
    if report.seed < 0:
        problems.append(f"seed {report.seed} is negative")
    if not report.runs:
        problems.append("report has no runs")
    for i, run in enumerate(report.runs):
        if not 0 <= run.millis < math.inf:  # NaN fails this too
            problems.append(f"runs[{i}]: millis {run.millis} is not a finite duration")
        if len(set(run.selected)) != len(run.selected):  # size would count the repeat
            problems.append(f"runs[{i}]: selection names a test more than once")
        if instance is None:
            continue
        unknown = [t for t in run.selected if t not in instance.index_of]
        if unknown:
            problems.append(f"runs[{i}]: unknown tests {unknown}")
        elif not is_cover(instance, (instance.index_of[t] for t in run.selected)):
            problems.append(f"runs[{i}]: selection is not a cover")
    if report.total_tests < 1 or report.runs and report.best_size > report.total_tests:
        problems.append(f"best_size out of range for {report.total_tests} tests")
    return problems


def write_report(report: RunReport, instance: Instance) -> str:
    """Serialize a report, refusing any report whose sets fail is_cover."""
    problems = _report_problems(report, instance)
    if problems:
        raise InvalidReportError("; ".join(problems))
    return write_json({
        "instance": report.instance,
        "algorithm": report.algorithm,
        "seed": report.seed,
        "total_tests": report.total_tests,
        "runs": [
            {"selected": list(r.selected), "size": r.size, "millis": r.millis}
            for r in report.runs
        ],
        "best_size": report.best_size,
        "reduction_percent": report.reduction,
    })


def parse_report(data: str | bytes) -> RunReport:
    raw = _typed(_loads(data), dict, "report")
    runs, problems = [], []
    for i, entry in enumerate(_field(raw, "runs", list)):
        where = f"runs[{i}]"
        _typed(entry, dict, where)
        selected = _strings(entry, "selected", where)
        size = _field(entry, "size", int, where)
        if size != len(selected):
            problems.append(f"{where}.size {size} does not match {len(selected)} selected")
        runs.append(RunResult(selected, _field(entry, "millis", _NUMBER, where)))
    report = RunReport(
        instance=_field(raw, "instance", str),
        algorithm=_field(raw, "algorithm", str),
        seed=_field(raw, "seed", int),
        total_tests=_field(raw, "total_tests", int),
        runs=tuple(runs),
    )
    best_size = _field(raw, "best_size", int)
    stated = _field(raw, "reduction_percent", str)
    problems = _report_problems(report) + problems
    if runs and best_size != report.best_size:
        problems.append(f"best_size {best_size} is not the minimum {report.best_size} over runs")
    if not problems and stated != report.reduction:
        problems.append(f"reduction_percent {stated!r} does not match best_size {report.best_size}")
    if problems:
        raise InvalidReportError("; ".join(problems))
    return report


def _trapezoid(raw: Any, path: str) -> Trapezoid:
    if len(_typed(raw, list, path)) != 4:
        raise FieldTypeError(path, "four breakpoints")
    return Trapezoid(*(_typed(v, _NUMBER, f"{path}[{i}]") for i, v in enumerate(raw)))


def _terms(raw: Any, path: str) -> dict[str, Trapezoid]:
    return {t: _trapezoid(bp, f"{path}.{t}") for t, bp in _typed(raw, dict, path).items()}


def _rule(raw: Any, path: str) -> Rule:
    clauses = _field(_typed(raw, dict, path), "if", dict, path)
    antecedent = {var: _typed(term, str, f"{path}.if.{var}") for var, term in clauses.items()}
    return Rule.of(antecedent, _field(raw, "then", str, path))


def rule_base_from_json(data: str | bytes) -> RuleBase:
    """A rule base; `samples`, the centroid grid size, is an optional integer."""
    raw = _typed(_loads(data), dict, "rule base")
    inputs = {
        var: LinguisticVariable(var, _terms(terms, f"variables.{var}"))
        for var, terms in _field(raw, "variables", dict).items()
    }
    out = _field(raw, "output", dict)
    terms = _terms(_field(out, "terms", dict, "output"), "output.terms")
    output = LinguisticVariable(_field(out, "name", str, "output"), terms)
    rules = tuple(_rule(entry, f"rules[{i}]") for i, entry in enumerate(_field(raw, "rules", list)))
    samples = _typed(raw.get("samples", RuleBase.samples), int, "samples")
    return RuleBase(inputs, output, rules, samples)
