"""Reading and writing instances and run reports.

Both file kinds are JSON.  An instance document:

    {"name": "...", "tests": ["t1", ...],
     "requirements": [{"id": "req_1", "candidates": ["t1", "t2"]}, ...]}

A run report:

    {"instance": "...", "algorithm": "...", "seed": 0, "total_tests": 7,
     "runs": [{"selected": ["t2", "t4", "t1"], "size": 3, "millis": 1.5}],
     "best_size": 3, "reduction_percent": "57.1"}

Parsing is purely syntactic; semantic checks live in core.validate_instance.
write_report re-validates every selected set against the instance before
serializing, so an invalid set can never reach disk through this path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from .core import Instance, Reduction, is_cover, reduction_percent, validate_instance


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


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseSyntaxError(exc.msg, exc.lineno, exc.colno) from exc


def _field(obj: dict, name: str, kind: type, desc: str) -> Any:
    if not isinstance(obj, dict) or name not in obj:
        raise MissingFieldError(name)
    value = obj[name]
    if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        raise FieldTypeError(name, desc)
    return value


def _strings(value: Any, field: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise FieldTypeError(field, "list of strings")
    return tuple(value)


def parse_instance(text: str) -> InstanceDocument:
    """Parse an instance document from JSON text."""
    raw = _loads(text)
    name = _field(raw, "name", str, "string")
    tests = _strings(_field(raw, "tests", list, "list of strings"), "tests")
    reqs = _field(raw, "requirements", list, "list of objects")
    entries = []
    for i, entry in enumerate(reqs):
        where = f"requirements[{i}]"
        if not isinstance(entry, dict):
            raise FieldTypeError(where, "object")
        for key in ("id", "candidates"):
            if key not in entry:
                raise MissingFieldError(f"{where}.{key}")
        if not isinstance(entry["id"], str):
            raise FieldTypeError(f"{where}.id", "string")
        entries.append(
            RequirementEntry(entry["id"], _strings(entry["candidates"], f"{where}.candidates"))
        )
    return InstanceDocument(name, tests, tuple(entries))


def write_instance(doc: InstanceDocument) -> str:
    payload = {
        "name": doc.name,
        "tests": list(doc.tests),
        "requirements": [
            {"id": r.id, "candidates": list(r.candidates)} for r in doc.requirements
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class RunResult:
    """One run's best selection: test ids in decoded order, plus wall time."""

    selected: tuple[str, ...]
    size: int
    millis: float


@dataclass(frozen=True)
class RunReport:
    instance: str
    algorithm: str
    seed: int
    total_tests: int
    runs: tuple[RunResult, ...]
    best_size: int

    @property
    def reduction(self) -> Reduction:
        return reduction_percent(self.total_tests, self.best_size)


def _report_problems(report: RunReport, instance: Instance) -> list[str]:
    problems = []
    if report.instance != instance.name:
        problems.append(f"report names instance {report.instance!r}, got {instance.name!r}")
    if report.total_tests != instance.n:
        problems.append(f"total_tests {report.total_tests} != {instance.n}")
    if not report.runs:
        problems.append("report has no runs")
    for i, run in enumerate(report.runs):
        unknown = [t for t in run.selected if t not in instance.index_of]
        if unknown:
            problems.append(f"runs[{i}]: unknown tests {unknown}")
            continue
        if run.size != len(run.selected):
            problems.append(f"runs[{i}]: size {run.size} != {len(run.selected)} selected")
        if not is_cover(instance, (instance.index_of[t] for t in run.selected)):
            problems.append(f"runs[{i}]: selection is not a cover")
    if report.runs and report.best_size != min(r.size for r in report.runs):
        problems.append("best_size is not the minimum over runs")
    return problems


def write_report(report: RunReport, instance: Instance) -> str:
    """Serialize a report, refusing any report whose sets fail is_cover."""
    problems = _report_problems(report, instance)
    if problems:
        raise InvalidReportError("; ".join(problems))
    payload = {
        "instance": report.instance,
        "algorithm": report.algorithm,
        "seed": report.seed,
        "total_tests": report.total_tests,
        "runs": [
            {"selected": list(r.selected), "size": r.size, "millis": r.millis}
            for r in report.runs
        ],
        "best_size": report.best_size,
        "reduction_percent": report.reduction.text,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def parse_report(text: str) -> RunReport:
    raw = _loads(text)
    runs = []
    for i, entry in enumerate(_field(raw, "runs", list, "list of objects")):
        if not isinstance(entry, dict):
            raise FieldTypeError(f"runs[{i}]", "object")
        for key in ("selected", "size", "millis"):
            if key not in entry:
                raise MissingFieldError(f"runs[{i}].{key}")
        runs.append(
            RunResult(
                tuple(str(t) for t in entry["selected"]),
                int(entry["size"]),
                float(entry["millis"]),
            )
        )
    report = RunReport(
        instance=_field(raw, "instance", str, "string"),
        algorithm=_field(raw, "algorithm", str, "string"),
        seed=_field(raw, "seed", int, "integer"),
        total_tests=_field(raw, "total_tests", int, "integer"),
        runs=tuple(runs),
        best_size=_field(raw, "best_size", int, "integer"),
    )
    stated = _field(raw, "reduction_percent", str, "string")
    if stated != report.reduction.text:
        raise InvalidReportError(
            f"reduction_percent {stated!r} does not match best_size {report.best_size}"
        )
    return report
