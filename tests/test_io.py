import json
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_instance
from tsred import (
    ALGORITHMS,
    FISConfig,
    InstanceDocument,
    RunReport,
    RunResult,
    SAParams,
    builtin,
    builtin_document,
    builtin_names,
    parse_instance,
    parse_report,
    rule_base_from_json,
    solve_report,
    write_instance,
    write_report,
)
from tsred.corpus import UnknownBenchmarkError
from tsred.io import (
    FieldTypeError,
    InvalidReportError,
    MissingFieldError,
    ParseError,
    ParseSyntaxError,
    RequirementEntry,
)

INSTANCE_TEXT = """{
  "name": "pair",
  "tests": ["a", "b"],
  "requirements": [
    {"id": "r1", "candidates": ["a"]},
    {"id": "r2", "candidates": ["a", "b"]}
  ]
}"""


def test_parse_instance_roundtrip():
    doc = parse_instance(INSTANCE_TEXT)
    assert doc.name == "pair"
    assert doc.tests == ("a", "b")
    assert doc.requirements == (
        RequirementEntry("r1", ("a",)),
        RequirementEntry("r2", ("a", "b")),
    )
    again = parse_instance(write_instance(doc))
    assert again == doc


def test_write_instance_is_stable():
    doc = parse_instance(INSTANCE_TEXT)
    assert write_instance(doc) == write_instance(parse_instance(write_instance(doc)))


def test_to_instance_validates():
    doc = InstanceDocument("x", ("a",), (RequirementEntry("r1", ("zz",)),))
    from tsred import InvalidInstanceError

    with pytest.raises(InvalidInstanceError):
        doc.to_instance()


def test_parse_instance_reports_syntax_position():
    with pytest.raises(ParseSyntaxError) as exc:
        parse_instance("{\n  broken\n}")
    assert exc.value.line == 2


def test_parse_instance_missing_field():
    with pytest.raises(MissingFieldError) as exc:
        parse_instance('{"name": "x", "tests": ["a"]}')
    assert exc.value.field == "requirements"


def test_parse_instance_wrong_type():
    with pytest.raises(FieldTypeError):
        parse_instance('{"name": "x", "tests": "a", "requirements": []}')


@pytest.mark.parametrize(
    "data",
    [b'{"name": "caf\xe9"}', "[" * 100_000, '{"name": ' + "1" * 5000 + "}"],
    ids=["not-utf8", "too-deep", "integer-too-long"],
)
def test_unreadable_json_is_parse_error(data):
    with pytest.raises(ParseError):
        parse_instance(data)


def test_builtin_names_and_lookup():
    names = builtin_names()
    assert len(names) == 5
    assert names == tuple(sorted(names))
    for name in names:
        inst = builtin(name)
        assert inst.name == name
        doc = builtin_document(name)
        assert parse_instance(write_instance(doc)) == doc
    with pytest.raises(UnknownBenchmarkError):
        builtin_document("experiment-99")


def test_builtin_shapes():
    small = [builtin(f"experiment-{i}") for i in (1, 2, 3)]
    assert [i.m for i in small] == [19, 19, 19]
    assert [i.n for i in small] == [7, 6, 9]
    large = [builtin(f"experiment-{i}") for i in (4, 5)]
    assert [i.m for i in large] == [24, 24]
    assert [i.n for i in large] == [31, 31]


def _report(instance):
    return RunReport(
        instance=instance.name,
        algorithm="ge",
        seed=3,
        total_tests=instance.n,
        runs=(
            RunResult(selected=("t1", "t2", "t4"), millis=1.25),
            RunResult(selected=("t2", "t4", "t7"), millis=0.75),
        ),
    )


def test_report_roundtrip():
    inst = builtin("experiment-1")
    report = _report(inst)
    text = write_report(report, inst)
    payload = json.loads(text)
    assert payload["reduction_percent"] == "57.1"
    assert payload["total_tests"] == 7
    again = parse_report(text)
    assert again == report
    assert write_report(again, inst) == text


def test_report_reduction_property():
    inst = builtin("experiment-1")
    assert _report(inst).reduction == "57.1"


def test_write_report_rejects_non_cover():
    inst = builtin("experiment-1")
    bad = RunReport(
        instance="experiment-1",
        algorithm="ge",
        seed=0,
        total_tests=7,
        runs=(RunResult(selected=("t1", "t2"), millis=0.1),),
    )
    with pytest.raises(InvalidReportError):
        write_report(bad, inst)


def test_write_report_rejects_unknown_test():
    inst = builtin("experiment-1")
    bad = RunReport(
        instance="experiment-1",
        algorithm="ge",
        seed=0,
        total_tests=7,
        runs=(RunResult(selected=("t1", "nope", "t4"), millis=0.1),),
    )
    with pytest.raises(InvalidReportError):
        write_report(bad, inst)


def test_write_report_rejects_name_mismatch():
    inst = builtin("experiment-1")
    report = _report(inst)
    bad = RunReport(
        instance="experiment-2",
        algorithm=report.algorithm,
        seed=report.seed,
        total_tests=report.total_tests,
        runs=report.runs,
    )
    with pytest.raises(InvalidReportError):
        write_report(bad, inst)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.update(reduction_percent="99.9"),
        lambda p: p["runs"][1].update(size=4),
        lambda p: p["runs"][0].update(size=2),  # would be the minimum if it were believed
        lambda p: p.update(best_size=4, reduction_percent="42.9"),  # not the minimum
        lambda p: p.update(best_size=2, reduction_percent="71.4"),  # below the minimum
        lambda p: p.update(runs=[]),
        lambda p: p.update(total_tests=2),  # below best_size
    ],
    ids=["reduction", "run-size", "run-size-below", "best-size", "best-size-below", "no-runs",
         "total-tests"],
)
def test_parse_report_rejects_inconsistent_reduction(mutate):
    inst = builtin("experiment-1")
    payload = json.loads(write_report(_report(inst), inst))
    mutate(payload)
    with pytest.raises(InvalidReportError):
        parse_report(json.dumps(payload))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(ALGORITHMS), st.data())
def test_every_stated_figure_must_match_the_runs(seed, algorithm, data):
    inst = random_instance(random.Random(seed), max_tests=8, max_requirements=6)
    report = solve_report(inst, algorithm, seed=seed, runs=2,
                          fis_config=FISConfig(population_size=4, max_iterations=5),
                          sa_params=SAParams(alpha=0.5))
    text = write_report(report, inst)
    assert parse_report(text) == report
    assert write_report(parse_report(text), inst) == text
    payload = json.loads(text)
    stated = [(run, "size") for run in payload["runs"]]
    holder, key = data.draw(st.sampled_from(stated + [(payload, "best_size"),
                                                      (payload, "reduction_percent")]))
    other = st.text() if key == "reduction_percent" else st.integers()
    holder[key] = data.draw(other.filter(lambda v: v != holder[key]))
    with pytest.raises(InvalidReportError):
        parse_report(json.dumps(payload))


def _first_run_millis(report, millis):
    return replace(report, runs=(replace(report.runs[0], millis=millis), *report.runs[1:]))


@pytest.mark.parametrize(
    "edit_document, edit_report",
    [
        (lambda p: p.update(seed=-5), lambda r: replace(r, seed=-5)),
        (lambda p: p.update(algorithm="magic"), lambda r: replace(r, algorithm="magic")),
        (lambda p: p["runs"][0].update(millis=-3.0), lambda r: _first_run_millis(r, -3.0)),
        (lambda p: p["runs"][0].update(millis=math.inf), lambda r: _first_run_millis(r, math.inf)),
    ],
    ids=["seed", "algorithm", "millis", "millis-infinite"],
)
def test_report_rejects_field_no_solver_writes(edit_document, edit_report):
    inst = builtin("experiment-1")
    report = solve_report(inst, "ge")
    payload = json.loads(write_report(report, inst))
    edit_document(payload)
    with pytest.raises(InvalidReportError):
        parse_report(json.dumps(payload))
    with pytest.raises(InvalidReportError):
        write_report(edit_report(report), inst)


def test_report_rejects_a_test_named_twice():
    inst = builtin("experiment-1")
    report = solve_report(inst, "ge")
    run = report.runs[0]
    repeated = replace(report, runs=(replace(run, selected=(*run.selected, run.selected[0])),))
    # size counts the repeat: four distinct tests would read 42.9
    assert (repeated.best_size, repeated.reduction) == (5, "28.6")
    with pytest.raises(InvalidReportError, match="more than once"):
        write_report(repeated, inst)
    # a document whose stated figures all agree with the repeat
    payload = json.loads(write_report(report, inst))
    payload["runs"][0].update(selected=list(repeated.runs[0].selected), size=5)
    payload.update(best_size=5, reduction_percent="28.6")
    with pytest.raises(InvalidReportError, match="more than once"):
        parse_report(json.dumps(payload))


@pytest.mark.parametrize(
    "field, value",
    [("selected", "t7"), ("size", "2"), ("size", True), ("millis", "1"),
     pytest.param("millis", 10**400, id="millis-too-large-for-a-float")],
)
def test_parse_report_rejects_mistyped_run_field(field, value):
    inst = builtin("experiment-1")
    payload = json.loads(write_report(_report(inst), inst))
    payload["runs"][0][field] = value
    with pytest.raises(FieldTypeError) as exc:
        parse_report(json.dumps(payload))
    assert exc.value.field == f"runs[0].{field}"


def _any_rule_base():
    anything = {"Any": [0, 0, 1, 1]}
    return {
        "variables": {"quality": anything},
        "output": {"name": "decision", "terms": anything},
        "rules": [{"if": {"quality": "Any"}, "then": "Any"}],
    }


@pytest.mark.parametrize(
    "mutate, error, field",
    [
        (lambda rb: rb["output"].pop("name"), MissingFieldError, "output.name"),
        (lambda rb: rb["rules"][0].update(then=1), FieldTypeError, "rules[0].then"),
        (lambda rb: rb.update(samples=1001.5), FieldTypeError, "samples"),
        (lambda rb: rb["variables"]["quality"]["Any"].__setitem__(3, 10**400), FieldTypeError,
         "variables.quality.Any[3]"),
    ],
    ids=["missing-key", "wrong-type", "non-integer-samples", "huge-breakpoint"],
)
def test_rule_base_from_json_names_bad_field(mutate, error, field):
    payload = _any_rule_base()
    assert rule_base_from_json(json.dumps(payload)).samples == 1001
    mutate(payload)
    with pytest.raises(error) as exc:
        rule_base_from_json(json.dumps(payload))
    assert exc.value.field == field
