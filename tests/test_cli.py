import argparse
import functools
import json
import subprocess
import sys

import pytest

from tsred import builtin, cli, oracle, parse_report, solve_report, write_instance
from tsred.cli import main
from tsred.corpus import builtin_document

EXP1 = "builtin:experiment-1"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_stdout_report(capsys):
    code, out, _ = run_cli(capsys, "solve", "--instance", EXP1, "--algorithm", "gre")
    assert code == 0
    report = parse_report(out)
    assert report.algorithm == "gre"
    assert report.best_size == 3
    assert report.runs[0].selected == ("t7", "t2", "t4")


def test_solve_multiple_runs_and_output_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "solve", "--instance", EXP1, "--algorithm", "fis",
        "--seed", "1", "--runs", "3", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    report = parse_report(target.read_text())
    assert len(report.runs) == 3
    assert report.seed == 1
    assert report.best_size == 3


def test_solve_every_algorithm(capsys):
    for algorithm in ("fis", "sa", "ge", "gre", "hgs"):
        code, out, _ = run_cli(
            capsys, "solve", "--instance", EXP1, "--algorithm", algorithm, "--seed", "2"
        )
        assert code == 0
        assert parse_report(out).algorithm == algorithm


def test_solve_instance_from_file(capsys, tmp_path):
    doc = builtin_document("experiment-2")
    path = tmp_path / "exp2.json"
    path.write_text(write_instance(doc))
    code, out, _ = run_cli(capsys, "solve", "--instance", str(path), "--algorithm", "hgs")
    assert code == 0
    assert parse_report(out).best_size == 3


def test_solve_rejects_unknown_algorithm(capsys):
    code = main(["solve", "--instance", EXP1, "--algorithm", "magic"])
    capsys.readouterr()
    assert code == 2


def test_bench_refuses_the_removed_suite_option(capsys):
    # bench always sweeps the bundled instances; `--suite builtin` once
    # named that and was never read
    assert main(["bench", "--suite", "builtin", "--runs", "1"]) == 2
    assert capsys.readouterr().out == ""


OUT_OF_RANGE = [
    ("solve", "--instance", EXP1, "--runs", "0"),
    ("solve", "--instance", EXP1, "--population", "1"),
    ("solve", "--instance", EXP1, "--algorithm", "sa", "--alpha", "1.5"),
    ("oracle", "--instance", EXP1, "--enumerate", "--cap", "0"),
    ("bench", "--runs", "0"),
    ("solve", "--instance", EXP1, "--algorithm", "fis", "--seed", "-1"),
    ("solve", "--instance", EXP1, "--algorithm", "sa", "--seed", "-1"),
    ("bench", "--seed", "-1"),
    # about 7e8 cooling steps: refused before the first one
    ("solve", "--instance", EXP1, "--algorithm", "sa", "--t-initial", "1e308",
     "--alpha", "0.999999"),
    # at the stop floor: a schedule of zero cooling steps
    ("solve", "--instance", EXP1, "--algorithm", "sa", "--t-initial", "0.001"),
    # one run over bench.MAX_RUNS: refused before the first one
    ("solve", "--instance", EXP1, "--runs", "10001"),
    ("bench", "--runs", "10001"),
    # a greedy reducer draws nothing, yet a negative seed is still a usage error
    ("solve", "--instance", EXP1, "--algorithm", "ge", "--seed", "-1"),
    # the cap only limits --enumerate, yet is refused without it too
    ("oracle", "--instance", EXP1, "--cap", "0"),
]


@pytest.mark.parametrize("argv", OUT_OF_RANGE)
def test_out_of_range_setting_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [a for a in OUT_OF_RANGE if a[0] != "oracle"])
def test_refused_setting_leaves_no_output_file(capsys, tmp_path, argv):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, *argv, "--output", str(target))
    assert code == 2
    assert out == ""
    assert not target.exists()
    link = tmp_path / "link.json"  # a symlink to a missing file
    link.symlink_to(target)
    assert run_cli(capsys, *argv, "--output", str(link))[:2] == (2, "")
    assert link.is_symlink() and not target.exists()
    target.write_bytes(b'{"kept": true}\n')  # an existing file keeps its bytes
    assert run_cli(capsys, *argv, "--output", str(target))[:2] == (2, "")
    assert target.read_bytes() == b'{"kept": true}\n'


def stub_solver(monkeypatch, name, failure):
    @functools.wraps(getattr(cli, name))  # the parser reads its defaults
    def failing(*args, **kwargs):
        raise failure

    monkeypatch.setattr(cli, name, failing)


@pytest.mark.parametrize("before", [None, b'{"kept": true}\n'], ids=["missing", "existing"])
@pytest.mark.parametrize(
    "failure", [KeyboardInterrupt(), RuntimeError("solver failed")], ids=["interrupt", "raise"]
)
@pytest.mark.parametrize(
    "argv, solver",
    [(("solve", "--instance", EXP1), "solve_report"), (("bench", "--runs", "1"), "bench_suite")],
    ids=["solve", "bench"],
)
def test_failed_run_leaves_output_as_it_was(capsys, tmp_path, monkeypatch, argv, solver,
                                            failure, before):
    target = tmp_path / "out.json"
    if before is not None:
        target.write_bytes(before)
    stub_solver(monkeypatch, solver, failure)
    with pytest.raises(type(failure)):
        main([*argv, "--output", str(target)])
    capsys.readouterr()
    assert (target.read_bytes() if target.exists() else None) == before


# rule bases that parse as JSON but are refused: one over an input FIS does
# not measure, one with a breakpoint too large for a float
FOREIGN_RULE_BASE = {
    "variables": {"speed": {"Any": [0, 0, 1, 1]}},
    "output": {"name": "decision", "terms": {"Any": [0, 0, 1, 1]}},
    "rules": [{"if": {"speed": "Any"}, "then": "Any"}],
}
HUGE_RULE_BASE = {
    "variables": {"quality": {"Any": [0, 0, 1, 10**400]}},
    "output": {"name": "decision", "terms": {"Any": [0, 0, 1, 1]}},
    "rules": [{"if": {"quality": "Any"}, "then": "Any"}],
}


@pytest.mark.parametrize(
    "rule_base", [FOREIGN_RULE_BASE, HUGE_RULE_BASE], ids=["foreign-input", "huge-breakpoint"]
)
@pytest.mark.parametrize(
    "argv", [("solve", "--instance", EXP1), ("bench", "--runs", "1")], ids=["solve", "bench"]
)
def test_refused_rule_base_leaves_no_output_file(capsys, tmp_path, monkeypatch, rule_base, argv):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(rule_base))
    monkeypatch.setenv("TSRED_RULEBASE", str(path))
    target = tmp_path / "out.json"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not target.exists()


def test_missing_subcommand_is_usage_error(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2


def test_unknown_builtin_is_instance_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--instance", "builtin:experiment-9")
    assert code == 3
    assert "experiment-9" in err


def test_missing_file_is_instance_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", "--instance", str(tmp_path / "nope.json"))
    assert code == 3


def test_unparseable_file_is_instance_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "oracle", "--instance", str(path))
    assert code == 3


def test_structurally_invalid_file_is_instance_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad",
        "tests": ["t1"],
        "requirements": [{"id": "r1", "candidates": ["ghost"]}],
    }))
    code, _, err = run_cli(capsys, "validate", "--instance", str(path), "--selection", "t1")
    assert code == 3
    assert "ghost" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("solve", "--instance", EXP1, "--output", "{missing}/report.json"), 2),
        (("bench", "--runs", "1", "--output", "{missing}/summary.json"), 2),
        (("oracle", "--instance", "{latin1}"), 3),
    ],
    ids=["solve-output", "bench-output", "non-utf8-instance"],
)
def test_file_error_is_reported(capsys, tmp_path, monkeypatch, argv, expected):
    for name in ("solve_report", "bench_suite"):
        stub_solver(monkeypatch, name, AssertionError("a solver ran before the file error"))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps({"name": "caf\u00e9"}, ensure_ascii=False).encode("latin-1"))
    argv = [a.format(missing=tmp_path / "missing", latin1=latin1) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == expected
    assert out == ""  # refused before any solver runs or prints
    assert err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["latin1.json"]  # nothing created


def write_doc(tmp_path, doc):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"tests": ["a"], "requirements": [{"id": "r1", "candidates": 5}]},
         "requirements[0].candidates"),
        ({"tests": ["a", "b"], "requirements": [{"id": "r1", "candidates": "ab"}]},
         "requirements[0].candidates"),
        ({"tests": ["a"], "requirements": [{"id": "r1", "candidates": ["a", 1]}]},
         "requirements[0].candidates"),
        ({"tests": [{"x": 1}], "requirements": [{"id": "r1", "candidates": ["a"]}]}, "tests"),
        ({"tests": ["a"], "requirements": [{"id": 7, "candidates": ["a"]}]},
         "requirements[0].id"),
    ],
)
def test_mistyped_instance_field_is_instance_error(capsys, tmp_path, doc, field):
    path = write_doc(tmp_path, {"name": "typed", **doc})
    code, out, err = run_cli(capsys, "oracle", "--instance", path)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: field {field}: expected")


EMPTY = {"name": "empty", "tests": ["t1", "t2"], "requirements": []}


def test_oracle_without_requirements_selects_nothing(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "oracle", "--instance", write_doc(tmp_path, EMPTY))
    assert code == 0
    assert "minimum size: 0" in out
    assert "reduction: 100.0%" in out


@pytest.mark.parametrize("algorithm", ["fis", "sa", "ge", "gre", "hgs"])
def test_solve_without_requirements_selects_nothing(capsys, tmp_path, algorithm):
    path = write_doc(tmp_path, EMPTY)
    code, out, _ = run_cli(capsys, "solve", "--instance", path, "--algorithm", algorithm)
    assert code == 0
    report = parse_report(out)
    assert report.best_size == 0
    assert report.runs[0].selected == ()
    assert json.loads(out)["reduction_percent"] == "100.0"


def test_empty_suite_is_instance_error(capsys, tmp_path):
    path = write_doc(tmp_path, {"name": "none", "tests": [], "requirements": []})
    code, out, err = run_cli(capsys, "solve", "--instance", path, "--algorithm", "sa")
    assert code == 3
    assert "EmptySuite(none)" in err


def test_oracle_reports_minimum(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--instance", EXP1)
    assert code == 0
    assert "minimum size: 3" in out
    assert "reduction: 57.1%" in out
    assert "witness: t2, t4, t7\nnodes: 1\n" in out


def test_oracle_enumerate_lists_covers(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--instance", EXP1, "--enumerate")
    assert code == 0
    assert "minimum covers: 2" in out
    assert "\nnodes: 11\n" in out  # the enumeration's own search
    assert "t1, t2, t4" in out
    assert "t2, t4, t7" in out


def test_oracle_enumerate_names_the_cap(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--instance", EXP1, "--enumerate", "--cap", "1")
    assert code == 0
    assert "minimum covers: 1 (stopped at cap 1)\n" in out
    assert "\nnodes: 9\n" in out  # up to the second cover, which passes the cap
    # experiment-1 has exactly two minimum covers, so a cap of 2 lists them all
    code, out, _ = run_cli(capsys, "oracle", "--instance", EXP1, "--enumerate", "--cap", "2")
    assert code == 0
    assert "minimum covers: 2\n" in out


def test_oracle_solves_more_than_64_tests(capsys, tmp_path):
    tests = [f"t{j}" for j in range(65)]
    doc = {"name": "wide", "tests": tests, "requirements": [{"id": "r1", "candidates": tests}]}
    code, out, err = run_cli(capsys, "oracle", "--instance", write_doc(tmp_path, doc))
    assert (code, err) == (0, "")
    assert "minimum size: 1\n" in out


def test_oracle_stopped_at_node_limit_gives_upper_bound(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_NODES", 4)  # experiment-3's search takes 5
    for extra in ([], ["--enumerate"]):
        code, out, _ = run_cli(capsys, "oracle", "--instance", "builtin:experiment-3", *extra)
        assert code == 0
        assert "minimum size: at most 3 (search stopped at the node limit)\n" in out
        assert "reduction: at least 66.7%\n" in out  # from the unproven size, so a floor
        # no covers are listed against a size that was never proven minimal
        assert "minimum covers" not in out


def test_oracle_enumerate_stopped_at_node_limit_does_not_blame_cap(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_NODES", 50)  # experiment-4's enumeration takes 170
    code, out, _ = run_cli(capsys, "oracle", "--instance", "builtin:experiment-4", "--enumerate")
    assert code == 0
    assert "minimum size: 11\n" in out
    assert "minimum covers: 2 (stopped at the node limit)\n" in out
    assert "cap" not in out


def test_validate_valid_selection(capsys):
    code, out, _ = run_cli(capsys, "validate", "--instance", EXP1, "--selection", "t2,t4,t7")
    assert code == 0
    assert out.startswith("VALID")
    assert "57.1%" in out


def test_validate_invalid_selection_lists_uncovered(capsys):
    code, out, _ = run_cli(capsys, "validate", "--instance", EXP1, "--selection", "t1,t2")
    assert code == 1
    assert out.startswith("INVALID")
    assert "req_16" in out


def test_validate_unknown_test_id_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "validate", "--instance", EXP1, "--selection", "t1,bogus")
    assert code == 2
    assert "bogus" in err


def test_validate_duplicate_ids_count_once(capsys):
    code, out, _ = run_cli(
        capsys, "validate", "--instance", EXP1, "--selection", "t2,t2,t4,t7"
    )
    assert code == 0
    assert "3 tests" in out


def test_bench_renders_tables_and_json(capsys, tmp_path):
    target = tmp_path / "summary.json"
    code, out, _ = run_cli(
        capsys, "bench", "--runs", "1", "--seed", "1", "--output", str(target)
    )
    assert code == 0
    assert "experiment-1" in out
    assert "exact" in out
    payload = json.loads(target.read_text())
    assert payload["runs"] == 1
    assert payload["oracle_minimum"] == {
        "experiment-1": 3,
        "experiment-2": 3,
        "experiment-3": 3,
        "experiment-4": 11,
        "experiment-5": 9,
    }
    assert len(payload["results"]) == 25  # 5 algorithms x 5 instances


def test_rulebase_env_override(capsys, tmp_path, monkeypatch):
    payload = {
        "variables": {
            "quality": {"Any": [0, 0, 1, 1]},
            "intensification": {"Any": [0, 0, 1, 1]},
            "diversification": {"Any": [0, 0, 1, 1]},
        },
        "output": {
            "name": "decision",
            "terms": {"Change": [0, 0, 0.3, 0.5], "Maintain": [0.5, 0.7, 1, 1]},
        },
        "rules": [
            {"if": {"quality": "Any", "intensification": "Any", "diversification": "Any"},
             "then": "Maintain"},
        ],
    }
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(payload))
    monkeypatch.setenv("TSRED_RULEBASE", str(path))
    code, out, _ = run_cli(
        capsys, "solve", "--instance", EXP1, "--algorithm", "fis", "--seed", "1"
    )
    assert code == 0
    assert parse_report(out).best_size == 3


def test_bad_rulebase_env_is_usage_error(capsys, tmp_path, monkeypatch):
    path = tmp_path / "rules.json"
    path.write_text('{"variables": {}}')
    monkeypatch.setenv("TSRED_RULEBASE", str(path))
    code, _, err = run_cli(capsys, "solve", "--instance", EXP1, "--algorithm", "fis")
    assert code == 2
    assert "TSRED_RULEBASE" in err

    monkeypatch.setenv("TSRED_RULEBASE", str(tmp_path / "missing.json"))
    code, _, err = run_cli(capsys, "solve", "--instance", EXP1, "--algorithm", "fis")
    assert code == 2

    monkeypatch.setenv("TSRED_RULEBASE", str(tmp_path))  # a directory
    code, _, err = run_cli(capsys, "solve", "--instance", EXP1, "--algorithm", "fis")
    assert code == 2
    assert "TSRED_RULEBASE" in err

    path.write_text('{"variables": [], "output": {}, "rules": []}')
    monkeypatch.setenv("TSRED_RULEBASE", str(path))
    code, out, err = run_cli(capsys, "bench", "--runs", "1")
    assert code == 2
    assert out == ""
    assert "variables: expected an object" in err


def test_parser_reuse_does_not_leak_flags(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "tsred":  # the top-level parser, not a subcommand's
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    first = run_cli(capsys, "solve", "--instance", EXP1, "--algorithm", "sa",
                    "--alpha", "0.5", "--runs", "2")
    second = run_cli(capsys, "solve", "--instance", EXP1, "--algorithm", "sa")
    assert first[0] == second[0] == 0
    assert len(parse_report(first[1]).runs) == 2
    report = parse_report(second[1])
    expected = solve_report(builtin("experiment-1"), "sa", seed=0, runs=1)
    assert len(report.runs) == 1
    assert report.runs[0].selected == expected.runs[0].selected
    assert len(built) == 1


def test_builtin_instance_is_the_cached_one():
    assert cli._load_instance(EXP1) is builtin("experiment-1")


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "tsred.cli", "oracle", "--instance", "builtin:experiment-2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "minimum size: 3" in proc.stdout
