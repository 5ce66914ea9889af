"""Mutated instance and rule-base documents, and arbitrary flag values, never
crash the CLI: each run of main() returns one of the documented exit codes
instead of raising."""

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tsred import ALGORITHMS, write_instance
from tsred.baselines import STOP_FLOOR
from tsred.bench import MAX_RUNS
from tsred.cli import main
from tsred.corpus import builtin_document
from tsred.fis import MAX_EVALUATIONS

EXIT_CODES = {0, 1, 2, 3}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

INSTANCE = json.loads(write_instance(builtin_document("experiment-1")))

RULE_BASE = {
    "variables": {
        "quality": {"Poor": [0, 0, 0.2, 0.4], "Good": [0.3, 0.6, 1, 1]},
        "diversification": {"Any": [0, 0, 1, 1]},
    },
    "output": {
        "name": "decision",
        "terms": {"Change": [0, 0, 0.3, 0.5], "Maintain": [0.5, 0.7, 1, 1]},
    },
    "rules": [
        {"if": {"quality": "Poor", "diversification": "Any"}, "then": "Change"},
        {"if": {"quality": "Good"}, "then": "Maintain"},
    ],
    "samples": 101,
}


def _containers(value):
    """Every object and list inside `value`, `value` included."""
    if isinstance(value, (dict, list)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from _containers(child)


@st.composite
def mutated(draw, document):
    """`document` with a few members replaced, removed or added, serialized,
    and sometimes with a few bytes spliced into the text."""
    doc = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(list(_containers(doc))))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        action = draw(st.sampled_from(["replace", "remove", "add"] if keys else ["add"]))
        if action == "add":
            value = draw(JSON_VALUES)
            if isinstance(target, dict):
                target[draw(st.text(max_size=6))] = value
            else:
                target.insert(draw(st.integers(0, len(target))), value)
        elif action == "replace":
            target[draw(st.sampled_from(keys))] = draw(JSON_VALUES)
        else:
            del target[draw(st.sampled_from(keys))]
    data = json.dumps(doc).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(max_size=3)) + data[at + draw(st.integers(0, 3)):]
    return data


FUZZ = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@FUZZ
@given(data=mutated(INSTANCE))
def test_mutated_instance_never_crashes_oracle(capsys, tmp_path, data):
    path = tmp_path / "instance.json"
    path.write_bytes(data)
    assert main(["oracle", "--instance", str(path)]) in EXIT_CODES
    capsys.readouterr()


@FUZZ
@given(data=mutated(RULE_BASE))
def test_mutated_rule_base_never_crashes_fis(capsys, tmp_path, monkeypatch, data):
    path = tmp_path / "rules.json"
    path.write_bytes(data)
    monkeypatch.setenv("TSRED_RULEBASE", str(path))
    argv = ["solve", "--instance", "builtin:experiment-1", "--algorithm", "fis",
            "--population", "2", "--iterations", "1"]
    assert main(argv) in EXIT_CODES
    capsys.readouterr()


def _not_a_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


def flag(numbers):
    """Values for a numeric flag: one of `numbers` as text, or text that is
    no number at all."""
    return numbers.map(str) | st.text(max_size=6).filter(_not_a_number)


NAN = st.just(float("nan"))
# Per numeric solve flag: values in range, then values that must be refused.
# Every run the flags allow stays small: a FIS budget of at most 4 x 4, or
# one over MAX_EVALUATIONS; alpha at most 0.5, which cools from any finite
# t_initial in about 10^3 steps or fewer; at most 3 runs, or a count over MAX_RUNS.
SOLVE_FLAGS = {
    "--population": (
        st.integers(2, 4),
        flag(st.integers(-2, 1) | st.integers(min_value=MAX_EVALUATIONS + 1)),
    ),
    "--iterations": (
        st.integers(1, 4),
        flag(st.integers(max_value=0) | st.integers(min_value=MAX_EVALUATIONS + 1)),
    ),
    "--alpha": (
        st.floats(0, 0.5, exclude_min=True),
        flag(st.floats(max_value=0) | st.floats(min_value=1) | NAN),
    ),
    "--t-initial": (
        st.floats(STOP_FLOOR, exclude_min=True, allow_infinity=False),
        flag(st.floats(max_value=STOP_FLOOR) | st.just(float("inf")) | NAN),
    ),
    "--seed": (st.integers(min_value=0), flag(st.integers(max_value=-1))),
    "--runs": (
        st.integers(1, 3),
        flag(st.integers(max_value=0) | st.integers(min_value=MAX_RUNS + 1)),
    ),
}


@st.composite
def solve_argv(draw):
    """A solve command line with every numeric flag in range except up to two."""
    values = {name: str(draw(good)) for name, (good, _) in SOLVE_FLAGS.items()}
    for name in draw(st.lists(st.sampled_from(list(SOLVE_FLAGS)), max_size=2, unique=True)):
        values[name] = draw(SOLVE_FLAGS[name][1])
    argv = ["solve", "--instance", "builtin:experiment-1",
            f"--algorithm={draw(st.sampled_from(ALGORITHMS))}"]
    return argv + [f"{name}={value}" for name, value in values.items()]


@FUZZ
@given(argv=solve_argv())
def test_numeric_solve_flags_never_crash(capsys, argv):
    assert main(argv) in {0, 2}
    capsys.readouterr()


@FUZZ
@given(cap=flag(st.integers()))
def test_enumeration_cap_never_crashes(capsys, cap):
    argv = ["oracle", "--instance", "builtin:experiment-1", "--enumerate", f"--cap={cap}"]
    assert main(argv) in {0, 2}
    capsys.readouterr()


TEST_IDS = INSTANCE["tests"]
SELECTION = st.text(max_size=12) | st.lists(
    st.sampled_from(TEST_IDS) | st.text(max_size=4), max_size=8
).map(",".join)


@FUZZ
@given(selection=SELECTION)
def test_any_selection_is_judged_or_refused(capsys, selection):
    argv = ["validate", "--instance", "builtin:experiment-1", f"--selection={selection}"]
    assert main(argv) in {0, 1, 2}
    capsys.readouterr()
