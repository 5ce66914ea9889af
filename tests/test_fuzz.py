"""Mutated instance and rule-base documents never crash the CLI: each run of
main() returns one of the documented exit codes instead of raising."""

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tsred import write_instance
from tsred.cli import main
from tsred.corpus import builtin_document

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
