"""FIS and SA against their plain-loop references in helpers.py.

run_fis takes its position draws a block of iterations at a time and
rewinds the block when the operator switches, skips the evaluation of moves
that leave the covering prefix alone and scans any other candidate's prefix
only up to a bound; SA skips the evaluation of swaps past the prefix.
Neither may change a result: for a given seed the solution, the history and
the operator log must equal those of the plain loops, which evaluate every
candidate.  The FIS reference draws one scalar
at a time; the SA reference takes its swap positions in blocks of
helpers.SA_BLOCK pairs, as the annealer does, from code of its own.
"""

import itertools
import random

import pytest

import helpers
from helpers import DECISION, always_change, fis_reference, sa_reference
from tsred import FISConfig, SAParams, builtin, fis, run_fis, simulated_annealing, validate_instance
from tsred.corpus import builtin_names
from tsred.fuzzy import LinguisticVariable, Rule, RuleBase, Trapezoid

SEEDS = range(1, 16)


def seeded_instance(seed: int, n: int, m: int, max_candidates: int):
    rng = random.Random(seed)
    tests = [f"t{j}" for j in range(n)]
    requirements = [
        (f"r{i}", rng.sample(tests, rng.randint(1, min(n, max_candidates)))) for i in range(m)
    ]
    return validate_instance(f"seeded-{n}x{m}", tests, requirements)


EDGE = {
    "one-test": seeded_instance(1, 1, 3, 1),
    "two-tests": seeded_instance(2, 2, 4, 2),
    "no-requirements": seeded_instance(3, 6, 0, 1),
    "wide-48x120": seeded_instance(4, 48, 120, 6),  # masks wider than 64 bits
}


def change_when_worse() -> RuleBase:
    """A rule base that switches exactly when the iteration's best candidate
    is worse than the incumbent (quality below 0.5, for up to 50 tests), so
    every iteration's best objective shows in the operator log."""
    quality = LinguisticVariable(
        "quality", {"Worse": Trapezoid(0, 0, 0.49, 0.495), "Steady": Trapezoid(0.495, 0.5, 1, 1)}
    )
    rules = (Rule.of({"quality": "Worse"}, "Change"), Rule.of({"quality": "Steady"}, "Maintain"))
    return RuleBase({"quality": quality}, DECISION, rules)


def assert_fis_matches(instance, config: FISConfig, seed: int):
    result = run_fis(instance, config, seed=seed)
    solution, history, operators = fis_reference(
        instance, config.population_size, config.max_iterations, seed, config.rule_base
    )
    assert result.solution == solution
    assert result.history == history
    assert result.operators == operators
    return result


def assert_sa_matches(instance, params: SAParams, seed: int):
    result = simulated_annealing(instance, params, seed=seed)
    solution, history = sa_reference(instance, params.alpha, params.t_initial, seed)
    assert result.solution == solution
    assert result.history == history


@pytest.mark.parametrize("name", builtin_names())
def test_fis_matches_reference_on_bundled(name):
    instance = builtin(name)
    for seed in SEEDS:
        assert_fis_matches(instance, FISConfig(), seed)


@pytest.mark.parametrize("name", builtin_names())
def test_sa_matches_reference_on_bundled(name):
    instance = builtin(name)
    for seed in SEEDS:
        assert_sa_matches(instance, SAParams(), seed)


@pytest.mark.parametrize("name", EDGE)
def test_fis_and_sa_match_reference_on_edge_instances(name):
    instance = EDGE[name]
    for seed in range(1, 4):
        assert_fis_matches(instance, FISConfig(population_size=8, max_iterations=40), seed)
        assert_sa_matches(instance, SAParams(), seed)


@pytest.mark.parametrize("name", ["experiment-4", *EDGE])
def test_fis_matches_reference_when_every_iteration_switches(name):
    instance = EDGE[name] if name in EDGE else builtin(name)
    config = FISConfig(population_size=5, max_iterations=40, rule_base=always_change())
    for seed in range(1, 4):
        result = run_fis(instance, config, seed=seed)
        assert all(a != b for a, b in zip(result.operators, result.operators[1:]))
        assert_fis_matches(instance, config, seed)


@pytest.mark.parametrize("name", ["experiment-4", "experiment-5", *EDGE])
def test_fis_matches_reference_when_switching_on_worse_iterations(name):
    instance = EDGE[name] if name in EDGE else builtin(name)
    for seed in range(1, 6):
        assert_fis_matches(instance, FISConfig(rule_base=change_when_worse()), seed)


def scripted(switches):
    """A stand-in for `infer` that asks for a switch after each iteration in
    `switches` (counted from 0) and to keep the operator after every other."""
    calls = itertools.count()
    return lambda rb, inputs: 0.0 if next(calls) in switches else 1.0


# A block covers one iteration at the start and after a switch, and twice as
# many as the last while the operator stays, up to fis.DRAW_ROWS rows.  One
# switch at each iteration, and two at each pair of the first ten, put a
# switch at iteration 0, on the last iteration of a block, on the first of
# the next, inside one, and twice in a row.
@pytest.mark.parametrize(
    "size, iterations",
    [
        (2, 20),  # blocks of 1, 2, 4 and 8 iterations
        (7, 20),  # the same, 7 rows an iteration
        (fis.DRAW_ROWS // 2, 5),  # blocks of one or two iterations
        (fis.DRAW_ROWS + 1, 3),  # one iteration a block
    ],
)
def test_fis_rewinds_to_the_per_iteration_stream_at_any_switch(monkeypatch, tiny, size, iterations):
    schedules = [{t} for t in range(iterations)]
    schedules += [set(pair) for pair in itertools.combinations(range(min(iterations, 10)), 2)]
    for k, switches in enumerate(schedules):
        monkeypatch.setattr(fis, "infer", scripted(switches))
        monkeypatch.setattr(helpers, "infer", scripted(switches))
        config = FISConfig(population_size=size, max_iterations=iterations)
        ops = assert_fis_matches(tiny, config, k).operators
        changed = {t for t in range(iterations - 1) if ops[t] != ops[t + 1]}
        assert changed == {t for t in switches if t < iterations - 1}
