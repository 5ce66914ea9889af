"""FIS and SA against their plain-loop references in helpers.py.

The package skips moves that cannot change the objective, moves permutations
in place, draws positions in blocks and stops at the packing floor.  The
references score every candidate and run the whole schedule; FIS's draws one
scalar at a time, SA's takes blocks of helpers.SA_BLOCK pairs from code of
its own.  None of that may change a result: for a given seed the solution
and the history must equal the reference's, and so must FIS's operator log
through the iteration whose best first reaches the floor (after it FIS
repeats that iteration's operator).
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    DECISION,
    always,
    brute_minimum,
    fis_reference,
    packing_bound_naive,
    random_instance,
    sa_reference,
)
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


def iterations_to_floor(instance, history) -> int:
    """How many iterations run before the stop: through the first whose
    history sits on the packing floor, else all of them."""
    floor = packing_bound_naive(instance, set(range(instance.m)), set(range(instance.n)))
    return history.index(floor) + 1 if floor in history else len(history)


def assert_fis_matches(instance, config: FISConfig, seed: int):
    result = run_fis(instance, config, seed=seed)
    solution, history, operators = fis_reference(
        instance, config.population_size, config.max_iterations, seed, config.rule_base
    )
    assert result.solution == solution
    assert result.history == history
    s = iterations_to_floor(instance, history)
    assert result.operators[:s] == operators[:s]
    assert result.operators[s:] == operators[s - 1 : s] * (len(operators) - s)
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


@pytest.mark.parametrize("name", builtin_names())
def test_sa_matches_reference_on_a_short_schedule(name):
    # 103 steps.  Where a run reaches the packing floor, SA stops proposing
    # and records the best objective for each step left; the reference
    # anneals to the end, so the padded history must read the same.
    instance = builtin(name)
    for seed in SEEDS:
        assert_sa_matches(instance, SAParams(alpha=0.9, t_initial=50.0), seed)


@pytest.mark.parametrize("name", EDGE)
def test_fis_and_sa_match_reference_on_edge_instances(name):
    instance = EDGE[name]
    for seed in range(1, 4):
        assert_fis_matches(instance, FISConfig(population_size=8, max_iterations=40), seed)
        assert_sa_matches(instance, SAParams(), seed)


@pytest.mark.parametrize("name", ["experiment-4", *EDGE])
def test_fis_matches_reference_when_every_iteration_switches(name):
    instance = EDGE[name] if name in EDGE else builtin(name)
    config = FISConfig(population_size=5, max_iterations=40, rule_base=always("Change"))
    for seed in range(1, 4):
        result = assert_fis_matches(instance, config, seed)
        ops = result.operators[: iterations_to_floor(instance, result.history)]
        assert all(a != b for a, b in zip(ops, ops[1:]))


@pytest.mark.parametrize("name", ["experiment-4", "experiment-5", *EDGE])
def test_fis_matches_reference_when_switching_on_worse_iterations(name):
    instance = EDGE[name] if name in EDGE else builtin(name)
    for seed in range(1, 6):
        assert_fis_matches(instance, FISConfig(rule_base=change_when_worse()), seed)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 2**32 - 1), st.booleans())
def test_fis_matches_reference_on_random_instances(rnd, seed, switching):
    # most runs sit on the packing floor by iteration 0, about a fifth reach
    # it later and about a sixth never do
    instance = random_instance(rnd)
    rule_base = always("Change") if switching else None
    config = FISConfig(population_size=6, max_iterations=15, rule_base=rule_base)
    assert_fis_matches(instance, config, seed)


def scripted(switches):
    """A stand-in for `infer` that asks for a switch after each iteration in
    `switches` (counted from 0) and to keep the operator after every other."""
    calls = itertools.count()
    return lambda rb, inputs: 0.0 if next(calls) in switches else 1.0


# core.position_rows draws core.BLOCK (256) rows at a time.  Two and seven
# members take whole iterations from one block; with 129 members an
# iteration straddles a block's end, and with 257 every iteration does.
# One switch at each iteration, and two at each pair of the first ten, put
# a switch at iteration 0, at every other and twice in a row.
@pytest.mark.parametrize("size, iterations", [(2, 20), (7, 20), (129, 5), (257, 3)])
def test_fis_switches_never_move_member_positions(monkeypatch, five_cycle, size, iterations):
    # the floor lies below the minimum, so no run stops before its schedule ends
    assert packing_bound_naive(five_cycle, set(range(5)), set(range(5))) == 2
    assert brute_minimum(five_cycle) == 3
    schedules = [{t} for t in range(iterations)]
    schedules += [set(pair) for pair in itertools.combinations(range(min(iterations, 10)), 2)]
    for k, switches in enumerate(schedules):
        monkeypatch.setattr(fis, "infer", scripted(switches))
        monkeypatch.setattr(helpers, "infer", scripted(switches))
        config = FISConfig(population_size=size, max_iterations=iterations)
        ops = assert_fis_matches(five_cycle, config, k).operators
        changed = {t for t in range(iterations - 1) if ops[t] != ops[t + 1]}
        assert changed == {t for t in switches if t < iterations - 1}
