import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import prefix_length
from tsred import (
    OPERATORS,
    FISConfig,
    ParameterError,
    builtin,
    hamming,
    measure_diversification,
    measure_intensification,
    measure_quality,
    objective,
    run_fis,
    validate_instance,
)
from tsred.fis import (
    DRAW_ROWS,
    MAX_EVALUATIONS,
    LengthMismatchError,
    _member_positions,
    _position_bounds,
    insert_at,
    move,
    order_crossover,
    reverse_segment,
    swap_at,
)
from tsred.fuzzy import LinguisticVariable, Rule, RuleBase, Trapezoid


def test_hamming_basics():
    assert hamming((1, 2, 3), (1, 2, 3)) == 0.0
    assert hamming((1, 2, 3), (3, 2, 1)) == pytest.approx(2 / 3)
    assert hamming((1, 2), (2, 1)) == 1.0
    assert hamming((), ()) == 0.0
    with pytest.raises(LengthMismatchError):
        hamming((1, 2), (1, 2, 3))


def test_measure_quality_follows_formula():
    n = 10
    assert measure_quality(5, 5, n) == 0.5
    assert measure_quality(n, 1, n) == pytest.approx(0.5 + (n - 1) / (2 * n))
    assert measure_quality(1, n, n) == pytest.approx(0.5 - (n - 1) / (2 * n))
    # clamping kicks in only beyond a full-range jump
    assert measure_quality(0, 2 * n, n) == 0.0
    assert measure_quality(2 * n, 0, n) == 1.0


def test_measure_diversification_and_intensification():
    x = (0, 1, 2, 3)
    pop = [(0, 1, 2, 3), (3, 2, 1, 0), (0, 1, 3, 2)]
    assert measure_diversification(x, pop) == pytest.approx((0 + 1 + 0.5) / 3)
    assert measure_intensification(x, (0, 1, 2, 3)) == 1.0
    assert measure_intensification(x, (3, 2, 1, 0)) == 0.0
    with pytest.raises(ValueError):
        measure_diversification(x, [])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 12).flatmap(
        lambda n: st.tuples(
            st.permutations(range(n)), st.lists(st.permutations(range(n)), min_size=1, max_size=8)
        )
    )
)
def test_measure_diversification_array_equals_sequences(case):
    x, pop = tuple(case[0]), [tuple(p) for p in case[1]]
    expected = sum(hamming(x, p) for p in pop) / len(pop)
    assert measure_diversification(x, np.array(pop, dtype=np.int64)) == expected
    assert measure_diversification(x, pop) == expected
    # hamming and intensification take arrays as they take tuples
    ax, ap = np.array(x, dtype=np.int64), np.array(pop[0], dtype=np.int64)
    assert hamming(ax, ap) == hamming(x, pop[0])
    assert measure_intensification(ax, ap) == measure_intensification(x, pop[0])


def test_measure_diversification_refuses_bad_population():
    x = (0, 1, 2)
    for pop in ([(0, 1, 2), (0, 1)], np.array([[0, 1], [1, 0]]), np.array([0, 1, 2])):
        with pytest.raises(LengthMismatchError):
            measure_diversification(x, pop)
    for empty in ([], np.empty((0, 3), np.int64)):
        with pytest.raises(ValueError, match="empty"):
            measure_diversification(x, empty)


def test_position_operators_exact():
    p = (10, 11, 12, 13, 14)
    assert swap_at(p, 0, 3) == (13, 11, 12, 10, 14)
    assert insert_at(p, 1, 3) == (10, 12, 13, 11, 14)
    assert insert_at(p, 3, 0) == (13, 10, 11, 12, 14)
    assert reverse_segment(p, 1, 3) == (10, 13, 12, 11, 14)
    assert order_crossover(p, (14, 13, 12, 11, 10), 1, 2) == (14, 11, 12, 13, 10)


def test_order_crossover_identity_mate_keeps_permutation():
    p = (0, 1, 2, 3, 4, 5)
    assert order_crossover(p, p, 2, 4) == p


def one_member(op, draws):
    """`_member_positions` for a single member's draws, as two ints."""
    i, j = _member_positions(op, np.array([draws], np.int64))
    return i[0], j[0]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(OPERATORS), st.integers(2, 12), st.integers(0, 2**32 - 1), st.data())
def test_move_preserves_permutation(op, n, seed, data):
    # the chain run_fis takes: draws below _position_bounds, _positions, move
    rng = np.random.default_rng(seed)
    p = tuple(int(v) for v in rng.permutation(n))
    mate = tuple(int(v) for v in rng.permutation(n))
    draws = [data.draw(st.integers(0, high - 1)) for high in _position_bounds(op, n)]
    out = move(op, p, mate, *one_member(op, draws))
    assert sorted(out) == list(range(n))


def scalar_positions(op, draws):
    """One member's positions from its draws, written out one rule at a time."""
    if not draws:
        return 0, 0
    i, j = draws
    if op == "insertion":
        return i, j
    if j >= i:
        j += 1  # j skips over i, so the two differ
    if op == "swap":
        return i, j
    return (i, j) if i < j else (j, i)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(OPERATORS), st.integers(1, 12), st.integers(1, 8), st.data())
def test_member_positions_equal_the_scalar_rule_row_by_row(op, n, members, data):
    highs = _position_bounds(op, n)
    rows = [[data.draw(st.integers(0, high - 1)) for high in highs] for _ in range(members)]
    if op == "crossover":  # run_fis puts each member's mate draw first
        draws = [[data.draw(st.integers(0, members - 1))] + row for row in rows]
    else:
        draws = rows
    i, j = _member_positions(op, np.array(draws, np.int64))  # (members, 0) when n is 1
    assert len(i) == len(j) == members
    assert all(type(v) is int for v in i + j)
    assert list(zip(i, j)) == [scalar_positions(op, row) for row in rows]


@st.composite
def instances_with_permutations(draw):
    """An instance of 1-8 tests and 0-6 requirements, and a permutation."""
    n = draw(st.integers(1, 8))
    tests = [f"t{k}" for k in range(n)]
    candidates = st.lists(st.sampled_from(tests), min_size=1, max_size=n, unique=True)
    requirements = [(f"r{i}", draw(candidates)) for i in range(draw(st.integers(0, 6)))]
    instance = validate_instance("drawn", tests, requirements)
    return instance, tuple(draw(st.permutations(range(n))))


@settings(max_examples=300, deadline=None)
@given(instances_with_permutations())
def test_objective_is_the_prefix_length(case):
    instance, p = case
    assert objective(instance, p) == prefix_length(instance)(p)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("swap", "insertion", "reversal")), st.data())
def test_move_keeps_every_position_before_the_lowest_touched(op, data):
    # run_fis relies on this to skip evaluating moves past the covering prefix
    n = data.draw(st.integers(2, 12))
    i, j = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2)))
    if op == "insertion" and data.draw(st.booleans()):
        i, j = j, i
    p = tuple(range(n))
    out = move(op, p, p, i, j)
    assert sorted(out) == list(range(n))
    assert out[: min(i, j)] == p[: min(i, j)]


def test_move_single_element_is_noop():
    for op in OPERATORS:
        assert _position_bounds(op, 1) == ()
        assert move(op, (0,), (0,), *one_member(op, ())) == (0,)


def test_move_unknown_name():
    with pytest.raises(ValueError):
        move("shuffle", (0, 1), (0, 1), *one_member("shuffle", (1, 0)))


def _constant_rule_base(decision: str) -> RuleBase:
    anything = LinguisticVariable("quality", {"Any": Trapezoid(0, 0, 1, 1)})
    output = LinguisticVariable(
        "decision", {"Change": Trapezoid(0, 0, 0.3, 0.5), "Maintain": Trapezoid(0.5, 0.7, 1, 1)}
    )
    return RuleBase(
        inputs={"quality": anything},
        output=output,
        rules=(Rule.of({"quality": "Any"}, decision),),
    )


def test_run_switches_operator_on_change(tiny):
    rb = _constant_rule_base("Change")
    res = run_fis(tiny, FISConfig(population_size=4, max_iterations=200, rule_base=rb), seed=0)
    ops = res.operators
    assert all(a != b for a, b in zip(ops, ops[1:]))
    assert set(zip(ops, ops[1:])) == {(a, b) for a in OPERATORS for b in OPERATORS if a != b}


def test_config_validation():
    with pytest.raises(ValueError):
        FISConfig(population_size=1)
    with pytest.raises(ValueError):
        FISConfig(max_iterations=0)
    with pytest.raises(ParameterError, match="seed"):
        run_fis(builtin("experiment-1"), seed=-1)
    FISConfig(population_size=MAX_EVALUATIONS // 100, max_iterations=100)
    with pytest.raises(ParameterError, match="must not exceed"):
        FISConfig(population_size=MAX_EVALUATIONS // 100 + 1, max_iterations=100)
    push = LinguisticVariable("push", {"Any": Trapezoid(0, 0, 1, 1)})
    foreign = RuleBase({"push": push}, push, (Rule.of({"push": "Any"}, "Any"),))
    with pytest.raises(ParameterError, match="inputs"):
        FISConfig(rule_base=foreign)


def test_run_is_deterministic_per_seed():
    inst = builtin("experiment-2")
    a = run_fis(inst, seed=11)
    b = run_fis(inst, seed=11)
    assert a == b
    c = run_fis(inst, seed=12)
    assert a.solution.permutation != c.solution.permutation or a.history != c.history


def test_run_history_tracks_incumbent(tiny):
    res = run_fis(tiny, FISConfig(population_size=4, max_iterations=30), seed=5)
    assert len(res.history) == 30
    assert len(res.operators) == 30
    assert all(op in OPERATORS for op in res.operators)
    assert all(a >= b for a, b in zip(res.history, res.history[1:]))
    assert res.history[-1] == res.solution.prefix_len


def test_run_finds_tiny_minimum(tiny):
    res = run_fis(tiny, FISConfig(population_size=6, max_iterations=40), seed=0)
    assert res.solution.prefix_len == 2
    assert set(res.solution.selected) == {0, 2}  # t1 and t3, the unique minimum


def test_run_respects_custom_rule_base(tiny):
    rb = _constant_rule_base("Maintain")
    res = run_fis(tiny, FISConfig(population_size=4, max_iterations=10, rule_base=rb), seed=3)
    assert len(set(res.operators)) == 1  # operator never changes under Maintain


def test_select_operator_keeps_on_maintain(tiny):
    rb = _constant_rule_base("Maintain")
    firsts = set()
    config = FISConfig(population_size=4, max_iterations=20, rule_base=rb)
    for seed in range(8):
        operators = run_fis(tiny, config, seed=seed).operators
        assert len(set(operators)) == 1  # operator never changes under Maintain
        firsts.add(operators[0])
    assert len(firsts) > 1  # the seed's first draw picks the operator in force


def test_run_memory_stays_flat_for_a_large_population():
    # A population of DRAW_ROWS or more draws one iteration at a time.  So
    # drawn, this run (seed 3 puts crossover, with its mate draws, in force)
    # peaks at about 5.0 MB under Python 3.11 and numpy 2.4; the bound leaves
    # 20% over that.  Drawing eight iterations ahead whatever the population
    # size peaks at about 8.4 MB.
    inst = validate_instance("three", ["t0", "t1", "t2"], [("r0", ["t0", "t1"]), ("r1", ["t2"])])
    config = FISConfig(population_size=20_000, max_iterations=2)
    assert config.population_size >= DRAW_ROWS
    run_fis(inst, FISConfig(population_size=4, max_iterations=2), seed=3)  # lazy set-up first
    tracemalloc.start()
    try:
        run_fis(inst, config, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.0e6
