import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_minimum, prefix_length
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
    packing_bound,
    run_fis,
    validate_instance,
)
from tsred import fis
from tsred.core import position_rows
from tsred.fis import MAX_EVALUATIONS, LengthMismatchError, IN_PLACE, order_crossover
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
    # the exact ratio of mismatched positions to n x members, rounded once
    mismatches = sum(a != b for p in pop for a, b in zip(x, p))
    expected = float(Fraction(mismatches, len(x) * len(pop))) if x else 0.0
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


def moved(op, p, mate, i, j):
    """op applied to a copy of p at positions i and j, as run_fis applies it:
    crossover keeps p[min(i, j)..max(i, j)] and fills the rest from mate."""
    if op == "crossover":
        return tuple(order_crossover(p, mate, min(i, j), max(i, j)))
    q = list(p)
    IN_PLACE[op](q, i, j)
    return tuple(q)


def test_position_operators_exact():
    p = (10, 11, 12, 13, 14)
    assert moved("swap", p, p, 0, 3) == (13, 11, 12, 10, 14)
    assert moved("insertion", p, p, 1, 3) == (10, 12, 13, 11, 14)
    assert moved("insertion", p, p, 3, 0) == (13, 10, 11, 12, 14)
    assert moved("reversal", p, p, 1, 3) == (10, 13, 12, 11, 14)
    assert moved("reversal", p, p, 3, 1) == (10, 13, 12, 11, 14)
    assert moved("crossover", p, (14, 13, 12, 11, 10), 2, 1) == (14, 11, 12, 13, 10)


def test_order_crossover_identity_mate_keeps_permutation():
    p = (0, 1, 2, 3, 4, 5)
    assert order_crossover(p, p, 2, 4) == list(p)


def sliced(op, p, i, j):
    """p after op at positions i and j, put together from slices."""
    lo, hi = min(i, j), max(i, j)
    if op == "swap" and lo < hi:
        return p[:lo] + p[hi : hi + 1] + p[lo + 1 : hi] + p[lo : lo + 1] + p[hi + 1 :]
    if op == "swap":
        return p
    if op == "insertion":
        rest = p[:i] + p[i + 1 :]
        return rest[:j] + [p[i]] + rest[j:]
    return p[:lo] + p[lo : hi + 1][::-1] + p[hi + 1 :]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(IN_PLACE)), st.integers(1, 12), st.randoms(use_true_random=False))
def test_in_place_moves_undo_and_equal_move(op, n, rnd):
    # run_fis moves a member in place and moves it back, by the same
    # operator with i and j exchanged, unless the candidate replaces it
    p = list(range(n))
    rnd.shuffle(p)
    for i, j in itertools.product(range(n), repeat=2):
        q = p.copy()
        IN_PLACE[op](q, i, j)
        assert q == sliced(op, p, i, j), (i, j)
        IN_PLACE[op](q, j, i)
        assert q == p, (i, j)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(OPERATORS), st.integers(2, 12), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_move_preserves_permutation(op, n, size, seed):
    # the chain run_fis takes: each member's row (i, j, mate) of
    # position_rows, then the operator at i and j (crossover with that mate)
    rng = np.random.default_rng(seed)
    population = [tuple(int(v) for v in rng.permutation(n)) for _ in range(size)]
    for k, (i, j, mate) in zip(range(size), position_rows(rng, n, size)):
        assert sorted(moved(op, population[k], population[mate], i, j)) == list(range(n))


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
    out = moved(op, p, p, i, j)
    assert sorted(out) == list(range(n))
    assert out[: min(i, j)] == p[: min(i, j)]


@settings(max_examples=300, deadline=None)
@given(instances_with_permutations(), st.sampled_from(("swap", "insertion", "reversal")))
def test_moves_wholly_past_or_before_the_prefix_end_keep_the_objective(case, op):
    # run_fis and simulated_annealing do not score these moves
    instance, p = case
    length = prefix_length(instance)
    own = length(p)
    for i, j in itertools.product(range(len(p)), repeat=2):
        lo, hi = min(i, j), max(i, j)
        if lo >= own or hi <= own - 2:
            assert length(moved(op, p, p, i, j)) == own, (i, j)


def test_moves_reaching_the_prefix_end_can_change_the_objective():
    # r0 needs t1 alone, so (t0, t1, t2) covers at 2.  Moves of positions
    # (0, 1), with hi = own - 1, bring t1 first; moves of (1, 2), with
    # lo = own - 1, push it back.  Both must be scored.
    instance = validate_instance("edge", ["t0", "t1", "t2"], [("r0", ["t1"])])
    length = prefix_length(instance)
    p = (0, 1, 2)
    assert length(p) == 2
    for op in ("swap", "insertion", "reversal"):
        assert length(moved(op, p, p, 0, 1)) == 1
        assert length(moved(op, p, p, 1, 2)) == 3


@pytest.mark.parametrize("name, calls", [("experiment-1", 20), ("experiment-4", 1005)])
def test_objective_calls_per_run_are_pinned(monkeypatch, name, calls):
    # seed 1.  On experiment-1 the best of the 20 random starting members
    # already sits on the packing floor, so the run scores those 20 and no
    # candidate.  Skipping only moves with lo >= own, and running all 100
    # iterations, scores 1506 and 1720 candidates
    counted = []
    real = fis.objective
    monkeypatch.setattr(fis, "objective", lambda inst, p: counted.append(p) or real(inst, p))
    run_fis(builtin(name), seed=1)
    assert len(counted) == calls


def test_a_start_on_the_floor_draws_no_move(monkeypatch):
    # seed 1 on experiment-1: the best starting member already sits on the
    # packing floor, so the run needs no move generator
    instance = builtin("experiment-1")
    expected = run_fis(instance, seed=1)

    def no_moves(*args):
        raise AssertionError("a run that starts on the floor asked for moves")

    monkeypatch.setattr(fis, "position_rows", no_moves)
    res = run_fis(instance, seed=1)
    assert res == expected
    assert res.history == (3,) * 100 == (packing_bound(instance),) * 100


def test_run_stops_consulting_the_controller_at_the_floor(monkeypatch):
    # seed 28 reaches experiment-3's packing floor of 3 in iteration 3 of 100:
    # the controller is consulted after iterations 0-2 only, and the history
    # and operator log repeat the stopping iteration's entries to the end
    instance = builtin("experiment-3")
    consulted = []
    real = fis.infer
    monkeypatch.setattr(fis, "infer", lambda rb, x: consulted.append(x) or real(rb, x))
    res = run_fis(instance, seed=28)
    assert packing_bound(instance) == 3
    assert res.history.index(3) == 3 == len(consulted)
    assert res.history[3:] == (3,) * 97
    assert res.operators[3:] == (res.operators[3],) * 97
    assert instance.ids(res.solution.selected) == ("t11", "t10", "t4")


def test_move_single_element_is_noop():
    for op in OPERATORS:
        assert moved(op, (0,), (0,), 0, 0) == (0,)


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


def test_run_switches_operator_on_change(five_cycle):
    # the floor lies below the minimum, so the run takes all 200 iterations
    assert packing_bound(five_cycle) == 2 < brute_minimum(five_cycle) == 3
    rb = _constant_rule_base("Change")
    res = run_fis(five_cycle, FISConfig(population_size=4, max_iterations=200, rule_base=rb), seed=0)
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
    # Moves draw core.BLOCK rows at a time, whatever the population size.
    # The triangle's floor (1) lies below its minimum (2), so the run takes
    # both iterations; seed 3 puts crossover, with its mate column, in force.
    # It peaks at about 3.1 MB under Python 3.11 and numpy 2.4, nearly all of
    # it the population; the bound leaves 20% over that.  Drawing a whole
    # iteration's rows at once peaks at about 5.3 MB.
    triangle = [("r1", ["a", "b"]), ("r2", ["b", "c"]), ("r3", ["a", "c"])]
    inst = validate_instance("triangle", ["a", "b", "c"], triangle)
    config = FISConfig(population_size=20_000, max_iterations=2)
    run_fis(inst, FISConfig(population_size=4, max_iterations=2), seed=3)  # lazy set-up first
    tracemalloc.start()
    try:
        result = run_fis(inst, config, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert packing_bound(inst) == 1 < result.solution.prefix_len
    assert result.operators == ("crossover", "crossover")
    assert peak < 3.7e6
