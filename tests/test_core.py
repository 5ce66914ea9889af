import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    _distinct_pair,
    covers_naive,
    ge_naive,
    prefix_by_scan,
    random_instance,
    undominated_naive,
)
from tsred import (
    InvalidInstanceError,
    decode,
    instance_violations,
    is_cover,
    objective,
    reduction_percent,
    validate_instance,
)
from tsred.core import coverage, essential_tests, greedy_fill, step_over, undominated


def test_instance_basics(tiny):
    assert tiny.n == 4
    assert tiny.m == 4
    assert tiny.tests == ("t1", "t2", "t3", "t4")
    assert tiny.index_of["t3"] == 2
    assert tiny.ids([2, 0]) == ("t3", "t1")
    assert tiny.full_mask == 0b1111


def test_test_masks_match_requirements(tiny):
    # t1 appears in r1 and r2 (requirement indices 0, 1)
    assert tiny.test_masks[0] == 0b0011
    assert tiny.test_masks[3] == 0b0100


def test_validate_rejects_duplicate_test_ids():
    with pytest.raises(InvalidInstanceError) as exc:
        validate_instance("x", ["t1", "t1"], [("r1", ["t1"])])
    assert any(v.kind == "DuplicateId" for v in exc.value.violations)


def test_validate_rejects_unknown_candidate():
    with pytest.raises(InvalidInstanceError) as exc:
        validate_instance("x", ["t1"], [("r1", ["t1", "t9"])])
    assert any(v.kind == "UnknownTest" and v.subject == "t9" for v in exc.value.violations)


def test_validate_rejects_empty_candidates():
    with pytest.raises(InvalidInstanceError) as exc:
        validate_instance("x", ["t1"], [("r1", [])])
    assert any(v.kind == "EmptyCandidates" for v in exc.value.violations)


def test_validate_collects_all_violations_at_once():
    with pytest.raises(InvalidInstanceError) as exc:
        validate_instance("x", ["t1", "t1"], [("r1", []), ("r1", ["zz"])])
    kinds = sorted(v.kind for v in exc.value.violations)
    assert kinds == ["DuplicateId", "DuplicateId", "EmptyCandidates", "UnknownTest"]


def test_instance_violations_clean():
    assert instance_violations("x", ["t1"], [("r1", ["t1"])]) == []


def test_is_cover(tiny):
    assert is_cover(tiny, [0, 2])
    assert is_cover(tiny, [0, 1, 2, 3])
    assert not is_cover(tiny, [0, 1])
    assert not is_cover(tiny, [])
    with pytest.raises(ValueError):
        is_cover(tiny, [4])
    with pytest.raises(ValueError):
        is_cover(tiny, [-1])


def test_objective_and_decode(tiny):
    assert objective(tiny, (0, 2, 1, 3)) == 2
    assert objective(tiny, (1, 2, 3, 0)) == 4  # r1 is only covered by the last entry
    sol = decode(tiny, (0, 2, 1, 3))
    assert sol.prefix_len == 2
    assert sol.selected == (0, 2)
    assert sol.permutation == (0, 2, 1, 3)


def test_decode_rejects_non_permutations(tiny):
    with pytest.raises(ValueError):
        decode(tiny, (0, 1, 2))  # wrong length
    with pytest.raises(ValueError):
        decode(tiny, (0, 0, 1, 2))  # repeated index


def test_objective_rejects_non_covering_sequence(tiny):
    with pytest.raises(ValueError):
        objective(tiny, (0, 1))  # covers r1, r2, r4 but never r3


def test_reduction_percent_exact_and_text():
    assert reduction_percent(7, 3) == "57.1"
    assert reduction_percent(31, 11) == "64.5"
    assert reduction_percent(5, 5) == "0.0"
    assert reduction_percent(4, 1) == "75.0"
    assert reduction_percent(4, 0) == "100.0"  # empty cover, no requirements
    # the text is that of the exact ratio, rounded once to a float
    for n in range(1, 301):
        for k in range(n + 1):
            assert reduction_percent(n, k) == f"{float(Fraction(100 * (n - k), n)):.1f}"


def test_reduction_percent_guards():
    with pytest.raises(ValueError):
        reduction_percent(4, -1)
    with pytest.raises(ValueError):
        reduction_percent(4, 5)
    with pytest.raises(ValueError):
        reduction_percent(0, 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_decode_matches_naive_prefix_scan(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_tests=12, max_requirements=10)
    perm = tuple(rng.sample(range(inst.n), inst.n))
    sol = decode(inst, perm)
    assert sol.prefix_len == prefix_by_scan(inst, perm)
    assert covers_naive(inst, sol.selected)
    assert is_cover(inst, sol.selected)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 300), st.data())
def test_step_over_maps_the_second_draws_onto_the_other_positions(n, data):
    # every second draw j below n - 1 lands on a different position below n
    # other than i, so a uniform j gives a uniform second position
    i = data.draw(st.integers(0, n - 1))
    seconds = step_over([i] * (n - 1), range(n - 1))
    assert len(seconds) == n - 1
    assert set(seconds) == set(range(n)) - {i}


class ScriptedDraws:
    """Stands in for a numpy Generator whose integers() returns given values."""

    def __init__(self, values):
        self.values = iter(values)

    def integers(self, high):
        value = next(self.values)
        assert 0 <= value < high
        return value


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 40), st.data())
def test_step_over_equals_the_scalar_rule_pair_by_pair(n, data):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2))
    pairs = data.draw(st.lists(pair, max_size=50))
    rng = ScriptedDraws([v for ij in pairs for v in ij])
    firsts = [i for i, _ in pairs]
    got = list(zip(firsts, step_over(firsts, [j for _, j in pairs])))
    assert got == [_distinct_pair(rng, n) for _ in pairs]


def test_greedy_fill_stops_when_the_pool_covers_no_more():
    masks = (0b0011, 0b0110, 0b1000)
    # tests 0 and 1 tie on gain 2, the lower index wins; requirement 3 is
    # only in test 2, which the pool leaves out
    assert greedy_fill(masks, 0b1111, 0b011) == [0, 1]
    assert greedy_fill(masks, 0b1111, 0b111) == [0, 1, 2]
    assert greedy_fill(masks, 0b1000, 0b011) == []
    assert greedy_fill(masks, 0, 0b111) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_greedy_fill_covers_what_the_pool_can(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_tests=12, max_requirements=10)
    pool = rng.getrandbits(inst.n)
    picks = greedy_fill(inst.test_masks, inst.full_mask, pool)
    members = [t for t in range(inst.n) if pool >> t & 1]
    assert set(picks) <= set(members)
    assert coverage(inst, picks) == coverage(inst, members)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_essential_tests_then_greedy_fill_is_ge(seed):
    inst = random_instance(random.Random(seed), max_tests=12, max_requirements=10)
    everyone = (1 << inst.n) - 1
    essential = essential_tests(inst.candidate_masks, inst.full_mask, everyone)
    rest = inst.full_mask & ~coverage(inst, essential)
    assert essential + greedy_fill(inst.test_masks, rest, everyone) == ge_naive(inst)


def members(mask: int) -> set[int]:
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def assert_undominated_is_naive(sets, pool):
    naive = undominated_naive([members(s) for s in sets], members(pool))
    assert members(undominated(sets, pool)) == naive


def test_undominated_keeps_the_lowest_of_equal_sets_and_reads_only_the_pool():
    assert undominated([0b11, 0b11, 0b01], 0b111) == 0b001  # equal sets: the lowest stays
    assert undominated([0b01, 0b11, 0b11], 0b111) == 0b010
    assert undominated([0, 0b1], 0b11) == 0b10  # an empty set lies inside any other
    assert undominated([0, 0], 0b11) == 0b01
    assert undominated([0b1, 0b11], 0b01) == 0b01  # test 1, outside the pool, drops nothing
    assert undominated([0b1, 0b11], 0) == 0


# sets over a few requirements, so equal and empty sets come up often
@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**4 - 1), max_size=10), st.integers(0, 2**10 - 1))
@example([0b11, 0b11, 0b01], 0b111)
@example([0, 0, 0b10], 0b111)
@example([0b1, 0b11, 0b11], 0b101)
def test_undominated_matches_the_naive_rule(sets, pool):
    assert_undominated_is_naive(sets, pool & (1 << len(sets)) - 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_undominated_on_the_gre_and_oracle_call_shapes(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_tests=12, max_requirements=10)
    pool = rng.getrandbits(inst.n)
    masks = inst.test_masks
    # GRE: each test's requirements not yet covered by the tests picked so far
    covered = coverage(inst, [t for t in range(inst.n) if rng.random() < 0.3])
    assert_undominated_is_naive([m & ~covered for m in masks], pool)
    # the oracle's reduction: each test's share of the uncovered requirements
    uncovered = rng.getrandbits(inst.m)
    assert_undominated_is_naive([m & uncovered for m in masks], pool)
