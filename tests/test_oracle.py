import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    branch_requirement_naive,
    brute_minimum,
    brute_minimum_covers,
    covers_naive,
    cycle,
    implied_naive,
    packing_bound_naive,
    random_instance,
)
from tsred import (
    builtin,
    enumerate_minimum_covers,
    is_cover,
    minimum_cover,
    validate_instance,
)
from tsred import oracle
from tsred.oracle import (
    _bound_space,
    _branch_requirement,
    _count_planes,
    _drop_count,
    _implied,
    _lower_bound,
    _reduce,
    packing_bound,
)

# frozen exact minima for the two larger benchmarks
EXP4_MINIMUM = 11
EXP5_MINIMUM = 9

# nine requirements of experiment-5 with pairwise disjoint candidate sets;
# each needs its own test, so no cover can be smaller than nine
EXP5_DISJOINT_CERTIFICATE = (
    "req_4", "req_10", "req_13", "req_14", "req_15", "req_16", "req_19", "req_20", "req_22",
)

# minimum_cover witnesses, recorded when the packing bound was still taken in
# requirement-index order; a stronger admissible bound must not change them
BUNDLED_WITNESSES = {
    "experiment-1": ("t2", "t4", "t7"),
    "experiment-2": ("t1", "t2", "t4"),
    "experiment-3": ("t4", "t5", "t10"),
    "experiment-4": ("t3", "t4", "t5", "t6", "t9", "t12", "t17", "t23", "t25", "t28", "t30"),
    "experiment-5": ("t0", "t6", "t8", "t9", "t10", "t20", "t24", "t29", "t30"),
}


def test_bundled_witnesses_are_frozen():
    for name, witness in BUNDLED_WITNESSES.items():
        inst = builtin(name)
        assert inst.ids(sorted(minimum_cover(inst).witness)) == witness, name


# nodes visited by minimum_cover and by enumerate_minimum_covers' own search
BUNDLED_NODES = {
    "experiment-1": (1, 11),
    "experiment-2": (1, 7),
    "experiment-3": (5, 25),
    "experiment-4": (1, 170),
    "experiment-5": (1, 63),
}


def test_bundled_node_counts_are_frozen():
    for name, nodes in BUNDLED_NODES.items():
        inst = builtin(name)
        assert (minimum_cover(inst).nodes, enumerate_minimum_covers(inst).nodes) == nodes, name


def test_node_counts_repeat_exactly():
    inst = builtin("experiment-4")
    first = minimum_cover(inst), enumerate_minimum_covers(inst)
    again = minimum_cover(inst), enumerate_minimum_covers(inst)
    assert [r.nodes for r in first] == [r.nodes for r in again]
    assert all(r.nodes >= 1 for r in first)


def test_small_benchmarks_minimum_is_three():
    for name in ("experiment-1", "experiment-2", "experiment-3"):
        inst = builtin(name)
        res = minimum_cover(inst)
        assert res.minimum_size == 3
        assert is_cover(inst, res.witness)
        assert len(res.witness) == 3


def test_packing_bound_of_bundled_instances_and_of_no_requirements():
    bounds = [packing_bound(builtin(f"experiment-{k}")) for k in range(1, 6)]
    assert bounds == [3, 3, 3, 10, 9]
    assert packing_bound(validate_instance("free", ["t0", "t1"], [])) == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.integers(0, 40), st.integers(1, 6))
def test_packing_bound_is_the_searchs_root_bound(seed, n, m, most):
    # FIS and SA stop on packing_bound, a greedy pass over the candidate
    # masks; the search prunes at its root with _lower_bound over
    # _bound_space, every requirement open and every test allowed.  The two
    # must be one quantity, with masks wider than 64 bits too.
    rng = random.Random(seed)
    tests = [f"t{j}" for j in range(n)]
    reqs = [(f"r{i}", rng.sample(tests, rng.randint(1, min(n, most)))) for i in range(m)]
    inst = validate_instance("drawn", tests, reqs)
    masks_b, req_b, near, _ = _bound_space(inst)
    root = _lower_bound(req_b, masks_b, near, inst.full_mask, (1 << n) - 1)
    assert packing_bound(inst) == root


def test_small_benchmarks_match_exhaustive_search():
    for name in ("experiment-1", "experiment-2", "experiment-3"):
        inst = builtin(name)
        assert minimum_cover(inst).minimum_size == brute_minimum(inst)


def test_enumerate_experiment_1():
    inst = builtin("experiment-1")
    res = enumerate_minimum_covers(inst)
    assert res.complete
    named = {frozenset(inst.ids(sorted(c))) for c in res.covers}
    assert named == {
        frozenset({"t1", "t2", "t4"}),
        frozenset({"t2", "t4", "t7"}),
    }


def test_enumerate_experiment_2():
    inst = builtin("experiment-2")
    res = enumerate_minimum_covers(inst)
    named = {frozenset(inst.ids(sorted(c))) for c in res.covers}
    assert named == {
        frozenset({"t1", "t2", "t4"}),
        frozenset({"t1", "t8", "t9"}),
    }


def test_enumerate_experiment_3():
    inst = builtin("experiment-3")
    res = enumerate_minimum_covers(inst)
    assert set(res.covers) == set(brute_minimum_covers(inst))
    assert len(res.covers) == 4


def test_large_benchmark_minima_are_frozen_constants():
    e4 = minimum_cover(builtin("experiment-4"))
    assert e4.minimum_size == EXP4_MINIMUM
    assert is_cover(builtin("experiment-4"), e4.witness)
    e5 = minimum_cover(builtin("experiment-5"))
    assert e5.minimum_size == EXP5_MINIMUM
    assert is_cover(builtin("experiment-5"), e5.witness)


def test_exp5_disjointness_certificate_proves_optimality():
    inst = builtin("experiment-5")
    chosen = [r for r in inst.requirements if r.id in EXP5_DISJOINT_CERTIFICATE]
    assert len(chosen) == len(EXP5_DISJOINT_CERTIFICATE)
    for a, b in itertools.combinations(chosen, 2):
        assert not (a.candidates & b.candidates)
    # disjoint requirements need one test each: a lower bound matching the
    # frozen minimum, so 9 is provably exact
    assert len(chosen) == EXP5_MINIMUM == minimum_cover(inst).minimum_size


def test_enumeration_keeps_covers_with_dominated_tests(tiny):
    # tiny's unique minimum {t1, t3}
    res = enumerate_minimum_covers(tiny)
    assert res.covers == (frozenset({0, 2}),)
    assert res.witness == frozenset({0, 2})


def test_enumeration_cap():
    inst = validate_instance(
        "wide", [f"t{j}" for j in range(6)], [("r1", [f"t{j}" for j in range(6)])]
    )
    res = enumerate_minimum_covers(inst, cap=4)
    assert res.minimum_size == 1
    assert len(res.covers) == 4
    assert not res.complete
    full = enumerate_minimum_covers(inst, cap=1000)
    assert len(full.covers) == 6
    assert full.complete
    # exactly cap covers is complete; a smaller cap stops with that many
    assert enumerate_minimum_covers(inst, cap=6) == full
    short = enumerate_minimum_covers(inst, cap=5)
    assert len(short.covers) == 5
    assert not short.complete
    with pytest.raises(ValueError):
        enumerate_minimum_covers(inst, cap=0)


def test_covers_are_sorted_lexicographically():
    inst = builtin("experiment-3")
    covers = [tuple(sorted(c)) for c in enumerate_minimum_covers(inst).covers]
    assert covers == sorted(covers)


def test_more_than_64_tests_solved_exactly():
    n = 65
    inst = cycle(n)
    best = minimum_cover(inst)
    assert best.complete
    assert best.minimum_size == (n + 1) // 2
    assert covers_naive(inst, best.witness)
    res = enumerate_minimum_covers(inst)
    assert res.complete
    assert len(res.covers) == n
    for cover in res.covers:
        assert len(cover) == (n + 1) // 2
        assert covers_naive(inst, cover)


def test_search_stops_at_node_limit(monkeypatch):
    inst = sparse_instance(3)
    k = minimum_cover(inst).minimum_size
    monkeypatch.setattr(oracle, "MAX_NODES", 5)
    best = minimum_cover(inst)
    assert not best.complete
    assert best.nodes == 6  # the node past the limit, and no sibling after it
    assert covers_naive(inst, best.witness)
    assert best.minimum_size == len(best.witness) >= k
    # no covers are listed against a size that was never proven minimal
    assert enumerate_minimum_covers(inst) == best


def test_enumeration_stops_at_node_limit(monkeypatch):
    inst = builtin("experiment-4")  # minimum_cover takes 1 node, enumeration 170
    full = enumerate_minimum_covers(inst)
    monkeypatch.setattr(oracle, "MAX_NODES", full.nodes)
    assert enumerate_minimum_covers(inst) == full
    monkeypatch.setattr(oracle, "MAX_NODES", full.nodes - 1)  # one node short
    assert not enumerate_minimum_covers(inst).complete
    monkeypatch.setattr(oracle, "MAX_NODES", 50)
    res = enumerate_minimum_covers(inst)
    assert res.minimum_size == EXP4_MINIMUM
    assert not res.complete
    assert set(res.covers) < set(full.covers)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_minimum_matches_brute_force(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_tests=12, max_requirements=10)
    res = minimum_cover(inst)
    assert res.minimum_size == brute_minimum(inst)
    assert covers_naive(inst, res.witness)
    assert len(res.witness) == res.minimum_size


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_enumeration_matches_brute_force(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_tests=10, max_requirements=8)
    res = enumerate_minimum_covers(inst, cap=100000)
    assert res.complete
    assert set(res.covers) == set(brute_minimum_covers(inst))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_root_bound_never_exceeds_minimum(seed):
    inst = random_instance(random.Random(seed), max_tests=12, max_requirements=10)
    k = brute_minimum(inst)
    masks_b, req_b, near, rank = _bound_space(inst)

    def renumbered(mask: int) -> int:
        return sum(1 << rank[i] for i in range(inst.m) if mask >> i & 1)

    assert packing_bound(inst) <= k
    # the roots the two searches start from, after preprocessing
    for drop_tests in (True, False):
        forced, uncovered, allowed = _reduce(inst, drop_tests)
        assert len(forced) + _lower_bound(req_b, masks_b, near, renumbered(uncovered), allowed) <= k


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_implied_requirements_match_set_reference(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_tests=10, max_requirements=14)
    allowed = {t for t in range(inst.n) if rng.random() < 0.7}
    # as in _reduce, every open requirement keeps an allowed candidate
    uncovered = {
        i for i, req in enumerate(inst.requirements) if req.candidates & allowed and rng.random() < 0.8
    }
    kept = _implied(
        inst.test_masks,
        inst.candidate_masks,
        sum(1 << i for i in uncovered),
        sum(1 << t for t in allowed),
    )
    assert kept == sum(1 << i for i in implied_naive(inst, uncovered, allowed))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-2, 12))
def test_budgeted_bound_prunes_as_the_full_bound(seed, budget):
    rng = random.Random(seed)
    inst = random_instance(rng, max_tests=12, max_requirements=14)
    masks_b, req_b, near, _ = _bound_space(inst)
    # any masks: a requirement left without allowed candidates is included
    uncovered, allowed = rng.getrandbits(inst.m), rng.getrandbits(inst.n)
    full = _lower_bound(req_b, masks_b, near, uncovered, allowed)
    assert min(
        _lower_bound(req_b, masks_b, near, uncovered, allowed, budget), budget + 1
    ) == min(full, budget + 1)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-1, 12), st.sampled_from([0.0, 0.15, 0.5]))
def test_packing_bound_matches_set_reference(seed, budget, p_banned):
    """p_banned 0 keeps every candidate allowed; above it, some requirements
    keep part of their candidates and some none."""
    rng = random.Random(seed)
    inst = random_instance(rng, max_tests=12, max_requirements=14)
    masks_b, req_b, near, rank = _bound_space(inst)
    uncovered = {i for i in range(inst.m) if rng.random() < 0.8}
    allowed = {t for t in range(inst.n) if rng.random() >= p_banned}
    uncovered_b = sum(1 << rank[i] for i in uncovered)
    bound = _lower_bound(req_b, masks_b, near, uncovered_b, sum(1 << t for t in allowed), budget)
    assert min(bound, budget + 1) == min(packing_bound_naive(inst, uncovered, allowed), budget + 1)


def test_packing_bound_on_every_kind_of_requirement():
    # r0 keeps all its candidates, r2 part of them, r3 none; r1 shares t0 with r0
    inst = validate_instance(
        "kinds",
        ["t0", "t1", "t2", "t3", "t4"],
        [("r0", ["t0"]), ("r1", ["t0", "t1"]), ("r2", ["t2", "t3"]), ("r3", ["t4"])],
    )
    masks_b, req_b, near, rank = _bound_space(inst)
    allowed = {0, 1, 2}

    def bound(uncovered):
        mask = sum(1 << rank[i] for i in uncovered)
        return _lower_bound(req_b, masks_b, near, mask, sum(1 << t for t in allowed))

    cases = (({0, 1, 2}, 2), ({1, 2}, 2), ({0, 1, 2, 3}, math.inf), ({3}, math.inf))
    for uncovered, expected in cases:
        assert packing_bound_naive(inst, uncovered, allowed) == expected
        assert min(bound(uncovered), inst.n + 1) == min(expected, inst.n + 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_count_planes_match_set_reference(seed, wide):
    """From a random allowed set, ban allowed tests one at a time in random
    order, down to none, as the search bans its branch's siblings: after
    every ban the planes decode to the set-based counts, the branching pick
    equals the set-based pick on a random open set, and the planes the ban
    started from are left as they were."""
    rng = random.Random(seed)
    size = 90 if wide else 12  # wide: often past 64 tests and requirements
    inst = random_instance(rng, max_tests=size, max_requirements=size)
    allowed = {t for t in range(inst.n) if rng.random() < 0.8}
    planes = _count_planes(inst.test_masks, sum(1 << t for t in allowed))
    bans = list(allowed)
    rng.shuffle(bans)
    for t in [None, *bans]:
        if t is not None:
            before = list(planes)
            dropped = _drop_count(planes, inst.test_masks[t])
            assert planes == before
            planes = dropped
            allowed.discard(t)
        counts = [
            sum((plane >> i & 1) << k for k, plane in enumerate(planes)) for i in range(inst.m)
        ]
        assert counts == [len(req.candidates & allowed) for req in inst.requirements]
        uncovered = {i for i in range(inst.m) if rng.random() < 0.6}
        if uncovered:
            pick = _branch_requirement(planes, sum(1 << i for i in uncovered))
            assert pick == branch_requirement_naive(inst, uncovered, allowed)


def sparse_instance(
    seed: int, size: tuple[int, int] = (20, 64), candidates: tuple[int, int] = (2, 6)
):
    """n tests, n within `size` (20-64 by default), n to 2n requirements of
    `candidates` (2-6 by default) candidates each: too many tests for brute
    force, sparse enough that the search does real work."""
    rng = random.Random(seed)
    n = rng.randint(*size)
    tests = [f"t{j}" for j in range(n)]
    requirements = [
        (f"r{i}", rng.sample(tests, rng.randint(*candidates))) for i in range(rng.randint(n, 2 * n))
    ]
    return validate_instance(f"sparse-{seed}", tests, requirements)


# per sparse_instance seed: minimum_cover nodes, enumeration nodes, number
# of minimum covers listed (cap 1000) and the minimum_cover witness.  Frozen
# so that a faster bound or preprocessing must keep the search's shape where
# it does real work, unlike on the bundled instances (1-170 nodes)
SPARSE_SEARCH = {
    0: (765, 2768, 12, "t1 t2 t5 t8 t11 t16 t19 t20 t21 t30 t38 t40 t43"),
    1: (15, 76, 2, "t0 t3 t5 t15 t21 t25 t27"),
    2: (1, 23, 2, "t1 t3 t5 t16 t18"),
    3: (90, 131, 2, "t0 t2 t4 t6 t8 t14 t16 t17 t21 t26 t30"),
    4: (224, 922, 29, "t0 t2 t4 t7 t12 t14 t17 t18 t21 t25 t30"),
    5: (1395, 10790, 121, "t0 t9 t10 t12 t13 t20 t22 t23 t24 t30 t31 t37 t38 t40 t41 t44 t55"),
    6: (3792, 6296, 3, "t1 t2 t5 t7 t8 t13 t14 t24 t27 t28 t31 t35 t39 t40 t44 t46 t47 t51 t54"),
    7: (270, 1289, 57, "t3 t4 t6 t7 t9 t10 t15 t17 t18 t22 t23 t33"),
    8: (105, 216, 3, "t0 t2 t5 t10 t15 t17 t22 t23 t24 t28 t31"),
    9: (1272, 5503, 205, "t0 t3 t5 t8 t11 t12 t17 t21 t22 t23 t28 t36 t37 t38 t39 t40 t41 t44 t45 t46"),
    10: (201, 379, 2, "t5 t10 t15 t18 t19 t26 t27 t30 t31 t37 t38 t39 t50 t55"),
    11: (253, 1479, 9, "t0 t2 t3 t4 t7 t8 t11 t12 t14 t15 t20 t25 t26 t30 t34"),
    12: (1269, 8532, 537, "t2 t5 t12 t15 t17 t23 t24 t25 t33 t35 t39 t42 t43 t44 t46"),
    13: (245, 1390, 42, "t0 t2 t9 t12 t14 t16 t19 t27 t33 t34 t35"),
    14: (52, 147, 5, "t0 t4 t8 t12 t16 t17 t19 t23"),
    15: (62, 729, 57, "t0 t1 t7 t8 t14 t28 t29 t30 t32"),
    16: (519, 2378, 104, "t2 t5 t12 t14 t15 t18 t19 t23 t25 t29 t30 t32 t39 t40 t42"),
    17: (1039, 2079, 1, "t0 t1 t4 t9 t13 t15 t19 t21 t23 t27 t32 t33 t34 t36 t46 t52"),
    18: (248, 421, 3, "t6 t10 t12 t15 t17 t23 t27 t28 t29"),
    19: (4862, 36136, 1000, "t1 t10 t11 t14 t16 t17 t18 t27 t30 t32 t37 t39 t40 t43 t51 t54 t56"),
    20: (3797, 14644, 172, "t6 t7 t8 t9 t10 t12 t17 t20 t21 t28 t31 t32 t39 t42 t48 t49 t52 t54 t58 t62"),
    21: (185, 748, 177, "t0 t1 t2 t5 t7 t8 t11 t15 t25 t28"),
    22: (50, 217, 11, "t1 t2 t3 t5 t14 t17 t18 t19 t24"),
    23: (113, 361, 29, "t0 t1 t2 t6 t9 t19 t24 t26 t35 t36 t37"),
}


# as SPARSE_SEARCH, for instances of 24-34 tests and 5-24 candidates per
# requirement: a test covers many requirements, so the search bans many
# candidates and the packing bound often meets requirements with only part
# of their candidates allowed
DENSE_SEARCH = {
    0: (66, 421, 5, "t0 t2 t3 t13"),
    1: (50, 154, 5, "t5 t12 t18"),
    2: (23, 107, 25, "t0 t16 t21"),
    3: (176, 923, 98, "t1 t8 t9 t19"),
    4: (28, 131, 4, "t1 t2 t9"),
    5: (118, 465, 3, "t0 t2 t11 t31"),
    6: (137, 725, 23, "t3 t8 t11 t15"),
    7: (126, 223, 1, "t8 t12 t18"),
}


@pytest.mark.parametrize("seed", range(8))
def test_dense_search_is_frozen(seed):
    inst = sparse_instance(seed, size=(24, 34), candidates=(5, 24))
    best = minimum_cover(inst)
    res = enumerate_minimum_covers(inst)
    witness = " ".join(inst.ids(sorted(best.witness)))
    assert (best.nodes, res.nodes, len(res.covers), witness) == DENSE_SEARCH[seed]
    assert res.complete and best.witness in res.covers
    assert all(covers_naive(inst, cover) for cover in res.covers)


@pytest.mark.parametrize("seed", range(24))
def test_minimum_and_enumeration_agree_beyond_brute_force(seed):
    inst = sparse_instance(seed)
    best = minimum_cover(inst)
    res = enumerate_minimum_covers(inst)
    witness = " ".join(inst.ids(sorted(best.witness)))
    assert (best.nodes, res.nodes, len(res.covers), witness) == SPARSE_SEARCH[seed]
    k = best.minimum_size
    assert res.minimum_size == k
    assert covers_naive(inst, best.witness)
    assert len(best.witness) == k
    assert res.covers
    assert len(set(res.covers)) == len(res.covers)
    for cover in res.covers:
        assert len(cover) == k
        assert covers_naive(inst, cover)
        # irredundant: every test is the only pick for some requirement
        assert all(not covers_naive(inst, cover - {t}) for t in cover)
    if res.complete:
        assert best.witness in res.covers


def ilp_minimum(inst) -> int:
    """Minimum cover size by scipy's integer program solver (HiGHS)."""
    milp = pytest.importorskip("scipy.optimize").milp
    from scipy.optimize import Bounds, LinearConstraint

    rows = np.zeros((inst.m, inst.n))
    for i, req in enumerate(inst.requirements):
        rows[i, list(req.candidates)] = 1
    ilp = milp(
        np.ones(inst.n),
        constraints=LinearConstraint(rows, lb=1),
        integrality=np.ones(inst.n),
        bounds=Bounds(0, 1),
    )
    assert ilp.success
    return round(ilp.fun)


@pytest.mark.parametrize("seed", range(24))
def test_minimum_matches_integer_program(seed):
    inst = sparse_instance(seed)
    assert minimum_cover(inst).minimum_size == ilp_minimum(inst)


# per sparse_instance(seed, size=(65, 72)): minimum_cover nodes and witness.
# Frozen so that the search past 64 tests keeps its shape without scipy
WIDE_SEARCH = {
    0: (24930, "t0 t1 t2 t3 t5 t10 t13 t16 t18 t19 t20 t21 t23 t25 t33 t41 t42 t43 t47 t49 t50 t54 t61 t66 t67"),
    1: (3020, "t3 t9 t11 t12 t13 t20 t24 t25 t26 t27 t31 t37 t41 t46 t57 t58 t64"),
    2: (1455, "t0 t2 t3 t4 t6 t12 t14 t18 t24 t29 t39 t46 t50 t54 t59 t60 t61"),
    3: (4286, "t2 t3 t4 t8 t16 t19 t21 t30 t34 t40 t43 t47 t48 t49 t55 t61 t67"),
    4: (23332, "t3 t4 t7 t10 t11 t14 t20 t22 t23 t26 t33 t38 t39 t41 t45 t46 t50 t52 t61 t66 t67"),
    5: (5802, "t2 t6 t8 t9 t10 t15 t18 t23 t26 t30 t31 t32 t34 t35 t37 t44 t54 t55 t58 t61 t62"),
    6: (6038, "t0 t3 t5 t7 t12 t13 t14 t15 t21 t24 t26 t27 t29 t31 t34 t36 t39 t47 t50 t53 t55 t61 t62 t64"),
    7: (5766, "t2 t8 t13 t15 t16 t17 t19 t20 t23 t24 t26 t27 t28 t33 t43 t46 t50 t53 t61 t63 t64"),
}


@pytest.mark.parametrize("seed", range(8))
def test_search_beyond_64_tests_is_frozen(seed):
    inst = sparse_instance(seed, size=(65, 72))
    best = minimum_cover(inst)
    assert best.complete
    assert (best.nodes, " ".join(inst.ids(sorted(best.witness)))) == WIDE_SEARCH[seed]
    assert covers_naive(inst, best.witness)


@pytest.mark.parametrize("seed", range(8))
def test_minimum_matches_integer_program_beyond_64_tests(seed):
    inst = sparse_instance(seed, size=(65, 72))
    best = minimum_cover(inst)
    assert best.complete
    assert best.minimum_size == ilp_minimum(inst)
