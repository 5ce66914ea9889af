"""Acceptance gate: one test per release criterion, each printing a PASS
line with the measured numbers when it holds.

Criteria 4 and 5 are statistical: 15 independent trials, each taking the
best of 15 seeded runs (trial t uses seeds 15*t+1 .. 15*t+15), mirroring
the repeated-runs protocol the benchmark instances were published with.
"""

import random
import time
from dataclasses import replace

import numpy as np

from helpers import brute_minimum, prefix_by_scan, random_instance
from tsred import (
    builtin,
    centroid,
    default_rule_base,
    enumerate_minimum_covers,
    greedy_ge,
    greedy_gre,
    hamming,
    hgs,
    infer,
    is_cover,
    minimum_cover,
    run_fis,
    simulated_annealing,
    solve_report,
    write_report,
    FISConfig,
    SAParams,
)
from tsred.bench import bench_suite, summary_json
from tsred.cli import main
from tsred.fuzzy import Trapezoid, aggregate

EXP4_MINIMUM = 11
EXP5_MINIMUM = 9

SMALL = ("experiment-1", "experiment-2", "experiment-3")
LARGE = ("experiment-4", "experiment-5")

# published best selections for the two larger benchmarks: the first two
# experiment-4 sets leave req_4 uncovered, the rest are genuine covers
EXP4_PUBLISHED_SETS = (
    ("t23,t0,t24,t16,t29,t4,t12,t9,t5,t1,t28", False),
    ("t1,t16,t24,t12,t4,t23,t25,t0,t28,t29,t5", False),
    ("t3,t4,t28,t6,t17,t5,t23,t25,t12,t19,t30", True),
    ("t5,t28,t4,t29,t16,t30,t10,t24,t12,t25,t6", True),
    ("t5,t24,t25,t30,t6,t28,t12,t23,t4,t16,t29", True),
)
EXP5_PUBLISHED_SETS = (
    "t0,t8,t24,t10,t20,t6,t25,t30,t29",
    "t30,t8,t6,t24,t9,t20,t0,t29,t10",
    "t6,t30,t8,t22,t29,t20,t24,t10,t25",
    "t7,t29,t11,t3,t16,t20,t0,t10,t9,t6,t8",
    "t29,t27,t18,t28,t20,t30,t10,t9,t6,t8,t24",
)


def _brute_minimum_bitmask(instance) -> int:
    """Naive 2^n sweep, independent of the branch-and-bound code."""
    best = instance.n
    masks = instance.test_masks
    full = instance.full_mask
    for subset in range(1, 1 << instance.n):
        size = subset.bit_count()
        if size >= best:
            continue
        covered = 0
        t = subset
        while t:
            covered |= masks[(t & -t).bit_length() - 1]
            t &= t - 1
        if covered == full:
            best = size
    return best


def _best_of_15_trials(instance, runner) -> list[int]:
    bests = []
    for trial in range(15):
        sizes = [runner(15 * trial + 1 + k) for k in range(15)]
        bests.append(min(sizes))
    return bests


def test_criterion_1_oracle_small_benchmarks():
    for name in SMALL:
        inst = builtin(name)
        t0 = time.perf_counter()
        res = minimum_cover(inst)
        elapsed = time.perf_counter() - t0
        assert res.minimum_size == 3, name
        assert elapsed <= 1.0, f"{name} took {elapsed:.2f}s"
        assert _brute_minimum_bitmask(inst) == 3, name
        assert is_cover(inst, res.witness)
    print("ACCEPTANCE 1 PASS: minimum covers of experiments 1-3 are 3/3/3, "
          "matching naive 2^n enumeration, each under 1s")


def test_criterion_2_oracle_large_benchmarks():
    t0 = time.perf_counter()
    e4 = minimum_cover(builtin("experiment-4"))
    e5 = minimum_cover(builtin("experiment-5"))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"oracle took {elapsed:.2f}s"
    assert e4.minimum_size == EXP4_MINIMUM
    assert e5.minimum_size == EXP5_MINIMUM
    assert e4.minimum_size <= 11 and e5.minimum_size <= 9
    # published witnesses of those sizes exist and are genuine covers
    e4_inst, e5_inst = builtin("experiment-4"), builtin("experiment-5")
    witness4 = EXP4_PUBLISHED_SETS[2][0].split(",")
    assert len(witness4) == EXP4_MINIMUM
    assert is_cover(e4_inst, [e4_inst.index_of[t] for t in witness4])
    witness5 = EXP5_PUBLISHED_SETS[0].split(",")
    assert len(witness5) == EXP5_MINIMUM
    assert is_cover(e5_inst, [e5_inst.index_of[t] for t in witness5])
    print(f"ACCEPTANCE 2 PASS: exact minima {EXP4_MINIMUM}/{EXP5_MINIMUM} on "
          f"experiments 4-5 in {elapsed:.2f}s with published witnesses re-verified")


def test_criterion_3_greedy_golden_results():
    e1, e2 = builtin("experiment-1"), builtin("experiment-2")
    ge1 = greedy_ge(e1)
    assert set(e1.ids(ge1)) == {"t1", "t2", "t3", "t4"}
    assert len(ge1) == 4
    gre1 = greedy_gre(e1)
    assert len(gre1) == 3
    assert frozenset(gre1) in set(enumerate_minimum_covers(e1).covers)
    assert len(hgs(e2)) == 3
    assert len(greedy_ge(e2)) == 4
    print("ACCEPTANCE 3 PASS: GE/GRE golden sets on experiment-1 and "
          "HGS/GE sizes on experiment-2 all exact")


def test_criterion_4_fis_statistical_reproduction():
    timings = []

    def runner_for(inst):
        def run(seed):
            t0 = time.perf_counter()
            res = run_fis(inst, FISConfig(seed=seed))
            timings.append(time.perf_counter() - t0)
            return res.solution.prefix_len
        return run

    hits = {}
    for name in SMALL:
        bests = _best_of_15_trials(builtin(name), runner_for(builtin(name)))
        hits[name] = sum(b == 3 for b in bests)
        assert hits[name] >= 14, f"{name}: {bests}"
    for name, target in zip(LARGE, (EXP4_MINIMUM, EXP5_MINIMUM)):
        bests = _best_of_15_trials(builtin(name), runner_for(builtin(name)))
        hits[name] = sum(b <= target for b in bests)
        assert hits[name] >= 12, f"{name}: {bests}"
    assert max(timings) < 0.5, f"slowest run {max(timings):.3f}s"
    summary = ", ".join(f"{k.split('-')[1]}:{v}/15" for k, v in hits.items())
    print(f"ACCEPTANCE 4 PASS: FIS best-of-15 hit rates {summary}, "
          f"slowest run {max(timings)*1000:.0f}ms")


def test_criterion_5_sa_baseline():
    def runner_for(inst):
        def run(seed):
            return simulated_annealing(inst, SAParams(seed=seed)).solution.prefix_len
        return run

    hits = {}
    for name in SMALL:
        bests = _best_of_15_trials(builtin(name), runner_for(builtin(name)))
        hits[name] = sum(b == 3 for b in bests)
        assert hits[name] >= 13, f"{name}: {bests}"
    for name, minimum in zip(LARGE, (EXP4_MINIMUM, EXP5_MINIMUM)):
        bests = _best_of_15_trials(builtin(name), runner_for(builtin(name)))
        worst = max(bests)
        hits[name] = worst
        assert worst <= minimum + 2, f"{name}: {bests}"
    print(f"ACCEPTANCE 5 PASS: SA reaches 3 on experiments 1-3 "
          f"({hits['experiment-1']}/{hits['experiment-2']}/{hits['experiment-3']} of 15 trials) "
          f"and stays within +2 of the minima on experiments 4-5 "
          f"(worst {hits['experiment-4']}/{hits['experiment-5']})")


def test_criterion_6_fuzzy_numerics():
    rb = default_rule_base()
    mu = rb.output.terms["Maintain"].curve(rb.grid)
    value = centroid(mu, rb.grid)
    assert abs(value - 0.79583) <= 1e-3

    # symmetric aggregates land on their axis
    sym_pairs = [
        (aggregate(rb, {"Change": 0.8, "Maintain": 0.8}), 0.5),
        (Trapezoid(0.2, 0.4, 0.6, 0.8).curve(rb.grid), 0.5),
        (Trapezoid(0.1, 0.2, 0.3, 0.4).curve(rb.grid), 0.25),
    ]
    for curve, axis in sym_pairs:
        assert abs(centroid(curve, rb.grid) - axis) <= 1e-9

    fine = replace(rb, samples=10001)
    worst = 0.0
    for q in np.linspace(0, 1, 5):
        for i in np.linspace(0, 1, 5):
            for d in np.linspace(0, 1, 5):
                inputs = {"quality": float(q), "intensification": float(i),
                          "diversification": float(d)}
                worst = max(worst, abs(infer(rb, inputs) - infer(fine, inputs)))
    assert worst < 1e-3, f"refinement shifted outputs by {worst:.2e}"
    print(f"ACCEPTANCE 6 PASS: centroid {value:.5f} within 1e-3 of 0.79583, "
          f"symmetric centroids on-axis, grid refinement shift {worst:.2e} < 1e-3")


def test_criterion_7_erratum_detection(capsys):
    for selection, valid in EXP4_PUBLISHED_SETS:
        code = main(["validate", "--instance", "builtin:experiment-4",
                     "--selection", selection])
        out = capsys.readouterr().out
        if valid:
            assert code == 0 and out.startswith("VALID")
        else:
            assert code == 1 and out.startswith("INVALID")
            assert "req_4" in out
    for selection in EXP5_PUBLISHED_SETS:
        code = main(["validate", "--instance", "builtin:experiment-5",
                     "--selection", selection])
        out = capsys.readouterr().out
        assert code == 0 and out.startswith("VALID")
    print("ACCEPTANCE 7 PASS: first two published experiment-4 selections "
          "flagged INVALID (uncovered req_4), remaining published sets VALID")


def test_criterion_8_property_suites():
    rng = random.Random(20260816)

    # hamming is a metric on permutations
    for _ in range(10_000):
        n = rng.randint(1, 12)
        p, q, r = (tuple(rng.sample(range(n), n)) for _ in range(3))
        assert hamming(p, p) == 0.0
        d_pq = hamming(p, q)
        assert d_pq == hamming(q, p) >= 0.0
        assert (d_pq == 0.0) == (p == q)
        assert d_pq <= hamming(p, r) + hamming(r, q) + 1e-12

    # decode returns the shortest covering prefix
    from tsred import decode

    for _ in range(10_000):
        inst = random_instance(rng, max_tests=12, max_requirements=8)
        perm = tuple(rng.sample(range(inst.n), inst.n))
        assert decode(inst, perm).prefix_len == prefix_by_scan(inst, perm)

    # every solver covers and never beats the exact minimum
    solvers = {
        "ge": lambda inst, seed: greedy_ge(inst),
        "gre": lambda inst, seed: greedy_gre(inst),
        "hgs": lambda inst, seed: hgs(inst),
        "fis": lambda inst, seed: run_fis(inst, FISConfig(seed=seed)).solution.selected,
        "sa": lambda inst, seed: simulated_annealing(inst, SAParams(seed=seed)).solution.selected,
    }
    for case in range(200):
        inst = random_instance(rng, max_tests=16, max_requirements=10)
        minimum = minimum_cover(inst).minimum_size
        for label, solve in solvers.items():
            got = solve(inst, case)
            assert is_cover(inst, got), f"{label} on {inst.name}"
            assert len(set(got)) >= minimum, f"{label} beat the oracle on {inst.name}"

    # identical seeds give byte-identical reports once timing is held still
    inst = builtin("experiment-2")

    def frozen_clock() -> float:
        return 0.0

    a = write_report(solve_report(inst, "fis", seed=5, runs=4, clock=frozen_clock), inst)
    b = write_report(solve_report(inst, "fis", seed=5, runs=4, clock=frozen_clock), inst)
    assert a == b
    ja = summary_json(bench_suite(runs=2, seed=3))
    jb = summary_json(bench_suite(runs=2, seed=3))
    assert ja == jb
    print("ACCEPTANCE 8 PASS: hamming metric axioms (10k triples), decode "
          "prefix-minimality (10k pairs), 200 random instances covered by all "
          "solvers at >= exact minimum, seeded reports byte-identical")
