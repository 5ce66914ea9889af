import dataclasses
import inspect
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_minimum,
    covers_naive,
    cycle,
    ge_naive,
    gre_naive,
    hgs_naive,
    random_instance,
)
from tsred import (
    FISConfig,
    ParameterError,
    SAParams,
    builtin,
    greedy_ge,
    greedy_gre,
    hgs,
    is_cover,
    run_fis,
    simulated_annealing,
    solve_report,
    validate_instance,
)
from tsred import baselines, bench
from tsred.baselines import STOP_FLOOR


def ids(instance, selection):
    return instance.ids(selection)


class TestGreedyGE:
    def test_essentials_come_first(self, tiny):
        assert ids(tiny, greedy_ge(tiny)) == ("t1", "t3")

    def test_experiment_1(self):
        inst = builtin("experiment-1")
        assert ids(inst, greedy_ge(inst)) == ("t3", "t1", "t4", "t2")

    def test_experiment_2(self):
        inst = builtin("experiment-2")
        assert ids(inst, greedy_ge(inst)) == ("t1", "t3", "t4", "t2")

    def test_experiment_3(self):
        inst = builtin("experiment-3")
        assert ids(inst, greedy_ge(inst)) == ("t12", "t8", "t5")

    def test_experiment_5(self):
        inst = builtin("experiment-5")
        assert ids(inst, greedy_ge(inst)) == (
            "t6", "t0", "t5", "t9", "t4", "t10", "t17", "t2", "t3", "t11", "t15", "t20",
        )

    def test_experiment_4_size(self):
        inst = builtin("experiment-4")
        assert len(greedy_ge(inst)) == 12


class TestGreedyGRE:
    def test_dominated_tests_never_picked(self, tiny):
        assert ids(tiny, greedy_gre(tiny)) == ("t1", "t3")

    def test_experiment_1(self):
        inst = builtin("experiment-1")
        assert ids(inst, greedy_gre(inst)) == ("t7", "t2", "t4")

    def test_experiment_2(self):
        inst = builtin("experiment-2")
        assert ids(inst, greedy_gre(inst)) == ("t1", "t3", "t2", "t4")

    def test_experiment_3(self):
        inst = builtin("experiment-3")
        assert ids(inst, greedy_gre(inst)) == ("t5", "t3", "t10", "t4")

    def test_greedy_fallback_round(self):
        # no test dominates another and nothing is essential, so the first
        # round must fall through to a single greedy pick
        inst = validate_instance(
            "ring",
            ["a", "b", "c"],
            [("r1", ["a", "b"]), ("r2", ["b", "c"]), ("r3", ["c", "a"])],
        )
        got = greedy_gre(inst)
        assert is_cover(inst, got)
        assert len(got) == 2
        assert got[0] == 0  # all gains tie at 2; lowest index wins


class TestHGS:
    def test_singletons_then_pairs(self, tiny):
        assert ids(tiny, hgs(tiny)) == ("t1", "t3")

    def test_experiment_1(self):
        inst = builtin("experiment-1")
        assert ids(inst, hgs(inst)) == ("t3", "t1", "t4", "t2")

    def test_experiment_2(self):
        inst = builtin("experiment-2")
        assert ids(inst, hgs(inst)) == ("t1", "t4", "t2")

    def test_experiment_3(self):
        inst = builtin("experiment-3")
        assert ids(inst, hgs(inst)) == ("t5", "t3", "t1", "t4")


def reference_instance(seed):
    """1-30 tests; no requirements every eighth seed, otherwise alternately
    up to 20 or more than 64 (masks wider than a machine word)."""
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    if seed % 8 == 0:
        m = 0
    else:
        m = rng.randint(65, 130) if seed % 2 else rng.randint(1, 20)
    tests = [f"t{j}" for j in range(n)]
    requirements = [
        (f"r{i}", rng.sample(tests, min(n, rng.choice((1, 2, 2, 3, 4, 6))))) for i in range(m)
    ]
    return validate_instance(f"reference-{seed}", tests, requirements)


@pytest.mark.parametrize("seed", range(40))
def test_greedy_family_matches_set_references(seed):
    inst = reference_instance(seed)
    assert greedy_ge(inst) == ge_naive(inst)
    assert greedy_gre(inst) == gre_naive(inst)
    assert hgs(inst) == hgs_naive(inst)


# the wide-suites shape, up to 60 tests with 2-6 candidates a requirement:
# little is essential or dominated, so GRE runs many one-pick rounds
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_gre_matches_the_set_reference_on_wide_suites(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 60)
    tests = [f"t{j}" for j in range(n)]
    m = rng.randint(n, 5 * n // 2)
    requirements = [(f"r{i}", rng.sample(tests, min(n, rng.randint(2, 6)))) for i in range(m)]
    inst = validate_instance(f"wide-{seed}", tests, requirements)
    assert greedy_gre(inst) == gre_naive(inst)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_greedy_family_produces_covers(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_tests=12, max_requirements=10)
    for solver in (greedy_ge, greedy_gre, hgs):
        got = solver(inst)
        assert covers_naive(inst, got)
        assert len(got) == len(set(got))
        assert len(got) >= brute_minimum(inst)


class TestSimulatedAnnealing:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            SAParams(alpha=1.0)
        with pytest.raises(ValueError):
            SAParams(alpha=0.0)
        with pytest.raises(ParameterError, match="t_initial"):
            SAParams(t_initial=0.0)
        with pytest.raises(ParameterError, match="t_initial"):
            SAParams(t_initial=-1.0)
        # at or below the stop floor the schedule would anneal zero steps
        with pytest.raises(ParameterError, match="t_initial"):
            SAParams(t_initial=STOP_FLOOR)
        with pytest.raises(ParameterError, match="t_initial"):
            SAParams(t_initial=0.0005)
        with pytest.raises(ParameterError):
            SAParams(t_initial=float("inf"))
        with pytest.raises(ParameterError, match="seed"):
            simulated_annealing(builtin("experiment-1"), seed=-1)
        SAParams(alpha=0.9999, t_initial=1e30)  # about 7.6e5 steps
        with pytest.raises(ParameterError, match="steps"):
            SAParams(alpha=0.99999, t_initial=1e30)

    def test_default_schedule_length(self):
        res = simulated_annealing(builtin("experiment-1"), seed=0)
        # 2984.975 * 0.99^k stays above the 0.001 stop floor for k = 0..1483
        assert len(res.history) == 1484

    def test_stop_floor_bounds_schedule(self, tiny):
        res = simulated_annealing(tiny, SAParams(alpha=0.5, t_initial=1.0), seed=0)
        assert len(res.history) == 10

    def test_deterministic_per_seed(self):
        inst = builtin("experiment-3")
        a = simulated_annealing(inst, seed=9)
        b = simulated_annealing(inst, seed=9)
        assert a == b

    def test_history_tracks_best(self, tiny):
        res = simulated_annealing(tiny, seed=1)
        assert all(x >= y for x, y in zip(res.history, res.history[1:]))
        assert res.history[-1] == res.solution.prefix_len
        assert res.solution.prefix_len == 2

    def test_single_test_instance(self):
        inst = validate_instance("one", ["only"], [("r1", ["only"])])
        res = simulated_annealing(inst, seed=0)
        assert res.solution.selected == (0,)

    @pytest.mark.parametrize(
        "name, calls", [("experiment-1", 16), ("experiment-4", 626), ("experiment-5", 503)]
    )
    def test_objective_calls_per_run_are_pinned(self, monkeypatch, name, calls):
        # seed 1.  Experiment-1 reaches its packing floor of 3 in step 23 of
        # 1484 and experiment-5 its floor of 9 in step 1244, and both stop
        # proposing there; annealing on to the end scores 985 and 609.
        # Experiment-4's floor of 10 lies below its minimum of 11, so it
        # anneals the whole schedule.  Skipping only swaps with
        # lo >= objective would score 1277 there.
        counted = []
        real = baselines.objective
        monkeypatch.setattr(
            baselines, "objective", lambda inst, p: counted.append(p) or real(inst, p)
        )
        simulated_annealing(builtin(name), seed=1)
        assert len(counted) == calls

    def test_long_schedule_memory_is_bounded(self):
        # About 7.6e4 steps.  The history list and tuple take about 1.2 MB;
        # drawing every step's positions at once (2.5-17 MB peak in trials:
        # one int64 array, or its list form) or listing every temperature
        # (3.7 MB) crosses the 2 MB line, drawing core.BLOCK pairs at a time does not.
        # Any two tests of this triangle cover it, one cannot, and its packing
        # floor is 1, so the run never stops on the floor and proposes at every step.
        inst = cycle(3)
        params = SAParams(alpha=0.999, t_initial=1e30)
        tracemalloc.start()
        try:
            res = simulated_annealing(inst, params, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.history) == 75948
        assert peak < 2_000_000


def test_solve_report_runs_given_configs_at_run_seeds():
    inst = builtin("experiment-4")
    fis_config = FISConfig(population_size=4, max_iterations=5)
    sa_params = SAParams(alpha=0.9, t_initial=50.0)
    fis = solve_report(inst, "fis", seed=7, runs=2, fis_config=fis_config)
    sa = solve_report(inst, "sa", seed=7, runs=2, sa_params=sa_params)
    for k in range(2):
        want_fis = run_fis(inst, fis_config, seed=7 + k)
        want_sa = simulated_annealing(inst, sa_params, seed=7 + k)
        assert fis.runs[k].selected == ids(inst, want_fis.solution.selected)
        assert sa.runs[k].selected == ids(inst, want_sa.solution.selected)


def test_bench_suite_runs_every_fis_cell_with_the_given_config():
    # the `tsred bench` path with TSRED_RULEBASE set; at the defaults
    # experiment-4's two FIS runs give sizes [14, 14], with this config [20, 28]
    config = FISConfig(population_size=2, max_iterations=1)
    summary = json.loads(bench.summary_json(bench.bench_suite(runs=2, seed=1, fis_config=config)))
    fis_results = [r for r in summary["results"] if r["algorithm"] == "fis"]
    assert [r["instance"] for r in fis_results] == list(summary["suite"])
    for result in fis_results:
        report = solve_report(builtin(result["instance"]), "fis", 1, 2, fis_config=config)
        assert result["sizes"] == [run.size for run in report.runs]
        assert result["best_size"] == report.best_size
        assert result["best_selected"] == list(min(report.runs, key=lambda r: r.size).selected)


@pytest.mark.parametrize(
    "config, field, value", [(FISConfig(), "max_iterations", 10**9), (SAParams(), "alpha", 1.0)]
)
def test_solver_configs_refuse_assignment(config, field, value):
    # a config is checked when it is built, so a later assignment could skip the check
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, value)
    # replace builds a new config, which is checked again
    with pytest.raises(ParameterError):
        dataclasses.replace(config, **{field: value})


def test_run_algorithm_looks_reducers_up_at_call_time(monkeypatch):
    # a tracer or observer replaces a reducer where bench looks it up
    calls = []

    def recording(name, reducer):
        def wrapper(*args, **kwargs):
            calls.append((name, inspect.signature(reducer).bind(*args, **kwargs).arguments))
            return reducer(*args, **kwargs)

        return wrapper

    reducers = {"fis": "run_fis", "sa": "simulated_annealing", "ge": "greedy_ge",
                "gre": "greedy_gre", "hgs": "hgs"}
    for name in reducers.values():
        monkeypatch.setattr(bench, name, recording(name, getattr(bench, name)))
    inst = builtin("experiment-1")
    fis_config = FISConfig(population_size=4, max_iterations=5)
    sa_params = SAParams(alpha=0.9, t_initial=50.0)
    for algorithm in bench.ALGORITHMS:
        selected = bench.run_algorithm(inst, algorithm, 7, fis_config=fis_config, sa_params=sa_params)
        assert is_cover(inst, (inst.index_of[t] for t in selected))
    assert [name for name, _ in calls] == [reducers[a] for a in bench.ALGORITHMS]
    # FIS and SA get the caller's config object itself, not a copy, and the
    # run's seed as their own argument
    arguments = dict(calls)
    assert arguments["run_fis"]["config"] is fis_config
    assert arguments["simulated_annealing"]["params"] is sa_params
    assert arguments["run_fis"]["seed"] == arguments["simulated_annealing"]["seed"] == 7
    # a config holds only its knobs, so it cannot carry a seed a run would ignore
    with pytest.raises(TypeError):
        FISConfig(seed=1)
    with pytest.raises(TypeError):
        SAParams(seed=1)
