import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import trapezoid_centroid_exact
from tsred import (
    LinguisticVariable,
    ParameterError,
    Rule,
    RuleBase,
    Trapezoid,
    centroid,
    default_rule_base,
    infer,
    rule_base_from_json,
)
from tsred import fuzzy
from tsred.fuzzy import (
    MAX_SAMPLES,
    MEMO_SIZE,
    FuzzyDomainError,
    MissingInputError,
    aggregate,
    consequent_levels,
    rule_activations,
)

# centroid of Trapezoid(0.5, 0.7, 1, 1) over its support, exact value
MAINTAIN_CENTROID = Fraction(191, 240)


def test_maintain_centroid_constant_agrees_with_closed_form():
    got = trapezoid_centroid_exact(Fraction(1, 2), Fraction(7, 10), 1, 1)
    assert got == MAINTAIN_CENTROID


def test_trapezoid_validates_ordering():
    with pytest.raises(ValueError):
        Trapezoid(0.4, 0.2, 0.6, 0.8)
    with pytest.raises(ValueError):
        Trapezoid(0.0, 0.2, 0.6, 1.2)
    with pytest.raises(ValueError):
        Trapezoid(-0.1, 0.2, 0.6, 0.8)


def test_membership_piecewise_values():
    t = Trapezoid(0.2, 0.4, 0.6, 0.8)
    assert t.membership(0.1) == 0.0
    assert t.membership(0.3) == pytest.approx(0.5)
    assert t.membership(0.5) == 1.0
    assert t.membership(0.7) == pytest.approx(0.5)
    assert t.membership(0.9) == 0.0
    assert t.membership(0.2) == 0.0
    assert t.membership(0.4) == 1.0


def test_membership_degenerate_edges_are_crisp():
    left = Trapezoid(0.0, 0.0, 0.2, 0.4)
    assert left.membership(0.0) == 1.0
    right = Trapezoid(0.6, 0.8, 1.0, 1.0)
    assert right.membership(1.0) == 1.0
    box = Trapezoid(0.3, 0.3, 0.6, 0.6)
    assert box.membership(0.3) == 1.0
    assert box.membership(0.6) == 1.0
    assert box.membership(0.29) == 0.0


def test_membership_rejects_values_outside_unit_interval():
    t = Trapezoid(0.0, 0.0, 1.0, 1.0)
    with pytest.raises(FuzzyDomainError):
        t.membership(-0.01)
    with pytest.raises(FuzzyDomainError):
        t.membership(1.01)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0, 1), min_size=4, max_size=4), st.integers(0, 2**16))
def test_curve_matches_scalar_membership(breaks, grid_seed):
    a, b, c, d = sorted(breaks)
    trap = Trapezoid(a, b, c, d)
    rng = np.random.default_rng(grid_seed)
    xs = np.sort(rng.random(64))
    vec = trap.curve(xs)
    for x, mu in zip(xs, vec):
        assert mu == pytest.approx(trap.membership(float(x)), abs=1e-12)


def test_variable_requires_support_cover():
    with pytest.raises(ValueError, match="uncovered"):
        LinguisticVariable(
            "gap", {"lo": Trapezoid(0, 0, 0.2, 0.3), "hi": Trapezoid(0.5, 0.6, 1, 1)}
        )
    with pytest.raises(ValueError, match="uncovered"):
        LinguisticVariable("short", {"lo": Trapezoid(0, 0, 0.2, 0.9)})
    # touching supports are fine even where membership dips to zero
    LinguisticVariable(
        "ok", {"lo": Trapezoid(0, 0, 0.3, 0.5), "hi": Trapezoid(0.5, 0.7, 1, 1)}
    )


def test_rule_base_validation():
    rb = default_rule_base()
    with pytest.raises(ValueError, match="unknown variable"):
        RuleBase(rb.inputs, rb.output, (Rule.of({"nope": "Low"}, "Change"),))
    with pytest.raises(ValueError, match="no term"):
        RuleBase(rb.inputs, rb.output, (Rule.of({"quality": "Low"}, "Change"),))
    with pytest.raises(ValueError, match="never referenced"):
        RuleBase(rb.inputs, rb.output, (Rule.of({"quality": "Poor"}, "Change"),))
    with pytest.raises(ValueError, match="no rules"):
        RuleBase(rb.inputs, rb.output, ())
    with pytest.raises(ValueError, match="samples"):
        RuleBase(rb.inputs, rb.output, rb.rules, samples=1)
    RuleBase(rb.inputs, rb.output, rb.rules, samples=MAX_SAMPLES)
    with pytest.raises(ParameterError, match="samples"):
        RuleBase(rb.inputs, rb.output, rb.rules, samples=MAX_SAMPLES + 1)


def test_activation_min_and_level_max():
    rb = default_rule_base()
    inputs = {"quality": 0.35, "intensification": 0.0, "diversification": 0.65}
    acts = rule_activations(rb, inputs)
    assert len(acts) == len(rb.rules)
    # quality 0.35: Poor = 0.25, Average = 1/3; diversification 0.65: High = 0.25
    by_rule = dict(zip(rb.rules, acts))
    poor_high = Rule.of({"quality": "Poor", "diversification": "High"}, "Maintain")
    assert by_rule[poor_high] == pytest.approx(0.25)
    levels = consequent_levels(rb, acts)
    assert set(levels) == {"Change", "Maintain"}
    assert levels["Maintain"] == pytest.approx(max(
        act for rule, act in zip(rb.rules, acts) if rule.consequent == "Maintain"
    ))


def test_missing_input_is_reported():
    rb = default_rule_base()
    with pytest.raises(MissingInputError) as exc:
        infer(rb, {"quality": 0.5, "intensification": 0.5})
    assert exc.value.variable == "diversification"


def test_aggregate_clips_and_merges():
    rb = default_rule_base()
    agg = aggregate(rb, {"Maintain": 0.5, "Change": 0.25})
    assert agg.max() == pytest.approx(0.5)
    assert agg[0] == pytest.approx(0.25)  # Change plateau clipped at 0.25
    assert agg[-1] == pytest.approx(0.5)


def test_centroid_zero_aggregate_falls_back_to_midpoint():
    assert centroid(np.zeros(1001), default_rule_base().grid) == 0.5


def test_centroid_of_full_maintain_matches_exact_value():
    rb = default_rule_base()
    mu = rb.output.terms["Maintain"].curve(rb.grid)
    assert centroid(mu, rb.grid) == pytest.approx(float(MAINTAIN_CENTROID), abs=1e-3)


def test_centroid_of_symmetric_aggregate_sits_on_axis():
    rb = default_rule_base()
    agg = aggregate(rb, {"Maintain": 0.7, "Change": 0.7})
    assert centroid(agg, rb.grid) == pytest.approx(0.5, abs=1e-9)


def test_centroid_grid_refinement_is_stable():
    coarse = default_rule_base()
    fine = replace(coarse, samples=10001)
    mu_c = coarse.output.terms["Maintain"].curve(coarse.grid)
    mu_f = fine.output.terms["Maintain"].curve(fine.grid)
    assert abs(centroid(mu_c, coarse.grid) - centroid(mu_f, fine.grid)) < 1e-3


def test_infer_default_corners():
    rb = default_rule_base()
    maintain = float(MAINTAIN_CENTROID)
    good = infer(rb, {"quality": 1.0, "intensification": 0.5, "diversification": 0.5})
    assert good == pytest.approx(maintain, abs=1e-3)
    bad = infer(rb, {"quality": 0.0, "intensification": 0.0, "diversification": 0.0})
    assert bad == pytest.approx(1.0 - maintain, abs=1e-3)
    assert good >= 0.5 >= bad


@settings(max_examples=300, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
def test_decision_side_matches_dominant_level(q, i, d):
    # output terms mirror each other around 0.5 with disjoint supports, so
    # the crisp value lands on the side of whichever level dominates
    rb = default_rule_base()
    inputs = {"quality": q, "intensification": i, "diversification": d}
    levels = consequent_levels(rb, rule_activations(rb, inputs))
    crisp = infer(rb, inputs)
    if levels["Maintain"] - levels["Change"] > 1e-9:
        assert crisp > 0.5
    elif levels["Change"] - levels["Maintain"] > 1e-9:
        assert crisp < 0.5
    else:
        assert crisp == pytest.approx(0.5, abs=1e-6)


def test_rule_base_from_json_matches_defaults():
    payload = {
        "variables": {
            "quality": {
                "Poor": [0, 0, 0.2, 0.4],
                "Average": [0.3, 0.45, 0.55, 0.7],
                "Excellent": [0.6, 0.8, 1, 1],
            },
            "push": {"Low": [0, 0, 0.5, 0.6], "High": [0.4, 0.6, 1, 1]},
        },
        "output": {
            "name": "decision",
            "terms": {"Change": [0, 0, 0.3, 0.5], "Maintain": [0.5, 0.7, 1, 1]},
        },
        "rules": [
            {"if": {"quality": "Excellent"}, "then": "Maintain"},
            {"if": {"quality": "Poor", "push": "High"}, "then": "Change"},
            {"if": {"quality": "Poor", "push": "Low"}, "then": "Maintain"},
            {"if": {"quality": "Average"}, "then": "Maintain"},
        ],
        "samples": 501,
    }
    rb = rule_base_from_json(json.dumps(payload))
    assert rb.samples == 501
    assert set(rb.inputs) == {"quality", "push"}
    out = infer(rb, {"quality": 0.1, "push": 1.0})
    assert out < 0.5


def test_rule_base_from_json_rejects_bad_breakpoints():
    payload = {
        "variables": {"q": {"Low": [0, 0, 1]}},
        "output": {"name": "o", "terms": {"X": [0, 0, 1, 1]}},
        "rules": [{"if": {"q": "Low"}, "then": "X"}],
    }
    with pytest.raises(ValueError, match="four breakpoints"):
        rule_base_from_json(json.dumps(payload))


def uncached_infer(rb, inputs):
    return centroid(aggregate(rb, consequent_levels(rb, rule_activations(rb, inputs))), rb.grid)


def reshaped_rule_base() -> RuleBase:
    """The default rules and inputs with output terms of other shapes, so
    that equal inputs give equal consequent levels but another output."""
    rb = default_rule_base()
    output = LinguisticVariable(
        "operator-selection",
        {"Change": Trapezoid(0.0, 0.0, 0.1, 0.6), "Maintain": Trapezoid(0.4, 0.9, 1.0, 1.0)},
    )
    return RuleBase(rb.inputs, output, rb.rules)


RESHAPED = reshaped_rule_base()
# a few values on term breakpoints, so that level tuples repeat across calls
UNIT = st.sampled_from([0.0, 0.2, 0.35, 0.5, 0.65, 0.8, 1.0]) | st.floats(0, 1)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), UNIT, UNIT, UNIT), min_size=1, max_size=20))
def test_infer_memo_matches_uncached_inference(calls):
    # three rule bases interleaved: the same level tuple or input tuple
    # looked up in another rule base must not return that rule base's
    # output; fresh copies start with empty memos, so the second pass, which
    # repeats every input assignment, is answered from the input memo
    default = default_rule_base()
    bases = [replace(default), replace(default, samples=2001), replace(RESHAPED)]
    for repeat in (False, True):
        for which, q, i, d in calls:
            rb = bases[which]
            inputs = {"quality": q, "intensification": i, "diversification": d}
            if repeat:  # keyed in the order of rb.inputs
                assert (q, i, d) in rb._crisp_by_inputs
            assert infer(rb, inputs).hex() == uncached_infer(rb, inputs).hex()
            assert len(rb._crisp) <= MEMO_SIZE
            assert len(rb._crisp_by_inputs) <= MEMO_SIZE


def test_infer_memo_stops_growing_at_its_cap(monkeypatch):
    monkeypatch.setattr(fuzzy, "MEMO_SIZE", 3)
    rb = replace(default_rule_base())  # a fresh object, with empty memos
    qualities = np.linspace(0.0, 1.0, 11).tolist()
    for q in qualities + qualities:
        inputs = {"quality": q, "intensification": 0.5, "diversification": 0.5}
        assert infer(rb, inputs) == uncached_infer(rb, inputs)
    assert len(rb._crisp) == 3
    assert len(rb._crisp_by_inputs) == 3


def test_infer_refuses_bad_inputs_whose_fellows_were_memoised():
    rb = replace(default_rule_base())
    seen = {"quality": 0.5, "intensification": 0.25, "diversification": 0.75}
    infer(rb, seen)
    with pytest.raises(MissingInputError) as missing:
        infer(rb, {"quality": 0.5, "intensification": 0.25})
    assert missing.value.variable == "diversification"
    for bad in (1.5, -0.25, float("nan")):
        with pytest.raises(FuzzyDomainError):
            infer(rb, {**seen, "diversification": bad})
    # a rule base reading one variable is keyed on it alone, extra inputs aside
    one = RuleBase({"quality": rb.inputs["quality"]}, rb.output, rb.rules[:1])
    assert infer(one, {"quality": 0.9, "speed": 3.0}) == infer(one, {"quality": 0.9})
    with pytest.raises(MissingInputError):
        infer(one, {"speed": 3.0})
    assert list(rb._crisp_by_inputs) == [(0.5, 0.25, 0.75)]
    assert list(one._crisp_by_inputs) == [(0.9,)]


@st.composite
def chained_variable(draw, name):
    """A variable of 1-3 terms whose supports chain across [0, 1]: term t
    runs over points[2t : 2t + 4], so each overlaps the next."""
    k = draw(st.integers(1, 3))
    inner = draw(st.lists(st.floats(0, 1), min_size=2 * k, max_size=2 * k))
    points = [0.0, *sorted(inner), 1.0]
    terms = {f"T{t}": Trapezoid(*points[2 * t:2 * t + 4]) for t in range(k)}
    return LinguisticVariable(name, terms)


@st.composite
def generated_rule_base(draw):
    """1-6 rules of 1-3 clauses over 1-3 variables.  The clause pool holds at
    most nine (variable, term) pairs, so rules often share clauses."""
    pool = [draw(chained_variable(f"v{j}")) for j in range(draw(st.integers(1, 3)))]
    rules = []
    for _ in range(draw(st.integers(1, 6))):
        used = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique_by=id))
        clauses = {var.name: draw(st.sampled_from(sorted(var.terms))) for var in used}
        rules.append(Rule.of(clauses, draw(st.sampled_from(["Change", "Maintain"]))))
    referenced = {var for rule in rules for var, _ in rule.antecedent}
    inputs = {var.name: var for var in pool if var.name in referenced}
    return RuleBase(inputs, default_rule_base().output, tuple(rules))


@settings(max_examples=300, deadline=None)
@given(generated_rule_base(), st.data())
def test_activation_is_each_rules_min_membership(rb, data):
    inputs = {}
    for name, var in rb.inputs.items():
        # the term breakpoints too, where vertical edges and plateaus start
        breaks = sorted({x for t in var.terms.values() for x in (t.a, t.b, t.c, t.d)})
        inputs[name] = data.draw(st.sampled_from(breaks) | st.floats(0, 1))
    want = []
    for rule in rb.rules:
        degrees = []
        for var, term in rule.antecedent:
            degrees.append(rb.inputs[var].terms[term].membership(inputs[var]))
        want.append(min(degrees))
    assert rule_activations(rb, inputs) == tuple(want)


def test_first_out_of_range_clause_in_rule_order_is_named():
    # intensification and diversification are both out of range; the second
    # rule, (diversification High, quality Average), is the first to read
    # either, so diversification's value is the one named
    rb = replace(default_rule_base())
    bad = {"quality": 0.5, "intensification": 1.5, "diversification": -0.5}
    for call in (rule_activations, infer):
        with pytest.raises(FuzzyDomainError, match=r"^value -0\.5 outside \[0, 1\]$"):
            call(rb, bad)
