"""Minimal Mamdani inference over trapezoidal terms on the unit interval.

Rules AND their antecedent clauses with min, clip their consequent term at
the activation level, and the per-rule curves are merged with max.  The
crisp output is the centroid of the aggregate, estimated on a uniform
sampling grid; an aggregate that is zero everywhere defuzzifies to the
midpoint 0.5.  The JSON form of a rule base is read by tsred.io.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .core import ParameterError

# Largest centroid grid a rule base may ask for; every inference step
# aggregates over the whole grid, so it bounds both memory and time.
MAX_SAMPLES = 100_001
# Most entries each of infer's two memos holds per rule base.
MEMO_SIZE = 4096


class FuzzyDomainError(ValueError):
    """Input value outside the [0, 1] universe."""


class MissingInputError(LookupError):
    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(f"no value supplied for input variable {variable!r}")


@dataclass(frozen=True)
class Trapezoid:
    """Membership breakpoints a <= b <= c <= d within [0, 1].

    a == b or c == d gives a vertical edge; the breakpoint itself then has
    degree 1, so degenerate terms behave like crisp intervals.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not 0.0 <= self.a <= self.b <= self.c <= self.d <= 1.0:
            raise ValueError(f"breakpoints must satisfy 0 <= a <= b <= c <= d <= 1: {self}")

    def membership(self, x: float) -> float:
        if not 0.0 <= x <= 1.0:
            raise FuzzyDomainError(f"value {x} outside [0, 1]")
        if x < self.a or x > self.d:
            return 0.0
        if self.b <= x <= self.c:
            return 1.0
        if x < self.b:
            return (x - self.a) / (self.b - self.a)
        return (self.d - x) / (self.d - self.c)

    def curve(self, xs: np.ndarray) -> np.ndarray:
        """`membership` at each of the points `xs`."""
        return np.array([self.membership(x) for x in xs.tolist()])


@dataclass(frozen=True)
class LinguisticVariable:
    """A named variable with trapezoidal terms whose supports cover [0, 1]."""

    name: str
    terms: dict[str, Trapezoid]

    def __post_init__(self):
        if not self.terms:
            raise ValueError(f"variable {self.name!r} has no terms")
        reach = 0.0
        for trap in sorted(self.terms.values(), key=lambda t: t.a):
            if trap.a > reach:
                raise ValueError(
                    f"terms of {self.name!r} leave ({reach}, {trap.a}) uncovered"
                )
            reach = max(reach, trap.d)
        if reach < 1.0:
            raise ValueError(f"terms of {self.name!r} leave ({reach}, 1] uncovered")


@dataclass(frozen=True)
class Rule:
    """AND-combined (variable, term) clauses implying one output term."""

    antecedent: tuple[tuple[str, str], ...]
    consequent: str

    @classmethod
    def of(cls, antecedent: Mapping[str, str], consequent: str) -> "Rule":
        return cls(tuple(sorted(antecedent.items())), consequent)


@dataclass(frozen=True)
class RuleBase:
    inputs: dict[str, LinguisticVariable]
    output: LinguisticVariable
    rules: tuple[Rule, ...]
    samples: int = 1001

    def __post_init__(self):
        if not 2 <= self.samples <= MAX_SAMPLES:
            raise ParameterError(f"grid samples must lie in [2, {MAX_SAMPLES}]")
        if not self.rules:
            raise ValueError("rule base has no rules")
        referenced: set[str] = set()
        for rule in self.rules:
            if not rule.antecedent:
                raise ValueError("rule with empty antecedent")
            for var, term in rule.antecedent:
                if var not in self.inputs:
                    raise ValueError(f"rule references unknown variable {var!r}")
                if term not in self.inputs[var].terms:
                    raise ValueError(f"variable {var!r} has no term {term!r}")
                referenced.add(var)
            if rule.consequent not in self.output.terms:
                raise ValueError(f"output has no term {rule.consequent!r}")
        unused = set(self.inputs) - referenced
        if unused:
            raise ValueError(f"input variables never referenced by a rule: {sorted(unused)}")

    @cached_property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.samples)

    @cached_property
    def _output_curves(self) -> dict[str, np.ndarray]:
        return {name: trap.curve(self.grid) for name, trap in self.output.terms.items()}

    @cached_property
    def _crisp(self) -> dict[tuple[float, ...], float]:
        """infer's memo: crisp output by consequent levels, in output-term
        order; it holds at most MEMO_SIZE entries."""
        return {}

    @cached_property
    def _crisp_by_inputs(self) -> dict[tuple[float, ...], float]:
        """infer's first memo: crisp output by input values, in `inputs`
        order; it holds at most MEMO_SIZE entries."""
        return {}


def rule_activations(rb: RuleBase, inputs: Mapping[str, float]) -> tuple[float, ...]:
    """Activation of each rule: min over its antecedent memberships."""
    for var in rb.inputs:
        if var not in inputs:
            raise MissingInputError(var)
    return tuple(
        min([rb.inputs[var].terms[term].membership(inputs[var]) for var, term in rule.antecedent])
        for rule in rb.rules
    )


def consequent_levels(rb: RuleBase, activations: Sequence[float]) -> dict[str, float]:
    """Max activation per output term over all rules concluding in it."""
    levels = {name: 0.0 for name in rb.output.terms}
    for rule, act in zip(rb.rules, activations):
        if act > levels[rule.consequent]:
            levels[rule.consequent] = act
    return levels


def aggregate(rb: RuleBase, levels: Mapping[str, float]) -> np.ndarray:
    """Pointwise max of the clipped consequent terms on the sampling grid."""
    curve = np.zeros(rb.samples)
    for name, level in levels.items():
        if level > 0.0:
            np.maximum(curve, np.minimum(level, rb._output_curves[name]), out=curve)
    return curve


def centroid(mu: np.ndarray, grid: np.ndarray) -> float:
    """Centroid of a membership curve sampled at the points `grid`.

    Returns 0.5 when the curve is identically zero (no rule fired).
    """
    total = float(mu.sum())
    if total == 0.0:
        return 0.5
    return float((grid * mu).sum() / total)


def infer(rb: RuleBase, inputs: Mapping[str, float]) -> float:
    """Crisp output in [0, 1] for the given input assignment.

    Memoised per rule base twice: on the values of its input variables,
    which skips rule activation when they repeat, and on the consequent
    levels, through which alone the defuzzified output depends on the
    inputs.  Only an evaluation that succeeded is remembered, so a missing
    or out-of-range input raises however often its fellows were seen.
    """
    values = tuple([inputs.get(var) for var in rb.inputs])
    crisp = rb._crisp_by_inputs.get(values)
    if crisp is not None:
        return crisp
    levels = consequent_levels(rb, rule_activations(rb, inputs))
    key = tuple(levels.values())
    crisp = rb._crisp.get(key)
    if crisp is None:
        crisp = centroid(aggregate(rb, levels), rb.grid)
        if len(rb._crisp) < MEMO_SIZE:
            rb._crisp[key] = crisp
    if len(rb._crisp_by_inputs) < MEMO_SIZE:
        rb._crisp_by_inputs[values] = crisp
    return crisp


# Default terms: one three-level partition reused by every input variable.
_LOW = Trapezoid(0.0, 0.0, 0.2, 0.4)
_MEDIUM = Trapezoid(0.3, 0.45, 0.55, 0.7)
_HIGH = Trapezoid(0.6, 0.8, 1.0, 1.0)

_DEFAULT_RULES = (
    Rule.of({"quality": "Excellent"}, "Maintain"),
    Rule.of({"quality": "Average", "diversification": "High"}, "Maintain"),
    Rule.of({"quality": "Average", "diversification": "Medium"}, "Maintain"),
    Rule.of(
        {"quality": "Average", "diversification": "Low", "intensification": "High"},
        "Change",
    ),
    Rule.of(
        {"quality": "Average", "diversification": "Low", "intensification": "Medium"},
        "Maintain",
    ),
    Rule.of({"quality": "Poor", "diversification": "High"}, "Maintain"),
    Rule.of(
        {"quality": "Poor", "diversification": "Medium", "intensification": "Low"},
        "Maintain",
    ),
    Rule.of({"quality": "Poor", "intensification": "High"}, "Change"),
    Rule.of({"quality": "Poor", "diversification": "Low"}, "Change"),
)


@lru_cache
def default_rule_base() -> RuleBase:
    """The built-in operator-selection rules over quality, intensification
    and diversification.  High quality or high diversity argues for keeping
    the current operator; poor quality with little diversity argues for a
    change.  Cached: every caller shares one object, which is read-only
    apart from `infer`'s memo."""
    return RuleBase(
        inputs={
            "quality": LinguisticVariable(
                "quality", {"Poor": _LOW, "Average": _MEDIUM, "Excellent": _HIGH}
            ),
            "intensification": LinguisticVariable(
                "intensification", {"Low": _LOW, "Medium": _MEDIUM, "High": _HIGH}
            ),
            "diversification": LinguisticVariable(
                "diversification", {"Low": _LOW, "Medium": _MEDIUM, "High": _HIGH}
            ),
        },
        output=LinguisticVariable(
            "operator-selection",
            {"Change": Trapezoid(0.0, 0.0, 0.3, 0.5), "Maintain": Trapezoid(0.5, 0.7, 1.0, 1.0)},
        ),
        rules=_DEFAULT_RULES,
    )
