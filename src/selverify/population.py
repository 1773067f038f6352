"""Population-level optimal policies and their value.

Treats the stream as a fixed population: scores W ~ score_dist, a fraction
alpha1 of items correct, and per-item costs of 1 for escalating, lambda1
for accepting an incorrect item, lambda2 for rejecting a correct one.
Everything reduces to two effective weights a = lambda1/alpha0 and
b = lambda2/alpha1; the cost-minimizing policy is always a threshold rule
in the score, and its value is checked against a brute-force per-atom
minimizer on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .distributions import GridDist, ScoreDist
from .policy import Action, _check_number

__all__ = [
    "PolicyKind",
    "OptimalPolicy",
    "PopulationSpec",
    "effective_weights",
    "pointwise_cost",
    "optimal_policy",
    "value",
    "value_three_region",
    "brute_force_value",
    "discretize",
]


class PolicyKind(Enum):
    THREE_REGION = "three_region"
    TWO_REGION = "two_region"
    ALWAYS_ACCEPT = "always_accept"
    ALWAYS_REJECT = "always_reject"


@dataclass(frozen=True)
class OptimalPolicy:
    """Population-optimal decision rule.

    three_region: reject below `reject_below`, accept above `accept_above`,
    escalate on the closed interval between them (ties go to escalation).
    two_region: accept at or above `crossover`, reject below (escalation is
    never worth its cost). The degenerate kinds ignore the score entirely.
    """

    kind: PolicyKind
    reject_below: Optional[float] = None
    accept_above: Optional[float] = None
    crossover: Optional[float] = None

    def action_at(self, w: float) -> Action:
        if self.kind is PolicyKind.ALWAYS_ACCEPT:
            return Action.ACCEPT
        if self.kind is PolicyKind.ALWAYS_REJECT:
            return Action.REJECT
        if self.kind is PolicyKind.TWO_REGION:
            return Action.ACCEPT if w >= self.crossover else Action.REJECT
        if w < self.reject_below:
            return Action.REJECT
        if w > self.accept_above:
            return Action.ACCEPT
        return Action.STRONG_VERIFY


@dataclass(frozen=True)
class PopulationSpec:
    """Population model.

    Parameters
    ----------
    score_dist : ScoreDist
        Marginal distribution of weak scores.
    lambda1, lambda2 : float
        Costs of a wrong accept / wrong reject, >= 0 (escalation costs 1).
    alpha0, alpha1 : float
        Population fractions of incorrect / correct items; each in (0, 1)
        and summing to 1.
    calibrated : bool
        Declares Pr[correct | W = w] = w; requires alpha1 = E[W].
    """

    score_dist: ScoreDist
    lambda1: float
    lambda2: float
    alpha0: float
    alpha1: float
    calibrated: bool = False

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            _check_number(name, getattr(self, name), " >= 0")
        for name in ("alpha0", "alpha1"):
            _check_number(name, getattr(self, name), " in (0, 1)")
        if not isinstance(self.calibrated, bool):
            raise ValueError(f"calibrated must be true or false, got {self.calibrated!r}")
        if abs(self.alpha0 + self.alpha1 - 1.0) > 1e-12:
            raise ValueError(
                f"alpha0 + alpha1 must equal 1, got {self.alpha0 + self.alpha1!r}"
            )
        if self.calibrated:
            m = self.score_dist.mean()
            if abs(self.alpha1 - m) > 1e-9:
                raise ValueError(
                    f"calibrated spec requires alpha1 = E[W]; "
                    f"alpha1={self.alpha1} but E[W]={m!r}"
                )


def effective_weights(spec: PopulationSpec) -> tuple[float, float]:
    """Collapse (lambda1, lambda2, alpha0, alpha1) to the two weights that
    fully determine the optimal policy."""
    if spec.alpha0 <= 0.0 or spec.alpha1 <= 0.0:
        raise ValueError(
            f"population is degenerate: alpha0={spec.alpha0}, alpha1={spec.alpha1}"
        )
    return spec.lambda1 / spec.alpha0, spec.lambda2 / spec.alpha1


def pointwise_cost(w: float, action: Action, a: float, b: float) -> float:
    """Expected cost of taking `action` on an item with score w."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"score must be in [0, 1], got {w}")
    if a < 0 or b < 0:
        raise ValueError(f"weights must be nonnegative, got a={a}, b={b}")
    if action is Action.STRONG_VERIFY:
        return 1.0
    if action is Action.ACCEPT:
        return a * (1.0 - w)
    if action is Action.REJECT:
        return b * w
    raise ValueError(f"unknown action {action!r}")


def optimal_policy(a: float, b: float) -> OptimalPolicy:
    """Cost-minimizing rule for effective weights (a, b).

    A zero weight makes one unilateral action free, so the rule degenerates.
    Otherwise escalation is worth paying for exactly when the two unilateral
    cost lines both exceed 1 somewhere, which happens iff 1/b <= 1 - 1/a;
    the escalation band is then [1/b, 1 - 1/a]. When the band is empty the
    cost lines cross below 1 and the rule reduces to accept-vs-reject at
    their crossing a/(a+b).
    """
    if a < 0 or b < 0:
        raise ValueError(f"weights must be nonnegative, got a={a}, b={b}")
    if a == 0.0:
        return OptimalPolicy(kind=PolicyKind.ALWAYS_ACCEPT)
    if b == 0.0:
        return OptimalPolicy(kind=PolicyKind.ALWAYS_REJECT)
    t_low = 1.0 / b
    t_high = 1.0 - 1.0 / a
    if t_low <= t_high:
        return OptimalPolicy(
            kind=PolicyKind.THREE_REGION, reject_below=t_low, accept_above=t_high
        )
    return OptimalPolicy(kind=PolicyKind.TWO_REGION, crossover=a / (a + b))


def value(spec: PopulationSpec) -> float:
    """Expected per-item cost of the optimal policy: E[min(1, a(1-W), bW)].

    Exact sum for grid distributions; adaptive quadrature (absolute
    tolerance well below 1e-9) otherwise.
    """
    a, b = effective_weights(spec)
    pol = optimal_policy(a, b)
    if pol.kind is PolicyKind.THREE_REGION:
        breakpoints = (pol.reject_below, pol.accept_above)
    elif pol.kind is PolicyKind.TWO_REGION:
        breakpoints = (pol.crossover,)
    else:
        breakpoints = ()
    return spec.score_dist.expect(
        lambda w: min(1.0, a * (1.0 - w), b * w), breakpoints
    )


def value_three_region(spec: PopulationSpec, pol: OptimalPolicy) -> float:
    """Value decomposed over the three regions; must agree with `value`.

    Only defined for a three-region rule: pays b*W below the band, 1 on the
    closed band, a*(1-W) above it.
    """
    if pol.kind is not PolicyKind.THREE_REGION:
        raise ValueError(f"expected a three-region policy, got {pol.kind.value}")
    a, b = effective_weights(spec)
    dist = spec.score_dist
    return (
        b * dist.mean_below(pol.reject_below)
        + dist.prob_between(pol.reject_below, pol.accept_above)
        + a * dist.comean_above(pol.accept_above)
    )


def brute_force_value(spec: PopulationSpec) -> tuple[float, list[Action]]:
    """Independent oracle: per-atom argmin over the three pointwise costs.

    Requires a grid spec. Ties resolve in the cost order (escalate, accept,
    reject), matching the canonical closed escalation band.
    """
    if not isinstance(spec.score_dist, GridDist):
        raise ValueError("brute force needs a grid spec; use discretize() first")
    a, b = effective_weights(spec)
    pts = spec.score_dist.points
    costs = np.stack([np.ones_like(pts), a * (1.0 - pts), b * pts])
    choice = np.argmin(costs, axis=0)
    total = float(np.dot(spec.score_dist.weights, costs.min(axis=0)))
    order = [Action.STRONG_VERIFY, Action.ACCEPT, Action.REJECT]
    return total, [order[i] for i in choice]


def discretize(spec: PopulationSpec, atoms: int = 1001) -> PopulationSpec:
    """Project the score distribution onto `atoms` equally spaced points,
    assigning each atom the probability of its half-open cell."""
    if atoms < 2:
        raise ValueError(f"atoms must be >= 2, got {atoms}")
    if isinstance(spec.score_dist, GridDist):
        return spec
    pts = np.linspace(0.0, 1.0, atoms)
    edges = np.concatenate([[0.0], (pts[:-1] + pts[1:]) / 2.0, [1.0]])
    cdf_vals = np.array([spec.score_dist.cdf(e) for e in edges])
    cdf_vals[0] = 0.0
    cdf_vals[-1] = 1.0
    weights = np.diff(cdf_vals)
    weights = np.clip(weights, 0.0, None)
    weights = weights / weights.sum()
    # mop up rounding so the grid constructor's 1e-12 sum check passes;
    # the largest cell absorbs it without risk of going negative
    weights[int(np.argmax(weights))] += 1.0 - weights.sum()
    return PopulationSpec(
        score_dist=GridDist(weights),
        lambda1=spec.lambda1,
        lambda2=spec.lambda2,
        alpha0=spec.alpha0,
        alpha1=spec.alpha1,
        calibrated=False,
    )
