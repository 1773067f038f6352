"""Score distributions on [0, 1].

Shared by the population model (expectations, quadrature) and the synthetic
streams (sampling). Every distribution serializes to a plain dict so stream
and population configs round-trip through JSON.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .policy import _check_number

__all__ = [
    "ScoreDist",
    "UniformDist",
    "PointMass",
    "BetaDist",
    "MixtureDist",
    "GridDist",
    "dist_from_dict",
]

# Absolute tolerance for adaptive quadrature on continuous distributions.
QUAD_ABS_TOL = 1e-12


def _quad(integrand, lo: float, hi: float, **kw) -> float:
    """Adaptive quadrature of `integrand` over [lo, hi].

    scipy is imported here, on first use, so that importing the package (and
    every command that never integrates) does not pay for loading it.
    """
    from scipy import integrate

    return integrate.quad(integrand, lo, hi, limit=200, epsabs=QUAD_ABS_TOL, **kw)[0]


class ScoreDist:
    """Base interface: a probability distribution supported on [0, 1]."""

    def mean(self) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw `size` scores as an array, or, with size None (numpy's
        convention), one score as a Python float. One draw takes the same
        value and leaves the generator in the same state as `size=1` does."""
        raise NotImplementedError

    def _sampler(self, rng: np.random.Generator):
        """A zero-argument callable that draws exactly what `sample(rng)`
        draws, for callers that draw one score at a time."""
        return functools.partial(self.sample, rng)

    def expect(self, fn, breakpoints=()) -> float:
        """E[fn(W)]. `breakpoints` flags known kinks of fn for the quadrature."""
        raise NotImplementedError

    def mean_below(self, x: float) -> float:
        """E[W * 1{W < x}], strict inequality (matters for atoms)."""
        raise NotImplementedError

    def prob_between(self, lo: float, hi: float) -> float:
        """Pr(lo <= W <= hi), closed on both ends."""
        raise NotImplementedError

    def comean_above(self, x: float) -> float:
        """E[(1 - W) * 1{W > x}], strict inequality."""
        raise NotImplementedError

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


class _ContinuousDist(ScoreDist):
    """Continuous distribution with a density; expectations via quadrature."""

    def pdf(self, x: float) -> float:
        raise NotImplementedError

    def expect(self, fn, breakpoints=()) -> float:
        pts = [p for p in breakpoints if 0.0 < p < 1.0] or None
        return _quad(
            lambda x: fn(x) * self.pdf(x), 0.0, 1.0, points=pts, epsrel=QUAD_ABS_TOL
        )

    def mean_below(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        hi = min(x, 1.0)
        return _quad(lambda t: t * self.pdf(t), 0.0, hi)

    def prob_between(self, lo: float, hi: float) -> float:
        if hi < lo:
            return 0.0
        return self.cdf(min(hi, 1.0)) - self.cdf(max(lo, 0.0))

    def comean_above(self, x: float) -> float:
        if x >= 1.0:
            return 0.0
        lo = max(x, 0.0)
        return _quad(lambda t: (1.0 - t) * self.pdf(t), lo, 1.0)


@dataclass(frozen=True)
class UniformDist(_ContinuousDist):
    """Uniform distribution on [0, 1]."""

    def mean(self) -> float:
        return 0.5

    def pdf(self, x: float) -> float:
        return 1.0 if 0.0 <= x <= 1.0 else 0.0

    def cdf(self, x: float) -> float:
        return min(max(x, 0.0), 1.0)

    def sample(self, rng, size=None):
        return rng.random(size)

    def to_dict(self):
        return {"kind": "uniform"}


@dataclass(frozen=True)
class PointMass(ScoreDist):
    """All mass at a single score."""

    value: float

    def __post_init__(self):
        _check_number("point mass value", self.value, " in [0, 1]")

    def mean(self) -> float:
        return self.value

    def sample(self, rng, size=None):
        return float(self.value) if size is None else np.full(size, self.value)

    def expect(self, fn, breakpoints=()):
        return float(fn(self.value))

    def mean_below(self, x):
        return self.value if self.value < x else 0.0

    def prob_between(self, lo, hi):
        return 1.0 if lo <= self.value <= hi else 0.0

    def comean_above(self, x):
        return (1.0 - self.value) if self.value > x else 0.0

    def cdf(self, x):
        return 1.0 if x >= self.value else 0.0

    def to_dict(self):
        return {"kind": "point", "value": self.value}


@dataclass(frozen=True)
class BetaDist(_ContinuousDist):
    """Beta(a, b) distribution.

    Parameters
    ----------
    a, b : float
        Standard shape parameters, both > 0. Mean is a / (a + b).
    """

    a: float
    b: float

    def __post_init__(self):
        _check_number("beta shape a", self.a, " > 0")
        _check_number("beta shape b", self.b, " > 0")

    def mean(self) -> float:
        return self.a / (self.a + self.b)

    def pdf(self, x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        lognorm = (
            math.lgamma(self.a + self.b) - math.lgamma(self.a) - math.lgamma(self.b)
        )
        return math.exp(
            lognorm + (self.a - 1.0) * math.log(x) + (self.b - 1.0) * math.log(1.0 - x)
        )

    def cdf(self, x: float) -> float:
        from scipy.special import betainc

        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        return float(betainc(self.a, self.b, x))

    def sample(self, rng, size=None):
        return rng.beta(self.a, self.b, size)

    def _sampler(self, rng):
        # numpy parses 0-d float64 shapes faster than Python floats; the
        # draw and the returned Python float are the same
        return functools.partial(rng.beta, np.array(self.a, np.float64), np.array(self.b, np.float64))

    def to_dict(self):
        return {"kind": "beta", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class MixtureDist(ScoreDist):
    """Two-component mixture: W ~ first w.p. `weight`, else second.

    Sampling draws the component mask first, then fills first-component
    values, then second-component values; this fixed order is what makes
    batched and incremental generation agree for a given generator state.
    """

    weight: float
    first: ScoreDist
    second: ScoreDist

    def __post_init__(self):
        _check_number("mixture weight", self.weight, " in [0, 1]")

    def mean(self) -> float:
        return self.weight * self.first.mean() + (1.0 - self.weight) * self.second.mean()

    def sample(self, rng, size=None):
        if size is None:
            # the array path draws the other component with size 0, which
            # consumes nothing
            return (self.first if rng.random() < self.weight else self.second).sample(rng)
        mask = rng.random(size) < self.weight
        out = np.empty(size)
        n_first = int(mask.sum())
        out[mask] = self.first.sample(rng, n_first)
        out[~mask] = self.second.sample(rng, size - n_first)
        return out

    def expect(self, fn, breakpoints=()):
        return self.weight * self.first.expect(fn, breakpoints) + (
            1.0 - self.weight
        ) * self.second.expect(fn, breakpoints)

    def mean_below(self, x):
        return self.weight * self.first.mean_below(x) + (
            1.0 - self.weight
        ) * self.second.mean_below(x)

    def prob_between(self, lo, hi):
        return self.weight * self.first.prob_between(lo, hi) + (
            1.0 - self.weight
        ) * self.second.prob_between(lo, hi)

    def comean_above(self, x):
        return self.weight * self.first.comean_above(x) + (
            1.0 - self.weight
        ) * self.second.comean_above(x)

    def cdf(self, x):
        return self.weight * self.first.cdf(x) + (1.0 - self.weight) * self.second.cdf(x)

    def to_dict(self):
        return {
            "kind": "mixture",
            "weight": self.weight,
            "first": self.first.to_dict(),
            "second": self.second.to_dict(),
        }


class GridDist(ScoreDist):
    """Discrete distribution on K equally spaced atoms over [0, 1].

    Parameters
    ----------
    weights : array-like
        Probability of each atom; must sum to 1 within 1e-12.

    Atoms sit at linspace(0, 1, K); expectations over a grid are exact sums,
    which is what makes the brute-force population oracle exact.
    """

    def __init__(self, weights):
        if not isinstance(weights, np.ndarray):  # a list from a config, say
            for i, v in enumerate(weights):
                _check_number(f"grid weights[{i}]", v)
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("grid weights must be a non-empty 1-d array")
        if np.any(w < 0):
            raise ValueError("grid weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"grid weights must sum to 1 within 1e-12, got {w.sum()!r}")
        self.weights = w
        self.points = (
            np.linspace(0.0, 1.0, w.size) if w.size > 1 else np.array([0.5])
        )

    @staticmethod
    def uniform(atoms: int = 1001) -> "GridDist":
        if atoms < 1:
            raise ValueError(f"atoms must be >= 1, got {atoms}")
        return GridDist(np.full(atoms, 1.0 / atoms))

    def __eq__(self, other):
        return isinstance(other, GridDist) and np.array_equal(self.weights, other.weights)

    def mean(self) -> float:
        return float(np.dot(self.weights, self.points))

    def sample(self, rng, size=None):
        idx = rng.choice(self.points.size, size=size, p=self.weights)
        return float(self.points[idx]) if size is None else self.points[idx]

    def expect(self, fn, breakpoints=()):
        vals = np.array([fn(p) for p in self.points])
        return float(np.dot(self.weights, vals))

    def mean_below(self, x):
        mask = self.points < x
        return float(np.dot(self.weights[mask], self.points[mask]))

    def prob_between(self, lo, hi):
        mask = (self.points >= lo) & (self.points <= hi)
        return float(self.weights[mask].sum())

    def comean_above(self, x):
        mask = self.points > x
        return float(np.dot(self.weights[mask], 1.0 - self.points[mask]))

    def cdf(self, x):
        return float(self.weights[self.points <= x].sum())

    def to_dict(self):
        return {"kind": "grid", "weights": self.weights.tolist()}


def dist_from_dict(d: dict) -> ScoreDist:
    """Rebuild a ScoreDist from its to_dict() form."""
    kind = d.get("kind")
    if kind == "uniform":
        return UniformDist()
    if kind == "point":
        return PointMass(d["value"])
    if kind == "beta":
        return BetaDist(d["a"], d["b"])
    if kind == "mixture":
        return MixtureDist(
            d["weight"], dist_from_dict(d["first"]), dist_from_dict(d["second"])
        )
    if kind == "grid":
        return GridDist(d["weights"])
    raise ValueError(f"unknown distribution kind: {kind!r}")
