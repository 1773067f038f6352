"""Online accept / reject / escalate policy with two adaptive thresholds.

The policy routes each scored item by comparing its weak score against a
reject threshold and an accept threshold. Items in the decisive regions are
acted on immediately, except for a small exploration probability of
escalating anyway; items between the thresholds always escalate. Threshold
updates happen only on escalated rounds, driven by the strong label and
importance-weighted by the realized escalation probability, which is what
keeps both error rates pinned near their targets regardless of how the
stream shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from ._kernel import step

__all__ = [
    "Action",
    "Region",
    "Thresholds",
    "PolicyConfig",
    "DecisionRecord",
    "ProtocolError",
    "VerificationPolicy",
    "classify",
    "final_decision",
]


class Action(Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    STRONG_VERIFY = "strong_verify"


class Region(Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    UNCERTAIN = "uncertain"


class ProtocolError(RuntimeError):
    """Raised when decide/feedback/advance are called out of order."""


@dataclass(frozen=True)
class Thresholds:
    """Threshold pair: reject strictly below `reject`, accept strictly above
    `accept`, escalate in between (boundary scores count as in between)."""

    reject: float
    accept: float

    def __post_init__(self):
        if not (math.isfinite(self.reject) and math.isfinite(self.accept)):
            raise ValueError("thresholds must be finite")
        if self.reject > self.accept:
            raise ValueError(
                f"reject threshold {self.reject} exceeds accept threshold {self.accept}"
            )


@dataclass(frozen=True)
class PolicyConfig:
    """Policy hyperparameters.

    Parameters
    ----------
    alpha : float
        Target rate of accepting incorrect items, in (0, 1).
    beta : float
        Target rate of rejecting correct items, in (0, 1).
    eta : float
        Step size for threshold updates, > 0.
    q_accept, q_reject : float
        Exploration probability of escalating anyway from the accept /
        reject region, in (0, 1].
    tau_reject_init, tau_accept_init : float
        Initial thresholds, in [0, 1] with reject <= accept.
    seed : int
        Seed for the policy's own exploration randomness.
    """

    alpha: float
    beta: float
    eta: float = 0.05
    q_accept: float = 0.1
    q_reject: float = 0.1
    tau_reject_init: float = 0.1
    tau_accept_init: float = 0.9
    seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {v}")
        if not self.eta > 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        for name in ("q_accept", "q_reject"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        for name in ("tau_reject_init", "tau_accept_init"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.tau_reject_init > self.tau_accept_init:
            raise ValueError(
                f"tau_reject_init {self.tau_reject_init} exceeds "
                f"tau_accept_init {self.tau_accept_init}"
            )
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")

    @property
    def q_min(self) -> float:
        return min(self.q_accept, self.q_reject)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "eta": self.eta,
            "q_accept": self.q_accept,
            "q_reject": self.q_reject,
            "tau_reject_init": self.tau_reject_init,
            "tau_accept_init": self.tau_accept_init,
            "seed": int(self.seed),
        }

    @staticmethod
    def from_dict(d: dict) -> "PolicyConfig":
        return PolicyConfig(**d)


@dataclass
class DecisionRecord:
    """One round of the decide/feedback protocol.

    `g_observed` and `thresholds_after` are filled when the round is
    finalized: by `feedback` after an escalation, by `advance` otherwise.
    """

    t: int
    w: float
    region: Region
    action: Action
    q: float
    explored: bool
    thresholds_before: Thresholds
    g_observed: Optional[int] = None
    thresholds_after: Optional[Thresholds] = None


def classify(w: float, thresholds: Thresholds) -> Region:
    """Region of a score under strict comparisons; boundary scores are
    uncertain."""
    if w > thresholds.accept:
        return Region.ACCEPT
    if w < thresholds.reject:
        return Region.REJECT
    return Region.UNCERTAIN


def final_decision(record: DecisionRecord) -> Action:
    """Accept/Reject actually applied after the round resolved. Escalated
    rounds follow the strong label."""
    if record.action is not Action.STRONG_VERIFY:
        return record.action
    if record.g_observed is None:
        raise ProtocolError("escalated round not yet resolved by feedback")
    return Action.ACCEPT if record.g_observed == 1 else Action.REJECT


class VerificationPolicy:
    """Stateful two-threshold policy over a stream of weak scores.

    Each round is two calls: `decide(w)` returns the action, then either
    `feedback(g)` (after the strong verifier was consulted) or `advance()`
    (for unilateral accept/reject) finalizes the round. Exploration consumes
    exactly one random draw in decisive regions and none in the uncertain
    region, so replaying the same scores against the same seed reproduces
    the decision sequence bit for bit.

    Parameters
    ----------
    config : PolicyConfig
    """

    def __init__(self, config: PolicyConfig):
        self._config = config
        self._thresholds = Thresholds(config.tau_reject_init, config.tau_accept_init)
        self._rng = np.random.default_rng(config.seed)
        self._t = 1
        self._pending: Optional[DecisionRecord] = None

    @property
    def config(self) -> PolicyConfig:
        return self._config

    @property
    def thresholds(self) -> Thresholds:
        return self._thresholds

    @property
    def round_index(self) -> int:
        """Index of the next (or currently pending) round, starting at 1."""
        return self._t

    def decide(self, w: float) -> DecisionRecord:
        if self._pending is not None:
            raise ProtocolError("previous round not finalized; call feedback or advance")
        w = float(w)
        if not (math.isfinite(w) and 0.0 <= w <= 1.0):
            raise ValueError(f"weak score must be in [0, 1], got {w}")
        cfg = self._config
        th = self._thresholds
        region = classify(w, th)
        if region is Region.ACCEPT:
            q = cfg.q_accept
            explored = self._rng.random() < q
            action = Action.STRONG_VERIFY if explored else Action.ACCEPT
        elif region is Region.REJECT:
            q = cfg.q_reject
            explored = self._rng.random() < q
            action = Action.STRONG_VERIFY if explored else Action.REJECT
        else:
            q = 1.0
            explored = False
            action = Action.STRONG_VERIFY
        rec = DecisionRecord(
            t=self._t,
            w=w,
            region=region,
            action=action,
            q=q,
            explored=explored,
            thresholds_before=th,
        )
        self._pending = rec
        return rec

    def feedback(self, g: int) -> Thresholds:
        """Finalize an escalated round with the strong label g in {0, 1}."""
        rec = self._pending
        if rec is None:
            raise ProtocolError("no pending round; call decide first")
        if rec.action is not Action.STRONG_VERIFY:
            raise ProtocolError("pending round did not escalate; call advance instead")
        if g not in (0, 1):
            raise ValueError(f"strong label must be 0 or 1, got {g!r}")
        g = int(g)
        cfg = self._config
        th = self._thresholds
        new_r, new_a = step(
            th.reject, th.accept, rec.w, g, rec.q, cfg.alpha, cfg.beta, cfg.eta
        )
        new = Thresholds(new_r, new_a)
        rec.g_observed = g
        rec.thresholds_after = new
        self._thresholds = new
        self._t += 1
        self._pending = None
        return new

    def advance(self) -> None:
        """Finalize a unilateral accept/reject round; thresholds are untouched."""
        rec = self._pending
        if rec is None:
            raise ProtocolError("no pending round; call decide first")
        if rec.action is Action.STRONG_VERIFY:
            raise ProtocolError("pending round escalated; call feedback instead")
        rec.thresholds_after = rec.thresholds_before
        self._t += 1
        self._pending = None
