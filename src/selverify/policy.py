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
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import Optional

import numpy as np

from ._kernel import _CHUNK, step

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


def _check_count(name: str, v, low: int) -> None:
    """Raise ValueError unless `v` is an integer >= low; a bool or a float
    is not one."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")


_WITHIN = {
    "": lambda v: True,
    " > 0": lambda v: v > 0.0,
    " >= 0": lambda v: v >= 0.0,
    " in (0, 1)": lambda v: 0.0 < v < 1.0,
    " in (0, 1]": lambda v: 0.0 < v <= 1.0,
    " in [0, 1]": lambda v: 0.0 <= v <= 1.0,
}


def _check_number(name: str, v, within: str = "") -> float:
    """`v` as a float; raise ValueError unless it is a number (a numpy
    scalar is, a bool or a string is not) in the interval `within`, a key
    of `_WITHIN`."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)) or not _WITHIN[within](v):
        raise ValueError(f"{name} must be a number{within}, got {v!r}")
    return float(v)


def _check_pair(name: str, v) -> tuple[float, float]:
    """`v` as a pair of floats; raise ValueError, naming it, unless it is a
    list, tuple or array of two numbers."""
    if not isinstance(v, (list, tuple, np.ndarray)) or len(v) != 2:
        raise ValueError(f"{name} must be a pair of numbers, got {v!r}")
    return _check_number(f"{name}[0]", v[0]), _check_number(f"{name}[1]", v[1])


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
        Step size for threshold updates, > 0, with a finite
        eta / min(q_accept, q_reject).
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
        for name, within in (
            ("alpha", " in (0, 1)"), ("beta", " in (0, 1)"), ("eta", " > 0"),
            ("q_accept", " in (0, 1]"), ("q_reject", " in (0, 1]"),
            ("tau_reject_init", " in [0, 1]"), ("tau_accept_init", " in [0, 1]"),
        ):
            _check_number(name, getattr(self, name), within)
        # every update stays in the band [-eta/q_min, 1 + eta/q_min], so a
        # finite band keeps the thresholds finite
        if not math.isfinite(self.eta / self.q_min):
            raise ValueError(f"eta must be positive with eta / q_min finite, got {self.eta}")
        if self.tau_reject_init > self.tau_accept_init:
            raise ValueError(
                f"tau_reject_init {self.tau_reject_init} exceeds "
                f"tau_accept_init {self.tau_accept_init}"
            )
        _check_count("seed", self.seed, 0)

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
        if not isinstance(d, dict):
            raise ValueError(f"policy must be an object, got {d!r}")
        names = [f.name for f in fields(PolicyConfig)]
        unknown = [k for k in d if k not in names]
        if unknown:
            raise ValueError(f"policy has unknown key {unknown[0]!r}")
        missing = [f.name for f in fields(PolicyConfig) if f.default is MISSING and f.name not in d]
        if missing:
            raise ValueError(f"policy lacks {', '.join(missing)}")
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
    (for unilateral accept/reject) finalizes the round. All three run on one
    round core, which the per-item engine also drives directly: `_route`
    checks the score, classifies it and, in a decisive region only, takes
    the next exploration uniform; `_update` applies `_kernel.step` on an
    escalated round and advances the round index. The uniforms are drawn a
    block of `_kernel._CHUNK` at a time and handed out one per decisive
    round: the same values in the same order as one scalar draw per
    decisive round, and as the kernel's pool `default_rng(seed).random(T)`.
    So replaying the same scores against the same seed reproduces the
    decision sequence bit for bit, on either path.

    Parameters
    ----------
    config : PolicyConfig
    """

    def __init__(self, config: PolicyConfig):
        self._config = config
        self._thresholds = Thresholds(config.tau_reject_init, config.tau_accept_init)
        self._rng = np.random.default_rng(config.seed)
        self._uniforms = iter(())
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

    def _route(self, w: float) -> tuple[Region, float, bool]:
        """Region of score w under the current thresholds, its escalation
        probability q, and whether a decisive round explores."""
        if not 0.0 <= w <= 1.0:  # also false for NaN
            raise ValueError(f"weak score must be in [0, 1], got {w}")
        region = classify(w, self._thresholds)
        if region is Region.UNCERTAIN:
            return region, 1.0, False
        q = self._config.q_accept if region is Region.ACCEPT else self._config.q_reject
        u = next(self._uniforms, None)
        if u is None:
            self._uniforms = iter(self._rng.random(_CHUNK).tolist())
            u = next(self._uniforms)
        return region, q, u < q

    def _update(self, w: float, g: Optional[int], q: float) -> Thresholds:
        """Close the round of score w and return the thresholds after it.
        An escalated round (strong label g, escalation probability q) moves
        them; a unilateral one (g None) leaves them."""
        if g is not None:
            th = self._thresholds
            cfg = self._config
            self._thresholds = Thresholds(
                *step(th.reject, th.accept, w, g, q, cfg.alpha, cfg.beta, cfg.eta)
            )
        self._t += 1
        return self._thresholds

    def decide(self, w: float) -> DecisionRecord:
        if self._pending is not None:
            raise ProtocolError("previous round not finalized; call feedback or advance")
        w = float(w)
        th = self._thresholds
        region, q, explored = self._route(w)
        if explored or region is Region.UNCERTAIN:
            action = Action.STRONG_VERIFY
        else:
            action = Action.ACCEPT if region is Region.ACCEPT else Action.REJECT
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
        new = self._update(rec.w, g, rec.q)
        rec.g_observed = g
        rec.thresholds_after = new
        self._pending = None
        return new

    def advance(self) -> None:
        """Finalize a unilateral accept/reject round; thresholds are untouched."""
        rec = self._pending
        if rec is None:
            raise ProtocolError("no pending round; call decide first")
        if rec.action is Action.STRONG_VERIFY:
            raise ProtocolError("pending round escalated; call feedback instead")
        rec.thresholds_after = self._update(rec.w, None, rec.q)
        self._pending = None
