"""Error accounting and the finite-sample slack bound.

The ledger keeps exact integer counts; rates are formed only at read time,
with empty denominators reading as zero. Two parallel error tallies are
kept: what the policy actually did, and what the thresholds alone would
have implied. The threshold-induced tally always dominates the policy
tally, which is one of the exact claims the test suite fuzzes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .policy import _check_number

__all__ = ["ErrorLedger", "delta_bound"]


@dataclass
class ErrorLedger:
    """Integer counters over finalized rounds.

    n0 / n1 count rounds by latent label; the policy tallies count
    unilateral mistakes (accepting an incorrect item, rejecting a correct
    one); the threshold tallies count how scores fell against the
    thresholds in force, regardless of exploration.
    """

    n0: int = 0
    n1: int = 0
    type1_policy: int = 0
    type2_policy: int = 0
    type1_threshold: int = 0
    type2_threshold: int = 0
    sv_count: int = 0
    total: int = 0

    def err_type1(self) -> float:
        return self.type1_policy / self.n0 if self.n0 else 0.0

    def err_type2(self) -> float:
        return self.type2_policy / self.n1 if self.n1 else 0.0

    def err_type1_threshold(self) -> float:
        return self.type1_threshold / self.n0 if self.n0 else 0.0

    def err_type2_threshold(self) -> float:
        return self.type2_threshold / self.n1 if self.n1 else 0.0

    def sv_rate(self) -> float:
        return self.sv_count / self.total if self.total else 0.0


def delta_bound(n: int, delta: float, eta: float, q_min: float) -> float:
    """Finite-sample slack added to an error target after n labeled rounds.

    Shrinks roughly as 1/sqrt(n); by convention the slack is 0 when n = 0
    (the corresponding error rate is also 0/0 -> 0).

    Parameters
    ----------
    n : int
        Rounds of the relevant latent class seen so far, >= 0.
    delta : float
        Failure probability of the guarantee, in (0, 1).
    eta : float
        Policy step size, > 0.
    q_min : float
        Smallest exploration probability, in (0, 1].
    """
    # a plain int only: neither a bool nor a numpy integer
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    _check_number("delta", delta, " in (0, 1)")
    _check_number("eta", eta, " > 0")
    _check_number("q_min", q_min, " in (0, 1]")
    if n == 0:
        return 0.0
    log_term = math.log(4.0 / delta)
    drift = (1.0 + 2.0 * eta / q_min) / (eta * n)
    noise = math.sqrt(2.0 * log_term / (n * q_min))
    corr = log_term / (3.0 * n * q_min)
    return drift + noise + corr
