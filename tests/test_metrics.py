"""Ledger accounting against a hand-tallied trace, and the slack bound."""

import re

import numpy as np
import pytest

from selverify import ErrorLedger, delta_bound
from selverify.experiments import _Certificate

ACCEPT, REJECT, SV = 0, 1, 2  # action codes of the trace columns
TAU_R, TAU_A = 0.3, 0.7


def tally(rounds):
    """The ledger of (w, action, g_latent) rounds, all under thresholds
    (TAU_R, TAU_A)."""
    w, action, g = (np.array(c) for c in zip(*rounds))
    n = len(rounds)
    return _Certificate(None, ledger_only=True).add({
        "w": w.astype(np.float64), "action": action.astype(np.int64),
        "g_latent": g.astype(np.int64),
        "tau_r_before": np.full(n, TAU_R), "tau_a_before": np.full(n, TAU_A),
    }).ledger


def hand_trace():
    """Six rounds tallied by hand; expected counts in the test below."""
    return [
        # unilateral accept of an incorrect item: policy and threshold error
        (0.8, ACCEPT, 0),
        # escalated uncertain round, incorrect: no error either way
        (0.5, SV, 0),
        # unilateral reject of an incorrect item: correct decision
        (0.1, REJECT, 0),
        # unilateral rejects of correct items: policy and threshold errors
        (0.1, REJECT, 1),
        (0.2, REJECT, 1),
        # escalated uncertain round, correct: no error
        (0.6, SV, 1),
    ]


class TestLedger:
    def test_hand_tally(self):
        led = tally(hand_trace())
        assert (led.n0, led.n1) == (3, 3)
        assert (led.type1_policy, led.type2_policy) == (1, 2)
        assert (led.type1_threshold, led.type2_threshold) == (1, 2)
        assert (led.sv_count, led.total) == (2, 6)
        assert led.err_type1() == pytest.approx(1 / 3)
        assert led.err_type2() == pytest.approx(2 / 3)
        assert led.sv_rate() == pytest.approx(1 / 3)

    def test_threshold_tally_counts_explored_rounds(self):
        # an explored accept-region round is SV, not a policy error, but the
        # score still fell above the accept threshold
        led = tally([(0.9, SV, 0)])
        assert led.type1_policy == 0
        assert led.type1_threshold == 1
        assert led.sv_count == 1

    def test_empty_rates_are_zero(self):
        led = ErrorLedger()
        assert led.err_type1() == 0.0
        assert led.err_type2() == 0.0
        assert led.err_type1_threshold() == 0.0
        assert led.err_type2_threshold() == 0.0
        assert led.sv_rate() == 0.0


class TestDeltaBound:
    def test_worked_value(self):
        # 0.04 + sqrt(2 ln 80 / 100) + ln 80 / 300, summed by hand
        val = delta_bound(1000, 0.05, eta=0.05, q_min=0.1)
        assert val == pytest.approx(0.350648192909, abs=1e-9)
        assert round(val, 5) == 0.35065

    def test_zero_rounds_vacuous(self):
        assert delta_bound(0, 0.05, eta=0.05, q_min=0.1) == 0.0

    def test_shrinks_with_n(self):
        vals = [delta_bound(n, 0.05, eta=0.05, q_min=0.1)
                for n in (10, 100, 1000, 10_000)]
        assert vals == sorted(vals, reverse=True)

    def test_grows_as_delta_shrinks(self):
        assert delta_bound(1000, 0.01, eta=0.05, q_min=0.1) > delta_bound(
            1000, 0.2, eta=0.05, q_min=0.1
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=-1, delta=0.05, eta=0.05, q_min=0.1),
            dict(n=10, delta=0.0, eta=0.05, q_min=0.1),
            dict(n=10, delta=1.0, eta=0.05, q_min=0.1),
            dict(n=10, delta=0.05, eta=0.0, q_min=0.1),
            dict(n=10, delta=0.05, eta=0.05, q_min=0.0),
            dict(n=10, delta=0.05, eta=0.05, q_min=1.1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            delta_bound(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n=True), "n must be a nonnegative integer, got True"),
        (dict(delta=True), "delta must be a number in (0, 1), got True"),
        (dict(delta="0.05"), "delta must be a number in (0, 1), got '0.05'"),
        (dict(eta=True), "eta must be a number > 0, got True"),
        (dict(q_min=True), "q_min must be a number in (0, 1], got True"),
        (dict(q_min=float("nan")), "q_min must be a number in (0, 1], got nan"),
    ])
    def test_a_bool_or_a_string_is_refused_by_name(self, kwargs, message):
        args = {**dict(n=10, delta=0.05, eta=0.05, q_min=0.1), **kwargs}
        with pytest.raises(ValueError, match=re.escape(message)):
            delta_bound(**args)

    def test_n_must_be_a_plain_int(self):
        with pytest.raises(ValueError):
            delta_bound(np.int64(10), 0.05, eta=0.05, q_min=0.1)
        assert delta_bound(int(np.int64(10)), 0.05, eta=0.05, q_min=0.1) > 0
