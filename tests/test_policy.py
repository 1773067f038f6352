"""Policy unit tests: hand-traced updates, protocol discipline, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selverify import _kernel
from selverify import (
    Action,
    CalibratedStream,
    PolicyConfig,
    ProtocolError,
    Region,
    Thresholds,
    UniformDist,
    VerificationPolicy,
    check_claims,
    classify,
    final_decision,
    run_one,
)


def seed_with_first_draw(lo, hi):
    """Smallest seed whose generator opens with a draw in [lo, hi)."""
    for seed in range(10_000):
        if lo <= np.random.default_rng(seed).random() < hi:
            return seed
    raise AssertionError("no such seed in range")


EXPLORE_SEED = seed_with_first_draw(0.0, 0.1)
PLAIN_SEED = seed_with_first_draw(0.1, 1.0)

BASE = dict(
    alpha=0.2,
    beta=0.3,
    eta=0.05,
    q_accept=0.1,
    q_reject=0.1,
    tau_reject_init=0.1,
    tau_accept_init=0.75,
)


class TestClassify:
    def test_strict_regions(self):
        th = Thresholds(0.1, 0.75)
        assert classify(0.9, th) is Region.ACCEPT
        assert classify(0.05, th) is Region.REJECT
        assert classify(0.5, th) is Region.UNCERTAIN

    def test_boundary_scores_are_uncertain(self):
        th = Thresholds(0.1, 0.75)
        assert classify(0.75, th) is Region.UNCERTAIN
        assert classify(0.1, th) is Region.UNCERTAIN

    def test_collided_thresholds(self):
        th = Thresholds(0.5, 0.5)
        assert classify(0.5, th) is Region.UNCERTAIN
        assert classify(0.50001, th) is Region.ACCEPT
        assert classify(0.49999, th) is Region.REJECT


class TestHandTracedUpdates:
    """Each expected threshold pair below was worked out by hand from the
    update expressions before being frozen here."""

    def test_explored_accept_with_incorrect_label(self):
        # w=0.9 > 0.75, g=0: accept threshold rises by eta*(1-alpha)/q = 0.4
        policy = VerificationPolicy(PolicyConfig(seed=EXPLORE_SEED, **BASE))
        rec = policy.decide(0.9)
        assert rec.region is Region.ACCEPT
        assert rec.action is Action.STRONG_VERIFY
        assert rec.explored is True
        assert rec.q == 0.1
        new = policy.feedback(0)
        assert new.accept == pytest.approx(1.15, abs=1e-12)
        assert new.reject == pytest.approx(0.1, abs=1e-12)

    def test_uncertain_with_correct_label(self):
        # w=0.5 in the band, g=1: reject threshold rises by eta*beta = 0.015
        policy = VerificationPolicy(PolicyConfig(seed=PLAIN_SEED, **BASE))
        rec = policy.decide(0.5)
        assert rec.region is Region.UNCERTAIN
        assert rec.action is Action.STRONG_VERIFY
        assert rec.explored is False
        assert rec.q == 1.0
        new = policy.feedback(1)
        assert new.reject == pytest.approx(0.115, abs=1e-12)
        assert new.accept == pytest.approx(0.75, abs=1e-12)

    def test_explored_reject_with_correct_label(self):
        # w=0.05 < 0.1, g=1: reject threshold falls by eta*(1-beta)/q = 0.35
        policy = VerificationPolicy(PolicyConfig(seed=EXPLORE_SEED, **BASE))
        rec = policy.decide(0.05)
        assert rec.region is Region.REJECT
        assert rec.explored is True
        new = policy.feedback(1)
        assert new.reject == pytest.approx(-0.25, abs=1e-12)
        assert new.accept == pytest.approx(0.75, abs=1e-12)

    def test_accept_threshold_projects_onto_reject(self):
        cfg = PolicyConfig(
            alpha=0.9, beta=0.1, eta=0.05,
            tau_reject_init=0.5, tau_accept_init=0.52, seed=0,
        )
        policy = VerificationPolicy(cfg)
        policy.decide(0.51)
        new = policy.feedback(0)
        # raw accept update 0.52 - 0.045 = 0.475 clips up to the reject level
        assert new.accept == 0.5
        assert new.reject == 0.5

    def test_reject_threshold_projects_onto_accept(self):
        cfg = PolicyConfig(
            alpha=0.1, beta=0.9, eta=0.05,
            tau_reject_init=0.48, tau_accept_init=0.5, seed=0,
        )
        policy = VerificationPolicy(cfg)
        policy.decide(0.49)
        new = policy.feedback(1)
        # raw reject update 0.48 + 0.045 = 0.525 clips down to the accept level
        assert new.reject == 0.5
        assert new.accept == 0.5

    def test_unilateral_rounds_leave_thresholds_untouched(self):
        policy = VerificationPolicy(PolicyConfig(seed=PLAIN_SEED, **BASE))
        before = policy.thresholds
        rec = policy.decide(0.9)
        assert rec.action is Action.ACCEPT
        assert rec.explored is False
        policy.advance()
        assert policy.thresholds is before
        assert rec.thresholds_after is before


class TestExplorationDraws:
    def test_uncertain_rounds_consume_no_randomness(self):
        # same seed: an uncertain round in between must not shift the draw
        # stream, so the later decisive round explores identically
        direct = VerificationPolicy(PolicyConfig(seed=EXPLORE_SEED, **BASE))
        flag_direct = direct.decide(0.9).explored

        detour = VerificationPolicy(PolicyConfig(seed=EXPLORE_SEED, **BASE))
        detour.decide(0.5)
        detour.feedback(1)
        flag_detour = detour.decide(0.9).explored
        assert flag_direct == flag_detour is True

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_one_draw_per_decisive_round(self, seed):
        # the policy must consume the uniform stream in decide() order
        cfg = PolicyConfig(
            alpha=0.5, beta=0.5, eta=1e-12, q_accept=0.1, q_reject=0.1,
            tau_reject_init=0.1, tau_accept_init=0.5, seed=seed,
        )
        policy = VerificationPolicy(cfg)
        expected = (np.random.default_rng(seed).random(8) < 0.1).tolist()
        got = []
        for _ in range(8):
            rec = policy.decide(0.9)
            got.append(rec.explored)
            if rec.action is Action.STRONG_VERIFY:
                policy.feedback(1)
            else:
                policy.advance()
        assert got == expected

    def test_block_draws_match_scalar_draws_across_block_edges(self):
        # uniforms come a block of _CHUNK at a time; over three blocks of
        # decisive rounds, with uncertain rounds in between, the flags must
        # be the scalar draws' and the run the kernel's, bit for bit
        q_accept, q_reject = 0.3, 0.2
        cfg = PolicyConfig(
            alpha=0.15, beta=0.15, eta=0.05, q_accept=q_accept, q_reject=q_reject,
            tau_reject_init=0.1, tau_accept_init=0.9, seed=7,
        )
        rng = np.random.default_rng(8)
        T = 20_000
        w = rng.random(T)
        g = (rng.random(T) < w).astype(np.int64)
        policy = VerificationPolicy(cfg)
        recs = []
        for wt, gt in zip(w.tolist(), g.tolist()):
            rec = policy.decide(wt)
            if rec.action is Action.STRONG_VERIFY:
                policy.feedback(gt)
            else:
                policy.advance()
            recs.append(rec)
        decisive = [r for r in recs if r.region is not Region.UNCERTAIN]
        assert len(decisive) > 3 * _kernel._CHUNK
        assert len(decisive) < T  # uncertain rounds mixed in
        q = np.array([q_accept if r.region is Region.ACCEPT else q_reject for r in decisive])
        expected = np.random.default_rng(cfg.seed).random(len(decisive)) < q
        assert [r.explored for r in decisive] == expected.tolist()

        *cols, used = _kernel.run_rounds(
            w, g, np.random.default_rng(cfg.seed).random(T), cfg.alpha, cfg.beta, cfg.eta,
            q_accept, q_reject, cfg.tau_reject_init, cfg.tau_accept_init,
        )
        region, action, q_col, explored, _, tr_b, ta_b, tr_a, ta_a = cols
        assert used == len(decisive)
        codes = {"accept": 0, "reject": 1, "uncertain": 2, "strong_verify": 2}
        got = {
            "region": np.array([codes[r.region.value] for r in recs]),
            "action": np.array([codes[r.action.value] for r in recs]),
            "q": np.array([r.q for r in recs]),
            "explored": np.array([r.explored for r in recs]),
            "tau_r_before": np.array([r.thresholds_before.reject for r in recs]),
            "tau_a_before": np.array([r.thresholds_before.accept for r in recs]),
            "tau_r_after": np.array([r.thresholds_after.reject for r in recs]),
            "tau_a_after": np.array([r.thresholds_after.accept for r in recs]),
        }
        want = dict(zip(got, (region, action, q_col, explored, tr_b, ta_b, tr_a, ta_a)))
        for name in got:
            assert got[name].astype(want[name].dtype).tobytes() == want[name].tobytes(), name

    def test_exploration_frequency_matches_q(self):
        # eta tiny so thresholds stay put; empirical rate within 4 SE of q
        q = 0.3
        cfg = PolicyConfig(
            alpha=0.5, beta=0.5, eta=1e-12, q_accept=q, q_reject=q,
            tau_reject_init=0.1, tau_accept_init=0.5, seed=2024,
        )
        policy = VerificationPolicy(cfg)
        n = 100_000
        hits = 0
        for _ in range(n):
            rec = policy.decide(0.9)
            hits += rec.explored
            if rec.action is Action.STRONG_VERIFY:
                policy.feedback(1)
            else:
                policy.advance()
        se = (q * (1 - q) / n) ** 0.5
        assert abs(hits / n - q) < 4 * se


class TestProtocol:
    def make(self):
        return VerificationPolicy(PolicyConfig(seed=PLAIN_SEED, **BASE))

    def test_decide_twice_rejected(self):
        policy = self.make()
        policy.decide(0.5)
        with pytest.raises(ProtocolError):
            policy.decide(0.5)

    def test_feedback_without_decide(self):
        with pytest.raises(ProtocolError):
            self.make().feedback(1)

    def test_advance_without_decide(self):
        with pytest.raises(ProtocolError):
            self.make().advance()

    def test_feedback_on_unilateral_round(self):
        policy = self.make()
        rec = policy.decide(0.9)
        assert rec.action is Action.ACCEPT
        with pytest.raises(ProtocolError):
            policy.feedback(1)

    def test_advance_on_escalated_round(self):
        policy = self.make()
        policy.decide(0.5)
        with pytest.raises(ProtocolError):
            policy.advance()

    def test_bad_label(self):
        policy = self.make()
        policy.decide(0.5)
        with pytest.raises(ValueError):
            policy.feedback(2)

    def test_bad_score(self):
        policy = self.make()
        with pytest.raises(ValueError):
            policy.decide(1.5)
        with pytest.raises(ValueError):
            policy.decide(float("nan"))

    def test_round_index_advances_only_on_finalize(self):
        policy = self.make()
        assert policy.round_index == 1
        policy.decide(0.5)
        assert policy.round_index == 1
        policy.feedback(1)
        assert policy.round_index == 2

    def test_final_decision(self):
        policy = self.make()
        rec = policy.decide(0.5)
        with pytest.raises(ProtocolError):
            final_decision(rec)
        policy.feedback(1)
        assert final_decision(rec) is Action.ACCEPT
        rec2 = self.make().decide(0.9)
        assert rec2.action is Action.ACCEPT
        assert final_decision(rec2) is Action.ACCEPT


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(alpha=0.0, beta=0.3), "alpha"),
            (dict(alpha=0.2, beta=1.0), "beta"),
            (dict(alpha=0.2, beta=0.3, eta=0.0), "eta"),
            # a band [-eta/q_min, 1 + eta/q_min] that is not finite: the
            # kernel wrote NaN thresholds at eta=inf and inf at eta=1e308
            (dict(alpha=0.2, beta=0.3, eta=math.inf), "eta"),
            (dict(alpha=0.2, beta=0.3, eta=1e308, q_accept=0.1), "eta"),
            (dict(alpha=0.2, beta=0.3, q_accept=0.0), "q_accept"),
            (dict(alpha=0.2, beta=0.3, q_reject=1.2), "q_reject"),
            (dict(alpha=0.2, beta=0.3, tau_accept_init=1.5), "tau_accept_init"),
            (dict(alpha=0.2, beta=0.3, seed=-1), "seed"),
            (dict(alpha=0.2, beta=0.3, seed=True), "seed"),
            (dict(alpha=0.2, beta=0.3, seed=1.0), "seed"),
            # a bool or a string is not a number: neither is echoed or compared
            (dict(alpha="0.1", beta=0.3), "alpha"),
            (dict(alpha=0.2, beta=None), "beta"),
            (dict(alpha=0.2, beta=0.3, eta=True), "eta"),
            (dict(alpha=0.2, beta=0.3, q_accept=True), "q_accept"),
            (dict(alpha=0.2, beta=0.3, q_reject="1"), "q_reject"),
            (dict(alpha=0.2, beta=0.3, tau_reject_init=False), "tau_reject_init"),
            (dict(alpha=0.2, beta=0.3, tau_accept_init="0.9"), "tau_accept_init"),
            (dict(alpha=0.2, beta=0.3, eta=math.nan), "eta"),
        ],
    )
    def test_errors_name_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            PolicyConfig(**kwargs)

    def test_numpy_scalars_are_numbers(self):
        cfg = PolicyConfig(alpha=np.float64(0.2), beta=np.float32(0.25), eta=np.int64(1), q_accept=1)
        assert cfg.alpha == 0.2 and cfg.eta == 1

    @pytest.mark.parametrize("eta, q", [(1e307, 0.1), (1e308, 1.0)])
    def test_an_eta_with_a_finite_band_keeps_the_thresholds_finite(self, eta, q):
        cfg = PolicyConfig(alpha=0.2, beta=0.3, eta=eta, q_accept=q, q_reject=q)
        trace = run_one(cfg, CalibratedStream(UniformDist(), seed=0), horizon=2_000)
        taus = np.concatenate([trace.tau_r_after, trace.tau_a_after])
        assert np.isfinite(taus).all()
        assert check_claims(trace)["pass"]

    def test_crossed_initial_thresholds(self):
        with pytest.raises(ValueError):
            PolicyConfig(alpha=0.2, beta=0.3, tau_reject_init=0.8, tau_accept_init=0.2)

    def test_crossed_thresholds_type(self):
        with pytest.raises(ValueError):
            Thresholds(0.8, 0.2)

    def test_q_min(self):
        cfg = PolicyConfig(alpha=0.2, beta=0.3, q_accept=0.4, q_reject=0.25)
        assert cfg.q_min == 0.25

    def test_config_dict_round_trip(self):
        cfg = PolicyConfig(alpha=0.12, beta=0.07, eta=0.01, q_accept=0.3,
                           q_reject=0.2, tau_reject_init=0.2,
                           tau_accept_init=0.8, seed=17)
        assert PolicyConfig.from_dict(cfg.to_dict()) == cfg


def test_replay_is_deterministic():
    cfg = PolicyConfig(seed=11, **BASE)
    scores = np.random.default_rng(5).random(500)
    labels = np.random.default_rng(6).integers(0, 2, 500)

    def drive():
        policy = VerificationPolicy(cfg)
        history = []
        for w, g in zip(scores, labels):
            rec = policy.decide(float(w))
            if rec.action is Action.STRONG_VERIFY:
                policy.feedback(int(g))
            else:
                policy.advance()
            history.append(
                (rec.action.value, rec.explored,
                 rec.thresholds_after.reject, rec.thresholds_after.accept)
            )
        return history

    assert drive() == drive()


@st.composite
def policy_runs(draw):
    alpha = draw(st.floats(0.01, 0.99))
    beta = draw(st.floats(0.01, 0.99))
    eta = draw(st.floats(0.001, 0.2))
    q_a = draw(st.floats(0.05, 1.0))
    q_r = draw(st.floats(0.05, 1.0))
    lo = draw(st.floats(0.0, 1.0))
    hi = draw(st.floats(0.0, 1.0))
    if lo > hi:
        lo, hi = hi, lo
    seed = draw(st.integers(0, 2**31))
    rounds = draw(
        st.lists(
            st.tuples(st.floats(0.0, 1.0), st.integers(0, 1)),
            min_size=1,
            max_size=60,
        )
    )
    cfg = PolicyConfig(
        alpha=alpha, beta=beta, eta=eta, q_accept=q_a, q_reject=q_r,
        tau_reject_init=lo, tau_accept_init=hi, seed=seed,
    )
    return cfg, rounds


@settings(max_examples=150, deadline=None)
@given(policy_runs())
def test_policy_invariants(run):
    cfg, rounds = run
    policy = VerificationPolicy(cfg)
    band_lo = -cfg.eta / cfg.q_min - 1e-12
    band_hi = 1.0 + cfg.eta / cfg.q_min + 1e-12
    for w, g in rounds:
        rec = policy.decide(w)
        # region/action consistency
        if rec.region is Region.UNCERTAIN:
            assert rec.action is Action.STRONG_VERIFY and rec.q == 1.0
            assert rec.explored is False
        elif rec.explored:
            assert rec.action is Action.STRONG_VERIFY
        else:
            assert rec.action.value == rec.region.value
        if rec.action is Action.STRONG_VERIFY:
            policy.feedback(g)
        else:
            policy.advance()
        after = rec.thresholds_after
        before = rec.thresholds_before
        # ordering survives every update
        assert after.reject <= after.accept
        # each side moves at most eta/q per finalized round
        assert abs(after.accept - before.accept) <= cfg.eta / rec.q + 1e-12
        assert abs(after.reject - before.reject) <= cfg.eta / rec.q + 1e-12
        # thresholds stay inside the uniform band
        assert band_lo <= after.reject and after.accept <= band_hi
