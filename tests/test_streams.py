"""Verification environments: exact task-stream semantics on degenerate
score laws, frozen-seed statistical checks against closed-form moments."""

import dataclasses
import hashlib
import itertools
import json
import math
import re
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selverify import (
    Action,
    BestOfNStream,
    BetaDist,
    CalibratedStream,
    DriftStream,
    GridDist,
    MiscalibratedStream,
    MixtureDist,
    PointMass,
    PolicyConfig,
    ProtocolError,
    ScoreDist,
    StepwiseStream,
    UniformDist,
    apply_link,
    make_stream,
    preset_ambiguous,
    preset_calibrated,
    preset_drift,
    preset_math_like,
    run_one,
    run_strong_only,
    run_weak_only,
    sample_items,
    score_report,
)
from selverify.streams import CHUNK, _Tape

TRACE_COLUMNS = (
    "t", "w", "region", "action", "q", "explored", "g_observed", "g_latent",
    "tau_r_before", "tau_a_before", "tau_r_after", "tau_a_after",
)
UNIFORM_SPEC = {"kind": "calibrated", "score_dist": UniformDist().to_dict(), "seed": 7}


def drain(stream, n):
    items = []
    for _ in range(n):
        item = stream.next()
        if item is None:
            break
        items.append(item)
    return items


class TestCalibrated:
    def test_point_mass_one_is_all_correct(self):
        w, g = CalibratedStream(PointMass(1.0), seed=0).take(200)
        assert np.all(w == 1.0)
        assert np.all(g == 1)

    def test_uniform_moments(self):
        w, g = sample_items(UNIFORM_SPEC, 10**5, seed=7)
        assert w.mean() == pytest.approx(0.5, abs=0.01)
        assert g.mean() == pytest.approx(0.5, abs=0.01)
        assert np.mean((w - g) ** 2) == pytest.approx(1.0 / 6.0, abs=0.005)

    def test_take_equals_next_across_chunk_boundary(self):
        n = CHUNK + 30
        a = CalibratedStream(BetaDist(2.0, 5.0), seed=42)
        b = CalibratedStream(BetaDist(2.0, 5.0), seed=42)
        wa, ga = a.take(n)
        items = drain(b, n)
        assert wa.size == n
        assert np.array_equal(wa, [it.w for it in items])
        assert np.array_equal(ga, [it.g_latent for it in items])

    def test_interleaving_take_and_next_preserves_order(self):
        a = CalibratedStream(UniformDist(), seed=9)
        b = CalibratedStream(UniformDist(), seed=9)
        ws = list(a.take(3000)[0])
        ws.extend(it.w for it in drain(a, 100))
        more, _ = a.take(CHUNK)
        ws.extend(more)
        ref, _ = b.take(3100 + CHUNK)
        assert np.array_equal(np.array(ws), ref)

    def test_no_task_outcome(self):
        s = CalibratedStream(UniformDist(), seed=0)
        assert s.reactive is False
        with pytest.raises(ProtocolError):
            s.outcome()

    def test_strong_query_needs_pending_item(self):
        s = CalibratedStream(UniformDist(), seed=0)
        with pytest.raises(ProtocolError):
            s.answer_strong_query()
        item = s.next()
        assert s.answer_strong_query() == item.g_latent

    @pytest.mark.parametrize("seed", [-1, 0.5, "x", None, True, 2.0])
    def test_seed_validation(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            CalibratedStream(UniformDist(), seed=seed)


class TestLinks:
    def test_identity_and_power(self):
        w = np.array([0.0, 0.3, 1.0])
        assert np.array_equal(apply_link({"kind": "identity"}, w), w)
        assert np.allclose(apply_link({"kind": "power", "exponent": 2.0}, w), w**2)

    def test_bad_links_rejected(self):
        for k in (0.0, True, "2"):
            with pytest.raises(ValueError, match=f"power link exponent must be a number > 0, got {k!r}"):
                apply_link({"kind": "power", "exponent": k}, np.array([0.5]))
        with pytest.raises(ValueError):
            apply_link({"kind": "sigmoid"}, np.array([0.5]))

    def test_constructor_validates_link_up_front(self):
        with pytest.raises(ValueError):
            MiscalibratedStream(UniformDist(), {"kind": "sigmoid"}, seed=0)

    def test_square_link_overconfidence(self):
        # uniform scores, Pr[g=1|w] = w^2: top decile truth rate is
        # (1 - 0.9^3)/(3 * 0.1) = 0.90333, below the bin's ~0.95 mean score
        spec = {
            "kind": "miscalibrated",
            "score_dist": UniformDist().to_dict(),
            "link": {"kind": "power", "exponent": 2.0},
            "seed": 11,
        }
        rep = score_report(spec, samples=10**5, bins=10, seed=11)
        top = rep["calibration"][-1]
        assert top["lo"] == pytest.approx(0.9)
        assert top["hi"] == pytest.approx(1.0)
        assert top["count"] > 5000
        assert top["frac_correct"] == pytest.approx(0.90333, abs=0.01)
        assert top["mean_score"] > top["frac_correct"]


class TestDrift:
    def segments(self):
        return [(PointMass(0.2), 10), (PointMass(0.8), 7)]

    def test_total_length(self):
        assert DriftStream(self.segments(), seed=0).total_length == 17

    def test_segment_alignment_and_exhaustion(self):
        s = DriftStream(self.segments(), seed=0)
        w, g = s.take(100)
        assert w.size == 17
        assert np.all(w[:10] == 0.2)
        assert np.all(w[10:] == 0.8)
        assert s.next() is None
        empty_w, empty_g = s.take(5)
        assert empty_w.size == 0 and empty_g.size == 0

    def test_long_segments_split_into_blocks(self):
        n = CHUNK + 500
        s = DriftStream([(PointMass(0.3), n), (PointMass(0.7), 50)], seed=0)
        w, _ = s.take(n + 50)
        assert np.all(w[:n] == 0.3)
        assert np.all(w[n:] == 0.7)

    def test_spec_round_trip_replays_identically(self):
        spec = preset_drift(total_length=2000, seed=13)
        w1, g1 = make_stream(spec).take(2000)
        w2, g2 = make_stream(spec).take(2000)
        assert np.array_equal(w1, w2)
        assert np.array_equal(g1, g2)

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftStream([], seed=0)
        with pytest.raises(ValueError):
            DriftStream([(UniformDist(), 0)], seed=0)
        # read as they are, not truncated or taken as 1
        for length in (True, 2.5, 3.0, "3"):
            segment = {"score_dist": UniformDist().to_dict(), "length": length}
            message = f"segment length must be an integer >= 1, got {length!r}"
            with pytest.raises(ValueError, match=message):
                make_stream({**preset_drift(100), "segments": [segment]})
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got True"):
            make_stream({**preset_drift(100), "seed": True})


def sure_thing_best_of_n(**kw):
    args = dict(
        problems=3,
        budget=4,
        difficulty=PointMass(1.0),
        correct_scores=PointMass(0.9),
        incorrect_scores=PointMass(0.2),
        seed=0,
    )
    args.update(kw)
    return BestOfNStream(**args)


class TestBestOfN:
    def test_accept_finalizes_with_one_weak_call(self):
        s = sure_thing_best_of_n()
        for _ in range(3):
            item = s.next()
            assert item.w == 0.9 and item.g_latent == 1
            s.react(Action.ACCEPT)
        out = s.outcome()
        assert out.accuracy == 1.0
        assert out.weak_calls_per_problem == 1.0
        assert out.strong_calls_per_problem == 0.0

    def test_accepting_a_wrong_answer_counts_against_accuracy(self):
        s = sure_thing_best_of_n(difficulty=PointMass(0.0), problems=2)
        for _ in range(2):
            assert s.next().g_latent == 0
            s.react(Action.ACCEPT)
        assert s.outcome().accuracy == 0.0

    def test_reject_at_budget_fails_the_problem(self):
        s = sure_thing_best_of_n(budget=1, problems=2)
        for _ in range(2):
            s.next()
            s.react(Action.REJECT)
        out = s.outcome()
        assert out.problems_correct == 0
        assert out.weak_calls_per_problem == 1.0

    def test_reject_below_budget_redraws_same_problem(self):
        s = sure_thing_best_of_n(budget=3, problems=1)
        first = s.next()
        s.react(Action.REJECT)
        second = s.next()
        assert first.problem_id == second.problem_id == 0
        s.react(Action.ACCEPT)
        out = s.outcome()
        assert out.problems_correct == 1
        assert out.weak_calls_per_problem == 2.0

    def test_strong_query_then_reject_still_spends_budget(self):
        s = sure_thing_best_of_n(budget=2, problems=1, difficulty=PointMass(0.0))
        s.next()
        assert s.answer_strong_query() == 0
        s.react(Action.REJECT)
        s.next()
        assert s.answer_strong_query() == 0
        s.react(Action.REJECT)
        out = s.outcome()
        assert out.problems_correct == 0
        assert out.strong_calls_per_problem == 2.0

    def test_protocol_discipline(self):
        s = sure_thing_best_of_n()
        with pytest.raises(ProtocolError):
            s.react(Action.ACCEPT)
        with pytest.raises(ProtocolError):
            s.outcome()
        s.next()
        with pytest.raises(ProtocolError):
            s.next()
        with pytest.raises(ValueError):
            s.react(Action.STRONG_VERIFY)

    def test_weak_only_spends_the_full_budget(self):
        out = run_weak_only(sure_thing_best_of_n(problems=40, budget=4))
        assert out.weak_calls_per_problem == 4.0
        assert out.strong_calls_per_problem == 0.0
        assert out.accuracy == 1.0

    def test_weak_only_needs_a_fresh_stream(self):
        s = sure_thing_best_of_n()
        s.next()
        with pytest.raises(ProtocolError):
            s.run_weak_only()

    def test_weak_only_rejects_non_task_streams(self):
        with pytest.raises(ValueError):
            run_weak_only(CalibratedStream(UniformDist(), seed=0))

    def test_strong_only_matches_closed_form(self):
        # per-problem success is 1 - (1 - 0.479)^4 = 0.926320 on the hard
        # preset: the oracle accepts the first correct candidate
        out = run_strong_only(make_stream(preset_math_like("hard", problems=2000, seed=3)))
        assert out.accuracy == pytest.approx(0.926319783519, abs=0.02)
        assert out.strong_calls_per_problem == out.weak_calls_per_problem

    def test_strong_only_rejects_non_task_streams(self):
        with pytest.raises(ValueError):
            run_strong_only(CalibratedStream(UniformDist(), seed=0))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(problems=0),
            dict(budget=0),
            dict(seed=-3),
            # read as they are, not truncated or taken as 1
            dict(problems=2.5),
            dict(problems=True),
            dict(budget="4"),
            dict(budget=4.0),
            dict(seed=True),
            dict(seed=1.5),
        ],
    )
    def test_validation(self, kw):
        (field, _), = kw.items()
        with pytest.raises(ValueError, match=f"{field} must be an integer >= "):
            sure_thing_best_of_n(**kw)


def sure_thing_stepwise(**kw):
    args = dict(
        episodes=2,
        steps=3,
        step_correct_prob=1.0,
        correct_scores=PointMass(0.9),
        incorrect_scores=PointMass(0.2),
        retries=2,
        seed=0,
    )
    args.update(kw)
    return StepwiseStream(**args)


class TestStepwise:
    def test_accepting_every_step_completes_the_episode(self):
        s = sure_thing_stepwise()
        for episode in range(2):
            for step in range(3):
                item = s.next()
                assert item.problem_id == episode
                assert item.step_index == step
                s.react(Action.ACCEPT)
        out = s.outcome()
        assert out.accuracy == 1.0
        assert out.weak_calls_per_problem == 3.0

    def test_one_bad_accepted_step_fails_the_episode(self):
        s = sure_thing_stepwise(step_correct_prob=0.0, episodes=1)
        for _ in range(3):
            s.next()
            s.react(Action.ACCEPT)
        assert s.outcome().problems_correct == 0

    def test_reject_redraws_until_retries_run_out(self):
        s = sure_thing_stepwise(episodes=1, retries=1)
        first = s.next()
        s.react(Action.REJECT)
        retry = s.next()
        assert retry.step_index == first.step_index == 0
        s.react(Action.REJECT)
        # retries exhausted: the episode failed immediately
        assert s.next() is None
        out = s.outcome()
        assert out.problems_correct == 0
        assert out.weak_calls_per_problem == 2.0

    def test_accept_resets_the_retry_counter(self):
        s = sure_thing_stepwise(episodes=1, retries=1, steps=2)
        s.next()
        s.react(Action.REJECT)
        s.next()
        s.react(Action.ACCEPT)
        s.next()
        s.react(Action.REJECT)
        s.next()
        s.react(Action.ACCEPT)
        assert s.outcome().problems_correct == 1

    def test_weak_only_draws_every_retry(self):
        out = run_weak_only(sure_thing_stepwise(episodes=50))
        assert out.weak_calls_per_problem == 9.0
        assert out.accuracy == 1.0
        assert out.strong_calls_per_problem == 0.0

    def test_weak_only_needs_a_fresh_stream(self):
        s = sure_thing_stepwise()
        s.next()
        s.react(Action.ACCEPT)
        with pytest.raises(ProtocolError):
            s.run_weak_only()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(episodes=0),
            dict(steps=0),
            dict(step_correct_prob=1.2),
            dict(retries=-1),
            dict(seed=-1),
            # read as they are, not truncated or taken as 0 or 1
            dict(episodes=2.7),
            dict(steps=1.5),
            dict(steps=True),
            dict(retries=0.5),
            dict(retries=False),
            dict(retries="1"),
            dict(seed=True),
            # a bool or a string is not a probability
            dict(step_correct_prob=True),
            dict(step_correct_prob="0.7"),
            dict(step_correct_prob=None),
        ],
    )
    def test_validation(self, kw):
        (field, _), = kw.items()
        with pytest.raises(ValueError, match=f"{field} must be "):
            sure_thing_stepwise(**kw)


@settings(max_examples=100, deadline=None)
@given(
    problems=st.integers(1, 6),
    budget=st.integers(1, 5),
    p=st.floats(0.0, 1.0),
    shapes=st.lists(st.floats(0.5, 10.0), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    script=st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=12),
)
def test_best_of_n_is_a_one_step_stepwise_stream(problems, budget, p, shapes, seed, script):
    # best-of-n on a point-mass difficulty and a one-step stepwise stream
    # with budget - 1 retries draw the same items, outcomes and baselines;
    # each script entry is (query the strong label, accept)
    scores = dict(
        correct_scores=BetaDist(*shapes[:2]), incorrect_scores=BetaDist(*shapes[2:]), seed=seed
    )

    def pair():
        return (
            BestOfNStream(problems, budget, PointMass(p), **scores),
            StepwiseStream(problems, 1, p, retries=budget - 1, **scores),
        )

    runs = []
    for s in pair():
        items = []
        for k in itertools.count():
            item = s.next()
            if item is None:
                break
            query, accept = script[k % len(script)]
            if query:
                assert s.answer_strong_query() == item.g_latent
            s.react(Action.ACCEPT if accept else Action.REJECT)
            items.append((item.w, item.g_latent, item.problem_id))
        runs.append((items, s.outcome()))
    assert runs[0] == runs[1]
    for baseline in (run_weak_only, run_strong_only):
        best_of_n, stepwise = (baseline(s) for s in pair())
        assert best_of_n == stepwise
    best_of_n, stepwise = (s._sample_candidates(64) for s in pair())
    for a, b in zip(best_of_n, stepwise):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["best_of_n", "stepwise"])
def test_weak_only_keeps_the_first_of_tied_best_scores(kind):
    # scores on the atoms 0, 0.5 and 1 tie often; in each step the baseline
    # keeps the first of the highest-scored draws, as a draw-by-draw scan
    # that replaces only on a strictly higher score does
    scores = dict(
        correct_scores=GridDist([0.2, 0.3, 0.5]), incorrect_scores=GridDist([0.5, 0.3, 0.2]), seed=3
    )
    if kind == "best_of_n":
        steps, attempts = 1, 4
        make = lambda: BestOfNStream(200, attempts, PointMass(0.6), **scores)  # noqa: E731
    else:
        steps, attempts = 3, 4
        make = lambda: StepwiseStream(100, steps, 0.6, retries=attempts - 1, **scores)  # noqa: E731
    # every draw of every step, in order: reject all but a step's last draw
    s, draws = make(), []
    while (item := s.next()) is not None:
        draws.append((item.w, item.g_latent))
        s.react(Action.ACCEPT if len(draws) % attempts == 0 else Action.REJECT)
    pools = [draws[k:k + attempts] for k in range(0, len(draws), attempts)]
    firsts = [next(g for w, g in pool if w == max(pool)[0]) for pool in pools]
    correct = sum(all(firsts[u:u + steps]) for u in range(0, len(firsts), steps))
    out = run_weak_only(make())
    assert out.problems_correct == correct
    assert out.weak_calls_per_problem == steps * attempts


class HalfWords(ScoreDist):
    """A law outside the package that draws through numpy's buffered 32-bit
    half-words, which a label's raw 64-bit word must leave as they are."""

    def sample(self, rng, size=None):
        k = rng.integers(0, 1000, size, dtype=np.uint16)
        return float(k) / 999 if size is None else k / 999


def unit_floats():
    """p at 0, 1 and 1/2, at k * 2**-53 and its float neighbours, and
    anywhere in [0, 1]."""
    grid = st.integers(0, 2**53).map(lambda k: k * 2.0**-53)
    return st.one_of(
        st.sampled_from([0.0, 1.0, 0.5]),
        grid,
        st.tuples(grid, st.sampled_from([0.0, 1.0])).map(
            lambda pt: min(max(math.nextafter(*pt), 0.0), 1.0)
        ),
        st.floats(0.0, 1.0),
    )


SCORE_LAWS = st.sampled_from([
    BetaDist(10 * 0.9, 10 * (1.0 - 0.9)),  # b just under 1, as in the presets
    BetaDist(0.5, 0.7),  # both shapes below 1: numpy's other beta algorithm
    BetaDist(3.3, 6.7),
    UniformDist(),
    PointMass(0.25),
    MixtureDist(0.4, BetaDist(2.0, 5.0), UniformDist()),
    GridDist([0.2, 0.3, 0.5]),
    HalfWords(),
])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    correct=SCORE_LAWS,
    incorrect=SCORE_LAWS,
    calls=st.lists(st.tuples(st.integers(-2, 25), unit_floats()), max_size=8),
)
def test_tape_draws_as_one_random_label_and_one_score_sample(seed, correct, incorrect, calls):
    # calls of uneven length, one-candidate ones (the engine's `next`) and
    # ones that draw nothing, each at its own p; after every call the tape
    # and the generator's state are the reference loop's
    tape = _Tape(seed, correct, incorrect)
    assert type(tape.rng.bit_generator) is np.random.PCG64
    rng = np.random.default_rng(seed)
    w, g = array("d"), bytearray()
    for step, p in calls:
        n = len(g) + step
        tape.draw_to(n, p)
        for _ in range(n - len(g)):
            label = rng.random() < p
            g.append(label)
            w.append((correct if label else incorrect).sample(rng))
        assert tape.g == g and tape.w.tobytes() == w.tobytes()
        assert tape.rng.bit_generator.state == rng.bit_generator.state


def test_tape_labels_at_the_word_boundary():
    # for each of the first words, p at the word's own double and at that
    # double's neighbours: the label is exactly `random() < p` there
    words = np.random.PCG64(5).random_raw(64).tolist()
    for i, word in enumerate(words):
        u = (word >> 11) * 2.0**-53
        for p in (u, math.nextafter(u, 0.0), math.nextafter(u, 1.0)):
            tape = _Tape(5, PointMass(1.0), PointMass(0.0))
            tape.draw_to(i, 0.5)
            tape.draw_to(i + 1, p)
            assert tape.g[i] == (u < p) == tape.w[i]


class NoisyDifficulty(ScoreDist):
    def __init__(self, value):
        self.value = value

    def sample(self, rng, size=None):
        rng.random()
        return self.value

    def to_dict(self):
        return {"kind": "noisy", "value": self.value}


@pytest.mark.parametrize("value", [float("nan"), 1.5, -0.25, float("inf")])
def test_a_difficulty_draw_outside_the_unit_interval_is_refused(value):
    # `random() < nan` is False, which would make every candidate silently
    # incorrect; the stream names the draw instead, on every path that
    # starts a unit
    def stream():
        return BestOfNStream(3, 2, NoisyDifficulty(value), BetaDist(2.0, 1.0), UniformDist(), seed=1)

    message = re.escape(f"difficulty drew {value!r}, outside [0, 1]")
    with pytest.raises(ValueError, match=message):
        stream().next()
    with pytest.raises(ValueError, match=message):
        run_weak_only(stream())
    with pytest.raises(ValueError, match=message):
        run_one(PolicyConfig(alpha=0.1, beta=0.1), stream())
    for ok in (0.0, 1.0):
        assert run_weak_only(
            BestOfNStream(3, 2, NoisyDifficulty(ok), BetaDist(2.0, 1.0), UniformDist(), seed=1)
        ).problems_correct == 3 * (ok == 1.0)


class TestMakeStream:
    def build_all(self):
        return [
            UNIFORM_SPEC,
            {
                "kind": "miscalibrated",
                "score_dist": BetaDist(2.0, 2.0).to_dict(),
                "link": {"kind": "power", "exponent": 1.5},
                "seed": 3,
            },
            preset_drift(total_length=100, seed=2),
            preset_math_like("easy", problems=10, budget=2, seed=4),
            {
                "kind": "stepwise",
                "episodes": 5,
                "steps": 2,
                "step_correct_prob": 0.7,
                "correct_scores": PointMass(0.8).to_dict(),
                "incorrect_scores": PointMass(0.3).to_dict(),
                "retries": 1,
                "seed": 5,
            },
        ]

    def test_spec_dict_round_trips(self):
        for spec in self.build_all():
            stream = make_stream(spec)
            assert stream.spec_dict() == spec

    def test_seed_override(self):
        for spec in self.build_all():
            assert make_stream(spec, seed=99).seed == 99
            assert make_stream(spec).seed == spec["seed"]

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            make_stream({"kind": "laplace"})
        with pytest.raises(ValueError):
            make_stream("calibrated")
        with pytest.raises(ValueError):
            make_stream({"kind": "calibrated"})  # no score_dist
        with pytest.raises(ValueError):
            make_stream({"kind": "best_of_n", "problems": 5})


class TestSampleItems:
    def test_non_reactive_matches_stream_take(self):
        w_s, g_s = sample_items(UNIFORM_SPEC, 500, seed=21)
        w_t, g_t = make_stream(UNIFORM_SPEC, seed=21).take(500)
        assert np.array_equal(w_s, w_t)
        assert np.array_equal(g_s, g_t)

    def test_drift_yields_at_most_total_length(self):
        w, _ = sample_items(preset_drift(total_length=50, seed=0), 200)
        assert w.size == 50

    def test_task_stream_candidate_marginal(self):
        w, g = sample_items(preset_math_like("easy"), 10**5, seed=5)
        assert w.size == 10**5
        assert set(np.unique(g)) <= {0, 1}
        assert g.mean() == pytest.approx(0.922, abs=0.005)

    def test_validation(self):
        # a count is read as it is: a float or a bool is not one
        for n in (-1, 2.5, 3.0, True, "3"):
            message = re.escape(f"n must be an integer >= 0, got {n!r}")
            with pytest.raises(ValueError, match=message):
                sample_items(UNIFORM_SPEC, n)
            with pytest.raises(ValueError, match=message):
                make_stream(UNIFORM_SPEC).take(n)
        for kw in (dict(samples=2.5), dict(samples=0), dict(bins=True), dict(bins="3")):
            ((name, value),) = kw.items()
            message = re.escape(f"{name} must be an integer >= 1, got {value!r}")
            with pytest.raises(ValueError, match=message):
                score_report(UNIFORM_SPEC, **kw)
        with pytest.raises(ValueError):
            sample_items({"kind": "laplace"}, 10)
        incomplete = preset_math_like("easy")
        del incomplete["problems"]
        with pytest.raises(ValueError):
            sample_items(incomplete, 10)


def test_task_stream_draws_are_pinned():
    # SHA-256 of the candidate marginal and both baselines' outcomes on
    # each task kind; any change to the order of the draws changes it
    specs = [
        {
            **preset_math_like("medium", problems=150, budget=3, seed=2),
            "difficulty": MixtureDist(0.7, PointMass(0.9), BetaDist(2.0, 3.0)).to_dict(),
        },
        {
            "kind": "stepwise",
            "episodes": 80,
            "steps": 3,
            "step_correct_prob": 0.75,
            "correct_scores": BetaDist(8.0, 2.0).to_dict(),
            "incorrect_scores": BetaDist(3.0, 6.0).to_dict(),
            "retries": 2,
            "seed": 6,
        },
    ]
    h = hashlib.sha256()
    for spec in specs:
        for seed in (None, 11):
            w, g = sample_items(spec, 3000, seed=seed)
            h.update(w.tobytes())
            h.update(g.tobytes())
        for baseline in (run_weak_only, run_strong_only):
            out = baseline(make_stream(spec))
            h.update(json.dumps(dataclasses.asdict(out), sort_keys=True).encode())
    assert h.hexdigest() == (
        "d6977c3d360fa030bb750c393e238f5e65cc880ea0e90968097ed01091778473"
    )
    # a policy run on each spec, through the engine (and `react`) on the
    # mixture difficulty and on the tape kernel on the stepwise stream; its
    # columns and outcome pin the reactive draws
    h = hashlib.sha256()
    config = PolicyConfig(alpha=0.1, beta=0.1, eta=0.05, seed=4)
    for spec in specs:
        trace = run_one(config, make_stream(spec))
        for name in TRACE_COLUMNS:
            h.update(getattr(trace, name).tobytes())
        h.update(json.dumps(dataclasses.asdict(trace.outcome), sort_keys=True).encode())
    assert h.hexdigest() == (
        "034bc5afce199b3ad3bbec0b0b6e8039158eda536f7c3dfa9a8696375f230b69"
    )


def test_non_reactive_draws_are_pinned():
    # SHA-256 of each non-reactive kind read through uneven takes mixed with
    # next, and through sample_items; the drift segments sit around the
    # block edges, so a block that straddled a segment would change it
    specs = [
        {
            "kind": "calibrated",
            "score_dist": MixtureDist(0.6, BetaDist(8.0, 2.0), BetaDist(2.0, 6.0)).to_dict(),
            "seed": 3,
        },
        {
            "kind": "miscalibrated",
            "score_dist": BetaDist(2.0, 2.0).to_dict(),
            "link": {"kind": "power", "exponent": 1.5},
            "seed": 5,
        },
        {
            "kind": "drift",
            "segments": [
                {"score_dist": d.to_dict(), "length": n}
                for d, n in zip(
                    [BetaDist(2.0, 5.0), UniformDist(), BetaDist(5.0, 2.0), PointMass(0.4)],
                    [1, CHUNK - 1, CHUNK + 1, 10],
                )
            ],
            "seed": 9,
        },
    ]
    h = hashlib.sha256()
    for spec in specs:
        stream = make_stream(spec)
        for n in (0, 1, None, 4094, None, 3, 4100, None, None, 7, 2, 4095, 1, 100):
            if n is None:
                item = stream.next()
                h.update(repr(item and (item.w, item.g_latent)).encode())
                continue
            w, g = stream.take(n)
            h.update(w.tobytes())
            h.update(g.tobytes())
        for seed in (None, 11):
            w, g = sample_items(spec, 9000, seed=seed)
            h.update(w.tobytes())
            h.update(g.tobytes())
    assert h.hexdigest() == (
        "9c5b2d70c82e4be0dba8f3988a4f79b31aa623ab4f90a846b764b74b53672a6b"
    )


class TestScoreReport:
    def test_point_mass_half_has_zero_sharpness(self):
        spec = {"kind": "calibrated", "score_dist": PointMass(0.5).to_dict(), "seed": 1}
        rep = score_report(spec, samples=2000, seed=1)
        assert rep["sharpness_mean"] == 0.0
        assert rep["sharpness_std"] == 0.0
        # w = 0.5 makes every squared residual exactly 0.25
        assert rep["brier"] == 0.25

    def test_calibrated_stream_is_calibrated_binwise(self):
        spec = {"kind": "calibrated", "score_dist": UniformDist().to_dict(), "seed": 0}
        rep = score_report(spec, samples=10**5, bins=20, seed=0)
        assert len(rep["calibration"]) == 20
        for cell in rep["calibration"]:
            assert cell["count"] > 0
            p = cell["mean_score"]
            se = np.sqrt(p * (1.0 - p) / cell["count"])
            assert abs(cell["frac_correct"] - p) <= 3.0 * se

    def test_preset_conditional_means(self):
        targets = {
            "easy": (0.90, 0.33),
            "medium": (0.86, 0.32),
            "hard": (0.64, 0.26),
        }
        for level, (mu1, mu0) in targets.items():
            rep = score_report(preset_math_like(level), samples=10**5, seed=5)
            assert rep["mu_correct"] == pytest.approx(mu1, abs=0.01)
            assert rep["mu_incorrect"] == pytest.approx(mu0, abs=0.01)

    def test_hard_preset_separation(self):
        rep = score_report(preset_math_like("hard"), samples=10**5, seed=5)
        assert rep["separation"] == pytest.approx(0.38, abs=0.02)

    def test_sharpness_decreases_with_difficulty(self):
        sharp = {
            level: score_report(
                preset_math_like(level), samples=10**5, seed=5
            )["sharpness_mean"]
            for level in ("easy", "medium", "hard")
        }
        assert sharp["easy"] > sharp["medium"] > sharp["hard"]
        assert sharp["easy"] == pytest.approx(0.38382, abs=0.03)

    def test_ambiguous_preset_has_weak_signal(self):
        rep = score_report(preset_ambiguous(), samples=10**5, seed=5)
        assert abs(rep["separation"]) < 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            score_report(UNIFORM_SPEC, samples=0)
        with pytest.raises(ValueError):
            score_report(UNIFORM_SPEC, bins=0)


class TestPresets:
    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            preset_math_like("brutal")
        with pytest.raises(ValueError):
            preset_calibrated("brutal")

    def test_math_like_defaults(self):
        spec = preset_math_like("medium")
        assert spec["problems"] == 500
        assert spec["budget"] == 4
        assert spec["kind"] == "best_of_n"

    def test_calibrated_preset_matches_candidate_marginal(self):
        # marginal mean = base * mu_correct + (1 - base) * mu_incorrect
        spec = preset_calibrated("easy")
        stream = make_stream(spec)
        expected = 0.922 * 0.90 + 0.078 * 0.33
        assert stream.score_dist.mean() == pytest.approx(expected, abs=1e-9)

    def test_drift_preset_shape(self):
        spec = preset_drift(total_length=10**5, seed=0)
        stream = make_stream(spec)
        assert isinstance(stream, DriftStream)
        assert stream.total_length == 10**5
        assert len(stream.segments) == 4
        for n in (3, 10.5, 8.0, True):
            with pytest.raises(ValueError, match=re.escape(f"total_length must be an integer >= 4, got {n!r}")):
                preset_drift(total_length=n)

    def test_drift_preset_alternates_low_and_high_regimes(self):
        means = [d.mean() for d, _ in make_stream(preset_drift(10**4)).segments]
        assert means[0] == pytest.approx(2.0 / 7.0)
        assert means[1] == pytest.approx(5.0 / 7.0)
        assert means[:2] == means[2:]
