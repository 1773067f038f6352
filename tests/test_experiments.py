"""Experiment runner: bookkeeping, engine/kernel agreement, trace
serialization, bound and claim checks, sweep determinism."""

import dataclasses
import io
import itertools
import json
import math
import os
import random
import re
import signal
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selverify import (
    Action,
    BetaDist,
    CalibratedStream,
    DriftStream,
    GridDist,
    MiscalibratedStream,
    MixtureDist,
    ParetoPoint,
    PointMass,
    PolicyConfig,
    ProtocolError,
    Region,
    RunSpec,
    StreamItem,
    TaskOutcome,
    Trace,
    UniformDist,
    VerificationPolicy,
    VerifierStream,
    check_claims,
    derive_seed,
    make_stream,
    preset_drift,
    preset_math_like,
    recompute_ledger,
    run,
    run_one,
    run_rep,
    run_strong_only,
    run_weak_only,
    sweep,
    sweep_point,
    verify_bound,
)
from selverify import _kernel, experiments
from selverify.metrics import ErrorLedger

SV = 2  # action code for strong_verify in trace columns


def config(**kw):
    args = dict(
        alpha=0.15,
        beta=0.15,
        eta=0.05,
        q_accept=0.1,
        q_reject=0.1,
        tau_reject_init=0.1,
        tau_accept_init=0.9,
        seed=0,
    )
    args.update(kw)
    return PolicyConfig(**args)


def uniform_run(horizon=10_000, stream_seed=4, **kw):
    return run_one(
        config(**kw), CalibratedStream(UniformDist(), seed=stream_seed), horizon=horizon
    )


TRACE_COLUMNS = (
    "t", "w", "region", "action", "q", "explored", "g_observed", "g_latent",
    "tau_r_before", "tau_a_before", "tau_r_after", "tau_a_after",
)


def assert_bitwise_equal(a: np.ndarray, b: np.ndarray, what=""):
    assert a.dtype == b.dtype and a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


def assert_traces_equal(a: Trace, b: Trace):
    for col in TRACE_COLUMNS:
        assert_bitwise_equal(getattr(a, col), getattr(b, col), col)
    assert a.ledger == b.ledger


def reference_engine(cfg: PolicyConfig, stream, horizon=None) -> dict:
    """Every trace column of a run, each recorded round by round from the
    policy's own records. The engine records only the sequential state and
    derives the rest with the kernel's code; this loop checks that
    derivation independently. It also checks the policy's exploration
    draw against its own pool from the policy seed, one uniform per
    decisive round."""
    policy = VerificationPolicy(cfg)
    pool = np.random.default_rng(cfg.seed)
    cols = {name: [] for name in TRACE_COLUMNS}
    while horizon is None or len(cols["t"]) < horizon:
        item = stream.next()
        if item is None:
            break
        rec = policy.decide(item.w)
        if rec.region is not Region.UNCERTAIN:
            u = pool.random()
            assert rec.explored == (u < rec.q), rec
        if rec.action is Action.STRONG_VERIFY:
            g = stream.answer_strong_query()
            policy.feedback(g)
            final = Action.ACCEPT if g == 1 else Action.REJECT
            g_obs = g
        else:
            policy.advance()
            final = rec.action
            g_obs = -1
        if stream.reactive:
            stream.react(final)
        cols["t"].append(rec.t)
        cols["w"].append(rec.w)
        cols["region"].append(experiments.REGION_NAMES.index(rec.region.value))
        cols["action"].append(experiments.ACTION_NAMES.index(rec.action.value))
        cols["q"].append(rec.q)
        cols["explored"].append(rec.explored)
        cols["g_observed"].append(g_obs)
        cols["g_latent"].append(item.g_latent)
        cols["tau_r_before"].append(rec.thresholds_before.reject)
        cols["tau_a_before"].append(rec.thresholds_before.accept)
        cols["tau_r_after"].append(rec.thresholds_after.reject)
        cols["tau_a_after"].append(rec.thresholds_after.accept)
    dtypes = {c.attr: c.dtype for c in experiments._COLUMNS}
    return {name: np.asarray(vals, dtypes[name]) for name, vals in cols.items()}


def assert_matches_reference(trace: Trace, ref: dict):
    for col in TRACE_COLUMNS:
        assert_bitwise_equal(getattr(trace, col), ref[col], col)


class TestBookkeeping:
    def test_ledger_totals(self):
        trace = uniform_run()
        led = trace.ledger
        assert len(trace) == 10_000
        assert led.total == 10_000
        assert led.n0 + led.n1 == led.total
        assert led.sv_count == int((trace.action == SV).sum())
        assert led.sv_count == int((trace.g_observed >= 0).sum())
        assert np.array_equal(trace.t, np.arange(1, 10_001))
        assert recompute_ledger(trace) == led

    def test_always_escalating_policy_never_errs(self):
        trace = uniform_run(horizon=2_000, q_accept=1.0, q_reject=1.0)
        led = trace.ledger
        assert led.sv_count == led.total == 2_000
        assert led.err_type1() == 0.0
        assert led.err_type2() == 0.0
        assert led.type1_policy == led.type2_policy == 0

    def test_endless_streams_require_a_horizon(self):
        power = {"kind": "power", "exponent": 2.0}
        for stream in (
            CalibratedStream(UniformDist(), seed=0),
            MiscalibratedStream(UniformDist(), power, seed=0),
        ):
            assert stream.total_length is None
            with pytest.raises(ValueError, match="^this stream never exhausts; a horizon is required$"):
                run_one(config(), stream)
        drift = DriftStream([(UniformDist(), 5), (PointMass(0.5), 3)], seed=0)
        assert drift.total_length == 8
        assert len(run_one(config(), drift)) == 8
        # a custom stream names no length: it runs until it runs out, on the
        # engine without `take` and on the kernel with it
        items = [StreamItem(0.2, 0), StreamItem(0.5, 1), StreamItem(0.9, 1)]
        agreement = TestEngineKernelAgreement
        for stream in (agreement.Scripted(items, reactive=False), agreement.Taking(items)):
            assert len(run_one(config(), stream)) == 3

    @pytest.mark.parametrize("horizon", [2.5, 3.0, True, -1, "3"])
    def test_a_horizon_is_a_count_on_both_paths(self, horizon):
        for force_engine in (False, True):
            stream = CalibratedStream(UniformDist(), seed=0)
            with pytest.raises(ValueError, match=f"horizon must be an integer >= 0, got {horizon!r}"):
                run_one(config(), stream, horizon=horizon, force_engine=force_engine)

    def test_finite_stream_runs_to_exhaustion(self):
        trace = run_one(config(), make_stream(preset_drift(5_000, seed=2)), horizon=None)
        assert len(trace) == 5_000

    def test_reactive_runs_carry_a_task_outcome(self):
        trace = run_one(
            config(), make_stream(preset_math_like("easy", problems=40, seed=3))
        )
        assert isinstance(trace.outcome, TaskOutcome)
        assert trace.outcome.problems_total == 40
        assert uniform_run(horizon=10).outcome is None

    # (horizon, force_engine, difficulty): a point mass runs on the tape
    # unless the engine is forced, a mixture on the engine
    PREFIX_CASES = [
        (h, engine, None) for engine in (False, True) for h in (50, None, 0, "length", "length + 1")
    ] + [
        (h, False, MixtureDist(0.7, PointMass(0.9), BetaDist(2.0, 3.0)))
        for h in (0, 50, "length", "length + 1", None)
    ]

    @pytest.mark.parametrize("horizon, force_engine, difficulty", PREFIX_CASES, ids=[
        f"{h}{'-engine' if engine else ''}{'-mixture' if d else ''}" for h, engine, d in PREFIX_CASES
    ])
    def test_a_horizon_takes_a_prefix_of_a_task_run(self, horizon, force_engine, difficulty):
        spec = preset_math_like("easy", problems=200, budget=4, seed=3)
        if difficulty is not None:
            spec = {**spec, "difficulty": difficulty.to_dict()}
        full = run_one(config(), make_stream(spec), force_engine=force_engine)
        assert isinstance(full.outcome, TaskOutcome)
        horizon = {"length": len(full), "length + 1": len(full) + 1}.get(horizon, horizon)
        trace = run_one(config(), make_stream(spec), horizon=horizon, force_engine=force_engine)
        n = len(full) if horizon is None else min(horizon, len(full))
        assert len(trace) == n
        for col in TRACE_COLUMNS:
            assert_bitwise_equal(getattr(trace, col), getattr(full, col)[:n], col)
        # the outcome belongs to a stream that ran out before the horizon
        ran_out = horizon is None or horizon > len(full)
        assert trace.outcome == (full.outcome if ran_out else None)


class TestEngineKernelAgreement:
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "calibrated", "score_dist": UniformDist().to_dict(), "seed": 8},
            {
                "kind": "miscalibrated",
                "score_dist": UniformDist().to_dict(),
                "link": {"kind": "power", "exponent": 2.0},
                "seed": 8,
            },
            preset_drift(total_length=2_000, seed=8),
            # scores on the initial thresholds, which are uncertain
            {"kind": "calibrated", "score_dist": PointMass(0.1).to_dict(), "seed": 3},
            {"kind": "calibrated", "score_dist": PointMass(0.9).to_dict(), "seed": 3},
        ],
    )
    def test_paths_produce_identical_traces(self, spec):
        cfg = config(seed=17)
        fast = run_one(cfg, make_stream(spec), horizon=2_000)
        slow = run_one(cfg, make_stream(spec), horizon=2_000, force_engine=True)
        assert_traces_equal(fast, slow)
        assert_matches_reference(slow, reference_engine(cfg, make_stream(spec), 2_000))

    @pytest.mark.parametrize("kw, horizon", [
        ({"tau_reject_init": -0.0}, 2_000),
        ({"q_accept": 1.0, "q_reject": 1.0}, 2_000),
        # around and across the kernel's chunk of 4,096 rounds
        ({}, 0), ({}, 1), ({}, 4_095), ({}, 4_096), ({}, 4_097), ({}, 10_000),
    ])
    def test_paths_agree_on_edge_cases(self, kw, horizon):
        spec = {"kind": "calibrated", "score_dist": UniformDist().to_dict(), "seed": 3}
        cfg = config(seed=5, **kw)
        fast = run_one(cfg, make_stream(spec), horizon=horizon)
        slow = run_one(cfg, make_stream(spec), horizon=horizon, force_engine=True)
        assert len(fast) == horizon
        assert_traces_equal(fast, slow)
        assert_matches_reference(slow, reference_engine(cfg, make_stream(spec), horizon))

    @pytest.mark.parametrize("spec", [
        preset_math_like("easy", problems=150, seed=6),
        {
            "kind": "stepwise", "episodes": 60, "steps": 4, "step_correct_prob": 0.8,
            "correct_scores": BetaDist(9.0, 1.0).to_dict(),
            "incorrect_scores": BetaDist(3.3, 6.7).to_dict(),
            "retries": 2, "seed": 6,
        },
    ])
    def test_engine_matches_the_reference_on_task_streams(self, spec):
        cfg = config(seed=11, q_accept=0.3, q_reject=0.2)
        trace = run_one(cfg, make_stream(spec))
        assert_matches_reference(trace, reference_engine(cfg, make_stream(spec)))
        assert isinstance(trace.outcome, TaskOutcome)

    def test_engine_matches_the_reference_across_uniform_blocks(self):
        # the policy draws its exploration uniforms a block of _CHUNK at a
        # time; this run's decisive rounds cross two block edges
        spec = {
            "kind": "stepwise", "episodes": 1_800, "steps": 4, "step_correct_prob": 0.8,
            "correct_scores": BetaDist(9.0, 1.0).to_dict(),
            "incorrect_scores": BetaDist(3.3, 6.7).to_dict(),
            "retries": 2, "seed": 6,
        }
        cfg = config(seed=11, q_accept=0.3, q_reject=0.2)
        trace = run_one(cfg, make_stream(spec))
        assert (trace.region != 2).sum() > 2 * _kernel._CHUNK
        assert_matches_reference(trace, reference_engine(cfg, make_stream(spec)))

    def test_a_finite_stream_is_read_to_its_end_in_one_take(self, monkeypatch):
        # longer than one 64k block, and not a multiple of the 4,096 chunk
        spec = preset_drift(total_length=70_001, seed=4)
        cfg = config(seed=3)
        monkeypatch.setattr(experiments, "_run_engine", None)
        whole = run_one(cfg, make_stream(spec), horizon=None)
        prefix = run_one(cfg, make_stream(spec), horizon=70_001)
        assert len(whole) == 70_001
        assert_traces_equal(whole, prefix)

    def test_a_wrong_strong_label_is_a_protocol_error(self):
        class Contradicting(VerifierStream):
            """Uncertain scores, always escalated, answered with the label
            the item does not have."""

            def next(self):
                return StreamItem(w=0.5, g_latent=0)

            def answer_strong_query(self):
                return 1

        with pytest.raises(ProtocolError):
            run_one(config(), Contradicting(), horizon=5, force_engine=True, echo={})

    class Scripted(VerifierStream):
        """The given items in order; a strong query answers with the
        pending item's latent label."""

        def __init__(self, items, reactive):
            self._items = iter(items)
            self._item = None
            self.reactive = reactive

        def next(self):
            self._item = next(self._items, None)
            return self._item

        def answer_strong_query(self):
            return self._item.g_latent

        def spec_dict(self):
            return {"kind": "scripted"}

    class Taking(Scripted):
        """A non-reactive `Scripted` that draws arrays too, so that it takes
        the kernel path."""

        def __init__(self, items):
            super().__init__(items, reactive=False)

        def take(self, n):
            items = list(itertools.islice(self._items, n))
            return (np.array([i.w for i in items], np.float64),
                    np.array([i.g_latent for i in items], np.int64))

    def scripted(self, items, path):
        """`items` as a stream that runs on the engine, on the engine
        reacting, or on the kernel."""
        return self.Taking(items) if path == "kernel" else self.Scripted(items, path == "reactive")

    @pytest.mark.parametrize("horizon", [3_000, None])
    def test_a_stream_with_only_the_documented_methods_runs(self, horizon):
        # non-reactive and without `take`, so it takes the engine path
        rng = np.random.default_rng(2)
        w = rng.random(5_000)
        g = (rng.random(5_000) < w).astype(np.int64)
        items = [StreamItem(*p) for p in zip(w.tolist(), g.tolist())]
        cfg = config(seed=9)
        trace = run_one(cfg, self.Scripted(items, False), horizon=horizon)
        ref = run_one(cfg, self.Scripted(items, False), horizon=horizon, force_engine=True)
        assert len(trace) == (5_000 if horizon is None else horizon)
        assert trace.config["stream"] == {"kind": "scripted"}
        assert_traces_equal(trace, ref)
        assert_matches_reference(trace, reference_engine(cfg, self.Scripted(items, False), horizon))

    @pytest.mark.parametrize("path", ["engine", "reactive", "kernel"])
    @pytest.mark.parametrize("w", [float("nan"), -0.1, 1.5])
    def test_the_engine_refuses_a_bad_score(self, w, path):
        # after an uncertain, an accepted and a rejected round
        items = [StreamItem(0.5, 1), StreamItem(0.95, 1), StreamItem(0.05, 0), StreamItem(w, 1)]
        stream = self.scripted(items, path)
        with pytest.raises(ValueError, match=rf"weak score must be in \[0, 1\], got {w}"):
            run_one(config(q_accept=1e-9, q_reject=1e-9), stream, echo={})

    @pytest.mark.parametrize("path", ["engine", "reactive", "kernel"])
    @pytest.mark.parametrize("w", [0.5, 0.95, 0.05])
    def test_the_engine_refuses_a_strong_label_outside_0_1(self, w, path):
        # an uncertain round, or a decisive one that always explores
        stream = self.scripted([StreamItem(0.5, 1), StreamItem(w, 2)], path)
        with pytest.raises(ValueError, match="strong label must be 0 or 1, got 2"):
            run_one(config(q_accept=1.0, q_reject=1.0), stream, echo={})

    def test_array_containers_equal_list_containers(self, monkeypatch):
        # without numba, njit is the identity, so this runs the array branch
        # in plain Python
        spec = preset_drift(total_length=9_000, seed=8)
        lists = run_one(config(seed=17), make_stream(spec), horizon=9_000)
        monkeypatch.setattr(_kernel, "_HAVE_NUMBA", True)
        arrays = run_one(config(seed=17), make_stream(spec), horizon=9_000)
        assert_traces_equal(lists, arrays)

    def test_compiled_kernel_equals_its_python_source(self):
        pytest.importorskip("numba")
        rng = np.random.default_rng(0)
        for _ in range(2_000):
            tr, ta = sorted(rng.choice([0.0, -0.0, 0.1, 0.9, 1.0, rng.random()], 2))
            args = (tr, ta, rng.choice([tr, ta, rng.random()]), int(rng.integers(2)),
                    rng.choice([0.1, 0.3, 1.0]), 0.15, 0.05, 0.05)
            got = np.array(_kernel.step(*args))
            assert_bitwise_equal(got, np.array(_kernel.step.py_func(*args)), args)
        stream = make_stream(preset_drift(total_length=20_000, seed=8))
        w, g = stream.take(20_000)
        u = rng.random(w.size)
        runs = []
        for loop in (_kernel._loop, _kernel._loop.py_func):
            outs = (np.empty(w.size), np.empty(w.size), np.zeros(w.size, np.bool_))
            end = loop(w, g.astype(np.int64), u, 0.1, 0.9, 0.1, 0.1, 0.05, 0.1, 0.3, *outs)
            runs.append((np.array(end[:2]), np.array(end[2]), *outs))
        for compiled, python in zip(*runs):
            assert_bitwise_equal(compiled, python)


def score_laws():
    grid = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4).map(
        lambda w: GridDist(np.array(w) / sum(w))
    )
    beta = st.tuples(st.floats(0.5, 10.0), st.floats(0.5, 10.0)).map(lambda ab: BetaDist(*ab))
    return st.one_of(st.floats(0.0, 1.0).map(PointMass), beta, grid)


@st.composite
def point_mass_task_specs(draw):
    """A small best-of-n or stepwise spec with a point-mass difficulty."""
    p = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    scores = {
        "correct_scores": draw(score_laws()).to_dict(),
        "incorrect_scores": draw(score_laws()).to_dict(),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }
    if draw(st.booleans()):
        return {"kind": "best_of_n", "problems": draw(st.integers(1, 6)),
                "budget": draw(st.integers(1, 4)), "difficulty": PointMass(p).to_dict(), **scores}
    return {"kind": "stepwise", "episodes": draw(st.integers(1, 5)), "steps": draw(st.integers(1, 3)),
            "step_correct_prob": p, "retries": draw(st.integers(0, 2)), **scores}


def strong_only_by_item(stream) -> TaskOutcome:
    """The oracle baseline one candidate at a time: each is queried and
    accepted exactly where it is correct."""
    while stream.next() is not None:
        g = stream.answer_strong_query()
        stream.react(Action.ACCEPT if g == 1 else Action.REJECT)
    return stream.outcome()


def outcome_or_error(stream):
    try:
        return stream.outcome()
    except ProtocolError as exc:
        return str(exc)


class TestTapePath:
    """A task stream with a point-mass difficulty runs on the array kernel
    over its tape; every other task stream runs on the engine."""

    @settings(max_examples=150, deadline=None)
    @given(
        spec=point_mass_task_specs(),
        cfg=st.builds(
            config,
            alpha=st.floats(0.01, 0.5),
            beta=st.floats(0.01, 0.5),
            q_accept=st.sampled_from([0.1, 0.3, 1.0]),
            q_reject=st.sampled_from([0.1, 0.3, 1.0]),
            seed=st.integers(0, 2**32 - 1),
        ),
        cut=st.sampled_from(["none", "end", "past", "short"]),
        fraction=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_the_tape_path_equals_the_engine(self, spec, cfg, cut, fraction):
        end = len(run_one(cfg, make_stream(spec), force_engine=True))
        horizon = {"none": None, "end": end, "past": end + 1, "short": int(fraction * end)}[cut]
        engine_stream, tape_stream = make_stream(spec), make_stream(spec)
        engine = run_one(cfg, engine_stream, horizon=horizon, force_engine=True)
        tape = run_one(cfg, tape_stream, horizon=horizon)
        assert_traces_equal(tape, engine)
        # the outcome belongs to a stream that ran out before the horizon
        assert tape.outcome == engine.outcome
        assert (tape.outcome is None) == (cut in ("end", "short"))
        assert outcome_or_error(tape_stream) == outcome_or_error(engine_stream)
        # the oracle finishes each stream from where the run left it, on the
        # tape and one candidate at a time alike
        assert run_strong_only(tape_stream) == strong_only_by_item(engine_stream)
        assert run_strong_only(make_stream(spec)) == strong_only_by_item(make_stream(spec))

    @pytest.mark.parametrize("difficulty", [
        PointMass(0.8), MixtureDist(0.6, PointMass(0.9), BetaDist(2.0, 3.0)), BetaDist(4.0, 1.0),
    ])
    def test_only_a_point_mass_difficulty_takes_the_tape(self, difficulty, monkeypatch):
        spec = {**preset_math_like("easy", problems=30, budget=3, seed=2), "difficulty": difficulty.to_dict()}
        ref = run_one(config(seed=3), make_stream(spec), force_engine=True)
        unused = "_run_engine" if isinstance(difficulty, PointMass) else "_run_tape"
        monkeypatch.setattr(experiments, unused, None)
        assert_traces_equal(run_one(config(seed=3), make_stream(spec)), ref)


class TestSeeds:
    def test_derive_seed_is_deterministic_and_channel_separated(self):
        assert derive_seed(3, 1, 0) == derive_seed(3, 1, 0)
        assert derive_seed(3, 1, 0) != derive_seed(3, 1, 1)
        assert derive_seed(3, 1, 0) != derive_seed(3, 2, 0)
        assert derive_seed(4, 1, 0) != derive_seed(3, 1, 0)

    def test_run_rep_wires_derived_seeds(self):
        spec = RunSpec(
            policy=config(),
            stream={"kind": "calibrated", "score_dist": UniformDist().to_dict(), "seed": 0},
            horizon=50,
            repetitions=3,
            seed_base=11,
        )
        trace = run_rep(spec, 2)
        assert trace.config["policy"]["seed"] == derive_seed(11, 2, 0)
        assert trace.config["stream"]["seed"] == derive_seed(11, 2, 1)
        assert trace.config["rep"] == 2
        assert trace.config["seed_base"] == 11

    def test_repetitions_differ_and_replay(self):
        spec = RunSpec(
            policy=config(),
            stream={"kind": "calibrated", "score_dist": UniformDist().to_dict(), "seed": 0},
            horizon=200,
            repetitions=2,
            seed_base=5,
        )
        traces = run(spec)
        assert len(traces) == 2
        assert not np.array_equal(traces[0].w, traces[1].w)
        assert_traces_equal(traces[1], run_rep(spec, 1))

    def test_rep_out_of_range(self):
        spec = RunSpec(policy=config(), stream=preset_drift(100), repetitions=2)
        with pytest.raises(ValueError):
            run_rep(spec, 2)
        with pytest.raises(ValueError):
            run_rep(spec, -1)

    @pytest.mark.parametrize("field, value", [
        ("horizon", 0),
        ("repetitions", 0),
        ("seed_base", -1),
        # a float horizon used to fail later as a raw TypeError of a slice,
        # and True ran one round
        *[(f, v) for f in ("horizon", "repetitions", "seed_base") for v in (10.0, 2.5, True, "3")],
        ("repetitions", None),
        ("seed_base", None),
    ])
    def test_runspec_validation(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= "):
            RunSpec(policy=config(), stream={}, **{field: value})

    def test_runspec_takes_numpy_integers(self):
        spec = RunSpec(policy=config(), stream={}, horizon=np.int64(5), seed_base=np.uint32(2))
        assert spec.horizon == 5 and spec.seed_base == 2


class TestTraceSerialization:
    def test_round_trip_through_records(self):
        trace = uniform_run(horizon=500)
        records = list(trace.iter_records())
        rebuilt = Trace.from_records(trace.config, records)
        assert_traces_equal(trace, rebuilt)

    def test_round_trip_for_reactive_runs(self):
        trace = run_one(
            config(), make_stream(preset_math_like("medium", problems=60, seed=2))
        )
        rebuilt = Trace.from_records(trace.config, list(trace.iter_records()))
        assert_traces_equal(trace, rebuilt)

    def test_written_lines_are_sorted_json_dumps_across_chunks(self, monkeypatch):
        monkeypatch.setattr(experiments, "_CHUNK_OUT", 7)
        monkeypatch.setattr(experiments, "_CHUNK_IN", 5)
        trace = uniform_run(horizon=50, tau_reject_init=-0.0)
        trace.w[[3, 4, 5, 6, 7]] = [np.nan, np.inf, -np.inf, -0.0, 0.0]
        trace.tau_a_after[10] = 1e-300
        expected = "".join(
            json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
            for rec in trace.iter_records()
        )
        buf = io.StringIO()
        trace.write_records(buf)
        assert buf.getvalue() == expected
        assert all(f'"w":{s}}}' in expected for s in ("-0.0", "0.0", "NaN", "-Infinity"))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.sampled_from([0, 1, 6, 7, 8, 13, 14, 15]))
    def test_written_lines_are_json_dumps_on_random_columns(self, data, n):
        # blocks of 7 rows, so the lengths sit on each side of block edges;
        # the shared columns draw from a small pool, so their values repeat
        floats = st.one_of(
            st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310,
                             1e-05, 1e16, 1e22, 0.1]),
            st.floats(),
        )
        pool = st.sampled_from(data.draw(st.lists(floats, min_size=1, max_size=4)))
        int64 = st.integers(-(2**63), 2**63 - 1)
        cols = {}
        for c in experiments._COLUMNS:
            if c.names:
                values = st.integers(0, len(c.names) - 1)
            elif c.dtype is np.bool_:
                values = st.booleans()
            elif c.optional:
                values = st.one_of(st.sampled_from([-1, 0, 1]), int64)
            elif c.dtype is np.int64:
                values = int64
            else:
                values = st.one_of(pool, floats) if c.shared else floats
            cols[c.attr] = np.array(data.draw(st.lists(values, min_size=n, max_size=n)), c.dtype)
        trace = Trace(config={}, ledger=ErrorLedger(), **cols)
        expected = "".join(
            json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
            for rec in trace.iter_records()
        )
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_CHUNK_OUT", 7)
            trace.write_records(buf)
        assert buf.getvalue() == expected

    def test_round_trip_from_a_generator_across_chunks(self, monkeypatch):
        monkeypatch.setattr(experiments, "_CHUNK_OUT", 7)
        monkeypatch.setattr(experiments, "_CHUNK_IN", 5)
        trace = uniform_run(horizon=50)
        rebuilt = Trace.from_records(trace.config, (rec for rec in trace.iter_records()))
        assert_traces_equal(trace, rebuilt)
        # each column owns its data: none is a view of a chunk buffer
        for col in TRACE_COLUMNS:
            assert getattr(rebuilt, col).flags.owndata, col
        empty = Trace.from_records(trace.config, iter(()))
        assert len(empty) == 0 and empty.w.dtype == np.float64

    def test_g_observed_serialized_only_when_queried(self):
        trace = uniform_run(horizon=300)
        for rec, action in zip(trace.iter_records(), trace.action):
            assert ("g_observed" in rec) == (action == SV)


class TestVerifyBound:
    def test_holds_on_a_calibrated_run(self):
        report = verify_bound(uniform_run())
        assert report["pass"] is True
        for side in ("type1", "type2"):
            s = report["sides"][side]
            assert s["bound"] == pytest.approx(s["target"] + s["slack"])
            assert s["margin"] == pytest.approx(s["bound"] - s["err"])
            assert s["vacuous"] is False

    def test_holds_under_drift(self):
        trace = run_one(config(), make_stream(preset_drift(20_000, seed=6)), horizon=None)
        assert verify_bound(trace)["pass"] is True

    def test_one_sided_vacuous_when_a_label_is_absent(self):
        trace = run_one(
            config(), CalibratedStream(PointMass(1.0), seed=0), horizon=200
        )
        side = verify_bound(trace)["sides"]["type1"]
        assert side["vacuous"] is True
        assert side["n"] == 0
        assert side["err"] == 0.0
        assert side["slack"] == 0.0
        assert side["pass"] is True

    def test_smaller_delta_widens_the_slack(self):
        trace = uniform_run(horizon=1_000)
        loose = verify_bound(trace, delta=0.2)["sides"]["type1"]["slack"]
        tight = verify_bound(trace, delta=0.01)["sides"]["type1"]["slack"]
        assert tight > loose


class TestCheckClaims:
    def test_pass_on_standard_runs(self):
        for kw in (dict(), dict(q_accept=1.0, q_reject=1.0), dict(eta=0.2)):
            res = check_claims(uniform_run(horizon=2_000, **kw))
            assert res["pass"] is True, kw

    def test_pass_when_every_round_escalates(self):
        trace = uniform_run(
            horizon=400, q_accept=1.0, q_reject=1.0,
            tau_reject_init=0.0, tau_accept_init=1.0,
        )
        assert trace.ledger.sv_count == 400
        assert check_claims(trace)["pass"] is True

    def test_pass_when_no_round_escalates(self):
        trace = run_one(
            config(
                q_accept=0.001, q_reject=0.001,
                tau_reject_init=0.0, tau_accept_init=0.0, seed=0,
            ),
            CalibratedStream(UniformDist(), seed=5),
            horizon=50,
        )
        assert trace.ledger.sv_count == 0
        res = check_claims(trace)
        assert res["pass"] is True
        assert res["claims"]["telescoping_accept"]["sum"] == 0.0
        assert res["claims"]["telescoping_reject"]["sum"] == 0.0

    def test_band_equals_the_extremes_of_the_joined_columns(self):
        # low/high come from per-column extremes; they must be the bits
        # that min/max over the four threshold columns joined give
        def joined(trace):
            taus = np.concatenate([
                trace.tau_r_before, trace.tau_a_before, trace.tau_r_after, trace.tau_a_after,
            ])
            return [taus.min(), taus.max()]

        rng = np.random.default_rng(12)
        traces = [uniform_run(horizon=500, tau_reject_init=-0.0)]
        for seed in range(20):
            lo, hi = sorted(rng.uniform(0.0, 1.0, 2))
            traces.append(uniform_run(
                horizon=int(rng.integers(1, 3000)), stream_seed=seed,
                alpha=rng.uniform(0.01, 0.5), beta=rng.uniform(0.01, 0.5),
                eta=rng.uniform(0.001, 0.3), q_accept=rng.uniform(0.05, 1.0),
                q_reject=rng.uniform(0.05, 1.0), tau_reject_init=lo,
                tau_accept_init=hi, seed=seed,
            ))
        with_nan = uniform_run(horizon=300)
        with_nan.tau_r_after[120] = np.nan
        traces.append(with_nan)
        for trace in traces:
            band = check_claims(trace)["claims"]["threshold_band"]
            assert_bitwise_equal(np.array([band["low"], band["high"]]), np.array(joined(trace)))
        assert np.signbit(check_claims(traces[0])["claims"]["threshold_band"]["low"])
        assert np.isnan(check_claims(with_nan)["claims"]["threshold_band"]["high"])

    def test_a_zero_extreme_has_a_canonical_sign(self):
        # min/max alone pick the sign of a zero present with both signs by
        # the SIMD lane it sits in, so the band must not depend on where the
        # zeros are: low is -0.0 if any -0.0 is present, high 0.0 if any 0.0
        rng = np.random.default_rng(9)
        names = ("tau_r_before", "tau_a_before", "tau_r_after", "tau_a_after")
        bases = {T: uniform_run(horizon=T) for T in (1, 2, 3, 7, 8, 9, 16, 17, 33, 64, 257)}
        for i in range(1_200):
            T = list(bases)[i % len(bases)]
            side = "low" if i % 2 else "high"
            cols = rng.uniform(0.0, 1.0, (4, T)) * (1.0 if side == "low" else -1.0)
            flat = cols.reshape(-1)
            spots = rng.choice(flat.size, size=min(flat.size, int(rng.integers(2, 9))), replace=False)
            signs = rng.permutation([-0.0, 0.0, *rng.choice([-0.0, 0.0], spots.size - 2)])
            if i % 5 == 0:  # now and then one sign only
                signs[:] = signs[0]
            flat[spots] = signs
            trace = dataclasses.replace(bases[T], **dict(zip(names, cols)))
            band = check_claims(trace)["claims"]["threshold_band"]
            negative = bool(np.signbit(signs).any())
            positive = not bool(np.signbit(signs).all())
            want = (-0.0 if negative else 0.0) if side == "low" else (0.0 if positive else -0.0)
            assert_bitwise_equal(np.array(band[side]), np.array(want), (T, spots, signs))

    def test_detects_a_tampered_threshold(self):
        trace = uniform_run(horizon=200)
        records = list(trace.iter_records())
        records[120]["tau_A_after"] = 5.0  # far outside the reachable band
        tampered = Trace.from_records(trace.config, records)
        res = check_claims(tampered)
        assert res["claims"]["threshold_band"]["pass"] is False
        assert res["pass"] is False


def fold(trace: Trace, size: int) -> "experiments._Certificate":
    """The certificate of a trace folded `size` rounds at a time."""
    cert = experiments._Certificate(trace.config)
    arrays = {k: v for k, v in vars(trace).items() if isinstance(v, np.ndarray)}
    for lo in range(0, len(trace), size):
        cert.add({k: v[lo:lo + size] for k, v in arrays.items()})
    return cert


def telescoping_terms(trace: Trace) -> list:
    """Each side's importance-weighted terms, as the claims define them."""
    cfg = trace.config["policy"]
    with np.errstate(invalid="ignore", divide="ignore"):
        accept = ((trace.w > trace.tau_a_before) - cfg["alpha"]) / trace.q
        reject = ((trace.w < trace.tau_r_before) - cfg["beta"]) / trace.q
    return [accept[trace.g_observed == 0], reject[trace.g_observed == 1]]


def exact_sum(terms: np.ndarray) -> float:
    return float(sum(map(Fraction, terms.tolist()), Fraction(0)))


def fold_results(cert) -> tuple:
    claims = cert.claims()["claims"]
    floats = [
        claims["telescoping_accept"]["sum"], claims["telescoping_reject"]["sum"],
        claims["threshold_band"]["low"], claims["threshold_band"]["high"],
    ]
    return cert.ledger, np.array(floats).tobytes(), cert._first, cert._last


def assert_fold_is_chunking_free(trace: Trace):
    whole = fold_results(fold(trace, max(len(trace), 1)))
    for size in (1, 7, 512, 4096):
        assert fold_results(fold(trace, size)) == whole, size
    assert whole[0] == recompute_ledger(trace)
    sums = np.frombuffer(whole[1], np.float64)[:2]
    for got, terms in zip(sums, telescoping_terms(trace)):
        if np.isfinite(terms).all():
            assert got == exact_sum(terms)
        else:  # the sum IEEE arithmetic gives, in any order
            assert_bitwise_equal(np.array(got), np.array(terms.sum()))


# Criterion 3's policies and streams, with the initial thresholds and the
# exploration rates drawn from a few edge values too.
FOLD_CASES = st.fixed_dictionaries({
    "alpha": st.floats(0.01, 0.5),
    "beta": st.floats(0.01, 0.5),
    "eta": st.floats(0.005, 0.2),
    "q_accept": st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
    "q_reject": st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
    "tau_reject_init": st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(0.0, 1.0)),
    "tau_accept_init": st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    "seed": st.integers(0, 2**31 - 1),
})
FOLD_STREAMS = st.one_of(
    st.tuples(st.just("calibrated"), st.integers(0, 2**31 - 1), st.integers(1, 1200)),
    st.tuples(st.just("drift"), st.integers(0, 2**31 - 1), st.integers(1, 1200)),
    st.tuples(st.just("best_of_n"), st.integers(0, 2**31 - 1), st.integers(5, 40)),
)


class TestCertificate:
    @settings(max_examples=40, deadline=None)
    @given(cfg=FOLD_CASES, stream=FOLD_STREAMS)
    def test_the_fold_does_not_depend_on_chunking(self, cfg, stream):
        cfg["tau_accept_init"] = max(cfg["tau_accept_init"], cfg["tau_reject_init"])
        kind, seed, size = stream
        if kind == "calibrated":
            source, horizon = CalibratedStream(BetaDist(2.0, 2.0), seed=seed), size
        elif kind == "drift":
            segments = [(UniformDist(), size), (BetaDist(5.0, 1.0), size // 2 + 1)]
            source, horizon = DriftStream(segments, seed=seed), None
        else:
            source = make_stream(preset_math_like("easy", size, 4), seed=seed)
            horizon = None
        assert_fold_is_chunking_free(run_one(PolicyConfig(**cfg), source, horizon))

    def test_a_negative_zero_start_and_q_of_one(self):
        trace = uniform_run(horizon=5_000, tau_reject_init=-0.0, q_accept=1.0, q_reject=1.0)
        assert np.signbit(check_claims(trace)["claims"]["threshold_band"]["low"])
        assert_fold_is_chunking_free(trace)

    @pytest.mark.parametrize("q_zero", [[0], [1], [0, 1]], ids=["-inf", "inf", "nan"])
    def test_chunked_folds_keep_non_finite_terms_and_zero_signs(self, q_zero):
        # q of 0 on a queried incorrect round makes its accept term -inf
        # (w below tau_A) or inf (above); -0.0 and 0.0 thresholds sit in
        # different chunks
        trace = uniform_run(horizon=300, tau_reject_init=-0.0)
        queried = np.flatnonzero(trace.g_observed == 0)
        above = trace.w[queried] > trace.tau_a_before[queried]
        q = trace.q.copy()
        for want, spot in zip(q_zero, (0.2, 0.8)):
            rows = queried[above == bool(want)]
            q[rows[int(spot * (rows.size - 1))]] = 0.0
        tau_r_after = trace.tau_r_after.copy()
        tau_r_after[[40, 250]] = [0.0, -0.0]
        trace = dataclasses.replace(trace, q=q, tau_r_after=tau_r_after)
        whole = fold_results(fold(trace, len(trace)))
        assert not np.isfinite(np.frombuffer(whole[1], np.float64)[0])
        for size in range(1, len(trace) + 1):
            assert fold_results(fold(trace, size)) == whole, size

    def test_zero_extremes_keep_their_canonical_sign(self):
        # the layouts of test_a_zero_extreme_has_a_canonical_sign, folded
        # in chunks: a zero of either sign may sit in any chunk
        rng = np.random.default_rng(10)
        names = ("tau_r_before", "tau_a_before", "tau_r_after", "tau_a_after")
        for i in range(30):
            base = uniform_run(horizon=int(rng.integers(1, 600)), stream_seed=i)
            side = 1.0 if i % 2 else -1.0
            cols = rng.uniform(0.0, 1.0, (4, len(base))) * side
            flat = cols.reshape(-1)
            spots = rng.choice(flat.size, size=min(flat.size, int(rng.integers(1, 9))), replace=False)
            flat[spots] = rng.choice([-0.0, 0.0], spots.size)
            if i % 7 == 0:
                flat[rng.integers(flat.size)] = np.nan
            assert_fold_is_chunking_free(dataclasses.replace(base, **dict(zip(names, cols))))

    def test_non_finite_terms_sum_as_ieee_does(self):
        # q_t of 0 or inf, as a hand-made file may hold: +inf, -inf and
        # NaN terms across chunks, and -0.0 and 0.0 terms
        base = uniform_run(horizon=1_500)
        gated = np.flatnonzero(base.g_observed == 0)
        for picks in ([0], [-1], [0, -1], [len(gated) // 2]):
            for q in (0.0, np.inf):
                trace = dataclasses.replace(base, q=base.q.copy())
                trace.q[gated[picks]] = q
                assert_fold_is_chunking_free(trace)
        up = dataclasses.replace(base, q=base.q.copy())
        up.q[gated[0]] = 0.0
        up.w = up.w.copy()
        up.w[gated[0]] = 2.0  # above the accept threshold: a +inf term
        assert check_claims(up)["claims"]["telescoping_accept"]["sum"] == np.inf
        assert check_claims(up)["claims"]["telescoping_accept"]["pass"] is False

    def test_many_distinct_terms_sum_exactly(self):
        # a trace's terms take a few values; a hand-made q_t column can
        # give every term its own
        trace = uniform_run(horizon=3_000)
        trace.q = np.random.default_rng(3).uniform(0.05, 1.0, len(trace))
        assert all(np.unique(t).size > 100 for t in telescoping_terms(trace))
        assert_fold_is_chunking_free(trace)

    def test_an_overflowing_sum_rounds_to_inf(self):
        trace = uniform_run(horizon=3_000)
        trace.q = np.where(trace.g_observed == 0, 1e-308, trace.q)
        terms = telescoping_terms(trace)[0]
        with np.errstate(over="ignore"):
            assert np.isfinite(terms).all() and terms.sum() == -np.inf
        assert check_claims(trace)["claims"]["telescoping_accept"]["sum"] == -np.inf

    def test_the_kernel_returns_nine_columns_and_a_cursor(self):
        # bench/tracer.py reads this tuple by position: action second,
        # the cursor last
        T = 5_000
        rng = np.random.default_rng(0)
        w = rng.uniform(0.0, 1.0, T)
        out = _kernel.run_rounds(
            w, (rng.uniform(0.0, 1.0, T) < w).astype(np.int64), rng.uniform(0.0, 1.0, T),
            0.1, 0.1, 0.05, 0.2, 0.2, 0.1, 0.9,
        )
        assert len(out) == 10
        dtypes = [np.int64, np.int64, np.float64, np.bool_, np.int64] + [np.float64] * 4
        for i, (col, dtype) in enumerate(zip(out[:9], dtypes)):
            assert isinstance(col, np.ndarray) and col.dtype == dtype and col.shape == (T,), i
        assert type(out[-1]) is int and 0 < out[-1] <= T
        assert out[-1] == np.count_nonzero(out[0] != _kernel.REGION_UNCERTAIN)


class TestExplorationFloor:
    def test_escalation_rate_stays_near_the_floor(self):
        # equal targets at 0.5 drive the thresholds together; once the band
        # collapses only exploration keeps querying, at rate about q
        trace = uniform_run(
            horizon=50_000, stream_seed=0,
            alpha=0.5, beta=0.5, eta=0.005,
        )
        tail = (trace.action[-20_000:] == SV).mean()
        assert tail == pytest.approx(0.1, abs=0.03)
        band_width = trace.tau_a_after[-1] - trace.tau_r_after[-1]
        assert band_width < 0.1


class TestSweep:
    TARGETS = [(0.1, 0.1), (0.2, 0.2)]

    def template(self):
        return config(q_accept=0.3, q_reject=0.3)

    def spec(self):
        return preset_math_like("easy", problems=60, budget=3, seed=0)

    def test_row_order_and_anchor_flags(self):
        rows = sweep(self.template(), self.spec(), self.TARGETS, repetitions=2, seed_base=1)
        assert len(rows) == 4
        assert (rows[0].alpha, rows[0].beta) == self.TARGETS[0]
        assert (rows[1].alpha, rows[1].beta) == self.TARGETS[1]
        assert rows[2].is_oracle and not rows[2].is_weak_only
        assert rows[3].is_weak_only and not rows[3].is_oracle
        assert rows[2].alpha is None and rows[2].beta is None
        assert rows[2].err1 == rows[2].err2 == 0.0
        assert rows[3].err1 is None and rows[3].err2 is None

    def test_sharded_rows_match_the_serial_sweep(self):
        serial = sweep(self.template(), self.spec(), self.TARGETS, repetitions=2, seed_base=1)
        jobs = [self.TARGETS[1], "weak_only", self.TARGETS[0], "oracle"]
        sharded = {
            str(job): sweep_point(self.template(), self.spec(), job, 2, 1)
            for job in jobs
        }
        assert sharded[str(self.TARGETS[0])] == serial[0]
        assert sharded[str(self.TARGETS[1])] == serial[1]
        assert sharded["oracle"] == serial[2]
        assert sharded["weak_only"] == serial[3]

    def test_single_rep_has_zero_stderr(self):
        row = sweep_point(self.template(), self.spec(), (0.1, 0.1), 1, 0)
        assert row.accuracy_stderr == 0.0
        assert row.reps == 1

    def test_needs_a_task_stream(self):
        with pytest.raises(ValueError):
            sweep_point(
                self.template(),
                {"kind": "calibrated", "score_dist": UniformDist().to_dict(), "seed": 0},
                (0.1, 0.1), 1, 0,
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep(self.template(), self.spec(), [], repetitions=1, seed_base=0)
        with pytest.raises(ValueError):
            sweep_point(self.template(), self.spec(), (0.1, 0.1), 0, 0)
        # a target is read as it is: a string or a bool is not a number
        for targets, message in (
            ([("0.1", "0.2")], "targets[0][0] must be a number, got '0.1'"),
            ([(0.1, 0.2), (0.2, True)], "targets[1][1] must be a number, got True"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                sweep(self.template(), self.spec(), targets, repetitions=1, seed_base=0)
        # numpy scalars are numbers, and a row carries plain floats
        (row, *_) = sweep(self.template(), self.spec(), [(np.float64(0.1), np.float32(0.25))], 1, 0)
        assert (row.alpha, row.beta) == (0.1, 0.25) and type(row.beta) is float

    def test_pareto_point_validation(self):
        kw = dict(alpha=None, beta=None, accuracy=0.5, accuracy_stderr=0.0,
                  strong_per_problem=1.0, weak_per_problem=1.0,
                  err1=None, err2=None, reps=1)
        with pytest.raises(ValueError):
            ParetoPoint(**{**kw, "is_oracle": True, "is_weak_only": True})
        with pytest.raises(ValueError):
            ParetoPoint(**{**kw, "accuracy": 1.5})
        with pytest.raises(ValueError):
            ParetoPoint(**{**kw, "reps": 0})

    # a point-mass best-of-n stream and a stepwise stream share each
    # repetition's tape across rows; a mixture difficulty draws randomness
    # at each unit's start, so each row keeps a tape of its own
    SHARED_TAPE_SPECS = {
        "best_of_n": preset_math_like("easy", problems=60, budget=3, seed=0),
        "stepwise": {
            "kind": "stepwise", "episodes": 40, "steps": 3, "step_correct_prob": 0.8,
            "correct_scores": BetaDist(8.0, 2.0).to_dict(),
            "incorrect_scores": BetaDist(3.0, 6.0).to_dict(),
            "retries": 2, "seed": 0,
        },
    }
    MIXTURE_SPEC = {
        **preset_math_like("medium", problems=60, budget=3, seed=0),
        "difficulty": MixtureDist(0.6, PointMass(0.9), BetaDist(2.0, 3.0)).to_dict(),
    }

    @pytest.mark.parametrize("name", ["best_of_n", "stepwise", "mixture"])
    def test_rows_equal_single_rows_in_scrambled_order(self, name):
        spec = self.SHARED_TAPE_SPECS.get(name, self.MIXTURE_SPEC)
        targets = [(0.05, 0.05), (0.1, 0.2), (0.3, 0.3)]
        serial = [dataclasses.asdict(row) for row in sweep(self.template(), spec, targets, 3, 7)]
        jobs = list(enumerate([*targets, "oracle", "weak_only"]))
        random.Random(5).shuffle(jobs)
        single = {i: dataclasses.asdict(sweep_point(self.template(), spec, job, 3, 7)) for i, job in jobs}
        assert [single[i] for i in range(len(serial))] == serial
        assert all(len(row["rep_accuracy"]) == len(row["rep_strong"]) == 3 for row in serial)

    @pytest.mark.parametrize("name", ["best_of_n", "stepwise"])
    def test_anchors_read_off_an_extended_tape_as_off_a_fresh_stream(self, name):
        spec = self.SHARED_TAPE_SPECS[name]
        policy = dataclasses.replace(self.template(), alpha=0.2, beta=0.2, seed=3)
        first = make_stream(spec, seed=11)
        fresh_trace = run_one(policy, first)
        tape = first._tape
        drawn = len(tape.g)
        for baseline in (run_strong_only, run_weak_only):
            stream = make_stream(spec, seed=11)._share_tape(first)
            assert stream._tape is tape
            assert baseline(stream) == baseline(make_stream(spec, seed=11))
        # the weak-only anchor drew past where the policy row stopped, and a
        # policy row reading the whole tape still runs as on a fresh stream
        assert drawn < len(tape.g)
        trace = run_one(policy, make_stream(spec, seed=11)._share_tape(first))
        for col in TRACE_COLUMNS:
            assert np.array_equal(getattr(trace, col), getattr(fresh_trace, col)), col
        assert trace.outcome == fresh_trace.outcome

    def test_a_mixture_difficulty_keeps_its_own_tape(self):
        first = make_stream(self.MIXTURE_SPEC, seed=11)
        assert make_stream(self.MIXTURE_SPEC, seed=11)._share_tape(first)._tape is not first._tape

    def test_a_sweep_holds_one_repetitions_candidates_at_a_time(self, monkeypatch):
        # 500 one-step episodes of 20 draws each: the weak-only anchor fills
        # a 10,000-candidate tape (90 kB) per repetition; six more held
        # tapes would add 540 kB
        spec = {
            **self.SHARED_TAPE_SPECS["stepwise"], "episodes": 500, "steps": 1, "retries": 19,
        }

        def peak(repetitions):
            tracemalloc.start()
            try:
                sweep(self.template(), spec, [(0.3, 0.3)], repetitions, 0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # tracemalloc sees this process alone, so the repetitions run here
        monkeypatch.setattr(experiments, "_process_count", lambda: 1)
        peak(1)  # let first-use allocations happen outside the measurement
        two, eight = peak(2), peak(8)
        assert eight - two < 32_000, (two, eight)

    def test_rep_columns_do_not_affect_equality(self):
        row = sweep_point(self.template(), self.spec(), (0.1, 0.1), 2, 0)
        stripped = dataclasses.replace(row, rep_accuracy=(), rep_strong=())
        assert stripped == row


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestShardedSweep:
    """A sweep runs its repetitions in contiguous shares: this process runs
    the first, forked workers the others."""

    SPECS = {**TestSweep.SHARED_TAPE_SPECS, "mixture": TestSweep.MIXTURE_SPEC}
    TARGETS = [(0.05, 0.05), (0.3, 0.3)]

    def rows(self, monkeypatch, repetitions, procs, name="stepwise"):
        """The rows of a sweep run in at most `procs` processes, as dicts so
        that the per-repetition columns count, which must leave no child
        process and no descriptor open."""
        monkeypatch.setattr(experiments, "_process_count", lambda: procs)
        fds = sorted(os.listdir("/dev/fd"))
        rows = sweep(config(q_accept=0.3, q_reject=0.3), self.SPECS[name], self.TARGETS, repetitions, 7)
        assert_no_children()
        assert sorted(os.listdir("/dev/fd")) == fds
        return [dataclasses.asdict(row) for row in rows]

    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("repetitions", [1, 2, 3, 5])
    def test_rows_do_not_depend_on_the_process_count(self, monkeypatch, name, repetitions):
        fork, rep_runs, forks, here = experiments._fork, experiments._rep_runs, [], []

        def counted_fork(work):
            forks.append(work)
            return fork(work)

        def noted_rep_runs(*args):
            here.append(list(args[-1]))  # seen in this process only
            return rep_runs(*args)

        monkeypatch.setattr(experiments, "_fork", counted_fork)
        monkeypatch.setattr(experiments, "_rep_runs", noted_rep_runs)
        runs = {procs: self.rows(monkeypatch, repetitions, procs, name) for procs in (1, 2, 3)}
        assert runs[2] == runs[1] and runs[3] == runs[1]
        assert all(len(row["rep_accuracy"]) == repetitions for row in runs[1])
        assert len(forks) == min(2, repetitions) - 1 + min(3, repetitions) - 1
        # this process runs the first share, and the larger shares come first
        first = {1: [0], 2: [0], 3: [0], 5: [0, 1]}[repetitions]
        assert here == [list(range(repetitions)), list(range(-(-repetitions // 2))), first]

    @pytest.mark.parametrize("fails", [0, 1], ids=["first", "second"])
    def test_a_failed_fork_runs_that_share_and_the_rest_here(self, monkeypatch, fails):
        one = self.rows(monkeypatch, 5, 1)
        fork, tries = os.fork, itertools.count()

        def fork_until(*args):
            if next(tries) == fails:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", fork_until)
        assert self.rows(monkeypatch, 5, 3) == one
        assert next(tries) == fails + 1

    def test_a_killed_worker_is_named(self, monkeypatch):
        parent, rep_runs = os.getpid(), experiments._rep_runs

        def runs_or_die(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return rep_runs(*args)

        monkeypatch.setattr(experiments, "_rep_runs", runs_or_die)
        fds = sorted(os.listdir("/dev/fd"))
        message = f"the process running part of the sweep ended by signal {int(signal.SIGKILL)}"
        with pytest.raises(ChildProcessError, match=re.escape(message)):
            self.rows(monkeypatch, 5, 3)
        assert_no_children()
        assert sorted(os.listdir("/dev/fd")) == fds

    def test_a_sweep_beside_another_thread_forks_nothing(self, monkeypatch):
        one = self.rows(monkeypatch, 3, 1)

        def no_fork():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert self.rows(monkeypatch, 3, 2) == one
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
