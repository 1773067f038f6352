"""Acceptance gate: eight end-to-end checks, one test per criterion.

Each test prints a single "[criterion N] PASS/FAIL" line with the measured
quantities, then asserts. Criterion 6 is known to fail on one sub-clause:
at loose targets the adaptive policy trades its abundant error budget for
fewer strong calls, and on the easy preset the greedy weak-only baseline
is already near ceiling, so the paired accuracy deficit (about 0.0004 to
0.0007) exceeds two paired standard errors. The gap is structural, not a
seed artifact; the criterion is left red rather than widened.
"""

import dataclasses
import json

import numpy as np
import pytest

from selverify import (
    Action,
    BestOfNStream,
    BetaDist,
    CalibratedStream,
    DriftStream,
    MiscalibratedStream,
    MixtureDist,
    PointMass,
    PolicyConfig,
    PopulationSpec,
    RunSpec,
    UniformDist,
    VerificationPolicy,
    brute_force_value,
    check_claims,
    discretize,
    effective_weights,
    optimal_policy,
    preset_ambiguous,
    preset_calibrated,
    preset_drift,
    preset_math_like,
    run,
    run_one,
    run_rep,
    score_report,
    sweep,
    sweep_point,
    value,
    verify_bound,
)
from selverify.cli import main as cli_main

SEED_BASE = 20260816
DELTA = 0.05


def announce(criterion: int, ok: bool, detail: str) -> str:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


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


def test_criterion_1_error_bounds_hold_across_targets():
    # ten target pairs, 100 repetitions each at horizon 50k on the easy
    # calibrated preset; every repetition is checked against the
    # finite-time bound at confidence 0.95 and at least 90 must pass
    targets = [(0.15, 0.15)] + [
        (a, b) for a in (0.05, 0.10, 0.20) for b in (0.05, 0.10, 0.20)
    ]
    worst = 100
    for alpha, beta in targets:
        spec = RunSpec(
            policy=config(alpha=alpha, beta=beta),
            stream=preset_calibrated("easy"),
            horizon=50_000,
            repetitions=100,
            seed_base=SEED_BASE,
        )
        passes = sum(
            verify_bound(run_rep(spec, rep), DELTA)["pass"] for rep in range(100)
        )
        worst = min(worst, passes)
    ok = worst >= 90
    line = announce(
        1, ok, f"min {worst}/100 repetitions inside both bounds over {len(targets)} target pairs"
    )
    assert ok, line


def test_criterion_2_error_rates_approach_their_targets():
    # symmetric 0.15 targets at horizon 100k; the mean final error rate
    # over 10 repetitions must land within 0.03 of the target on both
    # sides, for a stationary and a drifting score stream
    streams = {
        "stationary": (
            {"kind": "calibrated", "score_dist": BetaDist(2.0, 2.0).to_dict(), "seed": 0},
            10**5,
        ),
        "drifting": (preset_drift(10**5, seed=0), None),
    }
    gaps = {}
    for name, (stream, horizon) in streams.items():
        spec = RunSpec(
            policy=config(),
            stream=stream,
            horizon=horizon,
            repetitions=10,
            seed_base=SEED_BASE,
        )
        traces = run(spec)
        e1 = float(np.mean([t.ledger.err_type1() for t in traces]))
        e2 = float(np.mean([t.ledger.err_type2() for t in traces]))
        gaps[name] = (abs(e1 - 0.15), abs(e2 - 0.15))
    worst = max(max(pair) for pair in gaps.values())
    ok = worst <= 0.03
    line = announce(
        2,
        ok,
        "worst |mean final error - target| = "
        + f"{worst:.4f} (limit 0.03) over {sorted(gaps)}",
    )
    assert ok, line


def _random_dist(rng):
    kind = rng.integers(4)
    if kind == 0:
        return UniformDist()
    if kind == 1:
        return BetaDist(rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0))
    if kind == 2:
        return PointMass(rng.uniform(0.0, 1.0))
    return MixtureDist(
        rng.uniform(0.2, 0.8),
        BetaDist(rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0)),
        BetaDist(rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0)),
    )


def _random_case(rng):
    tau_r = rng.uniform(0.0, 1.0)
    cfg = config(
        alpha=rng.uniform(0.01, 0.5),
        beta=rng.uniform(0.01, 0.5),
        eta=rng.uniform(0.005, 0.2),
        q_accept=rng.uniform(0.05, 1.0),
        q_reject=rng.uniform(0.05, 1.0),
        tau_reject_init=tau_r,
        tau_accept_init=rng.uniform(tau_r, 1.0),
        seed=int(rng.integers(2**31)),
    )
    pick = rng.integers(5)
    seed = int(rng.integers(2**31))
    if pick == 3:
        stream = BestOfNStream(
            problems=int(rng.integers(20, 61)),
            budget=int(rng.integers(1, 6)),
            difficulty=_random_dist(rng),
            correct_scores=_random_dist(rng),
            incorrect_scores=_random_dist(rng),
            seed=seed,
        )
        horizon = None
    elif pick == 2:
        segments = [
            (_random_dist(rng), int(rng.integers(50, 400)))
            for _ in range(int(rng.integers(1, 4)))
        ]
        stream = DriftStream(segments, seed=seed)
        horizon = None
    elif pick == 1:
        stream = MiscalibratedStream(
            _random_dist(rng),
            {"kind": "power", "exponent": float(rng.uniform(0.3, 3.0))},
            seed=seed,
        )
        horizon = int(rng.integers(1, 1001))
    else:
        stream = CalibratedStream(_random_dist(rng), seed=seed)
        horizon = int(rng.integers(1, 1001))
    return cfg, stream, horizon


def test_criterion_3_trace_claims_hold_under_fuzzing():
    # 10,000 random policy/stream/horizon triples; the telescoping,
    # threshold-band, and domination claims must hold on every trace
    rng = np.random.default_rng(SEED_BASE)
    failures = 0
    for _ in range(10_000):
        cfg, stream, horizon = _random_case(rng)
        if not check_claims(run_one(cfg, stream, horizon))["pass"]:
            failures += 1
    ok = failures == 0
    line = announce(3, ok, f"{failures} claim violations in 10000 fuzzed runs")
    assert ok, line


def test_criterion_4_exploration_estimator_is_unbiased():
    # in a decisive region the update fires with probability q at
    # magnitude 1/q, so its mean must equal the always-update value; each
    # context is also replayed through the live policy to pin the
    # estimator to what feedback() actually applies
    rng = np.random.default_rng(SEED_BASE)
    worst_z = 0.0
    worst_policy_dev = 0.0
    for i in range(20):
        accept_side = i % 2 == 0
        tau_r = rng.uniform(0.05, 0.40)
        tau_a = rng.uniform(0.60, 0.95)
        if accept_side:
            w = rng.uniform(tau_a + 1e-6, 1.0)
        else:
            w = rng.uniform(0.0, tau_r - 1e-6)
        g = int(rng.integers(2))
        q = float(rng.uniform(0.05, 1.0))
        alpha = float(rng.uniform(0.05, 0.5))
        beta = float(rng.uniform(0.05, 0.5))
        eta = 0.005
        if accept_side:
            full = (1.0 if g == 0 else 0.0) * ((1.0 if w > tau_a else 0.0) - alpha)
        else:
            full = (1.0 if g == 1 else 0.0) * (beta - (1.0 if w < tau_r else 0.0))
        u = rng.random(10**6)
        estimates = np.where(u < q, full / q, 0.0)
        dev = abs(estimates.mean() - full)
        se = estimates.std(ddof=1) / np.sqrt(estimates.size)
        if se > 0:
            worst_z = max(worst_z, dev / se)
        else:
            assert dev == 0.0
        cfg = config(
            alpha=alpha, beta=beta, eta=eta, q_accept=q, q_reject=q,
            tau_reject_init=tau_r, tau_accept_init=tau_a,
        )
        for seed in range(200):
            policy = VerificationPolicy(dataclasses.replace(cfg, seed=seed))
            rec = policy.decide(w)
            if rec.action is Action.STRONG_VERIFY:
                policy.feedback(g)
            else:
                policy.advance()
            explored = np.random.default_rng(seed).random() < q
            predicted = eta * full / q if explored else 0.0
            if accept_side:
                realized = rec.thresholds_after.accept - rec.thresholds_before.accept
            else:
                realized = rec.thresholds_after.reject - rec.thresholds_before.reject
            worst_policy_dev = max(worst_policy_dev, abs(realized - predicted))
    ok = worst_z <= 4.0 and worst_policy_dev <= 1e-12
    line = announce(
        4,
        ok,
        f"worst |mc mean - full update| = {worst_z:.2f} se (limit 4); "
        f"worst live-policy deviation {worst_policy_dev:.2e} (limit 1e-12)",
    )
    assert ok, line


def _random_population(rng):
    kind = rng.integers(3)
    if kind == 0:
        dist = UniformDist()
    elif kind == 1:
        dist = BetaDist(rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0))
    else:
        dist = MixtureDist(
            rng.uniform(0.2, 0.8),
            BetaDist(rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0)),
            BetaDist(rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0)),
        )
    alpha0 = float(rng.uniform(0.1, 0.9))
    return PopulationSpec(
        score_dist=dist,
        lambda1=float(rng.uniform(0.0, 5.0)),
        lambda2=float(rng.uniform(0.0, 5.0)),
        alpha0=alpha0,
        alpha1=1.0 - alpha0,
    )


def test_criterion_5_population_policy_is_optimal_on_grids():
    # 200 random populations discretized to 1001 atoms: the closed-form
    # value must match the exhaustive per-atom argmin within the
    # discretization tolerance, and the region assignment must agree at
    # every atom that is not a cost tie
    rng = np.random.default_rng(SEED_BASE)
    worst_excess = -np.inf
    mismatches = 0
    for _ in range(200):
        spec = _random_population(rng)
        a, b = effective_weights(spec)
        grid_spec = discretize(spec, 1001)
        bf, actions = brute_force_value(grid_spec)
        tol = max(a, b) / 2000.0 + 1e-9
        worst_excess = max(worst_excess, abs(value(spec) - bf) - tol)
        policy = optimal_policy(a, b)
        pts = grid_spec.score_dist.points
        costs = np.sort(np.stack([np.ones_like(pts), a * (1 - pts), b * pts]), axis=0)
        clear = (costs[1] - costs[0]) > 1e-12
        for w, act, is_clear in zip(pts, actions, clear):
            if is_clear and policy.action_at(float(w)) is not act:
                mismatches += 1
    uniform = PopulationSpec(
        score_dist=UniformDist(), lambda1=2.0, lambda2=2.0,
        alpha0=0.5, alpha1=0.5, calibrated=True,
    )
    w_mc = np.random.default_rng(SEED_BASE).random(10**6)
    mc = float(np.minimum(1.0, np.minimum(4.0 * (1.0 - w_mc), 4.0 * w_mc)).mean())
    exact_ok = abs(value(uniform) - 0.75) <= 1e-9 and abs(value(uniform) - mc) <= 1e-3
    ok = worst_excess <= 0.0 and mismatches == 0 and exact_ok
    line = announce(
        5,
        ok,
        f"worst |value - grid argmin| excess over tolerance = {worst_excess:.2e}; "
        f"{mismatches} action mismatches off ties; balanced uniform value exact: {exact_ok}",
    )
    assert ok, line


def test_criterion_6_pareto_dominates_baselines_on_tasks():
    # five symmetric targets on the easy best-of-4 preset, 20 paired
    # repetitions: accuracy must sit between the weak-only and oracle
    # anchors within two paired standard errors, strong calls must fall
    # as targets loosen, and at the 0.05 target the policy must reach 90%
    # of oracle accuracy on at most half the oracle's strong calls, while
    # the signal-free ambiguous preset must not
    template = config(q_accept=0.3, q_reject=0.3)
    targets = [(0.01, 0.01), (0.05, 0.05), (0.1, 0.1), (0.2, 0.2), (0.3, 0.3)]
    rows = sweep(
        template, preset_math_like("easy", 500, 4, seed=0), targets,
        repetitions=20, seed_base=SEED_BASE,
    )
    points, oracle, weak = rows[:5], rows[5], rows[6]
    bracket_failures = []
    for point in points:
        d_oracle = np.array(oracle.rep_accuracy) - np.array(point.rep_accuracy)
        d_weak = np.array(point.rep_accuracy) - np.array(weak.rep_accuracy)
        se_o = d_oracle.std(ddof=1) / np.sqrt(d_oracle.size)
        se_w = d_weak.std(ddof=1) / np.sqrt(d_weak.size)
        if d_oracle.mean() < -2.0 * se_o or d_weak.mean() < -2.0 * se_w:
            bracket_failures.append(point.alpha)
    monotone = all(
        points[i + 1].strong_per_problem < points[i].strong_per_problem
        for i in range(len(points) - 1)
    )
    p05 = points[1]
    easy_efficient = (
        p05.accuracy >= 0.9 * oracle.accuracy
        and p05.strong_per_problem <= 0.5 * oracle.strong_per_problem
    )
    amb = sweep(
        template, preset_ambiguous(500, 4, seed=0), [(0.05, 0.05)],
        repetitions=20, seed_base=SEED_BASE,
    )
    amb_efficient = (
        amb[0].accuracy >= 0.9 * amb[1].accuracy
        and amb[0].strong_per_problem <= 0.5 * amb[1].strong_per_problem
    )
    ok = not bracket_failures and monotone and easy_efficient and not amb_efficient
    line = announce(
        6,
        ok,
        f"anchor bracket failed at targets {bracket_failures or 'none'}; "
        f"strong calls monotone: {monotone}; easy preset efficient at 0.05: "
        f"{easy_efficient}; ambiguous preset efficient (must be False): {amb_efficient}",
    )
    assert ok, line


def test_criterion_7_presets_match_their_advertised_moments():
    targets = {
        "easy": (0.90, 0.33, 0.57),
        "medium": (0.86, 0.32, 0.54),
        "hard": (0.64, 0.26, 0.38),
    }
    worst = 0.0
    sharpness = {}
    for level, (mu1, mu0, sep) in targets.items():
        report = score_report(preset_math_like(level), samples=10**5, seed=5)
        sharpness[level] = report["sharpness_mean"]
        worst = max(
            worst,
            abs(report["mu_correct"] - mu1),
            abs(report["mu_incorrect"] - mu0),
            abs(report["separation"] - sep),
        )
    ordered = sharpness["easy"] > sharpness["medium"] > sharpness["hard"]
    ok = worst <= 0.03 and ordered
    line = announce(
        7,
        ok,
        f"worst preset moment deviation {worst:.4f} (limit 0.03); "
        f"sharpness strictly ordered easy > medium > hard: {ordered}",
    )
    assert ok, line


def test_criterion_8_runs_are_reproducible(tmp_path):
    # the same simulate config must produce byte-identical trace files,
    # which check passes, and sweep rows computed one at a time in
    # scrambled order must equal the serial sweep
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({
        "policy": config().to_dict(),
        "stream": {"kind": "calibrated", "score_dist": UniformDist().to_dict(), "seed": 0},
        "horizon": 2000,
        "seed_base": SEED_BASE,
    }))
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli_main(["simulate", "-c", str(cfg_path), "-o", str(out_a)]) == 0
    assert cli_main(["simulate", "-c", str(cfg_path), "-o", str(out_b)]) == 0
    bytes_identical = out_a.read_bytes() == out_b.read_bytes()
    checked = cli_main(["check", str(out_a)]) == 0

    template = config(q_accept=0.3, q_reject=0.3)
    stream = preset_math_like("easy", problems=40, budget=3, seed=0)
    targets = [(0.05, 0.05), (0.2, 0.2)]
    serial = sweep(template, stream, targets, repetitions=3, seed_base=SEED_BASE)
    jobs = ["weak_only", targets[1], "oracle", targets[0]]
    sharded = {
        str(job): sweep_point(template, stream, job, 3, SEED_BASE) for job in jobs
    }
    shards_match = (
        sharded[str(targets[0])] == serial[0]
        and sharded[str(targets[1])] == serial[1]
        and sharded["oracle"] == serial[2]
        and sharded["weak_only"] == serial[3]
    )
    ok = bytes_identical and checked and shards_match
    line = announce(
        8,
        ok,
        f"trace files byte-identical: {bytes_identical}; check passes them: {checked}; "
        f"scrambled shards equal serial sweep: {shards_match}",
    )
    assert ok, line
