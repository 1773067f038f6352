"""The benchmark's three workloads: inputs from a seed, one operation each,
and the output checks that do not trust the program's own verdicts.

trace_io    `selverify simulate` writes a drift trace, `selverify check`
            reads it back; each command is its own process.
replicate   independent 50k-round `run_rep` repetitions in memory, each
            followed by `verify_bound` and `check_claims`.
task_sweep  `sweep` with anchors over a best-of-n and a stepwise stream,
            alternately.

Operation i of a workload is fully determined by (seed, i), so a run can
stop after any number of operations and the first `MIN_OPS` operations
(the digest operations) are the same on every machine and every commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import numpy as np

import selverify
from selverify import PolicyConfig, RunSpec

WORKLOADS = ("trace_io", "replicate", "task_sweep")

# Operations every run performs whatever its length. Output digests and
# per-layer counts cover exactly these, so they repeat across runs.
MIN_OPS = {"trace_io": 3, "replicate": 12, "task_sweep": 4}

# Sizes at scale 1; tests run the same code at a small scale. The trace is
# `preset_drift`'s default length, the drift size the package's own
# acceptance tests use; the horizon is criterion 1's.
TRACE_ROUNDS = 10**5
REPLICATE_HORIZON = 50_000
BEST_OF_N_PROBLEMS = 500
SWEEP_REPS = 3

DELTA = 0.05

# The acceptance gate's policy settings.
POLICY = dict(
    alpha=0.15,
    beta=0.15,
    eta=0.05,
    q_accept=0.1,
    q_reject=0.1,
    tau_reject_init=0.1,
    tau_accept_init=0.9,
    seed=0,
)
# Criterion 1's grid split into tight targets, which escalate more, and
# loose ones. Repetitions alternate between the two groups.
REPLICATE_TARGETS = (
    ((0.05, 0.05), (0.05, 0.10), (0.10, 0.05), (0.10, 0.10)),
    ((0.20, 0.20), (0.15, 0.15)),
)
# Criterion 6's five symmetric targets and exploration rates.
SWEEP_TARGETS = ((0.01, 0.01), (0.05, 0.05), (0.1, 0.1), (0.2, 0.2), (0.3, 0.3))
SWEEP_POLICY = {**POLICY, "q_accept": 0.3, "q_reject": 0.3}

# Trace file format: the names the integer codes are written as.
REGION_CODES = {"accept": 0, "reject": 1, "uncertain": 2}
ACTION_CODES = {"accept": 0, "reject": 1, "strong_verify": 2}

# What part1 / part2 and the unit of work mean in each workload.
PARTS = {
    "trace_io": ("selverify simulate", "selverify check", "rounds"),
    "replicate": ("run_rep + verify_bound + check_claims, tight targets",
                  "the same, loose targets", "rounds"),
    "task_sweep": ("sweep, best-of-n stream", "sweep, stepwise stream", "problems"),
}


def scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


def op_seed(seed: int, workload: str, i: int) -> int:
    tag = WORKLOADS.index(workload)
    return int(np.random.SeedSequence([seed, tag, i]).generate_state(1)[0])


def sha256_hex(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def combined_digest(digests: list[str]) -> str:
    return sha256_hex(*(d.encode() for d in digests))


# -- trace_io ---------------------------------------------------------------


def trace_io_config(seed: int, i: int, scale: float) -> dict:
    """The `simulate` config of round trip i."""
    rounds = scaled(TRACE_ROUNDS, scale, 8)
    return {
        "policy": POLICY,
        "stream": selverify.preset_drift(rounds, seed=0),
        "horizon": None,
        "seed_base": op_seed(seed, "trace_io", i),
        "delta": DELTA,
    }


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def check_trace_file(path: str, cfg: dict) -> tuple[list[str], bool]:
    """Parse a `simulate` output file and compare it, bit for bit, with an
    in-process `run_rep` of the same config. Returns the mismatches and
    whether that run keeps its bounds and claims, the verdict `check` must
    reach on an honest file."""
    spec = RunSpec(
        policy=PolicyConfig.from_dict(cfg["policy"]),
        stream=cfg["stream"],
        horizon=cfg["horizon"],
        seed_base=cfg["seed_base"],
    )
    ref = selverify.run_rep(spec, 0)
    bounds = selverify.verify_bound(ref, cfg["delta"])
    verdict = bounds["pass"] and selverify.check_claims(ref)["pass"]
    with open(path, "rb") as fh:
        lines = fh.read().decode("utf-8").splitlines()
    if len(lines) != len(ref) + 2:
        return [f"{len(lines)} lines, expected {len(ref) + 2}"], verdict
    problems = []
    try:
        header, summary = json.loads(lines[0]), json.loads(lines[-1])
        # one decode of all records is much cheaper than one per line
        recs = json.loads("[" + ",".join(lines[1:-1]) + "]")
    except ValueError as exc:
        return [f"not JSON lines: {exc}"], verdict
    if not isinstance(header, dict) or header.get("config") != {**ref.config, "delta": cfg["delta"]}:
        problems.append("header config differs from the run's")
    if len(recs) != len(ref):
        problems.append(f"{len(recs)} records, expected {len(ref)}")
        return problems, verdict
    queried = ref.g_observed >= 0
    keys = {"t", "w", "region", "action", "q_t", "explored", "g_latent",
            "tau_R_before", "tau_A_before", "tau_R_after", "tau_A_after"}
    if any(not isinstance(r, dict) or set(r) != keys | ({"g_observed"} if q else set()) for r, q in zip(recs, queried)):
        problems.append("record keys differ")
        return problems, verdict
    ints = {
        "t": (ref.t, [r["t"] for r in recs]),
        "g_latent": (ref.g_latent, [r["g_latent"] for r in recs]),
        "g_observed": (ref.g_observed[queried], [r["g_observed"] for r in recs if "g_observed" in r]),
        "region": (ref.region, [REGION_CODES.get(r["region"], -1) for r in recs]),
        "action": (ref.action, [ACTION_CODES.get(r["action"], -1) for r in recs]),
        "explored": (ref.explored, [r["explored"] for r in recs]),
    }
    for name, (want, got) in ints.items():
        if not np.array_equal(np.asarray(want, dtype=np.int64), np.asarray(got, dtype=np.int64)):
            problems.append(f"column {name} differs")
    floats = {
        "w": ref.w,
        "q_t": ref.q,
        "tau_R_before": ref.tau_r_before,
        "tau_A_before": ref.tau_a_before,
        "tau_R_after": ref.tau_r_after,
        "tau_A_after": ref.tau_a_after,
    }
    for name, want in floats.items():
        got = np.array([r[name] for r in recs], dtype=np.float64)
        if not np.array_equal(_bits(want), _bits(got)):
            problems.append(f"column {name} differs")
    if not isinstance(summary, dict) or summary.get("bounds") != bounds:
        problems.append("summary bounds differ from the run's")
    return problems, verdict


# -- replicate --------------------------------------------------------------


def replicate_op(seed: int, i: int, scale: float) -> tuple[RunSpec, int]:
    """Repetition i: even ones use the tight targets, odd ones the loose,
    each group cycling through its pairs; returns the spec and rep index."""
    group = REPLICATE_TARGETS[i % 2]
    k = i // 2
    pair = k % len(group)
    alpha, beta = group[pair]
    spec = RunSpec(
        policy=PolicyConfig(**{**POLICY, "alpha": alpha, "beta": beta}),
        stream=selverify.preset_calibrated("easy"),
        horizon=scaled(REPLICATE_HORIZON, scale, 10),
        repetitions=1 << 30,
        seed_base=op_seed(seed, "replicate", 2 * pair + i % 2),
    )
    return spec, k // len(group)


def threshold_digest(trace) -> str:
    return sha256_hex(
        *(_bits(a).tobytes() for a in (
            trace.tau_r_before, trace.tau_a_before, trace.tau_r_after, trace.tau_a_after
        ))
    )


def trace_digest(trace) -> str:
    """Every column of a trace, so two traces agree bit for bit iff this does."""
    ints = (trace.t, trace.region, trace.action, trace.explored, trace.g_observed, trace.g_latent)
    floats = (trace.w, trace.q, trace.tau_r_before, trace.tau_a_before,
              trace.tau_r_after, trace.tau_a_after)
    return sha256_hex(
        *(np.ascontiguousarray(a, dtype=np.int64).tobytes() for a in ints),
        *(_bits(a).tobytes() for a in floats),
    )


# -- task_sweep -------------------------------------------------------------


def sweep_streams(scale: float) -> tuple[dict, dict]:
    """The easy best-of-n preset, and a stepwise stream built from the same
    preset: as many episodes as problems, steps correct with the preset's
    base accuracy, scored by its score families, and `budget - 1` retries,
    so that its weak-only anchor draws `budget` candidates per step as the
    best-of-n one does per problem. The package has no stepwise preset;
    the one free choice is the number of steps, set to the budget."""
    best_of_n = selverify.preset_math_like(
        "easy", scaled(BEST_OF_N_PROBLEMS, scale, 2), 4, seed=0
    )
    stepwise = {
        "kind": "stepwise",
        "episodes": best_of_n["problems"],
        "steps": best_of_n["budget"],
        "step_correct_prob": best_of_n["difficulty"]["value"],
        "correct_scores": best_of_n["correct_scores"],
        "incorrect_scores": best_of_n["incorrect_scores"],
        "retries": best_of_n["budget"] - 1,
        "seed": 0,
    }
    return best_of_n, stepwise


def sweep_op(seed: int, i: int, scale: float) -> tuple[dict, int, int]:
    """Sweep i: stream spec, repetitions and seed base. Even sweeps use the
    best-of-n stream, odd ones the stepwise stream."""
    stream = sweep_streams(scale)[i % 2]
    return stream, SWEEP_REPS, op_seed(seed, "task_sweep", i // 2)


def sweep_template() -> PolicyConfig:
    return PolicyConfig(**SWEEP_POLICY)


def problems_of(stream: dict) -> int:
    return stream["problems"] if stream["kind"] == "best_of_n" else stream["episodes"]


def row_json(row) -> str:
    return json.dumps(dataclasses.asdict(row), sort_keys=True)


def check_sweep_rows(ops: list[tuple[int, list[str]]], seed: int, scale: float) -> set[tuple[int, int]]:
    """Recompute the rows of the given sweeps one at a time with
    `sweep_point`, in an order scrambled by the seed, and return the
    (sweep, row) pairs that differ from the serial sweep's."""
    template = sweep_template()
    targets = [*SWEEP_TARGETS, "oracle", "weak_only"]
    rows_by_op = dict(ops)
    bad = set()
    jobs = []
    for i, rows in ops:
        if len(rows) == len(targets):
            jobs.extend((i, j) for j in range(len(rows)))
        else:
            bad.update((i, j) for j in range(len(rows)))
    random.Random(seed).shuffle(jobs)
    for i, j in jobs:
        stream, reps, seed_base = sweep_op(seed, i, scale)
        point = selverify.sweep_point(template, stream, targets[j], reps, seed_base)
        if row_json(point) != rows_by_op[i][j]:
            bad.add((i, j))
    return bad


# -- environment ------------------------------------------------------------


def kernel_path() -> str:
    try:
        import numba  # noqa: F401
    except ImportError:
        return "python"
    return "numba"
