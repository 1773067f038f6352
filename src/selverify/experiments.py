"""Run orchestration: traces, error bounds, claim checks, target sweeps.

A run drives one policy against one stream and records every round. For
non-reactive streams that draw arrays the loop runs on pre-drawn arrays
through the compiled kernel, which reproduces the engine bit for bit;
reactive streams go through the engine so final decisions can feed back,
and so does any stream without `take`. Either path records
only the sequential state of each round (score, latent label, exploration
flag, thresholds after the round), and `_kernel.derive_columns` derives
the other trace columns from it for both. Sweeps evaluate a
grid of error targets plus the two baseline anchors, with stream seeds
shared across targets and anchors so comparisons are paired.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

from . import _kernel
from ._kernel import ACTION_ACCEPT, ACTION_REJECT, ACTION_STRONG_VERIFY
from .metrics import ErrorLedger, delta_bound
from .policy import Action, PolicyConfig, ProtocolError, Region, VerificationPolicy
from .streams import (
    CalibratedStream,
    MiscalibratedStream,
    VerifierStream,
    make_stream,
    run_strong_only,
    run_weak_only,
)

__all__ = [
    "RunSpec",
    "Trace",
    "ParetoPoint",
    "derive_seed",
    "run_one",
    "run",
    "run_rep",
    "recompute_ledger",
    "error_curves",
    "verify_bound",
    "check_claims",
    "sweep_point",
    "sweep",
    "REGION_NAMES",
    "ACTION_NAMES",
]

# The enum order is the `_kernel` code order (REGION_ACCEPT = 0, ...).
REGION_NAMES = tuple(r.value for r in Region)
ACTION_NAMES = tuple(a.value for a in Action)


def _json_numbers(vals: list) -> list[str]:
    """JSON text of ints and floats, as json.dumps writes them."""
    # json.dumps spells the non-finite floats NaN, Infinity and -Infinity
    return [repr(v) if math.isfinite(v) else json.dumps(v) for v in vals]


def _json_values(vals: list) -> list[str]:
    return [json.dumps(v) for v in vals]


# The Python types of the JSON values a column of each dtype accepts.
_JSON_TYPES = {
    np.float64: ((int, float), "a number"),
    np.int64: ((int,), "an integer"),
    np.bool_: ((bool,), "true or false"),
}


@dataclass(frozen=True)
class _Column:
    """One trace column: its JSON key, its `Trace` attribute, its dtype and
    the encoder from a list of record values to their JSON text. An enum
    column stores the index of a name in `names` and its records carry the
    name. An optional column stores -1 on rounds whose record leaves its
    key out."""

    key: str
    attr: str
    dtype: type
    encode: Callable[[list], list[str]] = _json_numbers
    names: tuple = ()
    optional: bool = False

    def values(self, a: np.ndarray) -> list:
        """Record values of a slice of the column, as Python scalars."""
        vals = np.asarray(a, self.dtype).tolist()
        return [self.names[v] for v in vals] if self.names else vals

    def cells(self, a: np.ndarray, head: str, tail: str) -> list[str]:
        """`head + JSON value + tail` for each value of a slice, or "" where
        an optional key is left out. Each distinct bit pattern is encoded
        once, so -0.0 and 0.0 keep their own spellings."""
        a = np.ascontiguousarray(a, self.dtype)
        bits, inv = np.unique(a.view(f"i{a.itemsize}"), return_inverse=True)
        vals = self.values(bits.view(self.dtype))
        text = [head + s + tail for s in self.encode(vals)]
        if self.optional:
            text = ["" if v < 0 else s for v, s in zip(vals, text)]
        return np.array(text, dtype=object)[inv].tolist()

    def parse(self, vals: Sequence) -> np.ndarray:
        """The column of a sequence of record values. Raises TypeError on a
        value whose JSON type is not the column's."""
        if self.names:
            codes = {n: i for i, n in enumerate(self.names)}
            vals = [codes[v] for v in vals]
        else:
            allowed, kind = _JSON_TYPES[self.dtype]
            if not set(map(type, vals)).issubset(allowed):
                bad = next(v for v in vals if type(v) not in allowed)
                raise TypeError(f"{self.key} must be {kind}, got {bad!r}")
        return np.fromiter(vals, self.dtype, count=len(vals))


# The columns of a trace, in the key order of `iter_records`.
_COLUMNS = (
    _Column("t", "t", np.int64),
    _Column("w", "w", np.float64),
    _Column("region", "region", np.int64, _json_values, REGION_NAMES),
    _Column("action", "action", np.int64, _json_values, ACTION_NAMES),
    _Column("q_t", "q", np.float64),
    _Column("explored", "explored", np.bool_, _json_values),
    _Column("g_latent", "g_latent", np.int64),
    _Column("tau_R_before", "tau_r_before", np.float64),
    _Column("tau_A_before", "tau_a_before", np.float64),
    _Column("tau_R_after", "tau_r_after", np.float64),
    _Column("tau_A_after", "tau_a_after", np.float64),
    _Column("g_observed", "g_observed", np.int64, optional=True),
)
_KEYS = tuple(c.key for c in _COLUMNS)
# Rows per chunk when records are made from the columns (written or
# yielded) and when the columns are filled from decoded records. Filling
# transposes the chunk's decoded dicts into columns, so its chunk is kept
# small enough for them to stay in cache; each size measured fastest for
# its direction on a 100k-round trace.
_CHUNK_OUT = 1 << 11
_CHUNK_IN = 1 << 9

# Channel tags for per-repetition seed derivation. Stream seeds do not
# depend on the policy settings, so runs at different targets (and the
# baseline anchors) see identical environments rep for rep.
_POLICY_CHANNEL = 0
_STREAM_CHANNEL = 1


def derive_seed(seed_base: int, rep: int, channel: int) -> int:
    return int(
        np.random.SeedSequence([seed_base, rep, channel]).generate_state(1)[0]
    )


@dataclass(frozen=True)
class RunSpec:
    """One experiment: a policy configuration against a stream spec.

    horizon is the number of rounds, or None to run until the stream
    exhausts (only finite or reactive streams support that).
    """

    policy: PolicyConfig
    stream: dict
    horizon: Optional[int] = None
    repetitions: int = 1
    seed_base: int = 0

    def __post_init__(self):
        if self.horizon is not None and self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.seed_base < 0:
            raise ValueError(f"seed_base must be nonnegative, got {self.seed_base}")


@dataclass
class Trace:
    """Column-oriented record of one run plus its error ledger."""

    config: dict
    t: np.ndarray
    w: np.ndarray
    region: np.ndarray
    action: np.ndarray
    q: np.ndarray
    explored: np.ndarray
    g_observed: np.ndarray
    g_latent: np.ndarray
    tau_r_before: np.ndarray
    tau_a_before: np.ndarray
    tau_r_after: np.ndarray
    tau_a_after: np.ndarray
    ledger: ErrorLedger
    outcome: Optional[object] = None

    def __len__(self) -> int:
        return int(self.t.size)

    def iter_records(self) -> Iterator[dict]:
        """Rounds as plain dicts; g_observed appears only on queried rounds."""
        optional = [c.key for c in _COLUMNS if c.optional]
        for lo in range(0, len(self), _CHUNK_OUT):
            cols = [c.values(getattr(self, c.attr)[lo:lo + _CHUNK_OUT]) for c in _COLUMNS]
            for row in zip(*cols):
                rec = dict(zip(_KEYS, row))
                for key in optional:
                    if rec[key] < 0:
                        del rec[key]
                yield rec

    def write_records(self, fh: TextIO) -> None:
        """Write the rounds as JSON lines, a chunk of rows at a time.

        Each line is `json.dumps(rec, sort_keys=True, separators=(",", ":"))`
        of the matching `iter_records` record, byte for byte.
        """
        # "{" and "}" ride on the first and last keys, which are never optional
        cols = sorted(_COLUMNS, key=lambda c: c.key)
        heads = [("," if i else "{") + json.dumps(c.key) + ":" for i, c in enumerate(cols)]
        tails = [""] * (len(cols) - 1) + ["}"]
        for lo in range(0, len(self), _CHUNK_OUT):
            cells = [
                c.cells(getattr(self, c.attr)[lo:lo + _CHUNK_OUT], head, tail)
                for c, head, tail in zip(cols, heads, tails)
            ]
            fh.write("\n".join(map("".join, zip(*cells))) + "\n")

    @staticmethod
    def from_records(config: dict, records: Iterable[dict]) -> "Trace":
        """Rebuild a trace from round records, taken a chunk at a time into
        column arrays that double in size when full and are cut to length
        in place at the end."""
        cols = {c.attr: np.empty(0, c.dtype) for c in _COLUMNS}
        required = [c for c in _COLUMNS if not c.optional]
        optional = [c for c in _COLUMNS if c.optional]
        get = operator.itemgetter(*(c.key for c in required))
        n = 0
        records = iter(records)
        while chunk := list(itertools.islice(records, _CHUNK_IN)):
            end = n + len(chunk)
            if end > len(cols["t"]):
                size = max(2 * n, end)
                for attr, a in cols.items():
                    # unlike ndarray.resize, which zero-fills, this leaves rows n: untouched
                    cols[attr] = np.empty(size, a.dtype)
                    cols[attr][:n] = a[:n]
            for c, vals in zip(required, zip(*map(get, chunk))):
                cols[c.attr][n:end] = c.parse(vals)
            for c in optional:
                vals = [rec[c.key] if c.key in rec else -1 for rec in chunk]
                cols[c.attr][n:end] = c.parse(vals)
            n = end
            del chunk  # let its records go before the next chunk is decoded
        for a in cols.values():
            a.resize(n, refcheck=False)
        trace = Trace(config=config, ledger=ErrorLedger(), **cols)
        trace.ledger = recompute_ledger(trace)
        return trace


def _ledger_from_arrays(w, action, g_latent, tau_r_before, tau_a_before) -> ErrorLedger:
    g0 = g_latent == 0
    g1 = ~g0
    return ErrorLedger(
        n0=int(g0.sum()),
        n1=int(g1.sum()),
        type1_policy=int(((action == ACTION_ACCEPT) & g0).sum()),
        type2_policy=int(((action == ACTION_REJECT) & g1).sum()),
        type1_threshold=int(((w > tau_a_before) & g0).sum()),
        type2_threshold=int(((w < tau_r_before) & g1).sum()),
        sv_count=int((action == ACTION_STRONG_VERIFY).sum()),
        total=int(w.size),
    )


def recompute_ledger(trace: Trace) -> ErrorLedger:
    """Rebuild the ledger from the recorded rounds alone."""
    return _ledger_from_arrays(
        trace.w, trace.action, trace.g_latent, trace.tau_r_before, trace.tau_a_before
    )


def _trace(echo: dict, w, g_latent, cols, outcome=None) -> Trace:
    """The trace of a run from its scores, its latent labels and the
    columns `_kernel.derive_columns` returns."""
    region, action, q, explored, g_observed, tr_before, ta_before, tr_after, ta_after = cols
    return Trace(
        config=echo,
        t=np.arange(1, w.size + 1, dtype=np.int64),
        w=w,
        region=region,
        action=action,
        q=q,
        explored=explored,
        g_observed=g_observed,
        g_latent=g_latent,
        tau_r_before=tr_before,
        tau_a_before=ta_before,
        tau_r_after=tr_after,
        tau_a_after=ta_after,
        ledger=_ledger_from_arrays(w, action, g_latent, tr_before, ta_before),
        outcome=outcome,
    )


def _run_kernel(config: PolicyConfig, stream, horizon: Optional[int], echo: dict) -> Trace:
    # without a horizon a finite stream is read to its end
    w, g = stream.take(sys.maxsize if horizon is None else horizon)
    w = np.asarray(w, np.float64)
    g = np.asarray(g, np.int64)
    u = np.random.default_rng(config.seed).random(w.size)
    *cols, _ = _kernel.run_rounds(
        w,
        g,
        u,
        config.alpha,
        config.beta,
        config.eta,
        config.q_accept,
        config.q_reject,
        config.tau_reject_init,
        config.tau_accept_init,
    )
    return _trace(echo, w, g, cols)


def _run_engine(config: PolicyConfig, stream, horizon: Optional[int], echo: dict) -> Trace:
    """Drive the policy's round core item by item, so that final decisions
    can feed back into the stream. Only the sequential state is recorded per
    round: the score, the latent label, the exploration flag and the
    thresholds after the round. A horizon takes a prefix of the run; the
    task outcome is set only when the stream ran out first."""
    policy = VerificationPolicy(config)
    route, update = policy._route, policy._update
    reactive = stream.reactive
    w, g_latent, explored, tau_r_after, tau_a_after = [], [], [], [], []
    outcome = None
    while horizon is None or len(w) < horizon:
        item = stream.next()
        if item is None:
            outcome = stream.outcome() if reactive else None
            break
        wt = float(item.w)
        region, q, expl = route(wt)
        if expl or region is Region.UNCERTAIN:
            g = stream.answer_strong_query()
            if g != item.g_latent:
                # derive_columns reads g_observed off the latent labels
                raise ProtocolError(
                    f"strong query answered {g!r} for an item whose latent label is "
                    f"{item.g_latent!r}"
                )
            if g not in (0, 1):
                raise ValueError(f"strong label must be 0 or 1, got {g!r}")
            after = update(wt, int(g), q)
            final = Action.ACCEPT if g == 1 else Action.REJECT
        else:
            after = update(wt, None, q)
            final = Action.ACCEPT if region is Region.ACCEPT else Action.REJECT
        if reactive:
            stream.react(final)
        w.append(wt)
        g_latent.append(item.g_latent)
        explored.append(expl)
        tau_r_after.append(after.reject)
        tau_a_after.append(after.accept)
    w = np.array(w, np.float64)
    g_latent = np.array(g_latent, np.int64)
    cols = _kernel.derive_columns(
        w,
        g_latent,
        np.array(explored, np.bool_),
        np.array(tau_r_after, np.float64),
        np.array(tau_a_after, np.float64),
        config.q_accept,
        config.q_reject,
        config.tau_reject_init,
        config.tau_accept_init,
    )
    return _trace(echo, w, g_latent, cols, outcome)


def run_one(
    config: PolicyConfig,
    stream: VerifierStream,
    horizon: Optional[int] = None,
    force_engine: bool = False,
    echo: Optional[dict] = None,
) -> Trace:
    """Drive one policy to completion against one stream.

    A non-reactive stream that draws arrays (`take`, as the built-in ones
    do) runs through the array kernel. Any other stream, and any stream
    when force_engine is set, runs item by item through the engine; the
    two paths produce identical traces. So a custom stream needs only
    `next`, `answer_strong_query` and `spec_dict`, plus `react` and
    `outcome` if it is reactive.
    """
    if echo is None:
        echo = {"policy": config.to_dict(), "stream": stream.spec_dict(), "horizon": horizon}
    if horizon is None and isinstance(stream, (CalibratedStream, MiscalibratedStream)):
        raise ValueError("this stream never exhausts; a horizon is required")
    if stream.reactive or force_engine or not hasattr(stream, "take"):
        return _run_engine(config, stream, horizon, echo)
    return _run_kernel(config, stream, horizon, echo)


def run(spec: RunSpec) -> list[Trace]:
    """All repetitions of a RunSpec, one trace each.

    Per-repetition policy and stream seeds derive from (seed_base, rep,
    channel), so any subset of repetitions can be recomputed independently.
    """
    return [run_rep(spec, rep) for rep in range(spec.repetitions)]


def run_rep(spec: RunSpec, rep: int, force_engine: bool = False) -> Trace:
    if not 0 <= rep < spec.repetitions:
        raise ValueError(f"rep must be in [0, {spec.repetitions}), got {rep}")
    policy_seed = derive_seed(spec.seed_base, rep, _POLICY_CHANNEL)
    stream_seed = derive_seed(spec.seed_base, rep, _STREAM_CHANNEL)
    config = dataclasses.replace(spec.policy, seed=policy_seed)
    stream = make_stream(spec.stream, seed=stream_seed)
    echo = {
        "policy": config.to_dict(),
        "stream": stream.spec_dict(),
        "horizon": spec.horizon,
        "seed_base": spec.seed_base,
        "rep": rep,
    }
    return run_one(config, stream, spec.horizon, force_engine=force_engine, echo=echo)


def error_curves(trace: Trace) -> dict:
    """Running prefix averages of the two policy error rates.

    Entry t is the error rate over rounds 1..t+1; prefixes with an empty
    denominator report 0.
    """
    g0 = (trace.g_latent == 0).astype(np.float64)
    g1 = (trace.g_latent == 1).astype(np.float64)
    fa = ((trace.action == ACTION_ACCEPT) & (trace.g_latent == 0)).astype(np.float64)
    fr = ((trace.action == ACTION_REJECT) & (trace.g_latent == 1)).astype(np.float64)
    n0 = np.cumsum(g0)
    n1 = np.cumsum(g1)
    with np.errstate(invalid="ignore", divide="ignore"):
        c1 = np.where(n0 > 0, np.cumsum(fa) / np.maximum(n0, 1.0), 0.0)
        c2 = np.where(n1 > 0, np.cumsum(fr) / np.maximum(n1, 1.0), 0.0)
    return {"type1": c1, "type2": c2, "n0": n0.astype(np.int64), "n1": n1.astype(np.int64)}


def verify_bound(trace: Trace, delta: float = 0.05) -> dict:
    """Evaluate both finite-time error inequalities on a finished trace.

    Runs produced here always use constant step size and exploration
    rates, which is what the bound assumes. A side with no items of the
    relevant label is vacuous: the error is 0 by convention and the slack
    term is 0.
    """
    cfg = trace.config["policy"]
    alpha, beta, eta = cfg["alpha"], cfg["beta"], cfg["eta"]
    q_min = min(cfg["q_accept"], cfg["q_reject"])
    led = trace.ledger
    out = {"delta": delta, "sides": {}}
    for side, n, err, target in (
        ("type1", led.n0, led.err_type1(), alpha),
        ("type2", led.n1, led.err_type2(), beta),
    ):
        slack = delta_bound(int(n), delta, eta, q_min)
        bound = target + slack
        out["sides"][side] = {
            "n": int(n),
            "err": err,
            "target": target,
            "slack": slack,
            "bound": bound,
            "margin": bound - err,
            "vacuous": n == 0,
            "pass": err <= bound,
        }
    out["pass"] = all(s["pass"] for s in out["sides"].values())
    return out


def check_claims(trace: Trace) -> dict:
    """Recheck the trace-level guarantees the update rule carries.

    Telescoping: the importance-weighted error sums recomputed from the
    records are bounded by the net threshold displacement over the step
    size (tolerance 1e-9). Band: both thresholds stay inside
    [-eta/q_min, 1 + eta/q_min]. Domination: unilateral policy errors
    never exceed the threshold-induced counts.
    """
    cfg = trace.config["policy"]
    alpha, beta, eta = cfg["alpha"], cfg["beta"], cfg["eta"]
    q_min = min(cfg["q_accept"], cfg["q_reject"])
    sv = trace.g_observed >= 0
    gate0 = sv & (trace.g_observed == 0)
    gate1 = sv & (trace.g_observed == 1)
    ind_a = (trace.w > trace.tau_a_before).astype(np.float64)
    ind_r = (trace.w < trace.tau_r_before).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        sum_accept = float(((ind_a - alpha) / trace.q)[gate0].sum())
        sum_reject = float(((ind_r - beta) / trace.q)[gate1].sum())
    if len(trace):
        disp_accept = float(trace.tau_a_after[-1] - trace.tau_a_before[0]) / eta
        disp_reject = float(trace.tau_r_before[0] - trace.tau_r_after[-1]) / eta
        taus = (trace.tau_r_before, trace.tau_a_before, trace.tau_r_after, trace.tau_a_after)
        # np.min and np.max, unlike the builtins, let a NaN through
        lo = float(np.min([a.min() for a in taus]))
        hi = float(np.max([a.max() for a in taus]))
        # min/max pick the sign of a zero by SIMD lane. A zero low is -0.0
        # if any -0.0 is present, a zero high 0.0 if any 0.0 is; no value
        # lies beyond a zero extreme, so the sign bit tells the zeros apart
        if lo == 0.0:
            lo = -0.0 if any(np.signbit(a).any() for a in taus) else 0.0
        if hi == 0.0:
            hi = -0.0 if all(np.signbit(a).all() for a in taus) else 0.0
    else:
        disp_accept = 0.0
        disp_reject = 0.0
        lo, hi = 0.0, 1.0
    band_lo = -eta / q_min
    band_hi = 1.0 + eta / q_min
    led = trace.ledger
    claims = {
        "telescoping_accept": {
            "sum": sum_accept,
            "limit": disp_accept,
            "pass": sum_accept <= disp_accept + 1e-9,
        },
        "telescoping_reject": {
            "sum": sum_reject,
            "limit": disp_reject,
            "pass": sum_reject <= disp_reject + 1e-9,
        },
        "threshold_band": {
            "low": lo,
            "high": hi,
            "band": [band_lo, band_hi],
            # pure float guard; the band itself is exact
            "pass": lo >= band_lo - 1e-12 and hi <= band_hi + 1e-12,
        },
        "domination_type1": {
            "policy": led.type1_policy,
            "threshold": led.type1_threshold,
            "pass": led.type1_policy <= led.type1_threshold,
        },
        "domination_type2": {
            "policy": led.type2_policy,
            "threshold": led.type2_threshold,
            "pass": led.type2_policy <= led.type2_threshold,
        },
    }
    return {"claims": claims, "pass": all(c["pass"] for c in claims.values())}


@dataclass(frozen=True)
class ParetoPoint:
    """One sweep row: a target pair or a baseline anchor.

    Anchor rows carry no targets (alpha/beta are None) and set exactly one
    of is_oracle / is_weak_only. Per-rep columns ride along for paired
    comparisons but are not part of equality or the serialized row.
    """

    alpha: Optional[float]
    beta: Optional[float]
    accuracy: float
    accuracy_stderr: float
    strong_per_problem: float
    weak_per_problem: float
    err1: Optional[float]
    err2: Optional[float]
    reps: int
    is_oracle: bool = False
    is_weak_only: bool = False
    rep_accuracy: tuple = field(default=(), compare=False, repr=False)
    rep_strong: tuple = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")
        if self.strong_per_problem < 0 or self.weak_per_problem < 0:
            raise ValueError("per-problem call averages must be nonnegative")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if self.is_oracle and self.is_weak_only:
            raise ValueError("a row cannot be both anchors at once")


def _aggregate_point(
    alpha, beta, accs, strongs, weaks, err1s, err2s, is_oracle=False, is_weak_only=False
) -> ParetoPoint:
    accs = np.asarray(accs, dtype=np.float64)
    reps = accs.size
    stderr = float(accs.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return ParetoPoint(
        alpha=alpha,
        beta=beta,
        accuracy=float(accs.mean()),
        accuracy_stderr=stderr,
        strong_per_problem=float(np.mean(strongs)),
        weak_per_problem=float(np.mean(weaks)),
        err1=float(np.mean(err1s)) if err1s is not None else None,
        err2=float(np.mean(err2s)) if err2s is not None else None,
        reps=reps,
        is_oracle=is_oracle,
        is_weak_only=is_weak_only,
        rep_accuracy=tuple(float(a) for a in accs),
        rep_strong=tuple(float(s) for s in strongs),
    )


def sweep_point(
    policy_template: PolicyConfig,
    stream_spec: dict,
    target,
    repetitions: int,
    seed_base: int,
) -> ParetoPoint:
    """Evaluate one sweep row: target=(alpha, beta), "oracle", or "weak_only".

    Self-contained given its arguments, so rows can be computed in any
    order or split across processes and still match a serial sweep.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    probe = make_stream(stream_spec)
    if not probe.reactive:
        raise ValueError("sweeps need a task stream with per-problem outcomes")
    accs, strongs, weaks = [], [], []
    err1s, err2s = [], []
    for rep in range(repetitions):
        stream_seed = derive_seed(seed_base, rep, _STREAM_CHANNEL)
        stream = make_stream(stream_spec, seed=stream_seed)
        if target == "oracle":
            out = run_strong_only(stream)
            err1s.append(0.0)
            err2s.append(0.0)
        elif target == "weak_only":
            out = run_weak_only(stream)
        else:
            alpha, beta = target
            policy_seed = derive_seed(seed_base, rep, _POLICY_CHANNEL)
            config = dataclasses.replace(
                policy_template, alpha=alpha, beta=beta, seed=policy_seed
            )
            trace = run_one(config, stream, horizon=None)
            out = trace.outcome
            err1s.append(trace.ledger.err_type1())
            err2s.append(trace.ledger.err_type2())
        accs.append(out.accuracy)
        strongs.append(out.strong_calls_per_problem)
        weaks.append(out.weak_calls_per_problem)
    if target == "oracle":
        return _aggregate_point(None, None, accs, strongs, weaks, err1s, err2s, is_oracle=True)
    if target == "weak_only":
        return _aggregate_point(None, None, accs, strongs, weaks, None, None, is_weak_only=True)
    return _aggregate_point(target[0], target[1], accs, strongs, weaks, err1s, err2s)


def sweep(
    policy_template: PolicyConfig,
    stream_spec: dict,
    targets: list,
    repetitions: int,
    seed_base: int,
) -> list[ParetoPoint]:
    """All target rows in order, then the oracle and weak-only anchors."""
    if not targets:
        raise ValueError("sweep needs at least one (alpha, beta) target")
    jobs = [(float(a), float(b)) for a, b in targets] + ["oracle", "weak_only"]
    return [sweep_point(policy_template, stream_spec, job, repetitions, seed_base) for job in jobs]
