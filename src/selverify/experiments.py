"""Run orchestration: traces, error bounds, claim checks, target sweeps.

A run drives one policy against one stream and records every round. One
function, `_run_chunks`, chooses a run's path and gives its columns in
chunks. For non-reactive streams that draw arrays the loop runs on
pre-drawn arrays through the array kernel, which reproduces the engine
bit for bit. So does a task stream whose difficulty is a point mass: its
candidates do not depend on the decisions, so the kernel runs over its
tape and the stream folds each chunk's final decisions in. Other streams
go through the engine so final decisions can feed back. Either path
records only the sequential state of each round (score, latent label,
exploration flag, thresholds after the round), and
`_kernel.derive_columns` derives the other trace columns from it for both.
`run_one` reads a run in memory in one take and `_trace` joins its chunks;
`simulate` (and `check`, which regenerates a trace file's run to compare it
with the file) reads a chunk per 4,096 rounds. One writer,
`_write_rows`, encodes each distinct value of a block once where values
repeat (the thresholds, `q_t`, the enums), since turning numbers into
text costs more than the kernel. One reader,
`_record_chunks`, parses round records into column chunks, which
`Trace.from_records` joins and `check` uses to tell a round record from a
malformed line. The ledger and the claim checks are one fold over column
chunks (`_Certificate`). Sweeps evaluate a grid of error
targets plus the two baseline anchors a repetition at a time, with stream
seeds shared across targets and anchors so comparisons are paired; where
the difficulty draws nothing, the rows of a repetition also read one tape
of candidates, each drawn once. A sweep splits its repetitions into
contiguous shares, one per CPU: the calling process runs the first and
forked workers (`_fork`, which `simulate` and `check` use too) the others,
and the rows do not depend on how many processes ran them.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import itertools
import json
import math
import operator
import os
import pickle
import sys
import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, TextIO

import numpy as np

from . import _kernel
from ._kernel import ACTION_ACCEPT, ACTION_REJECT, ACTION_STRONG_VERIFY
from .metrics import ErrorLedger, delta_bound
from .policy import (
    Action, PolicyConfig, ProtocolError, Region, VerificationPolicy, _check_count, _check_pair,
)
from .streams import VerifierStream, _TaskStream, make_stream, run_strong_only, run_weak_only

__all__ = [
    "RunSpec",
    "Trace",
    "ParetoPoint",
    "derive_seed",
    "run_one",
    "run",
    "run_rep",
    "recompute_ledger",
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


def _json_numbers(a: np.ndarray) -> list[str]:
    """JSON text of the ints or floats of an array, as json.dumps writes them."""
    vals = a.tolist()
    if np.isfinite(a).all():
        return list(map(repr, vals))
    # json.dumps spells the non-finite floats NaN, Infinity and -Infinity
    return [repr(v) if math.isfinite(v) else json.dumps(v) for v in vals]


# The Python types of the JSON values a column of each dtype accepts.
_JSON_TYPES = {
    np.float64: ((int, float), "a number"),
    np.int64: ((int,), "an integer"),
    np.bool_: ((bool,), "true or false"),
}


@dataclass(frozen=True)
class _Column:
    """One trace column: its JSON key, its `Trace` attribute and its dtype.
    An enum column stores the index of a name in `names` and its records
    carry the name. An optional column stores -1 on rounds whose record
    leaves its key out."""

    key: str
    attr: str
    dtype: type
    names: tuple = ()
    optional: bool = False
    shared: bool = False
    distinct: bool = False

    def values(self, a: np.ndarray) -> list:
        """Record values of a slice of the column, as Python scalars."""
        vals = np.asarray(a, self.dtype).tolist()
        return [self.names[v] for v in vals] if self.names else vals

    def texts(self, a: np.ndarray, key: str) -> list[str]:
        """The JSON text of each value of a slice of the column, which is not
        `shared` (a float column is that or `distinct`); for an optional
        column, after its key text `key`, or "" where it is left out."""
        if self.distinct:
            return _json_numbers(np.asarray(a, self.dtype))
        # the others take a few values: each is encoded once, into a table
        vals = np.asarray(a, self.dtype).tolist()
        table = {v: json.dumps(self.names[v] if self.names else v) for v in set(vals)}
        if self.optional:
            table = {v: "" if v < 0 else key + s for v, s in table.items()}
        return list(map(table.__getitem__, vals))

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
    _Column("t", "t", np.int64, distinct=True),
    _Column("w", "w", np.float64, distinct=True),
    _Column("region", "region", np.int64, REGION_NAMES),
    _Column("action", "action", np.int64, ACTION_NAMES),
    _Column("q_t", "q", np.float64, shared=True),
    _Column("explored", "explored", np.bool_),
    _Column("g_latent", "g_latent", np.int64),
    _Column("tau_R_before", "tau_r_before", np.float64, shared=True),
    _Column("tau_A_before", "tau_a_before", np.float64, shared=True),
    _Column("tau_R_after", "tau_r_after", np.float64, shared=True),
    _Column("tau_A_after", "tau_a_after", np.float64, shared=True),
    _Column("g_observed", "g_observed", np.int64, optional=True),
)
_KEYS = tuple(c.key for c in _COLUMNS)
# Rows per chunk when records are made from the columns (written or
# yielded), and records per step when the columns are filled from decoded
# records. Filling transposes the step's decoded dicts into columns, so the
# step is kept small enough for them to stay in cache; each size measured
# fastest for its direction on a 100k-round trace.
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
        for name, low in (("horizon", 1), ("repetitions", 1), ("seed_base", 0)):
            if not (name == "horizon" and self.horizon is None):
                _check_count(name, getattr(self, name), low)


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
        for lo in range(0, len(self), _CHUNK_OUT):
            cols = [c.values(getattr(self, c.attr)[lo:lo + _CHUNK_OUT]) for c in _COLUMNS]
            for row in zip(*cols):
                rec = dict(zip(_KEYS, row))
                for c in _OPTIONAL:
                    if rec[c.key] < 0:
                        del rec[c.key]
                yield rec

    def write_records(self, fh: TextIO) -> None:
        """Write the rounds as JSON lines, a chunk of rows at a time.

        Each line is `json.dumps(rec, sort_keys=True, separators=(",", ":"))`
        of the matching `iter_records` record, byte for byte.
        """
        _write_rows(fh, vars(self))

    @staticmethod
    def from_records(config: dict, records: Iterable[dict]) -> "Trace":
        """Rebuild a trace from round records: `_record_chunks` parses them
        into column chunks, which `_trace` joins."""
        return _trace(config, _record_chunks(records))


# The columns in the key order of the JSON lines and the text before each
# value; "{" and "}" ride on the first and last keys, never optional ones.
_SORTED = sorted(_COLUMNS, key=lambda c: c.key)
_KEY_TEXTS = [("," if i else "{") + json.dumps(c.key) + ":" for i, c in enumerate(_SORTED)]
_SHARED = [c.attr for c in _SORTED if c.shared]
_REQUIRED = [c for c in _COLUMNS if not c.optional]
_OPTIONAL = [c for c in _COLUMNS if c.optional]
_GET_REQUIRED = operator.itemgetter(*(c.key for c in _REQUIRED))


def _write_rows(fh: TextIO, cols: dict) -> None:
    """Write the rows of the columns `cols` (`Trace` attribute -> array)
    as the JSON lines `Trace.write_records` writes, `_CHUNK_OUT` at a time.
    Turning numbers into text is most of the work, so a block's repeated
    values are encoded once each: the thresholds and `q_t` through one
    `np.unique` of their bits (a round's thresholds after are the next
    round's before), the enums, `explored` and `g_observed` through a
    lookup table. `w` and `t`, all distinct, are encoded straight."""
    for lo in range(0, len(cols["t"]), _CHUNK_OUT):
        block = {c.attr: cols[c.attr][lo:lo + _CHUNK_OUT] for c in _COLUMNS}
        floats = np.concatenate([np.asarray(block[attr], np.float64) for attr in _SHARED])
        bits, inv = np.unique(floats.view(np.int64), return_inverse=True)
        texts = np.array(_json_numbers(bits.view(np.float64)), dtype=object)[inv]
        shared = iter(texts.reshape(len(_SHARED), -1).tolist())
        parts = []  # one line is one join of its value texts and key texts
        for c, key in zip(_SORTED, _KEY_TEXTS):
            if not c.optional:  # an optional column's texts carry its key
                parts.append(itertools.repeat(key))
            parts.append(next(shared) if c.shared else c.texts(block[c.attr], key))
        parts.append(itertools.repeat("}\n"))
        fh.write("".join(map("".join, zip(*parts))))


def _record_chunks(records: Iterable[dict]) -> Iterator[dict]:
    """The columns of round records (`Trace` attribute -> array), a fresh
    chunk of `_kernel._CHUNK` rows at a time; the last chunk is short, and
    empty if the records end with a full one. The records are taken
    `_CHUNK_IN` at a time. Raises KeyError, TypeError or OverflowError on
    a record that is not one."""
    records = iter(records)
    size = n = _kernel._CHUNK
    while n == size:  # until a chunk comes out short
        cols = {c.attr: np.empty(size, c.dtype) for c in _COLUMNS}
        n = 0
        while n < size and (chunk := list(itertools.islice(records, min(_CHUNK_IN, size - n)))):
            end = n + len(chunk)
            for c, vals in zip(_REQUIRED, zip(*map(_GET_REQUIRED, chunk))):
                cols[c.attr][n:end] = c.parse(vals)
            for c in _OPTIONAL:
                cols[c.attr][n:end] = c.parse([rec[c.key] if c.key in rec else -1 for rec in chunk])
            n = end
            del chunk  # let its records go before the next ones are decoded
        yield cols if n == size else {attr: a[:n] for attr, a in cols.items()}


# Every finite float64 is an integer multiple of 2**-1074.
_UNIT_EXP = 1074
# Distinct values `_exact_sum` counts one by one before it sorts the rest.
_PEELS = 8


def _exact_sum(terms: np.ndarray) -> tuple[int, float]:
    """The sum of the finite `terms` in units of 2**-1074, exactly, and the
    IEEE sum of the others (0.0 if there are none)."""
    todo = np.isfinite(terms)
    with np.errstate(invalid="ignore"):
        special = float(terms[~todo].sum())
    # A trace's terms take a handful of values, so each is counted on its
    # own; sorting them instead would page numpy's sort code in, about
    # 0.3 MB of resident memory.
    groups = []
    for _ in range(_PEELS):
        if not todo.any():
            break
        v = terms[todo.argmax()]
        same = terms == v
        todo[same] = False
        groups.append((float(v), int(np.count_nonzero(same))))
    if todo.any():
        groups += zip(*(a.tolist() for a in np.unique(terms[todo], return_counts=True)))
    units = 0
    for v, k in groups:
        num, den = v.as_integer_ratio()  # den is a power of two
        units += k * num << (_UNIT_EXP + 1 - den.bit_length())
    return units, special


def _rounded(units: int, special: float) -> float:
    """The float nearest the sum of `_exact_sum`'s parts."""
    if special != 0.0:  # an inf or a NaN term decides the sum, as in IEEE
        return special
    try:
        return units / (1 << _UNIT_EXP)  # int / int rounds correctly
    except OverflowError:
        return math.inf if units > 0 else -math.inf


class _Certificate:
    """One fold over a trace's column chunks: the error ledger and what
    `check_claims` reads.

    `add` takes a mapping from `Trace` attribute to a chunk of that column
    (a trace's `vars` is one), in round order. The result does not depend
    on how the rounds are cut into chunks: the ledger is integer counts,
    the telescoping sums are exact until they are read, the band keeps a
    NaN and the sign of a zero extreme, and the displacement reads the
    first thresholds before and the last after. With ledger_only set, only
    the ledger is kept, and the config may be None.
    """

    def __init__(self, config: Optional[dict], ledger_only: bool = False):
        self.config = config
        self.ledger_only = ledger_only
        self.ledger = ErrorLedger()
        self._units = [0, 0]
        self._special = [0.0, 0.0]
        self._lo, self._hi = math.inf, -math.inf
        self._neg_zero = self._pos_zero = False
        self._first = self._last = None

    @classmethod
    def of(cls, trace: Trace) -> "_Certificate":
        return cls(trace.config).add(vars(trace))

    def add(self, cols) -> "_Certificate":
        w, action, g_latent = cols["w"], cols["action"], cols["g_latent"]
        if not w.size:
            return self
        tau_r, tau_a = cols["tau_r_before"], cols["tau_a_before"]
        g0 = g_latent == 0
        g1 = ~g0
        above, below = w > tau_a, w < tau_r
        n0 = int(np.count_nonzero(g0))
        led = self.ledger
        led.n0 += n0
        led.n1 += w.size - n0
        led.type1_policy += int(np.count_nonzero((action == ACTION_ACCEPT) & g0))
        led.type2_policy += int(np.count_nonzero((action == ACTION_REJECT) & g1))
        led.type1_threshold += int(np.count_nonzero(above & g0))
        led.type2_threshold += int(np.count_nonzero(below & g1))
        led.sv_count += int(np.count_nonzero(action == ACTION_STRONG_VERIFY))
        led.total += w.size
        if self.ledger_only:
            return self
        policy = self.config["policy"]
        g_observed, q = cols["g_observed"], cols["q"]
        for i, (label, ind, target) in enumerate(
            ((0, above, policy["alpha"]), (1, below, policy["beta"]))
        ):
            # indices, not a mask: they select a few rows much faster
            rows = np.flatnonzero(g_observed == label)
            with np.errstate(invalid="ignore", divide="ignore"):
                units, special = _exact_sum((ind[rows] - target) / q[rows])
            self._units[i] += units
            self._special[i] += special
        tau_r_after, tau_a_after = cols["tau_r_after"], cols["tau_a_after"]
        taus = (tau_r, tau_a, tau_r_after, tau_a_after)
        # np.min and np.max, unlike the builtins, let a NaN through
        lo = np.min([a.min() for a in taus])
        hi = np.max([a.max() for a in taus])
        # min/max pick the sign of a zero by SIMD lane. A zero low is -0.0
        # if any -0.0 is present, a zero high 0.0 if any 0.0 is; no value
        # lies beyond a zero extreme, so the sign bit tells the zeros apart
        if lo == 0.0:
            self._neg_zero |= any(np.signbit(a).any() for a in taus)
        if hi == 0.0:
            self._pos_zero |= not all(np.signbit(a).all() for a in taus)
        self._lo = float(np.min([self._lo, lo]))
        self._hi = float(np.max([self._hi, hi]))
        if self._first is None:
            self._first = (float(tau_r[0]), float(tau_a[0]))
        self._last = (float(tau_r_after[-1]), float(tau_a_after[-1]))
        return self

    def claims(self) -> dict:
        """`check_claims` of the rounds added so far."""
        cfg = self.config["policy"]
        eta = cfg["eta"]
        q_min = min(cfg["q_accept"], cfg["q_reject"])
        sum_accept, sum_reject = map(_rounded, self._units, self._special)
        if self._first is None:
            disp_accept = disp_reject = 0.0
            lo, hi = 0.0, 1.0
        else:
            disp_accept = (self._last[1] - self._first[1]) / eta
            disp_reject = (self._first[0] - self._last[0]) / eta
            lo, hi = self._lo, self._hi
            if lo == 0.0:
                lo = -0.0 if self._neg_zero else 0.0
            if hi == 0.0:
                hi = 0.0 if self._pos_zero else -0.0
        band_lo = -eta / q_min
        band_hi = 1.0 + eta / q_min
        claims = {
            f"telescoping_{side}": {"sum": total, "limit": limit, "pass": total <= limit + 1e-9}
            for side, total, limit in (
                ("accept", sum_accept, disp_accept), ("reject", sum_reject, disp_reject)
            )
        }
        claims["threshold_band"] = {
            "low": lo,
            "high": hi,
            "band": [band_lo, band_hi],
            # pure float guard; the band itself is exact
            "pass": lo >= band_lo - 1e-12 and hi <= band_hi + 1e-12,
        }
        for side in ("type1", "type2"):
            policy = getattr(self.ledger, f"{side}_policy")
            threshold = getattr(self.ledger, f"{side}_threshold")
            claims[f"domination_{side}"] = {
                "policy": policy, "threshold": threshold, "pass": policy <= threshold,
            }
        return {"claims": claims, "pass": all(c["pass"] for c in claims.values())}


def recompute_ledger(trace: Trace) -> ErrorLedger:
    """Rebuild the ledger from the recorded rounds alone."""
    return _Certificate(trace.config, ledger_only=True).add(vars(trace)).ledger


# The names of the columns `_kernel.derive_columns` returns, in its order.
_DERIVED = (
    "region", "action", "q", "explored", "g_observed",
    "tau_r_before", "tau_a_before", "tau_r_after", "tau_a_after",
)


def _columns(w, g_latent, cols, start: int = 1) -> dict:
    """The columns of rounds start, start + 1, ... of a run from their
    scores, latent labels and the columns `_kernel.derive_columns`
    returns."""
    return {
        "t": np.arange(start, start + w.size, dtype=np.int64),
        "w": w,
        "g_latent": g_latent,
        **dict(zip(_DERIVED, cols)),
    }


def _trace(config: dict, chunks: Iterable[dict]) -> Trace:
    """The trace of the column `chunks` (`Trace` attribute -> array), in
    round order, and its ledger. The chunks are joined a column at a time,
    so that only one column's chunks outlive their join; a lone chunk's
    column is copied only where it is a view, which keeps a buffer alive."""
    chunks = list(chunks)
    cols = {}
    for c in _COLUMNS:
        parts = [chunk.pop(c.attr) for chunk in chunks] or [np.empty(0, c.dtype)]
        cols[c.attr] = parts[0] if len(parts) == 1 and parts[0].flags.owndata else np.concatenate(parts)
    ledger = _Certificate(config, ledger_only=True).add(cols).ledger
    return Trace(config=config, ledger=ledger, **cols)


def _kernel_chunks(config: PolicyConfig, blocks: Iterable[tuple]) -> Iterator[dict]:
    """The columns of the policy's run over `(scores, labels)` blocks, a
    chunk per block. Each block is checked as the engine checks a round,
    tops the unused exploration uniforms up from the policy's generator and
    starts the kernel from the thresholds the block before ended at, so the
    chunks join to the same bits as one block of every round."""
    args = (config.alpha, config.beta, config.eta, config.q_accept, config.q_reject)
    rng = np.random.default_rng(config.seed)
    u = np.empty(0)
    tr, ta = config.tau_reject_init, config.tau_accept_init
    start = 1
    for w, g in blocks:
        w = np.asarray(w, np.float64)
        g = np.asarray(g, np.int64)
        bad = ~((w >= 0.0) & (w <= 1.0))  # also true for NaN
        if bad.any():
            raise ValueError(f"weak score must be in [0, 1], got {float(w[bad][0])}")
        bad = (g != 0) & (g != 1)
        if bad.any():
            raise ValueError(f"strong label must be 0 or 1, got {int(g[bad][0])!r}")
        if u.size < w.size:
            drawn = rng.random(w.size - u.size)
            u = np.concatenate([u, drawn]) if u.size else drawn  # a first block copies none
        *cols, used = _kernel.run_rounds(w, g, u, *args, tr, ta)
        u = u[used:]
        if w.size:
            tr, ta = float(cols[-2][-1]), float(cols[-1][-1])
        yield _columns(w, g, cols, start)
        start += w.size


def _takes(stream, horizon: Optional[int], block: int) -> Iterator[tuple]:
    """The stream's `(scores, labels)` in `take`s of at most `block`
    rounds, up to the horizon, or to the end of the stream if that comes
    first or there is no horizon."""
    done = 0
    while horizon is None or done < horizon:
        w, g = stream.take(block if horizon is None else min(block, horizon - done))
        if not len(w):
            return
        yield w, g
        done += len(w)


def _run_engine(config: PolicyConfig, stream, horizon: Optional[int]) -> dict:
    """The columns of the policy's run over `stream`, driven item by item
    so that final decisions can feed back into the stream. Only the
    sequential state is recorded per round: the score, the latent label,
    the exploration flag and the thresholds after the round. A horizon
    takes a prefix of the run."""
    policy = VerificationPolicy(config)
    route, update = policy._route, policy._update
    reactive = stream.reactive
    w, g_latent, explored, tau_r_after, tau_a_after = [], [], [], [], []
    while horizon is None or len(w) < horizon:
        item = stream.next()
        if item is None:
            break
        wt = float(item.w)
        region, _, expl = route(wt)
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
            after = update(wt, int(g))
            final = Action.ACCEPT if g == 1 else Action.REJECT
        else:
            after = update(wt, None)
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
    return _columns(w, g_latent, cols)


def _run_tape(config: PolicyConfig, stream: _TaskStream, horizon: Optional[int]) -> Iterator[dict]:
    """The column chunks of the policy's run on the array kernel over the
    tape of a task stream `_on_tape`. The stream folds each chunk's final
    decisions, accept where the action is accept or a strong query found
    the candidate correct, and the run stops at the round where the last
    unit ends, or at the horizon if that comes first."""
    for cols in _kernel_chunks(config, stream._blocks(sys.maxsize if horizon is None else horizon)):
        g, action = cols["g_latent"], cols["action"]
        strong = action == ACTION_STRONG_VERIFY
        accepted = np.where(strong, g == 1, action == ACTION_ACCEPT)
        n = stream._fold(g.tolist(), accepted.tolist(), strong)
        yield {attr: a[:n] for attr, a in cols.items()}


def _check_horizon(stream: VerifierStream, horizon: Optional[int]) -> None:
    """Raise ValueError where there is no horizon and the stream never
    exhausts (a built-in non-reactive stream's `total_length` is None)."""
    if horizon is None and getattr(stream, "total_length", 0) is None:
        raise ValueError("this stream never exhausts; a horizon is required")


def _run_chunks(config, stream, horizon: Optional[int], block: int, force_engine=False) -> Iterator[dict]:
    """The column chunks of the policy's run over `stream`, up to the
    horizon, whose rule is checked at once: the one place where a run's
    path is chosen. A non-reactive stream that draws arrays runs on the
    kernel, a chunk per `take` of at most `block` rounds; a task stream
    `_on_tape` on the kernel over its tape; any other stream, and any when
    force_engine is set, through the engine, as one chunk."""
    _check_horizon(stream, horizon)
    if not (stream.reactive or force_engine) and hasattr(stream, "take"):
        return _kernel_chunks(config, _takes(stream, horizon, block))
    if not force_engine and isinstance(stream, _TaskStream) and stream._on_tape():
        return _run_tape(config, stream, horizon)
    return iter([_run_engine(config, stream, horizon)])


def run_one(
    config: PolicyConfig,
    stream: VerifierStream,
    horizon: Optional[int] = None,
    force_engine: bool = False,
    echo: Optional[dict] = None,
) -> Trace:
    """Drive one policy to completion against one stream.

    The columns come from `_run_chunks`, as for `simulate`, in one take. A
    non-reactive stream that draws arrays (`take`, as the built-in ones do)
    runs through the array kernel, and so does a task stream whose
    difficulty is a point mass (every preset and every stepwise stream),
    over its tape. Any other stream, and any stream when force_engine is
    set, runs item by item through the engine; the paths produce identical
    traces, and leave a task stream's counters alike. So a custom stream
    needs only `next`, `answer_strong_query` and `spec_dict`, plus `react`
    and `outcome` if it is reactive. A horizon takes a prefix of the run;
    the outcome is set only where the stream ran out first.
    """
    if horizon is not None:
        _check_count("horizon", horizon, 0)
    if echo is None:
        echo = {"policy": config.to_dict(), "stream": stream.spec_dict(), "horizon": horizon}
    trace = _trace(echo, _run_chunks(config, stream, horizon, sys.maxsize, force_engine))
    if stream.reactive and (horizon is None or len(trace) < horizon):
        trace.outcome = stream.outcome()
    return trace


def run(spec: RunSpec) -> list[Trace]:
    """All repetitions of a RunSpec, one trace each.

    Per-repetition policy and stream seeds derive from (seed_base, rep,
    channel), so any subset of repetitions can be recomputed independently.
    """
    return [run_rep(spec, rep) for rep in range(spec.repetitions)]


def _rep_setup(spec: RunSpec, rep: int) -> tuple[PolicyConfig, VerifierStream, dict]:
    """The policy config, the stream and the config echo of repetition
    `rep` of a spec."""
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
    return config, stream, echo


def run_rep(spec: RunSpec, rep: int, force_engine: bool = False) -> Trace:
    config, stream, echo = _rep_setup(spec, rep)
    return run_one(config, stream, spec.horizon, force_engine=force_engine, echo=echo)


def verify_bound(trace: Trace, delta: float = 0.05) -> dict:
    """Evaluate both finite-time error inequalities on a finished trace,
    or on anything else with a trace's `config` and `ledger`.

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
    """Recheck the trace-level guarantees the update rule carries, from
    the trace's columns, or from the certificate folded over them in
    chunks.

    Telescoping: the importance-weighted error sums recomputed from the
    records, each rounded once from its exact value, are bounded by the
    net threshold displacement over the step size (tolerance 1e-9). Band:
    both thresholds stay inside [-eta/q_min, 1 + eta/q_min]. Domination:
    unilateral policy errors never exceed the threshold-induced counts.
    """
    cert = trace if isinstance(trace, _Certificate) else _Certificate.of(trace)
    return cert.claims()


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


def _aggregate_point(job, runs: list) -> ParetoPoint:
    """The sweep row of a job, (alpha, beta), "oracle" or "weak_only", from
    the (outcome, err1, err2) of each repetition."""
    outs, err1s, err2s = zip(*runs)
    accs = np.array([out.accuracy for out in outs], dtype=np.float64)
    strongs = [out.strong_calls_per_problem for out in outs]
    reps = accs.size
    stderr = float(accs.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    anchor = isinstance(job, str)
    return ParetoPoint(
        alpha=None if anchor else job[0],
        beta=None if anchor else job[1],
        accuracy=float(accs.mean()),
        accuracy_stderr=stderr,
        strong_per_problem=float(np.mean(strongs)),
        weak_per_problem=float(np.mean([out.weak_calls_per_problem for out in outs])),
        err1=None if job == "weak_only" else float(np.mean(err1s)),
        err2=None if job == "weak_only" else float(np.mean(err2s)),
        reps=reps,
        is_oracle=job == "oracle",
        is_weak_only=job == "weak_only",
        rep_accuracy=tuple(float(a) for a in accs),
        rep_strong=tuple(float(s) for s in strongs),
    )


def _process_count() -> int:
    """How many processes `simulate`, `check` or a sweep may run at once:
    one per CPU this process may run on, and one where processes cannot be
    forked. So `taskset -c 0` runs each of them in one process."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _fork(work) -> Optional[tuple[int, io.FileIO]]:
    """Fork a process that runs `work(out)` on an in-memory binary file,
    writes what `out` then holds to a pipe and ends, with exit code 0 if
    all that succeeded and 1 if not. Returns its pid and the pipe's read
    end, or None where no process can be forked."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return None
    if pid:
        os.close(wfd)
        return pid, open(rfd, "rb", buffering=0)
    code = 1
    try:
        os.close(rfd)
        out = io.BytesIO()
        work(out)
        with open(wfd, "wb") as pipe:
            pipe.write(out.getbuffer())
        code = 0
    finally:
        os._exit(code)


def _wait(pid: int, what: str) -> None:
    """Wait for the process `pid` to end. Unless it exited 0, raise an
    error that says how the process `what` ended."""
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        how = f"signal {-code}" if code < 0 else f"exit code {code}"
        raise ChildProcessError(f"the process {what} ended by {how}")


def _reap(started) -> None:
    """Kill, and wait for, the process of each (pid, pipe) of `started`
    that has a pid: what a failed call leaves."""
    for pid, pipe in started:
        if pid is not None:
            import signal  # not with the package: only a failed call needs it

            # kill before waiting: the processes forked later hold this
            # pipe's read end too, so closing it does not stop the writer
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


def _rep_runs(policy_template: PolicyConfig, stream_spec: dict, jobs: list, seed_base: int, reps) -> list:
    """Per repetition of `reps`, in order, the (outcome, err1, err2) of each
    job: every row of a repetition reads a fresh stream of the repetition's
    seed, and those streams read one tape of candidates where the
    difficulty draws nothing (`_share_tape`), so each candidate is drawn
    once. On such a stream the policy rows run on the array kernel and the
    oracle anchor folds the tape's labels, with no per-item engine; other
    difficulties run both item by item. Only one repetition's tape is held."""
    out = []
    for rep in reps:
        stream_seed = derive_seed(seed_base, rep, _STREAM_CHANNEL)
        policy_seed = derive_seed(seed_base, rep, _POLICY_CHANNEL)
        first, runs = None, []
        for job in jobs:
            stream = make_stream(stream_spec, seed=stream_seed)._share_tape(first)
            first = first or stream
            if job == "oracle":
                runs.append((run_strong_only(stream), 0.0, 0.0))
            elif job == "weak_only":
                runs.append((run_weak_only(stream), None, None))
            else:
                config = dataclasses.replace(policy_template, alpha=job[0], beta=job[1], seed=policy_seed)
                trace = run_one(config, stream, horizon=None)
                runs.append((trace.outcome, trace.ledger.err_type1(), trace.ledger.err_type2()))
        out.append(runs)
    return out


def _sweep_rows(
    policy_template: PolicyConfig,
    stream_spec: dict,
    jobs: list,
    repetitions: int,
    seed_base: int,
) -> list[ParetoPoint]:
    """The rows of checked jobs, run repetition-major (`_rep_runs`).

    The repetitions are split into `min(_process_count(), repetitions)`
    contiguous shares, the larger first. A process is forked for each share
    but the first (`_fork`), then this process runs the first share, and
    then it reads each worker's pickled runs, in share order. Where a fork
    fails, this process runs that share and every later one itself; it runs
    them all where another thread is alive, since a fork copies only the
    calling thread. No worker outlives the call. The rows do not depend on
    the number of processes: repetition r reads the seeds of r alone."""
    _check_count("repetitions", repetitions, 1)
    _check_count("seed_base", seed_base, 0)
    if not make_stream(stream_spec).reactive:
        raise ValueError("sweeps need a task stream with per-problem outcomes")
    run = functools.partial(_rep_runs, policy_template, stream_spec, jobs, seed_base)
    procs = min(_process_count(), repetitions) if threading.active_count() == 1 else 1
    size, extra = divmod(repetitions, procs)
    starts = [i * size + min(i, extra) for i in range(procs + 1)]
    first, *rest = [range(a, b) for a, b in zip(starts, starts[1:])]
    started = []
    try:
        for share in rest:
            got = _fork(lambda out, share=share: pickle.dump(run(share), out, pickle.HIGHEST_PROTOCOL))
            if got is None:
                break
            started.append(got)
        per_rep = run(first)
        left = [runs for share in rest[len(started):] for runs in run(share)]
        while started:
            pid, pipe = started[0]
            with pipe:
                got = pipe.read()
            del started[0]
            _wait(pid, "running part of the sweep")
            per_rep += pickle.loads(got)
    finally:
        _reap(started)
    return [_aggregate_point(job, job_runs) for job, job_runs in zip(jobs, zip(*per_rep, *left))]


def sweep_point(
    policy_template: PolicyConfig,
    stream_spec: dict,
    target,
    repetitions: int,
    seed_base: int,
) -> ParetoPoint:
    """Evaluate one sweep row: target=(alpha, beta), "oracle", or "weak_only".

    Self-contained given its arguments, so rows can be computed in any
    order or split across processes and still match a serial sweep: a row
    reads the same candidates whether its repetition's tape is shared with
    other rows or not.
    """
    if not (isinstance(target, str) and target in ("oracle", "weak_only")):
        target = _check_pair("target", target)
    (row,) = _sweep_rows(policy_template, stream_spec, [target], repetitions, seed_base)
    return row


def sweep(
    policy_template: PolicyConfig,
    stream_spec: dict,
    targets: list,
    repetitions: int,
    seed_base: int,
) -> list[ParetoPoint]:
    """All target rows in order, then the oracle and weak-only anchors.

    The rows are run repetition-major. Where the stream's difficulty draws
    nothing (a point mass, as in every preset and every stepwise stream), a
    repetition's candidates are drawn once, every row of the repetition
    reads them, and the policy rows run on the array kernel; the rows equal
    those `sweep_point` computes one at a time.
    """
    if not targets:
        raise ValueError("sweep needs at least one (alpha, beta) target")
    jobs = [_check_pair(f"targets[{i}]", t) for i, t in enumerate(targets)]
    return _sweep_rows(policy_template, stream_spec, jobs + ["oracle", "weak_only"], repetitions, seed_base)
