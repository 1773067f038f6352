"""Fixed reference loads that measure how fast the host runs right now.

The machine this benchmark runs on is shared, and its speed changes in
spells of seconds to minutes (README.md, "Noise"). Process CPU time moves
with wall time, so the spells slow the code itself, and a median inside a
run cannot remove them. The benchmark therefore times a reference load in
the processes that do the measured work, next to that work, and reports
every time at the speed the host had when `REFERENCE_S` was set:

    time / (trimmed mean over the run of reference time / REFERENCE_S[kind])

The host flips between a fast and a slow state (about 1.7x apart) every
second or so, as well as in longer spells, so a reference run is in one
state or the other while an operation of a second averages over both: the
mean over the whole run, not the median, estimates the share of time spent
slow. Code of different kinds slows by different amounts in the same
spell, so each kind of work has a load of its own, built from nothing in
`src/` so that no change to the package can move it:

kernel   a pure-Python threshold recurrence over numpy arrays, element by
         element, as `_kernel.run_rounds` runs without numba (`replicate`)
engine   per-item method calls, small frozen dataclasses and enums, scalar
         numpy checks and one-draw generator calls, as the policy and task
         streams run per candidate (`task_sweep`)
encode   trace-like records built from numpy arrays, JSON-encoded one by
         one, joined and encoded to bytes, as `simulate` writes a trace
         (`trace_io`, `selverify simulate`)
decode   such a blob decoded, split into lines, each line JSON-decoded
         and a column gathered into an array, as `check` reads a trace
         (`trace_io`, `selverify check`)
mixed    kernel, engine and encode in turn, for interpreter start and
         import (`setup_s`)
"""

from __future__ import annotations

import dataclasses
import enum
import gc
import json
import statistics
import time

import numpy as np

# Each load's time in the host's fast state: the 10th percentile of its
# time over 25 s of the loads run in turn, on the machine the baselines in
# README.md were taken on (2 vCPUs, no numba). Their ratios to each other
# matter, since one run pools the loads it ran; their scale only makes the
# reported times those of the fast state.
REFERENCE_S = {"kernel": 0.0044, "engine": 0.0068, "encode": 0.0100, "decode": 0.0096,
               "mixed": 0.0216}

FOR_WORKLOAD = {"replicate": "kernel", "task_sweep": "engine"}
FOR_COMMAND = {"simulate": "encode", "check": "decode"}

_N_ROUNDS = 6000
_N_ITEMS = 1600
_N_ENCODE = 1200
_N_DECODE = 2400


def _kernel() -> None:
    rng = np.random.default_rng(20240601)
    w = rng.random(_N_ROUNDS)
    g = (rng.random(_N_ROUNDS) < 0.5).astype(np.int64)
    u = rng.random(_N_ROUNDS)
    region = np.empty(_N_ROUNDS, np.int64)
    tau_r = np.empty(_N_ROUNDS, np.float64)
    tau_a = np.empty(_N_ROUNDS, np.float64)
    tr, ta = 0.1, 0.9
    for t in range(_N_ROUNDS):
        wt = w[t]
        reg = 0 if wt > ta else (1 if wt < tr else 2)
        region[t] = reg
        q = 1.0 if reg == 2 else 0.1
        if reg == 2 or u[t] < q:
            gt = g[t]
            ind_a = 1.0 if wt > ta else 0.0
            new_a = ta + 0.05 * ((1.0 if gt == 0 else 0.0) * (ind_a - 0.15)) / q
            if new_a < tr:
                new_a = tr
            ind_r = 1.0 if wt < tr else 0.0
            new_r = tr + 0.05 * ((1.0 if gt == 1 else 0.0) * (0.15 - ind_r)) / q
            if new_r > new_a:
                new_r = new_a
            ta, tr = new_a, new_r
        tau_r[t] = tr
        tau_a[t] = ta


class _Region(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    UNCERTAIN = "uncertain"


@dataclasses.dataclass(frozen=True)
class _Bounds:
    lo: float
    hi: float


@dataclasses.dataclass
class _Record:
    w: float
    region: _Region
    bounds: _Bounds
    explored: bool


class _Gate:
    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.bounds = _Bounds(0.1, 0.9)
        self.history: list[_Record] = []

    def decide(self, w: float) -> _Record:
        w = float(w)
        if not (np.isfinite(w) and 0.0 <= w <= 1.0):
            raise ValueError(w)
        b = self.bounds
        if w > b.hi:
            region = _Region.ACCEPT
        else:
            region = _Region.REJECT if w < b.lo else _Region.UNCERTAIN
        explored = region is _Region.UNCERTAIN or self.rng.random() < 0.3
        return _Record(w, region, b, explored)

    def feedback(self, rec: _Record, g: int) -> None:
        b = rec.bounds
        hi = b.hi + 0.05 * ((1.0 if g == 0 else 0.0) - 0.15)
        lo = min(b.lo + 0.05 * ((1.0 if g == 1 else 0.0) - 0.15), hi)
        self.bounds = _Bounds(lo, hi)
        self.history.append(rec)


def _engine() -> None:
    rng = np.random.default_rng(20240602)
    gate = _Gate(rng)
    for _ in range(_N_ITEMS):
        rec = gate.decide(rng.beta(2.0, 3.0, 1)[0])
        if rec.explored:
            gate.feedback(rec, int(rng.random(1)[0] < 0.6))
        else:
            gate.history.append(rec)


def _encode(n: int = _N_ENCODE) -> bytes:
    rng = np.random.default_rng(20240603)
    w = rng.random(n)
    tau = rng.random(n)
    explored = rng.random(n) < 0.4
    recs = (
        {
            "t": t,
            "w": float(w[t]),
            "region": "accept" if w[t] > 0.5 else "reject",
            "tau_R_before": float(tau[t] * 0.5),
            "tau_A_before": float(1.0 - tau[t] * 0.5),
            "explored": bool(explored[t]),
        }
        for t in range(n)
    )
    return "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in recs).encode()


_BLOB = _encode(_N_DECODE)


def _decode() -> None:
    back = [json.loads(line) for line in _BLOB.decode().splitlines()]
    if np.array([r["w"] for r in back]).shape != (_N_DECODE,):
        raise RuntimeError("reference load went wrong")


_LOADS = {"kernel": (_kernel,), "engine": (_engine,), "encode": (_encode,), "decode": (_decode,)}
_LOADS["mixed"] = (_kernel, _engine, _encode)


def reference(kind: str) -> float:
    """Run one reference load; returns its wall time in seconds. The cyclic
    garbage collector is off meanwhile, so that what the package left on
    the heap cannot slow the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for load in _LOADS[kind]:
            load()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def probe(kind: str, n: int) -> list[float]:
    """n reference times measured now, after one untimed run that warms a
    process up again after it has started or waited."""
    reference(kind)
    return [reference(kind) for _ in range(n)]


def host_factor(samples: dict[str, list[float]], trim: float = 0.1) -> float:
    """What a time measured beside these reference times, by kind, is
    multiplied by to give it at the speed `REFERENCE_S` stands for. The
    mean drops the `trim` share of ratios at each end, which are rare
    stalls rather than the host's state."""
    ratios = sorted(t / REFERENCE_S[kind] for kind, times in samples.items() for t in times)
    cut = int(len(ratios) * trim)
    return 1.0 / statistics.fmean(ratios[cut:len(ratios) - cut])


def pool(samples: dict[str, list[float]], more: dict[str, list[float]]) -> None:
    """Add the reference times in `more` to `samples`, kind by kind."""
    for kind, times in more.items():
        samples.setdefault(kind, []).extend(times)
