"""Spans around the package's layer boundaries, recorded from outside it.

The traced run wraps the functions each layer exposes (module functions
and class methods of `selverify`) in place, so the package itself carries
no tracing code. A span is (name, start, end, parent, operation id); spans
live in flat arrays while the run lasts and are written out once at the
end. A layer's self time is its span's duration minus the durations of its
direct child spans (the program is single-threaded, so children never
overlap).

Wrapping is done by introspection where it can be, so a later refactor
that renames a class does not break the traced run: a target that no
longer exists is skipped and listed under `unwrapped`.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

# Per-call latency percentiles, in microseconds: (metric, span, percentile).
LATENCY_METRICS = (
    ("policy.decide_us_p50", "policy.decide", 50),
    ("policy.decide_us_p99", "policy.decide", 99),
    ("policy.feedback_us_p50", "policy.feedback", 50),
    ("policy.feedback_us_p99", "policy.feedback", 99),
    ("policy.advance_us_p50", "policy.advance", 50),
)

# Seconds per operation spent inside a span, summed over the operation:
# (metric, span, "total" or "self").
TIME_METRICS = (
    ("experiments.run_rep_s", "experiments.run_rep", "total"),
    ("experiments.run_rep_self_s", "experiments.run_rep", "self"),
    ("kernel.run_rounds_s", "_kernel.run_rounds", "total"),
    ("streams.take_s", "streams.take", "total"),
    ("experiments.iter_records_s", "experiments.iter_records", "total"),
    ("cli.simulate_self_s", "cli.simulate", "self"),
    ("cli.check_self_s", "cli.check", "self"),
    ("experiments.from_records_s", "experiments.from_records", "total"),
    ("experiments.recompute_ledger_s", "experiments.recompute_ledger", "total"),
    ("metrics.verify_bound_s", "metrics.verify_bound", "total"),
    ("experiments.check_claims_s", "experiments.check_claims", "total"),
    ("streams.next_s", "streams.next", "total"),
    ("streams.react_s", "streams.react", "total"),
    ("distributions.sample_s", "distributions.sample", "total"),
    ("streams.weak_only_s", "streams.weak_only", "total"),
    ("streams.strong_only_s", "streams.strong_only", "total"),
    ("experiments.engine_self_s", "experiments.engine", "self"),
)

# Counts over the fixed operation set (the digest operations), so that the
# same seed gives the same counts on any machine and any commit that keeps
# the behaviour.
COUNT_METRICS = (
    "cli.trace_bytes",
    "kernel.rounds",
    "policy.decide_calls",
    "streams.strong_calls",
    "streams.weak_calls",
    "distributions.sample_calls",
)

RATIO_METRICS = (
    # decisive rounds over exploration uniforms drawn (kernel path)
    ("experiments.uniforms_used_ratio", "uniforms_used", "uniforms_drawn"),
    # escalated rounds over decided rounds, on whichever path decided them
    ("policy.escalation_ratio", "escalated", "decided"),
)

PER_LAYER_UNITS = {
    **{name: "us/call" for name, _, _ in LATENCY_METRICS},
    **{name: "s/op" for name, _, _ in TIME_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "cli.trace_bytes": "bytes",
    **{name: "ratio" for name, _, _ in RATIO_METRICS},
    "trace_overhead_ratio": "ratio",
}


class Tracer:
    """Span store plus the counters the wrapped boundaries update."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.unwrapped: list[str] = []
        self._undo: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    # -- wrapping -----------------------------------------------------

    def timed(self, fn, span: str, observe=None):
        nid = self.name_id(span)
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if observe is not None:
                observe(tracer.counts, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_generator(self, fn, span: str):
        """Times each step of a generator; the consumer's work between
        steps stays outside the span."""
        nid = self.name_id(span)
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                i = tracer.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.close(i)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, span: str, observe=None, generator=False) -> None:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if not hasattr(owner, attr):
            self.unwrapped.append(label)
            return
        own = attr in vars(owner)
        raw = vars(owner)[attr] if own else None
        fn = getattr(owner, attr)
        wrapped = self.timed_generator(fn, span) if generator else self.timed(fn, span, observe)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, own, raw))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, own, raw = self._undo.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- results --------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, and the per-call
        latency samples the percentile metrics need. A span nested in a
        span of its own name (a mixture sampling its components) is left
        out of its name's calls and total, so nothing is counted twice."""
        a = self.arrays()
        n = a["name"].size
        if n == 0:
            return {"spans": {}, "latency_us": {}}
        dur = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        parent_name = np.where(has_parent, a["name"][np.maximum(parent, 0)], -1)
        outer = parent_name != a["name"]
        spans = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            top = mask & outer
            spans[name] = {
                "calls": int(top.sum()),
                "total_s": float(dur[top].sum()),
                "self_s": float(self_t[mask].sum()),
            }
        latency = {}
        for _, span, _ in LATENCY_METRICS:
            nid = self._ids.get(span)
            if nid is not None and span not in latency:
                latency[span] = (dur[a["name"] == nid] * 1e6).tolist()
        return {"spans": spans, "latency_us": latency}


def _observe_kernel(counts, args, out) -> None:
    action, cursor = out[1], out[-1]
    rounds = int(action.shape[0])
    counts["kernel.rounds"] += rounds
    counts["uniforms_drawn"] += int(args[2].shape[0])
    counts["uniforms_used"] += int(cursor)
    counts["decided"] += rounds
    counts["escalated"] += int((action == 2).sum())


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the three workloads cross."""
    import selverify.cli as cli
    import selverify._kernel as kernel
    import selverify.distributions as distributions
    import selverify.experiments as experiments
    import selverify.policy as policy
    import selverify.streams as streams

    strong_verify = policy.Action.STRONG_VERIFY

    def observe_decide(counts, args, rec):
        counts["policy.decide_calls"] += 1
        counts["decided"] += 1
        counts["escalated"] += rec.action is strong_verify

    def observe_sample(counts, args, out):
        counts["distributions.sample_calls"] += 1

    def observe_strong(counts, args, out):
        counts["streams.strong_calls"] += 1

    # cli binds these names at import, so they are wrapped where it looks
    # them up as well as where they are defined
    tracer.patch(cli, "cmd_simulate", "cli.simulate")
    tracer.patch(cli, "cmd_check", "cli.check")
    for mod in (cli, experiments):
        tracer.patch(mod, "run_rep", "experiments.run_rep")
        tracer.patch(mod, "verify_bound", "metrics.verify_bound")
        tracer.patch(mod, "check_claims", "experiments.check_claims")
    tracer.patch(kernel, "run_rounds", "_kernel.run_rounds", _observe_kernel)
    tracer.patch(experiments.Trace, "iter_records", "experiments.iter_records", generator=True)
    tracer.patch(experiments.Trace, "from_records", "experiments.from_records")
    tracer.patch(experiments, "recompute_ledger", "experiments.recompute_ledger")
    tracer.patch(experiments, "_run_engine", "experiments.engine")
    tracer.patch(experiments, "run_strong_only", "streams.strong_only")
    tracer.patch(experiments, "run_weak_only", "streams.weak_only")
    tracer.patch(policy.VerificationPolicy, "decide", "policy.decide", observe_decide)
    tracer.patch(policy.VerificationPolicy, "feedback", "policy.feedback")
    tracer.patch(policy.VerificationPolicy, "advance", "policy.advance")
    for cls in _subclasses(streams, streams.VerifierStream):
        for attr, span, observe in (
            ("take", "streams.take", None),
            ("next", "streams.next", None),
            ("react", "streams.react", None),
            ("answer_strong_query", "streams.answer_strong_query", observe_strong),
        ):
            if attr in vars(cls):
                tracer.patch(cls, attr, span, observe)
    for cls in _subclasses(distributions, distributions.ScoreDist):
        if "sample" in vars(cls):
            tracer.patch(cls, "sample", "distributions.sample", observe_sample)


def _subclasses(module, base) -> list:
    return [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, base) and obj is not base
    ]


def merge_summaries(summaries: list[dict]) -> dict:
    spans: dict = {}
    latency: dict = {}
    for s in summaries:
        for name, v in s["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += v[k]
        for name, samples in s["latency_us"].items():
            latency.setdefault(name, []).extend(samples)
    return {"spans": spans, "latency_us": latency}


def layer_metrics(summary: dict, counts: dict, timed_ops: int, overhead: float) -> dict:
    """The per-layer metrics: times per timed operation, latencies per
    call, counts and ratios over the digest operations. A layer the
    workload never enters reads 0."""
    out = {}
    spans = summary["spans"]
    for metric, span, field in TIME_METRICS:
        s = spans.get(span)
        out[metric] = (s[field + "_s"] / timed_ops) if s and timed_ops else 0.0
    for metric, span, pct in LATENCY_METRICS:
        samples = summary["latency_us"].get(span)
        out[metric] = float(np.percentile(samples, pct)) if samples else 0.0
    for metric in COUNT_METRICS:
        out[metric] = int(counts.get(metric, 0))
    for metric, num, den in RATIO_METRICS:
        d = counts.get(den, 0)
        out[metric] = counts.get(num, 0) / d if d else 0.0
    out["trace_overhead_ratio"] = overhead
    return out
