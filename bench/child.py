"""Child processes of the benchmark. `run.py` starts one at a time.

    child.py cli SIDECAR SPAWNED_AT TRACE -- <selverify arguments>
        Runs one `selverify` command as a user would, through the same
        `selverify.cli.main` the console script calls. Writes the time to
        import the package, the command's own wall and CPU time, the times
        of speed.py's reference loads run right after the import and just
        before and just after the command and, when TRACE is 1, its span
        summary to the SIDECAR JSON file.

    child.py worker SIDECAR SPAWNED_AT WORKLOAD SEED SECONDS TRACE SCALE SETUP_ONLY
        Sets up the replicate or task_sweep workload (import, inputs,
        warm-up) and times speed.py's set-up reference load, then runs its
        operations for SECONDS, timing the workload's reference load after
        each untraced one, and writes per-op timings, reference times, outputs
        and digests to SIDECAR. With SETUP_ONLY it exits once set up, so
        the parent can sample setup time.

SPAWNED_AT is the parent's CLOCK_MONOTONIC reading just before it started
this process, so setup time includes interpreter start.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS_DIR = os.path.join(ROOT, ".bench_work", "spans")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    """This process's own peak resident set since exec. getrusage would
    also count the parent's pages the child held between fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _write(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def cli_main(sidecar: str, spawned_at: float, trace: bool, argv: list[str]) -> int:
    import selverify.cli

    ready = _now()
    import speed

    setup_refs = speed.probe("mixed", 3)
    kind = speed.FOR_COMMAND[argv[0]]
    before = speed.probe(kind, 4)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        tracer.op_id = 0
    cpu0 = time.process_time()
    start = _now()
    rc = selverify.cli.main(argv)
    done = _now()
    out = {
        "setup_s": ready - spawned_at,
        "cmd_s": done - start,
        "cmd_cpu_s": time.process_time() - cpu0,
        "peak_rss_mb": peak_rss_mb(),
        "rc": rc,
    }
    out["reference_s"] = {"mixed": setup_refs, kind: before + speed.probe(kind, 4)}
    if tracer is not None:
        tracer.unpatch()
        out["summary"] = tracer.summary()
        out["counts"] = dict(tracer.counts)
        out["unwrapped"] = tracer.unwrapped
        os.makedirs(SPANS_DIR, exist_ok=True)
        tracer.save(os.path.join(SPANS_DIR, os.path.basename(sidecar) + ".npz"))
    _write(sidecar, out)
    return rc


class _Replicate:
    def __init__(self, seed: int, scale: float):
        import selverify.experiments
        import workloads

        self.ex = selverify.experiments
        self.w = workloads
        self.seed, self.scale = seed, scale

    def warm_up(self) -> None:
        spec, rep = self.w.replicate_op(self.seed, 0, 0.02)
        trace = self.ex.run_rep(spec, rep)
        self.ex.verify_bound(trace, self.w.DELTA)
        self.ex.check_claims(trace)

    def op(self, i: int) -> dict:
        spec, rep = self.w.replicate_op(self.seed, i, self.scale)
        c0 = time.process_time()
        t0 = time.perf_counter()
        trace = self.ex.run_rep(spec, rep)
        self.ex.verify_bound(trace, self.w.DELTA)
        claims = self.ex.check_claims(trace)
        t1 = time.perf_counter()
        cpu = time.process_time() - c0
        return {
            "part": 1 + i % 2,
            "wall_s": t1 - t0,
            "cpu_s": cpu,
            "work": len(trace),
            "ok": bool(claims["pass"]) and len(trace) == spec.horizon,
            "digest": self.w.threshold_digest(trace),
            "trace_digest": self.w.trace_digest(trace),
        }


class _TaskSweep:
    def __init__(self, seed: int, scale: float):
        import selverify.experiments
        import workloads

        self.ex = selverify.experiments
        self.w = workloads
        self.seed, self.scale = seed, scale
        self.template = workloads.sweep_template()

    def warm_up(self) -> None:
        for i in range(2):
            stream, _, seed_base = self.w.sweep_op(self.seed, i, 0.02)
            self.ex.sweep(self.template, stream, self.w.SWEEP_TARGETS, 1, seed_base)

    def op(self, i: int) -> dict:
        stream, reps, seed_base = self.w.sweep_op(self.seed, i, self.scale)
        c0 = time.process_time()
        t0 = time.perf_counter()
        rows = self.ex.sweep(self.template, stream, self.w.SWEEP_TARGETS, reps, seed_base)
        t1 = time.perf_counter()
        cpu = time.process_time() - c0
        problems = self.w.problems_of(stream)
        rows_json = [self.w.row_json(r) for r in rows]
        return {
            "part": 1 + i % 2,
            "wall_s": t1 - t0,
            "cpu_s": cpu,
            "work": problems * reps * len(rows),
            "rows": rows_json,
            "digest": self.w.sha256_hex(*(r.encode() for r in rows_json)),
            "weak_calls": sum(round(r.weak_per_problem * problems * r.reps) for r in rows),
        }


def worker_main(sidecar, spawned_at, workload, seed, seconds, trace, scale, setup_only) -> int:
    import speed
    import workloads

    runner = {"replicate": _Replicate, "task_sweep": _TaskSweep}[workload](seed, scale)
    runner.warm_up()
    ready = _now()
    out = {"setup_s": ready - spawned_at, "reference_s": {"mixed": speed.probe("mixed", 3)}}
    if setup_only:
        _write(sidecar, out)
        return 0
    min_ops = workloads.MIN_OPS[workload]
    kind = speed.FOR_WORKLOAD[workload]
    ops, traced, refs = [], [], []
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        fixed_counts = {}
    end = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < end:
        ops.append(runner.op(i))
        if tracer is None:
            # the host's speed, sampled between operations
            refs.append(speed.reference(kind))
        else:
            tracer.op_id = i
            tracer.counts.clear()
            tracing.instrument(tracer)
            try:
                rec = runner.op(i)
            finally:
                tracer.unpatch()
            if "weak_calls" in rec:
                tracer.counts["streams.weak_calls"] += rec["weak_calls"]
            if i < min_ops:
                for k, v in tracer.counts.items():
                    fixed_counts[k] = fixed_counts.get(k, 0) + v
            traced.append(rec)
        i += 1
    out["ops"] = ops
    out["reference_s"][kind] = refs
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        out["traced_ops"] = traced
        out["summary"] = tracer.summary()
        out["counts"] = fixed_counts
        out["unwrapped"] = tracer.unwrapped
        os.makedirs(SPANS_DIR, exist_ok=True)
        tracer.save(os.path.join(SPANS_DIR, workload + ".npz"))
    _write(sidecar, out)
    return 0


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    mode, sidecar, spawned_at = argv[0], argv[1], float(argv[2])
    if mode == "cli":
        trace = argv[3] == "1"
        if argv[4] != "--":
            raise SystemExit("child.py cli: expected -- before the command")
        return cli_main(sidecar, spawned_at, trace, argv[5:])
    if mode == "worker":
        workload, seed, seconds, trace, scale, setup_only = argv[3:9]
        return worker_main(
            sidecar, spawned_at, workload, int(seed), float(seconds),
            trace == "1", float(scale), setup_only == "1",
        )
    raise SystemExit(f"child.py: unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
