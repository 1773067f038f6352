"""selverify benchmark: one workload per invocation, closed loop, one process.

    python3 bench/run.py --workload {trace_io,replicate,task_sweep}
                         --seed N --seconds S --trace {0,1} [--scale F]

Run from anywhere; the program is taken from `src/` next to this
directory, never from an installed copy. Operations run one after another
from this one process, with at most one child process at a time, until
S seconds of operations have run (and at least the workload's digest
operations). Every output is checked, then the last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 each operation runs once untraced and once traced, and the
metrics are the per-layer ones. The line before it is a JSON object with
the environment, the output digest and the workload-specific figures.
--scale shrinks every input (the tests use it); leave it at 1 to measure.
See README.md next to this file for what each figure means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(BENCH, "child.py")

# Extra processes per replicate/task_sweep run that only set up and exit,
# so setup_s is a median over several starts.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "part1_s": "s",
    "part2_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def median(xs) -> float:
    return float(statistics.median(xs))


class ChildFailed(RuntimeError):
    pass


def spawn(args: list[str], sidecar: str) -> tuple[int, dict]:
    """Run one child to completion; returns its exit code and the sidecar
    it wrote (empty if it wrote none). A child past the deadline is killed
    and reported as exit code -9."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        rc = subprocess.run(
            [sys.executable, CHILD, args[0], sidecar, repr(_now()), *args[1:]],
            env=env,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            timeout=CHILD_TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        rc = -9
    side = {}
    if os.path.exists(sidecar):
        with open(sidecar, encoding="utf-8") as fh:
            side = json.load(fh)
        os.remove(sidecar)
    return rc, side


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import workloads

    src = hashlib.sha256()
    pkg = os.path.join(SRC, "selverify")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "kernel_path": workloads.kernel_path(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def git_commit():
    """HEAD's commit when this checkout is a git work tree, else None."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.splitlines()
    # a checkout nested in some other repository must not report that one's HEAD
    if out.returncode != 0 or len(lines) != 2 or not os.path.samefile(lines[0], ROOT):
        return None
    return lines[1]


def cycle_rates(cycles: list[dict], factor: float) -> tuple[float, float, float]:
    """Median work per second over whole cycles: of time at reference
    speed (wall time x factor), of wall time and of CPU time. CPU time is
    recorded beside wall time so that a run slowed by waiting shows as a
    gap between the two."""
    per_wall_s = median(c["work"] / c["wall"] for c in cycles)
    return per_wall_s / factor, per_wall_s, median(c["work"] / c["cpu"] for c in cycles)


# -- trace_io -------------------------------------------------------------


def run_trace_io(a, w) -> dict:
    import speed
    import tracer as tracing

    min_ops = w.MIN_OPS["trace_io"]
    setups, sims, checks, cycles, refs = [], [], [], [], {}
    attempted = failed = 0
    digests, problems, summaries = [], [], []
    counts = {}
    traced_s = untraced_s = 0.0
    unwrapped = set()
    spent = 0.0
    i = 0
    while i < min_ops or spent < a.seconds:
        t0 = _now()
        cfg = w.trace_io_config(a.seed, i, a.scale)
        cfg_path = os.path.join(WORK, f"config-{i}.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        first = None
        for traced in (False, True) if a.trace else (False,):
            flag = "1" if traced else "0"
            out = os.path.join(WORK, f"trace-{i}-{flag}.jsonl")
            s_rc, sim = spawn(["cli", flag, "--", "simulate", "-c", cfg_path, "-o", out],
                              os.path.join(WORK, f"sim-{i}-{flag}.json"))
            c_rc, chk = spawn(["cli", flag, "--", "check", out],
                              os.path.join(WORK, f"check-{i}-{flag}.json"))
            attempted += 2
            if s_rc != 0 or not os.path.exists(out) or "cmd_s" not in sim or "cmd_s" not in chk:
                failed += 2
                problems.append(f"round trip {i}: simulate exited {s_rc}, check exited {c_rc}")
                continue
            digest = file_sha256(out)
            size = os.path.getsize(out)
            # an operation is one command: simulate fails on a wrong file,
            # check on a wrong verdict
            if first is None:
                first = digest
                sim_bad, verdict = w.check_trace_file(out, cfg)
                # a bound miss is rare but legitimate; check must report it
                expect_rc = 0 if verdict else 1
            else:
                sim_bad = [] if digest == first else ["traced output differs from untraced"]
            chk_bad = [] if c_rc == expect_rc else [f"check exited {c_rc}, expected {expect_rc}"]
            os.remove(out)
            failed += bool(sim_bad) + bool(chk_bad)
            problems.extend(f"round trip {i}{' traced' if traced else ''}: {b}"
                            for b in sim_bad + chk_bad)
            if traced:
                traced_s += sim["cmd_s"] + chk["cmd_s"]
                summaries += [sim["summary"], chk["summary"]]
                unwrapped.update(sim["unwrapped"] + chk["unwrapped"])
                if i < min_ops:
                    for side in (sim, chk):
                        for k, v in side["counts"].items():
                            counts[k] = counts.get(k, 0) + v
                    counts["cli.trace_bytes"] = counts.get("cli.trace_bytes", 0) + size
                continue
            untraced_s += sim["cmd_s"] + chk["cmd_s"]
            if i < min_ops:
                digests.append(digest)
            speed.pool(refs, sim["reference_s"])
            speed.pool(refs, chk["reference_s"])
            setups += [sim["setup_s"], chk["setup_s"]]
            sims.append((sim["cmd_s"], sim["cmd_cpu_s"], sim["peak_rss_mb"]))
            checks.append((chk["cmd_s"], chk["cmd_cpu_s"], chk["peak_rss_mb"]))
            cycles.append({
                "work": sum(seg["length"] for seg in cfg["stream"]["segments"]),
                "wall": sim["cmd_s"] + chk["cmd_s"],
                "cpu": sim["cmd_cpu_s"] + chk["cmd_cpu_s"],
            })
        os.remove(cfg_path)
        i += 1
        spent += _now() - t0
    if not untraced_s:
        raise ChildFailed("no round trip completed: " + "; ".join(problems[:3]))
    report = {"attempted": attempted, "failed": failed, "problems": problems,
              "digest": w.combined_digest(digests)}
    if a.trace:
        overhead = traced_s / untraced_s
        report["metrics"] = tracing.layer_metrics(
            tracing.merge_summaries(summaries), counts, i, overhead
        )
        report["unwrapped"] = sorted(unwrapped)
        return report
    # one factor for the run, from the reference times of all its
    # processes (speed.py)
    factor = speed.host_factor(refs)
    per_s, per_wall_s, per_cpu_s = cycle_rates(cycles, factor)
    sim_rss = median(s[2] for s in sims)
    check_rss = median(c[2] for c in checks)
    report["metrics"] = {
        "setup_s": median(setups) * factor,
        "part1_s": median(s[0] for s in sims) * factor,
        "part2_s": median(c[0] for c in checks) * factor,
        "work_per_s": per_s,
        "peak_rss_mb": max(sim_rss, check_rss),
    }
    report["named"] = {
        "simulate_s": report["metrics"]["part1_s"],
        "simulate_wall_s": median(s[0] for s in sims),
        "simulate_cpu_s": median(s[1] for s in sims),
        "simulate_peak_rss_mb": sim_rss,
        "check_s": report["metrics"]["part2_s"],
        "check_wall_s": median(c[0] for c in checks),
        "check_cpu_s": median(c[1] for c in checks),
        "check_peak_rss_mb": check_rss,
        "rounds_per_s": per_s,
        "rounds_per_wall_s": per_wall_s,
        "rounds_per_cpu_s": per_cpu_s,
        "setup_wall_s": median(setups),
        "host_factor": factor,
        "round_trips": len(cycles),
    }
    return report


# -- replicate and task_sweep ---------------------------------------------


def run_worker(a, w) -> dict:
    import speed
    import tracer as tracing

    base = [a.workload, str(a.seed), repr(a.seconds), "1" if a.trace else "0", repr(a.scale)]
    setups, refs = [], {}
    for k in range(0 if a.trace else SETUP_PROBES):
        rc, side = spawn(["worker", *base, "1"], os.path.join(WORK, f"probe-{k}.json"))
        if rc != 0 or "setup_s" not in side:
            raise ChildFailed(f"setup probe exited {rc}")
        setups.append(side["setup_s"])
        speed.pool(refs, side["reference_s"])
    rc, side = spawn(["worker", *base, "0"], os.path.join(WORK, "worker.json"))
    if rc != 0 or "ops" not in side:
        raise ChildFailed(f"worker exited {rc}")
    setups.append(side["setup_s"])
    speed.pool(refs, side["reference_s"])
    ops = side["ops"]
    min_ops = w.MIN_OPS[a.workload]
    check = check_replicate if a.workload == "replicate" else check_task_sweep
    attempted, failed, problems = check(a, w, ops, min_ops)
    report = {
        "problems": problems,
        "digest": w.combined_digest([op["digest"] for op in ops[:min_ops]]),
    }
    if a.trace:
        # each traced repetition or sweep row is checked against its
        # untraced twin, whole sweeps at once through the sweep's digest
        traced = side["traced_ops"]
        for i, (op, tr) in enumerate(zip(ops, traced)):
            size = len(op.get("rows", (None,)))
            attempted += size
            if tr["digest"] != op["digest"]:
                failed += size
                problems.append(f"operation {i}: traced output differs from untraced")
        overhead = sum(t["wall_s"] for t in traced) / sum(o["wall_s"] for o in ops)
        report["metrics"] = tracing.layer_metrics(side["summary"], side["counts"], len(traced), overhead)
        report["unwrapped"] = side["unwrapped"]
        return {**report, "attempted": attempted, "failed": failed}
    # one factor for the run, from the reference times of all its
    # processes (speed.py)
    factor = speed.host_factor(refs)
    # a cycle is one operation of each part
    cycles = [
        {
            "work": ops[k]["work"] + ops[k + 1]["work"],
            "wall": ops[k]["wall_s"] + ops[k + 1]["wall_s"],
            "cpu": ops[k]["cpu_s"] + ops[k + 1]["cpu_s"],
        }
        for k in range(0, len(ops) - 1, 2)
    ]
    parts = {1: [], 2: []}
    for op in ops:
        parts[op["part"]].append(op["wall_s"])
    per_s, per_wall_s, per_cpu_s = cycle_rates(cycles, factor)
    report["metrics"] = {
        "setup_s": median(setups) * factor,
        "part1_s": median(parts[1]) * factor,
        "part2_s": median(parts[2]) * factor,
        "work_per_s": per_s,
        "peak_rss_mb": side["peak_rss_mb"],
    }
    unit = w.PARTS[a.workload][2]
    report["named"] = {
        "part1_wall_s": median(parts[1]),
        "part2_wall_s": median(parts[2]),
        f"{unit}_per_s": per_s,
        f"{unit}_per_wall_s": per_wall_s,
        f"{unit}_per_cpu_s": per_cpu_s,
        "setup_wall_s": median(setups),
        "host_factor": factor,
        "peak_rss_mb": side["peak_rss_mb"],
        "cycles": len(cycles),
    }
    return {**report, "attempted": attempted, "failed": failed}


def check_replicate(a, w, ops, min_ops) -> tuple[int, int, list[str]]:
    """Every repetition keeps its claims. Two, one of the digest operations
    and one of the rest, equal the reference engine bit for bit."""
    import selverify

    rng = random.Random(a.seed)
    sample = [rng.randrange(min_ops)]
    if len(ops) > min_ops:
        sample.append(rng.randrange(min_ops, len(ops)))
    bad = {i for i, op in enumerate(ops) if not op["ok"]}
    problems = [f"repetition {i}: claims or length check failed" for i in sorted(bad)]
    for i in sample:
        spec, rep = w.replicate_op(a.seed, i, a.scale)
        ref = selverify.run_rep(spec, rep, force_engine=True)
        if w.trace_digest(ref) != ops[i]["trace_digest"]:
            bad.add(i)
            problems.append(f"repetition {i}: kernel trace differs from the reference engine")
    return len(ops), len(bad), problems


def check_task_sweep(a, w, ops, min_ops) -> tuple[int, int, list[str]]:
    """The digest sweeps and one more, recomputed row by row in scrambled
    order, equal the serial sweep. Every row so checked is an operation;
    the rows of the other sweeps are timed but not counted."""
    sample = list(range(min_ops))
    if len(ops) > min_ops:
        sample.append(random.Random(a.seed).randrange(min_ops, len(ops)))
    bad = w.check_sweep_rows([(i, ops[i]["rows"]) for i in sample], a.seed, a.scale)
    problems = [f"sweep {i} row {j}: differs from sweep_point" for i, j in sorted(bad)]
    return sum(len(ops[i]["rows"]) for i in sample), len(bad), problems


# -- entry ------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("trace_io", "replicate", "task_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0)
    a = p.parse_args(argv)
    if a.seed < 0 or a.seconds <= 0 or a.scale <= 0:
        p.error("--seed must be >= 0, --seconds and --scale > 0")
    return a


def main(argv=None) -> int:
    a = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "selverify", "__init__.py")):
        print(f"error: no selverify sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    import tracer as tracing
    import workloads

    runner = run_trace_io if a.workload == "trace_io" else run_worker
    try:
        rep = runner(a, w=workloads)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = rep["attempted"]
    info = {
        "workload": a.workload,
        "seed": a.seed,
        "trace": a.trace,
        "environment": environment(),
        "output_digest": rep["digest"],
        "parts": dict(zip(("part1", "part2", "work"), workloads.PARTS[a.workload])),
        "named": rep.get("named", {}),
        "unwrapped": rep.get("unwrapped", []),
        "failed_ops": f"{rep['failed']}/{attempted}",
        "problems": rep["problems"][:20],
    }
    print(json.dumps(info, sort_keys=True))
    units = tracing.PER_LAYER_UNITS if a.trace else END_TO_END_UNITS
    result = {
        "correct": rep["failed"] == 0,
        "attempted": attempted,
        "failed": rep["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in rep["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
