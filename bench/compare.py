"""Compare two checkouts on one workload by alternating runs.

    python3 bench/compare.py --base DIR --head DIR --workload W
                             [--pairs 10] [--seconds 30] [--first-seed 1]

BASE and HEAD are two checkouts, each with its own `bench/` and `src/`
(say the parent commit and the change). Pair k runs both on seed
first-seed + k, one right after the other, base first in even pairs and
head first in odd ones, so a spell of slow machine falls on both sides
alike. For each end-to-end metric it prints each side's median and
quartiles, the median over pairs of head / base, and in how many pairs
head did better (ties count for neither side); a gain is claimed only
when head wins at least nine pairs in ten and the medians differ by more
than base's own quartile spread. It exits 1 if any run fails or reports
wrong outputs. This is how a change is compared with its parent on a
shared machine: the host-speed factor (README.md, "Reference speed")
removes most of the host's drift, not all of it, and runs made side by
side share what is left.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float, scale: float) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(checkout, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0", "--scale", repr(scale)],
        cwd=checkout, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"{checkout}: seed {seed} exited {out.returncode}\n{out.stderr[-2000:]}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{checkout}: seed {seed}: {res['failed']}/{res['attempted']} operations failed")
    return {k: v["value"] for k, v in res["metrics"].items()}


def quartiles(xs: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return {"median": q2, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True)
    p.add_argument("--head", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--scale", type=float, default=1.0)
    a = p.parse_args(argv)
    if a.pairs < 1:
        p.error("--pairs must be >= 1")
    with open(os.path.join(a.head, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    values = {"base": {}, "head": {}}
    for k in range(a.pairs):
        seed = a.first_seed + k
        sides = [("base", a.base), ("head", a.head)]
        if k % 2:
            sides.reverse()
        for side, path in sides:
            for name, value in run_once(path, a.workload, seed, a.seconds, a.scale).items():
                values[side].setdefault(name, []).append(value)
        print(f"pair {k} seed {seed}: " + " ".join(
            f"{n}={values['head'][n][-1] / values['base'][n][-1]:.3f}" for n in values["head"]
        ), flush=True)
    summary = {}
    for name, base in values["base"].items():
        head = values["head"][name]
        sign = 1 if better[name] == "higher" else -1
        summary[name] = {
            "base": quartiles(base),
            "head": quartiles(head),
            "head_over_base": statistics.median(h / b for h, b in zip(head, base)),
            "head_wins": sum(sign * (h - b) > 0 for h, b in zip(head, base)),
        }
    print(json.dumps({"workload": a.workload, "pairs": a.pairs, "metrics": summary}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
