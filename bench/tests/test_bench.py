"""Tests of the benchmark itself, at a tiny scale.

    python3 -m pytest bench/tests -q

They run the real command line with --scale 0.02, so each run takes a few
seconds, most of it interpreter start-up in the child processes.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench_run  # noqa: E402
import workloads  # noqa: E402

SCALE = "0.02"
SECONDS = "0.5"


def bench_args(workload, seed, trace):
    return ["--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
            "--trace", str(trace), "--scale", SCALE]


def run_bench(workload, seed, trace, cwd=ROOT, script=None):
    return subprocess.run(
        [sys.executable, script or os.path.join(BENCH, "run.py"), *bench_args(workload, seed, trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


_cache = {}


def result(workload, seed, trace):
    key = (workload, seed, trace)
    if key not in _cache:
        out = run_bench(workload, seed, trace)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.strip().splitlines()
        _cache[key] = json.loads(lines[-2]), json.loads(lines[-1])
    return _cache[key]


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_and_checks_out(workload):
    info, res = result(workload, 1, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= workloads.MIN_OPS[workload]
    assert res["failed"] == 0
    assert info["environment"]["kernel_path"] in ("numba", "python")
    assert info["named"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace, kind):
    _, res = result(workload, 1, trace)
    printed = {k: v["unit"] for k, v in res["metrics"].items()}
    assert printed == declared(kind)
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_are_never_zero(workload):
    _, res = result(workload, 1, 0)
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_the_outputs_unchanged(workload):
    untraced, _ = result(workload, 1, 0)
    traced, res = result(workload, 1, 1)
    assert res["correct"] is True
    assert traced["unwrapped"] == []
    assert traced["output_digest"] == untraced["output_digest"]
    assert res["metrics"]["trace_overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_another_seed_gives_other_outputs_and_the_same_metrics(workload):
    info1, res1 = result(workload, 1, 0)
    info2, res2 = result(workload, 2, 0)
    assert info1["output_digest"] != info2["output_digest"]
    assert set(res1["metrics"]) == set(res2["metrics"])


def _nudge_one_threshold(path):
    """Move one record's tau_A_after up by one ulp, keeping the encoding."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rec = json.loads(lines[5])
    rec["tau_A_after"] = float(np.nextafter(rec["tau_A_after"], np.inf))
    lines[5] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_a_threshold_moved_by_one_ulp_counts_as_a_failed_op(monkeypatch, capsys):
    real_spawn = bench_run.spawn

    def spawn_then_tamper(args, sidecar):
        rc, side = real_spawn(args, sidecar)
        if "simulate" in args:
            _nudge_one_threshold(args[args.index("-o") + 1])
        return rc, side

    monkeypatch.setattr(bench_run, "spawn", spawn_then_tamper)
    assert bench_run.main(bench_args("trace_io", 1, 0)) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["correct"] is False
    assert res["failed"] > 0


def test_host_factor_scales_to_reference_speed_and_drops_rare_stalls():
    import speed

    at_reference = {k: [v] * 9 for k, v in speed.REFERENCE_S.items()}
    assert speed.host_factor(at_reference) == pytest.approx(1.0)
    at_reference["kernel"].append(50 * speed.REFERENCE_S["kernel"])
    assert speed.host_factor(at_reference) == pytest.approx(1.0)
    twice_as_slow = {k: [2 * v] * 9 for k, v in speed.REFERENCE_S.items()}
    assert speed.host_factor(twice_as_slow) == pytest.approx(0.5)


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("replicate", 1, 0, cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_compare_alternates_two_checkouts_and_reports_ratios():
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "compare.py"), "--base", ROOT, "--head", ROOT,
         "--workload", "replicate", "--pairs", "2", "--seconds", SECONDS, "--scale", SCALE],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(summary["metrics"]) == set(declared("end_to_end"))
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["head_over_base"] == pytest.approx(1.0, rel=0.05)
    assert 0 <= rss["head_wins"] <= 2
