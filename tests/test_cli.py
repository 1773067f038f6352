"""Command-line surface: file formats, override handling, exit codes."""

import errno
import functools
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import selverify
from selverify import cli, experiments
from selverify import (
    BetaDist,
    MixtureDist,
    ParetoPoint,
    PointMass,
    PolicyConfig,
    RunSpec,
    Trace,
    UniformDist,
    kernel_backend,
    preset_drift,
    preset_math_like,
    run_rep,
    sweep,
    verify_bound,
)
from selverify.cli import (
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    SWEEP_COLUMNS,
    main,
    point_from_row,
    point_to_row,
)

POLICY = {
    "alpha": 0.15,
    "beta": 0.15,
    "eta": 0.05,
    "q_accept": 0.1,
    "q_reject": 0.1,
    "tau_reject_init": 0.1,
    "tau_accept_init": 0.9,
    "seed": 0,
}


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def simulate_config(tmp_path, **kw):
    cfg = {
        "policy": dict(POLICY),
        "stream": {"kind": "calibrated", "score_dist": UniformDist().to_dict(), "seed": 0},
        "horizon": 1000,
        "seed_base": 0,
    }
    cfg.update(kw)
    return write_config(tmp_path, "sim.json", cfg)


STEPWISE_SPEC = {
    "kind": "stepwise",
    "episodes": 60,
    "steps": 4,
    "step_correct_prob": 0.8,
    "correct_scores": BetaDist(8.0, 2.0).to_dict(),
    "incorrect_scores": BetaDist(3.0, 6.0).to_dict(),
    "retries": 2,
    "seed": 0,
}


def read_lines(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestSimulate:
    def test_trace_file_layout(self, tmp_path, capsys):
        cfg = simulate_config(tmp_path)
        out = tmp_path / "trace.jsonl"
        assert main(["simulate", "-c", cfg, "-o", str(out)]) == EXIT_OK
        lines = read_lines(out)
        assert len(lines) == 1002
        header, records, summary = lines[0], lines[1:-1], lines[-1]
        assert "config" in header and "version" in header
        assert header["config"]["policy"]["alpha"] == 0.15
        assert header["config"]["rep"] == 0
        assert {"metrics", "bounds"} <= set(summary)
        assert {"err_type1", "err_type2", "err_type1_threshold",
                "err_type2_threshold", "sv_rate"} == set(summary["metrics"])
        trace = Trace.from_records(header["config"], records)
        assert len(trace) == 1000
        assert summary["metrics"]["err_type1"] == trace.ledger.err_type1()
        stdout = capsys.readouterr().out
        assert "wrote 1000 rounds" in stdout
        assert "bound type1:" in stdout

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = simulate_config(tmp_path)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["simulate", "-c", cfg, "-o", str(a)]) == EXIT_OK
        assert main(["simulate", "-c", cfg, "-o", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_override_supersedes_and_is_echoed(self, tmp_path):
        cfg = simulate_config(tmp_path)
        out = tmp_path / "t.jsonl"
        code = main(
            ["simulate", "-c", cfg, "-o", str(out), "--set", "policy.alpha=0.05"]
        )
        assert code == EXIT_OK
        header = read_lines(out)[0]
        assert header["config"]["policy"]["alpha"] == 0.05

    def test_seed_flag_overrides_seed_base(self, tmp_path):
        cfg = simulate_config(tmp_path)
        out = tmp_path / "t.jsonl"
        assert main(["simulate", "-c", cfg, "-o", str(out), "--seed", "7"]) == EXIT_OK
        assert read_lines(out)[0]["config"]["seed_base"] == 7

    def test_rep_selects_one_repetition(self, tmp_path):
        out0, out2 = tmp_path / "r0.jsonl", tmp_path / "r2.jsonl"
        main(["simulate", "-c", simulate_config(tmp_path), "-o", str(out0)])
        main(["simulate", "-c", simulate_config(tmp_path, rep=2), "-o", str(out2)])
        h0, h2 = read_lines(out0)[0], read_lines(out2)[0]
        assert h0["config"]["rep"] == 0
        assert h2["config"]["rep"] == 2
        assert h0["config"]["policy"]["seed"] != h2["config"]["policy"]["seed"]

    def test_missing_config_is_an_io_error(self, tmp_path):
        assert main(["simulate", "-c", str(tmp_path / "nope.json")]) == EXIT_IO

    def test_garbage_config_is_an_io_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "-c", str(bad)]) == EXIT_IO

    def test_unknown_override_path_is_a_validation_error(self, tmp_path):
        cfg = simulate_config(tmp_path)
        code = main(["simulate", "-c", cfg, "--set", "policy.gamma=1"])
        assert code == EXIT_VALIDATION

    def test_invalid_policy_value_is_a_validation_error(self, tmp_path):
        cfg = simulate_config(tmp_path)
        code = main(
            ["simulate", "-c", cfg, "-o", str(tmp_path / "x"), "--set", "policy.alpha=2.0"]
        )
        assert code == EXIT_VALIDATION

    def test_relative_output_lands_under_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SELVERIFY_OUTPUT_DIR", str(tmp_path / "outbox"))
        cfg = simulate_config(tmp_path, horizon=20)
        assert main(["simulate", "-c", cfg]) == EXIT_OK
        assert (tmp_path / "outbox" / "trace.jsonl").exists()

    def test_absolute_output_ignores_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SELVERIFY_OUTPUT_DIR", str(tmp_path / "outbox"))
        cfg = simulate_config(tmp_path, horizon=20)
        target = tmp_path / "direct.jsonl"
        assert main(["simulate", "-c", cfg, "-o", str(target)]) == EXIT_OK
        assert target.exists()
        assert not (tmp_path / "outbox").exists()

    def test_kernel_backend_goes_to_stderr_only(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["simulate", "-c", simulate_config(tmp_path, horizon=20), "-o", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == f"kernel backend: {kernel_backend()}\n"
        assert "kernel backend" not in captured.out
        assert b"kernel" not in out.read_bytes()

    def test_a_horizon_on_a_task_stream_writes_a_prefix(self, tmp_path):
        cfg = simulate_config(tmp_path, stream=preset_math_like("easy", 200, 4), horizon=50)
        out = tmp_path / "t.jsonl"
        assert main(["simulate", "-c", cfg, "-o", str(out)]) == EXIT_OK
        assert [rec["t"] for rec in read_lines(out)[1:-1]] == list(range(1, 51))
        assert main(["check", str(out)]) == EXIT_OK

    def test_kernel_backend_names_the_path_that_runs(self):
        expected = "numba" if importlib.util.find_spec("numba") else "python"
        assert kernel_backend() == expected


# SHA-256 of `simulate` output, pinned from the dict-per-record writer
# (json.dumps with sorted keys) that the column writer replaced.
GOLDEN_TRACES = {
    "drift_kernel": (
        {"policy": POLICY, "stream": preset_drift(2000, seed=0), "horizon": None,
         "seed_base": 3},
        "a9cf3615a9aa33db9fad6f335e3b452442f164f7600319068a17d817a886c1db",
    ),
    "math_like_engine": (
        {"policy": {**POLICY, "q_accept": 0.3, "q_reject": 0.3},
         "stream": preset_math_like("easy", problems=200, seed=0), "horizon": None,
         "seed_base": 5},
        "ca265a20e75faa5bc4b259f3e313e3a9af291b1b789a1aab4370a0a49df90bef",
    ),
    "negative_zero_threshold": (
        {"policy": {**POLICY, "tau_reject_init": -0.0},
         "stream": {"kind": "calibrated", "score_dist": UniformDist().to_dict(), "seed": 0},
         "horizon": 1000, "seed_base": 0},
        "e5ed6a0e34380cf94275e3aa7dcf196b6e75c2cd0fdb0195c684e2bfd9ed94b6",
    ),
    "stepwise_engine": (
        {"policy": {**POLICY, "q_accept": 0.3, "q_reject": 0.2},
         "stream": STEPWISE_SPEC, "horizon": None, "seed_base": 7},
        "6920f39313e1ff46819dfe81a7c56861a3de01c9f583a1913c91bdf638e5ffc0",
    ),
    # a difficulty that draws per problem: the run goes item by item
    "mixture_difficulty_engine": (
        {"policy": {**POLICY, "q_accept": 0.3, "q_reject": 0.3},
         "stream": {**preset_math_like("easy", problems=100, seed=0),
                    "difficulty": MixtureDist(0.7, PointMass(0.9), BetaDist(2.0, 3.0)).to_dict()},
         "horizon": None, "seed_base": 6},
        "7adb6c12b12ab01ed1b7a2c434a442f87054157c8cffcb04a419eefc626261b1",
    ),
    # tape blocks of 200, 112 and 38 rounds: the horizon stops the run in
    # its third block, short of the 416 rounds it would take
    "tape_horizon": (
        {"policy": {**POLICY, "q_accept": 0.3, "q_reject": 0.3},
         "stream": preset_math_like("hard", problems=200, budget=8, seed=0), "horizon": 350,
         "seed_base": 9},
        "1de70dd218db09a0b16fa9b4fb8616c053f9d9fa97fe756de9cad5fa0582b3f3",
    ),
}


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def simulate_bytes(tmp_path, monkeypatch, cfg: dict) -> bytes:
    """The file `simulate` writes for `cfg`. It must not depend on how many
    processes write it or how many rounds each writes, no writer may
    outlive the command, and `check` must pass it: it is run as it is,
    then with ranges of one and two 4,096-round chunks and the process
    count forced to 1, 2 and 3."""
    argv = ["simulate", "-c", write_config(tmp_path, "sim.json", cfg), "-o", str(tmp_path / "trace.jsonl")]
    runs = []
    for setting in [None, *itertools.product((1, 2), (1, 2, 3))]:
        with monkeypatch.context() as m:
            if setting is not None:
                m.setattr(cli, "_RANGE_CHUNKS", setting[0])
                m.setattr(cli, "_process_count", lambda: setting[1])
            assert main(argv) == EXIT_OK
        assert_no_children()
        runs.append((tmp_path / "trace.jsonl").read_bytes())
    assert runs[1:] == runs[:1] * (len(runs) - 1)
    assert main(["check", str(tmp_path / "trace.jsonl")]) == EXIT_OK
    return runs[0]


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_simulate_output_bytes_are_pinned(tmp_path, monkeypatch, name):
    cfg, digest = GOLDEN_TRACES[name]
    assert hashlib.sha256(simulate_bytes(tmp_path, monkeypatch, cfg)).hexdigest() == digest


def in_memory_file(cfg: dict) -> bytes:
    """What `simulate` writes for a config, made from one in-memory run: the
    header, `run_rep(...).write_records` and the summary line."""
    spec = RunSpec(
        policy=PolicyConfig.from_dict(cfg["policy"]), stream=cfg["stream"],
        horizon=cfg["horizon"], seed_base=cfg["seed_base"],
    )
    trace = run_rep(spec, 0)
    buf = io.StringIO()
    buf.write(cli._dumps({"config": {**trace.config, "delta": 0.05}, "version": selverify.__version__}) + "\n")
    trace.write_records(buf)
    buf.write(cli._dumps({
        "metrics": cli._summary_metrics(trace.ledger), "bounds": verify_bound(trace, 0.05),
    }) + "\n")
    return buf.getvalue().encode()


UNIFORM_STREAM = {"kind": "calibrated", "score_dist": UniformDist().to_dict(), "seed": 0}
# segment lengths that are not multiples of the 4,096-round chunk
UNEVEN_DRIFT = {
    "kind": "drift", "seed": 2,
    "segments": [
        {"score_dist": UniformDist().to_dict(), "length": 3_000},
        {"score_dist": BetaDist(5.0, 2.0).to_dict(), "length": 5_001},
        {"score_dist": BetaDist(2.0, 5.0).to_dict(), "length": 4_097},
    ],
}


@pytest.mark.parametrize("policy, stream, horizon", [
    *[(POLICY, UNIFORM_STREAM, h) for h in (1, 4_095, 4_096, 4_097, 12_289)],
    (POLICY, UNEVEN_DRIFT, None),
    ({**POLICY, "tau_reject_init": -0.0}, UNEVEN_DRIFT, None),
    ({**POLICY, "tau_reject_init": -0.0}, UNEVEN_DRIFT, 8_193),
], ids=["1", "4095", "4096", "4097", "12289", "drift", "drift_neg_zero", "drift_prefix"])
def test_streamed_simulate_writes_the_in_memory_run(tmp_path, monkeypatch, policy, stream, horizon):
    cfg = {"policy": policy, "stream": stream, "horizon": horizon, "seed_base": 11}
    assert simulate_bytes(tmp_path, monkeypatch, cfg) == in_memory_file(cfg)


class TestRangedSimulate:
    """`simulate` formats ranges of rounds in parallel forked writers."""

    # six chunks, the last of 17 rounds
    CONFIG = {"policy": POLICY, "stream": UNIFORM_STREAM, "horizon": 5 * 4_096 + 17, "seed_base": 4}

    def run(self, tmp_path, capsys):
        """Exit code and output of `simulate` on CONFIG, which must leave
        no child process and no descriptor open."""
        cfg = write_config(tmp_path, "sim.json", self.CONFIG)
        capsys.readouterr()
        fds = sorted(os.listdir("/dev/fd"))
        code = main(["simulate", "-c", cfg, "-o", str(tmp_path / "trace.jsonl")])
        assert_no_children()
        assert sorted(os.listdir("/dev/fd")) == fds
        return code, capsys.readouterr()

    @pytest.fixture
    def honest(self):
        return in_memory_file(self.CONFIG)

    @pytest.fixture(autouse=True)
    def ranges_of_two_chunks(self, monkeypatch):
        monkeypatch.setattr(cli, "_RANGE_CHUNKS", 2)
        monkeypatch.setattr(cli, "_process_count", lambda: 2)

    def test_a_killed_writer_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        parent, format_range = os.getpid(), cli._format_range

        def format_or_die(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return format_range(*args)

        monkeypatch.setattr(cli, "_format_range", format_or_die)
        code, out = self.run(tmp_path, capsys)
        assert code == EXIT_IO
        assert out.err.splitlines()[-1:] == [
            f"error: the process writing part of the trace ended by signal {int(signal.SIGKILL)}"
        ]
        assert "Traceback" not in out.err and out.out == ""
        assert list(tmp_path.iterdir()) == [tmp_path / "sim.json"]

    def test_no_more_writers_run_at_once_than_processes(self, tmp_path, capsys, monkeypatch, honest):
        monkeypatch.setattr(cli, "_RANGE_CHUNKS", 1)  # six writers
        fork, wait = cli._fork, cli._wait
        live, most = set(), []

        def counted_fork(work):
            started = fork(work)
            live.add(started[0])
            most.append(len(live))
            return started

        def counted_wait(pid, what):
            live.discard(pid)
            return wait(pid, what)

        monkeypatch.setattr(cli, "_fork", counted_fork)
        monkeypatch.setattr(cli, "_wait", counted_wait)
        assert self.run(tmp_path, capsys)[0] == EXIT_OK
        assert (len(most), max(most)) == (6, 2)
        assert (tmp_path / "trace.jsonl").read_bytes() == honest

    def test_a_failed_write_names_its_reason(self, tmp_path):
        # the file is written by the simulate process alone, so a write
        # past RLIMIT_FSIZE fails there with its errno. A worker still
        # filling its pipe must be killed before it is waited for: the
        # workers forked after it hold the pipe's read end as well
        cfg = write_config(tmp_path, "sim.json", self.CONFIG)
        script = (
            "import resource, signal, sys\n"
            "import selverify.cli\n"
            "selverify.cli._process_count = lambda: 2\n"
            "selverify.cli._RANGE_CHUNKS = 1\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 18, 1 << 18))\n"
            f"sys.exit(selverify.cli.main(['simulate', '-c', {cfg!r}, '-o', {str(tmp_path / 't.jsonl')!r}]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(selverify.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == EXIT_IO
        assert proc.stderr.splitlines()[-1] == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
        assert list(tmp_path.iterdir()) == [tmp_path / "sim.json"]

    @pytest.mark.parametrize("forks", [0, 1, 2], ids=["first", "second", "third"])
    def test_a_failed_fork_writes_the_rest_here(self, tmp_path, capsys, monkeypatch, honest, forks):
        fork, calls = os.fork, itertools.count()

        def fork_until(*args):
            if next(calls) >= forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", fork_until)
        assert self.run(tmp_path, capsys)[0] == EXIT_OK
        assert next(calls) == forks + 1
        assert (tmp_path / "trace.jsonl").read_bytes() == honest

    @pytest.mark.parametrize("chunk", [0, 3, 5], ids=["first_range", "middle_range", "last_range"])
    def test_a_bad_score_in_a_later_range_is_refused(self, tmp_path, capsys, monkeypatch, chunk):
        rep_setup = cli._rep_setup

        def setup_with_a_nan(spec, rep):
            config, stream, echo = rep_setup(spec, rep)
            take, done = stream.take, [0]

            def take_with_a_nan(n):
                w, g = take(n)
                if done[0] == chunk * 4_096:
                    w = w.copy()
                    w[len(w) // 2] = np.nan
                done[0] += len(w)
                return w, g

            stream.take = take_with_a_nan
            return config, stream, echo

        monkeypatch.setattr(cli, "_rep_setup", setup_with_a_nan)
        code, out = self.run(tmp_path, capsys)
        assert code == EXIT_VALIDATION
        assert out.err.splitlines()[-1] == "error: weak score must be in [0, 1], got nan"
        assert list(tmp_path.iterdir()) == [tmp_path / "sim.json"]

    def test_a_run_of_one_range_forks_no_writer(self, tmp_path, capsys, monkeypatch, honest):
        def no_fork():
            raise AssertionError("a writer was forked")

        monkeypatch.setattr(cli, "_RANGE_CHUNKS", 6)
        monkeypatch.setattr(os, "fork", no_fork)
        assert self.run(tmp_path, capsys)[0] == EXIT_OK
        assert (tmp_path / "trace.jsonl").read_bytes() == honest
        monkeypatch.setattr(cli, "_RANGE_CHUNKS", 5)
        with pytest.raises(AssertionError, match="a writer was forked"):
            self.run(tmp_path, capsys)


def test_an_endless_stream_without_a_horizon_writes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", {
        "policy": POLICY, "stream": UNIFORM_STREAM, "horizon": None, "seed_base": 0,
    })
    assert main(["simulate", "-c", cfg, "-o", str(tmp_path / "t.jsonl")]) == EXIT_VALIDATION
    assert "horizon is required" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "sim.json"]


# a bad policy is named by what is wrong with it
BAD_POLICIES = [
    ("policy", {k: v for k, v in POLICY.items() if k != "alpha"}, "policy lacks alpha"),
    ("policy", {k: v for k, v in POLICY.items() if k not in ("alpha", "beta")}, "policy lacks alpha, beta"),
    ("policy", {**POLICY, "alhpa": 0.1}, "policy has unknown key 'alhpa'"),
    ("policy", [0.1], "policy must be an object, got [0.1]"),
]


@pytest.mark.parametrize("field, value, message", BAD_POLICIES)
def test_a_bad_policy_is_named_before_any_round_runs(tmp_path, capsys, monkeypatch, field, value, message):
    cfg = write_config(tmp_path, "sim.json", {
        "policy": POLICY, "stream": UNIFORM_STREAM, "horizon": 100, "seed_base": 0, field: value,
    })

    def no_rounds(*args):
        raise AssertionError("a round ran")

    monkeypatch.setattr(experiments._kernel, "run_rounds", no_rounds)
    assert main(["simulate", "-c", cfg, "-o", str(tmp_path / "t.jsonl")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "sim.json"]


@pytest.mark.parametrize("field, value, rule", [
    *[("horizon", v, "an integer >= 1") for v in (10000.0, True, "100")],
    *[("delta", v, "a number in (0, 1)") for v in (1.5, 0, "0.05", True, None)],
    # read as they are, not truncated: 1.0 would have run repetition 1
    *[("rep", v, "an integer >= 0") for v in (1.0, True, -1, "1")],
    *[("seed_base", v, "an integer >= 0") for v in (1.5, 2.0, False)],
])
def test_a_bad_count_or_delta_is_refused_before_any_round_runs(
    tmp_path, capsys, monkeypatch, field, value, rule
):
    cfg = write_config(tmp_path, "sim.json", {
        "policy": POLICY, "stream": UNIFORM_STREAM, "horizon": 100, "seed_base": 0, field: value,
    })

    def no_rounds(*args):
        raise AssertionError("a round ran")

    monkeypatch.setattr(experiments._kernel, "run_rounds", no_rounds)
    assert main(["simulate", "-c", cfg, "-o", str(tmp_path / "t.jsonl")]) == EXIT_VALIDATION
    assert f"{field} must be {rule}, got {value!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "sim.json"]


def test_simulate_and_check_never_import_scipy(tmp_path):
    # scipy serves only the population quadrature; loading it costs a
    # one-shot command most of its start-up time
    cfg = write_config(tmp_path, "sim.json", {
        "policy": POLICY, "stream": preset_drift(2000, seed=0), "horizon": None,
        "seed_base": 3,
    })
    out = str(tmp_path / "trace.jsonl")
    script = (
        "import json, sys\n"
        "import selverify, selverify.cli\n"
        f"codes = [selverify.cli.main(['simulate', '-c', {cfg!r}, '-o', {out!r}]),\n"
        f"         selverify.cli.main(['check', {out!r}])]\n"
        "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps({'codes': codes, 'scipy': scipy}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(selverify.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [EXIT_OK, EXIT_OK], "scipy": []}


def test_importing_the_cli_loads_no_process_pool(tmp_path):
    # simulate and check fork their workers with os.fork; a pool module
    # would add to the start-up time of every command
    cfg = write_config(tmp_path, "sim.json", {
        "policy": POLICY, "stream": preset_drift(10_000, seed=0), "horizon": None, "seed_base": 3,
    })
    script = (
        "import contextlib, io, json, sys\n"
        "import selverify.cli\n"
        "def pools():\n"
        "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'multiprocessing'\n"
        "                  or m.startswith('concurrent.'))\n"
        "imported = pools()\n"
        "selverify.cli._process_count = lambda: 2\n"
        "selverify.cli._RANGE_CHUNKS = 1\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = selverify.cli.main(['simulate', '-c', {cfg!r}, '-o', {str(tmp_path / 't.jsonl')!r}])\n"
        "print(json.dumps({'imported': imported, 'code': code, 'simulated': pools()}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(selverify.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == {"imported": [], "code": EXIT_OK, "simulated": []}


def _vm_hwm_kb():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return None


@pytest.mark.skipif(_vm_hwm_kb() is None, reason="no VmHWM in /proc/self/status")
def test_check_peak_memory_stays_near_the_columns(tmp_path):
    # check holds one chunk of regenerated rounds and their text at a
    # time; a copy of the columns would take the growth to 1x
    rounds = 100_000
    cfg = write_config(tmp_path, "sim.json", {
        "policy": POLICY, "stream": preset_drift(rounds, seed=0), "horizon": None,
        "seed_base": 1,
    })
    out = str(tmp_path / "trace.jsonl")
    assert main(["simulate", "-c", cfg, "-o", out]) == EXIT_OK
    script = (
        "import contextlib, io, json\n"
        "import selverify.cli\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
        "before = hwm()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = selverify.cli.main(['check', {out!r}])\n"
        "print(json.dumps({'code': code, 'growth_kb': hwm() - before}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(selverify.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    res = json.loads(proc.stdout.splitlines()[-1])
    column_bytes = rounds * sum(np.dtype(c.dtype).itemsize for c in experiments._COLUMNS)
    assert res["code"] == EXIT_OK
    assert res["growth_kb"] * 1024 < 1.8 * column_bytes


@pytest.mark.skipif(_vm_hwm_kb() is None, reason="no VmHWM in /proc/self/status")
def test_an_overlong_header_is_refused_in_bounded_memory(tmp_path):
    # check reads a line of at most `_MAX_LINE_BYTES`: a 64 MiB header is
    # refused with the peak of an honest check, not held whole
    honest = tmp_path / "honest.jsonl"
    cfg = simulate_config(tmp_path)
    assert main(["simulate", "-c", cfg, "-o", str(honest)]) == EXIT_OK
    huge = tmp_path / "huge.jsonl"
    with open(huge, "wb") as fh:
        fh.write(b'{"config":"')
        for _ in range(64):
            fh.write(b"x" * (1 << 20))
        fh.write(b'","version":"0"}\n')
    script = (
        "import contextlib, io, json, sys\n"
        "import selverify.cli\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
        "before = hwm()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = selverify.cli.main(['check', sys.argv[1]])\n"
        "print(json.dumps({'code': code, 'growth_kb': hwm() - before}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(selverify.__file__).parent.parent)}
    res = {}
    for path in (honest, huge):
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True,
            check=True,
        )
        res[path.name] = json.loads(proc.stdout.splitlines()[-1])
    assert res["honest.jsonl"]["code"] == EXIT_OK
    assert res["huge.jsonl"]["code"] == EXIT_IO
    assert res["huge.jsonl"]["growth_kb"] < res["honest.jsonl"]["growth_kb"] + 4 * 1024, res


def _command_growth_kb(argv) -> tuple[int, int]:
    """VmHWM growth of one command in a fresh interpreter, from just after
    the import, and the peak resident set of its largest worker, with two
    processes whatever the host has."""
    script = (
        "import contextlib, io, json, resource\n"
        "import selverify.cli\n"
        "selverify.cli._process_count = lambda: 2\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
        "before = hwm()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = selverify.cli.main({argv!r})\n"
        "worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(json.dumps({'code': code, 'growth_kb': hwm() - before, 'worker_kb': worker_kb}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(selverify.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["code"] == EXIT_OK
    assert res["worker_kb"] > 0  # a worker ran
    return res["growth_kb"], res["worker_kb"]


@pytest.mark.skipif(_vm_hwm_kb() is None, reason="no VmHWM in /proc/self/status")
def test_memory_does_not_grow_with_the_horizon(tmp_path):
    # simulate and check hold one chunk of rounds at a time, and each of
    # their workers one range, so three times the rounds take the same
    # peaks
    growth = {}
    for rounds in (100_000, 300_000):
        cfg = write_config(tmp_path, f"sim{rounds}.json", {
            "policy": POLICY, "stream": preset_drift(rounds, seed=0), "horizon": None,
            "seed_base": 1,
        })
        out = str(tmp_path / f"trace{rounds}.jsonl")
        growth[rounds] = (
            *_command_growth_kb(["simulate", "-c", cfg, "-o", out]),
            *_command_growth_kb(["check", out]),
        )
    for short, long in zip(growth[100_000], growth[300_000]):
        assert long - short < 3 * 1024, growth


def sweep_cfg_dict():
    return {
        "policy": {**POLICY, "q_accept": 0.3, "q_reject": 0.3},
        "stream": preset_math_like("easy", problems=40, budget=3, seed=0),
        "targets": [
            [0.01, 0.01], [0.05, 0.05], [0.1, 0.1], [0.15, 0.15],
            [0.2, 0.2], [0.3, 0.3], [0.4, 0.4],
        ],
        "repetitions": 2,
        "seed_base": 1,
    }


class TestSweep:
    def test_csv_layout_and_round_trip(self, tmp_path, capsys):
        import csv

        cfg = write_config(tmp_path, "sweep.json", sweep_cfg_dict())
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "-c", cfg, "-o", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SWEEP_COLUMNS
        assert len(rows) == 1 + 9  # 7 targets + oracle + weak-only
        oracle_row = rows[8]
        assert oracle_row[0] == "" and oracle_row[1] == ""
        assert oracle_row[SWEEP_COLUMNS.index("is_oracle")] == "1"
        weak_row = rows[9]
        assert weak_row[SWEEP_COLUMNS.index("is_weak_only")] == "1"
        assert weak_row[SWEEP_COLUMNS.index("err1")] == ""
        d = sweep_cfg_dict()
        recomputed = sweep(
            PolicyConfig.from_dict(d["policy"]),
            d["stream"],
            [tuple(t) for t in d["targets"]],
            repetitions=2,
            seed_base=1,
        )
        assert [point_from_row(r) for r in rows[1:]] == recomputed
        assert "wrote 9 rows" in capsys.readouterr().out

    def test_csv_bytes_are_pinned(self, tmp_path):
        cfg = write_config(tmp_path, "sweep.json", {
            **sweep_cfg_dict(), "stream": STEPWISE_SPEC, "targets": [[0.05, 0.1], [0.2, 0.2]],
        })
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "-c", cfg, "-o", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "5c818ac80bad1ca6a13df60c933c8179788abbec3b597c86050a8a0ad97a9256"
        )

    def test_missing_targets_is_a_validation_error(self, tmp_path):
        d = sweep_cfg_dict()
        del d["targets"]
        cfg = write_config(tmp_path, "sweep.json", d)
        assert main(["sweep", "-c", cfg, "-o", str(tmp_path / "s.csv")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("field, value, message", [
        *[("repetitions", v, f"repetitions must be an integer >= 1, got {v!r}") for v in (2.0, True, 0)],
        *[("seed_base", v, f"seed_base must be an integer >= 0, got {v!r}") for v in (1.5, True)],
        # read as they are, not converted with float()
        ("targets", [["0.1", "0.2"]], "targets[0][0] must be a number, got '0.1'"),
        ("targets", [[0.1, 0.2], [0.2, True]], "targets[1][1] must be a number, got True"),
        # a target that is not a pair is named, not unpacked
        ("targets", [[0.1, 0.2, 0.3]], "targets[0] must be a pair of numbers, got [0.1, 0.2, 0.3]"),
        ("targets", [[0.1, 0.2], [0.1]], "targets[1] must be a pair of numbers, got [0.1]"),
        ("targets", [0.1], "targets[0] must be a pair of numbers, got 0.1"),
        ("targets", ["ab"], "targets[0] must be a pair of numbers, got 'ab'"),
        *BAD_POLICIES,
    ])
    def test_a_bad_count_is_refused_before_any_run(
        self, tmp_path, capsys, monkeypatch, field, value, message
    ):
        def no_runs(*args, **kw):
            raise AssertionError("a run started")

        monkeypatch.setattr(experiments, "run_one", no_runs)
        cfg = write_config(tmp_path, "sweep.json", {**sweep_cfg_dict(), field: value})
        assert main(["sweep", "-c", cfg, "-o", str(tmp_path / "s.csv")]) == EXIT_VALIDATION
        assert f"{message}\n" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


class TestPointRows:
    def test_round_trip_preserves_every_field(self):
        points = [
            ParetoPoint(
                alpha=0.1, beta=0.2, accuracy=0.875, accuracy_stderr=0.0125,
                strong_per_problem=1.5, weak_per_problem=2.25,
                err1=0.0625, err2=0.125, reps=3,
            ),
            ParetoPoint(
                alpha=None, beta=None, accuracy=1.0, accuracy_stderr=0.0,
                strong_per_problem=2.0, weak_per_problem=2.0,
                err1=0.0, err2=0.0, reps=2, is_oracle=True,
            ),
            ParetoPoint(
                alpha=None, beta=None, accuracy=0.97, accuracy_stderr=0.001,
                strong_per_problem=0.0, weak_per_problem=4.0,
                err1=None, err2=None, reps=2, is_weak_only=True,
            ),
        ]
        for p in points:
            assert point_from_row(point_to_row(p)) == p

    def test_float_cells_are_lossless(self):
        p = ParetoPoint(
            alpha=0.1, beta=0.3, accuracy=1 / 3, accuracy_stderr=1 / 7,
            strong_per_problem=2 / 3, weak_per_problem=10 / 3,
            err1=1 / 9, err2=2 / 9, reps=5,
        )
        q = point_from_row(point_to_row(p))
        assert q.accuracy == p.accuracy
        assert q.err1 == p.err1


class TestPopulation:
    def config(self, tmp_path, pairs):
        return write_config(
            tmp_path,
            "pop.json",
            {
                "score_dist": UniformDist().to_dict(),
                "alpha0": 0.5,
                "alpha1": 0.5,
                "calibrated": True,
                "pairs": pairs,
                "atoms": 1001,
            },
        )

    def test_balanced_uniform_case(self, tmp_path, capsys):
        cfg = self.config(tmp_path, [[2.0, 2.0]])
        out = tmp_path / "pop.jsonl"
        assert main(["population", "-c", cfg, "-o", str(out)]) == EXIT_OK
        rec = read_lines(out)[0]
        assert rec["a"] == 4.0 and rec["b"] == 4.0
        assert rec["policy_kind"] == "three_region"
        assert rec["t_low"] == 0.25 and rec["t_high"] == 0.75
        assert rec["value"] == pytest.approx(0.75, abs=1e-9)
        assert rec["brute_force_value"] == pytest.approx(0.75, abs=0.01)
        stdout = capsys.readouterr().out
        assert "grid oracle agreement" in stdout
        assert "PASS" in stdout

    def test_policy_kinds_and_their_keys(self, tmp_path):
        cfg = self.config(tmp_path, [[2.0, 2.0], [0.0, 1.0], [1.0, 0.0], [0.75, 0.75]])
        out = tmp_path / "pop.jsonl"
        assert main(["population", "-c", cfg, "-o", str(out)]) == EXIT_OK
        recs = read_lines(out)
        assert len(recs) == 4
        assert recs[1]["policy_kind"] == "always_accept"
        assert recs[1]["value"] == 0.0
        assert "t_low" not in recs[1] and "w_star" not in recs[1]
        assert recs[2]["policy_kind"] == "always_reject"
        assert recs[3]["policy_kind"] == "two_region"
        assert recs[3]["w_star"] == pytest.approx(0.5)
        assert "t_low" not in recs[3]

    @pytest.mark.parametrize("field, value, message", [
        ("alpha1", 0.6, "alpha0 + alpha1 must equal 1, got 1.1"),
        *[("calibrated", v, f"calibrated must be true or false, got {v!r}") for v in ("false", 1)],
        # read as they are, not truncated: 1.5 would have run 1 atom
        *[("atoms", v, f"atoms must be an integer >= 2, got {v!r}") for v in (1.5, 1, True, "1001")],
        # read as they are, not converted with float()
        ("alpha0", "0.5", "alpha0 must be a number, got '0.5'"),
        ("alpha1", True, "alpha1 must be a number, got True"),
        ("pairs", [["2", True]], "pairs[0][0] must be a number, got '2'"),
        ("pairs", [[1.0, 1.0], [2, True]], "pairs[1][1] must be a number, got True"),
        # a pair of three is refused, not cut to two, and no pairs is no check
        ("pairs", [[1, 2, 3]], "pairs[0] must be a pair of numbers, got [1, 2, 3]"),
        ("pairs", [[1.0, 1.0], 2.0], "pairs[1] must be a pair of numbers, got 2.0"),
        ("pairs", [], "pairs must hold at least one pair"),
        ("pairs", {"a": 1}, "pairs must be a list of pairs, got {'a': 1}"),
    ])
    def test_miscalibrated_fractions_are_a_validation_error(self, tmp_path, capsys, field, value, message):
        cfg = write_config(
            tmp_path, "pop.json",
            {"score_dist": UniformDist().to_dict(), "alpha0": 0.5, "alpha1": 0.5,
             "pairs": [[1.0, 1.0]], field: value},
        )
        assert main(["population", "-c", cfg, "-o", str(tmp_path / "p")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "pop.json"]


class TestCheck:
    def make_trace(self, tmp_path, **cfg_kw):
        cfg = simulate_config(tmp_path, **cfg_kw)
        out = tmp_path / "trace.jsonl"
        assert main(["simulate", "-c", cfg, "-o", str(out)]) == EXIT_OK
        return out

    def test_fresh_trace_passes(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "all checks passed" in stdout
        assert "trace is byte for byte the run its header describes: PASS" in stdout

    def test_tampered_threshold_fails(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        lines = trace.read_text().splitlines()
        rec = json.loads(lines[500])
        honest, rec["tau_A_after"] = rec["tau_A_after"], 5.0
        lines[500] = json.dumps(rec)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().out == (
            "trace differs from the run its header describes: "
            f"line 501: tau_A_after is 5.0 in the file, {honest!r} in the run\n"
        )

    def test_tampered_summary_fails(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        lines = trace.read_text().splitlines()
        summary = json.loads(lines[-1])
        honest, summary["metrics"]["err_type1"] = summary["metrics"]["err_type1"], 0.0001
        lines[-1] = json.dumps(summary)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().out == (
            "trace differs from the run its header describes: "
            f"line 1002: metrics.err_type1 is 0.0001 in the file, {honest!r} in the run\n"
        )

    def test_vacuous_side_is_reported(self, tmp_path, capsys):
        trace = self.make_trace(
            tmp_path,
            stream={"kind": "calibrated", "score_dist": PointMass(1.0).to_dict(), "seed": 0},
            horizon=100,
        )
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_OK
        assert "bound type1: vacuous: N₀=0 PASS" in capsys.readouterr().out

    def test_delta_flag_is_accepted(self, tmp_path):
        trace = self.make_trace(tmp_path)
        assert main(["check", str(trace), "--delta", "0.01"]) == EXIT_OK

    @pytest.mark.parametrize("delta", ["1.5", "nan", "0"])
    def test_a_bad_delta_flag_is_refused_before_the_file_is_opened(
        self, tmp_path, capsys, monkeypatch, delta
    ):
        trace = self.make_trace(tmp_path)

        def no_reading(*args, **kw):
            raise AssertionError("the trace was read")

        monkeypatch.setattr(cli, "_open_trace", no_reading)
        for path in (str(trace), str(tmp_path / "missing.jsonl")):
            capsys.readouterr()
            assert main(["check", path, "--delta", delta]) == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err == f"error: --delta must be a number in (0, 1), got {float(delta)!r}\n"

    def test_garbage_trace_is_an_io_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["check", str(bad)]) == EXIT_IO

    def test_header_without_config_is_an_io_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"version": "0.1.0"}) + "\n")
        assert main(["check", str(bad)]) == EXIT_IO

    def test_missing_trace_is_an_io_error(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.jsonl")]) == EXIT_IO

    def test_a_blank_line_is_a_difference(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        lines = trace.read_text().splitlines()
        lines[1:1] = ["", "  "]
        trace.write_text("\n".join(lines) + "\n\n")
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().out == (
            "trace differs from the run its header describes: line 2: the file has a blank line\n"
        )

    def test_a_summary_among_the_records_is_a_difference(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        lines = trace.read_text().splitlines()
        lines.insert(5, lines.pop())
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert out.startswith("trace differs from the run its header describes: line 6: action is absent in the file, ")

    @staticmethod
    def _record_as_list(lines):
        lines[5] = json.dumps(list(json.loads(lines[5]).values()))

    @staticmethod
    def _record_without_w(lines):
        rec = json.loads(lines[5])
        del rec["w"]
        lines[5] = json.dumps(rec)

    @staticmethod
    def _two_records_on_one_line(lines):
        lines[5:7] = [lines[5] + "," + lines[6]]

    @staticmethod
    def _final_line_cut_short(lines):
        lines[-1] = lines[-1][: len(lines[-1]) // 2]

    @staticmethod
    def _null_record(lines):
        lines.insert(5, "null")

    @staticmethod
    def _round_index_out_of_range(lines):
        rec = json.loads(lines[5])
        rec["t"] = 10**30
        lines[5] = json.dumps(rec)

    @staticmethod
    def _summary_metrics_as_number(lines):
        lines[-1] = json.dumps({"metrics": 5})

    @staticmethod
    def _summary_metrics_as_list(lines):
        lines[-1] = json.dumps({"metrics": [1]})

    @staticmethod
    def _header_config_as_number(lines):
        header = json.loads(lines[0])
        header["config"] = 5
        lines[0] = json.dumps(header)

    @pytest.mark.parametrize("forge", [
        _record_as_list, _record_without_w,
        _two_records_on_one_line, _final_line_cut_short, _null_record,
        _round_index_out_of_range, _summary_metrics_as_number,
        _summary_metrics_as_list, _header_config_as_number,
    ])
    def test_malformed_lines_are_io_errors(self, tmp_path, capsys, forge):
        trace = self.make_trace(tmp_path)
        lines = trace.read_text().splitlines()
        forge.__func__(lines)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_IO
        out = capsys.readouterr()
        assert out.err.startswith("error: malformed trace: ") and "Traceback" not in out.err
        assert out.out == ""


    @pytest.mark.parametrize("key, value", [
        ("w", None), ("w", "0.5"), ("tau_A_after", True), ("t", "3"), ("t", 3.0),
        ("g_latent", None), ("explored", "x"), ("explored", 1),
    ])
    def test_mistyped_values_are_io_errors(self, tmp_path, capsys, key, value):
        trace = self.make_trace(tmp_path)
        lines = trace.read_text().splitlines()
        rec = json.loads(lines[5])
        rec[key] = value
        lines[5] = json.dumps(rec)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: malformed trace: ") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, why", [
        (lambda cfg: cfg.pop("policy"),
         "policy lacks alpha, beta, eta, q_accept, q_reject, tau_reject_init, tau_accept_init, seed"),
        (lambda cfg: cfg["policy"].update(eta="x"), "eta must be a number > 0, got 'x'"),
        (lambda cfg: cfg["policy"].update(eta=0), "eta must be a number > 0, got 0"),
        (lambda cfg: cfg["policy"].pop("q_accept"), "policy lacks q_accept"),
        (lambda cfg: cfg.update(delta="x"), "delta must be a number in (0, 1), got 'x'"),
        (lambda cfg: cfg["policy"].update(seed=True), "seed must be an integer >= 0, got True"),
        # the endless-stream rule reads the header's horizon, not the cap
        # that the file's size puts on the run
        (lambda cfg: cfg.update(horizon=None), "this stream never exhausts; a horizon is required"),
    ], ids=["no_policy", "eta_not_a_number", "eta_zero", "policy_lacks_a_key",
            "delta_not_a_number", "seed_a_bool", "endless_stream_without_a_horizon"])
    def test_bad_header_config_is_an_io_error(self, tmp_path, capsys, edit, why):
        trace = self.make_trace(tmp_path)
        lines = trace.read_text().splitlines()
        header = json.loads(lines[0])
        edit(header["config"])
        lines[0] = json.dumps(header)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_IO
        assert capsys.readouterr().err == f"error: malformed trace: header {why}\n"

    @pytest.mark.parametrize("line, why", [
        ('{"t":' + "1" * 5_000 + "}", "Exceeds the limit (4300 digits) for integer string conversion"),
        (b'{"w":"\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ], ids=["integer_too_long", "not_utf8"])
    def test_a_value_error_of_the_decoder_names_its_file_line(self, tmp_path, capsys, line, why):
        trace = self.make_trace(tmp_path)
        lines = trace.read_bytes().split(b"\n")
        lines[5] = line.encode() if isinstance(line, str) else line
        trace.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_IO
        assert capsys.readouterr().err.startswith(f"error: malformed trace: line 6: {why}")

    @pytest.mark.parametrize("lineno", [1, 6])
    def test_a_line_longer_than_the_cap_is_malformed(self, tmp_path, capsys, lineno):
        trace = self.make_trace(tmp_path)
        lines = trace.read_bytes().split(b"\n")
        lines[lineno - 1] = b'{"t":' + b" " * cli._MAX_LINE_BYTES + b"1}"
        trace.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"error: malformed trace: line {lineno}: longer than {cli._MAX_LINE_BYTES} bytes\n"
        )

    def test_a_decode_error_names_its_file_line(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        lines = trace.read_text().splitlines()
        lines[10] = lines[10][:-1]  # file line 11 loses its closing brace
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: malformed trace: line 11: Expecting ',' delimiter")


@pytest.fixture(scope="module")
def long_trace_lines(tmp_path_factory):
    """The lines of an honest 10,000-round file: three 4,096-round chunks."""
    tmp = tmp_path_factory.mktemp("long")
    cfg = simulate_config(tmp, horizon=10_000)
    out = tmp / "trace.jsonl"
    assert main(["simulate", "-c", cfg, "-o", str(out)]) == EXIT_OK
    return out.read_text().splitlines()


def run_check(path, lines, capsys):
    """Exit code and output of `check` on a file of `lines`. They must not
    depend on how many processes regenerate the run, and no worker process
    may outlive it nor any descriptor be left open: `check` is run with
    ranges of one 4,096-round chunk and the process count forced to 1, 2
    and 3."""
    path.write_text("\n".join(lines) + "\n")
    runs = []
    for procs in (1, 2, 3):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cli, "_RANGE_CHUNKS", 1)
            m.setattr(cli, "_process_count", lambda: procs)
            capsys.readouterr()
            fds = sorted(os.listdir("/dev/fd"))
            runs.append((main(["check", str(path)]), capsys.readouterr()))
        assert_no_children()
        assert sorted(os.listdir("/dev/fd")) == fds
    assert runs[1:] == runs[:1] * 2, runs
    return runs[0]


def differs(line: int, what: str) -> str:
    return f"trace differs from the run its header describes: line {line}: {what}\n"


def _cut_short(rec):
    return rec[: len(rec) // 2]


def _w_as_a_string(rec):
    return rec.replace('"w":', '"w":"x","was":')


def _without_tau_a_before(rec):
    obj = json.loads(rec)
    del obj["tau_A_before"]
    return json.dumps(obj)


# Where a digit of the 10,000-round file is changed: the byte offset from
# which to look for one, given the offset at which each line starts, and
# the direction to look in. Lines 4,098 and 8,194 start the second and
# third range of rounds; line 10,001 holds the last round.
DIGIT_SITES = {
    **{
        f"block_{k}{d:+d}": (lambda starts, k=k, d=d: k * 65_536 + d, 1)
        for k in (1, 2, 16, 38) for d in (-1, 0, 1)
    },
    "last_digit_before_the_second_range": (lambda starts: starts[4_097] - 1, -1),
    "first_digit_of_the_second_range": (lambda starts: starts[4_097], 1),
    "last_digit_before_the_third_range": (lambda starts: starts[8_193] - 1, -1),
    "first_digit_of_the_third_range": (lambda starts: starts[8_193], 1),
    "last_digit_of_the_last_round": (lambda starts: starts[10_001] - 1, -1),
}


class TestStreamedCheck:
    @pytest.mark.parametrize("round_index", [100, 5_000, 9_990], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("spoil", [_cut_short, _w_as_a_string, _without_tau_a_before],
                             ids=["invalid_json", "wrong_type", "missing_key"])
    def test_a_bad_record_prints_no_verdict(self, tmp_path, capsys, long_trace_lines, round_index, spoil):
        lines = list(long_trace_lines)
        lines[round_index] = spoil(lines[round_index])
        code, out = run_check(tmp_path / "t.jsonl", lines, capsys)
        assert code == EXIT_IO
        assert out.out == ""
        # the file line, wherever the range it lies in starts
        assert out.err.startswith(f"error: malformed trace: line {round_index + 1}: ")
        assert "Traceback" not in out.err

    def test_a_file_without_its_summary(self, tmp_path, capsys, long_trace_lines):
        code, out = run_check(tmp_path / "b.jsonl", long_trace_lines[:-1], capsys)
        assert (code, out.out) == (EXIT_CHECK_FAILED, differs(10_002, "the file ends before the run does"))

    def test_a_header_only_file(self, tmp_path, capsys, long_trace_lines):
        code, out = run_check(tmp_path / "t.jsonl", long_trace_lines[:1], capsys)
        assert (code, out.out) == (EXIT_CHECK_FAILED, differs(2, "the file ends before the run does"))

    @pytest.mark.parametrize("site", sorted(DIGIT_SITES))
    def test_a_changed_digit_is_named_at_its_line(self, tmp_path, capsys, long_trace_lines, site):
        # the sink compares whole 64 KiB blocks, but must name the line of
        # the first byte that differs inside one
        lines = list(long_trace_lines)
        data = bytearray(("\n".join(lines) + "\n").encode())
        starts = [0, *itertools.accumulate(len(line) + 1 for line in lines)]
        at, step = DIGIT_SITES[site]
        pos = at(starts)
        while not chr(data[pos]).isdigit():
            pos += step
        data[pos] = ord(str((int(chr(data[pos])) + 1) % 10))
        i = next(i for i in range(len(lines)) if starts[i + 1] > pos)
        was, now = json.loads(lines[i]), json.loads(data[starts[i]:starts[i + 1]])
        changed = [k for k in sorted(was) if now[k] != was[k]]
        what = "the values are the run's, only the bytes differ" if not changed else (
            f"{changed[0]} is {cli._dumps(now[changed[0]])} in the file, {cli._dumps(was[changed[0]])} in the run"
        )
        lines[i] = data[starts[i]:starts[i + 1] - 1].decode()
        code, out = run_check(tmp_path / "t.jsonl", lines, capsys)
        assert (code, out.out) == (EXIT_CHECK_FAILED, differs(i + 1, what))

    @pytest.mark.parametrize("kept", [2, 4_096, 4_097, 4_098, 8_193, 8_194, 10_000])
    def test_a_file_cut_at_a_line_end(self, tmp_path, capsys, long_trace_lines, kept):
        # lines 4,098 and 8,194 start the second and third range of rounds
        code, out = run_check(tmp_path / "t.jsonl", long_trace_lines[:kept], capsys)
        assert (code, out.out) == (EXIT_CHECK_FAILED, differs(kept + 1, "the file ends before the run does"))

    def test_a_file_without_its_last_newline(self, tmp_path, capsys, long_trace_lines):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(long_trace_lines))
        capsys.readouterr()
        assert main(["check", str(path)]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().out == differs(10_002, "the values are the run's, only the bytes differ")

    @pytest.mark.parametrize("extra", [
        lambda lines: ["x"],
        lambda lines: ["\0"],
        lambda lines: lines[:1],
        lambda lines: lines[-1:],
        lambda lines: lines,
    ], ids=["a_letter", "a_nul_byte", "the_header_again", "the_summary_again", "the_file_again"])
    def test_bytes_after_the_summary(self, tmp_path, capsys, long_trace_lines, extra):
        code, out = run_check(tmp_path / "t.jsonl", long_trace_lines + extra(long_trace_lines), capsys)
        assert (code, out.out) == (EXIT_CHECK_FAILED, differs(10_003, "the file goes on after the run ends"))


def _crlf(lines):
    return [line + "\r" for line in lines]


def _blank_after_every_line(lines):
    return [x for i, line in enumerate(lines) for x in (line, " \t" if i % 2 else "")]


def _blank_megabytes_in_the_middle(lines):
    return lines[:5_000] + [" " * 999] * 4_000 + lines[5_000:]


def _blank_lines_at_the_end(lines):
    return lines + ["", "  ", ""]


def _blank_megabytes_at_the_end(lines):
    return lines + [" " * 999] * 4_000


class TestRangedCheck:
    """`check` regenerates the run through `simulate`'s pipeline, whose
    ranges of rounds are formatted in parallel forked processes."""

    @pytest.mark.parametrize("edit, line, what", [
        (_crlf, 1, "the values are the run's, only the bytes differ"),
        (_blank_after_every_line, 2, "the file has a blank line"),
        (_blank_megabytes_in_the_middle, 5_001, "the file has a blank line"),
        (_blank_lines_at_the_end, 10_003, "the file goes on after the run ends"),
        (_blank_megabytes_at_the_end, 10_003, "the file goes on after the run ends"),
        (lambda lines: _crlf(_blank_after_every_line(lines)), 1,
         "the values are the run's, only the bytes differ"),
    ], ids=["crlf", "blank_after_every_line", "blank_megabytes_in_the_middle",
            "blank_lines_at_the_end", "blank_megabytes_at_the_end", "crlf_and_blank_lines"])
    def test_line_endings_and_blank_lines_are_differences(
        self, tmp_path, capsys, long_trace_lines, edit, line, what
    ):
        # the file is either the bytes simulate writes or not that run
        code, out = run_check(tmp_path / "b.jsonl", edit(list(long_trace_lines)), capsys)
        assert (code, out.out) == (EXIT_CHECK_FAILED, differs(line, what))

    def test_a_killed_worker_is_a_read_error(self, tmp_path, capsys, monkeypatch, long_trace_lines):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(long_trace_lines) + "\n")
        parent, format_range = os.getpid(), cli._format_range

        def format_or_die(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return format_range(*args)

        monkeypatch.setattr(cli, "_format_range", format_or_die)
        monkeypatch.setattr(cli, "_RANGE_CHUNKS", 1)
        monkeypatch.setattr(cli, "_process_count", lambda: 2)
        capsys.readouterr()
        assert main(["check", str(path)]) == EXIT_IO
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            f"error: the process writing part of the trace ended by signal {int(signal.SIGKILL)}\n"
        )
        assert_no_children()

    @pytest.mark.parametrize("forks", [0, 1, 2], ids=["first", "second", "third"])
    def test_a_failed_fork_runs_the_range_here(self, tmp_path, capsys, monkeypatch, long_trace_lines, forks):
        lines = list(long_trace_lines)
        _, honest = run_check(tmp_path / "a.jsonl", lines, capsys)
        lines[9_990] = _cut_short(lines[9_990])
        _, bad = run_check(tmp_path / "b.jsonl", lines, capsys)
        fork, in_order, tries = os.fork, cli._in_order, []

        def counted_in_order(*args):
            tries.append(0)  # the forks one check tries
            return in_order(*args)

        def fork_until():
            tries[-1] += 1
            if tries[-1] > forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(cli, "_in_order", counted_in_order)
        monkeypatch.setattr(os, "fork", fork_until)
        assert run_check(tmp_path / "a.jsonl", long_trace_lines, capsys) == (EXIT_OK, honest)
        assert run_check(tmp_path / "b.jsonl", lines, capsys) == (EXIT_IO, bad)
        assert bad.err.startswith("error: malformed trace: line 9991: ")
        # one process forks nothing, and no fork is tried after one failed
        assert tries == [0, min(3, forks + 1), min(3, forks + 1)] * 2

    def test_a_pipe_is_read_through_by_one_process(self, tmp_path, capsys, long_trace_lines):
        _, honest = run_check(tmp_path / "a.jsonl", long_trace_lines, capsys)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "w") as fh:
                fh.write("\n".join(long_trace_lines) + "\n")

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            assert main(["check", str(fifo)]) == EXIT_OK
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()
        assert capsys.readouterr() == honest
        assert_no_children()

    @pytest.mark.parametrize("index", [100, 9_990], ids=["first_range", "last_range"])
    def test_a_line_nested_too_deeply_is_malformed(self, tmp_path, capsys, long_trace_lines, index):
        # json.loads raises RecursionError on it, not JSONDecodeError
        lines = list(long_trace_lines)
        lines[index] = "[" * 100_000 + "]" * 100_000
        code, out = run_check(tmp_path / "t.jsonl", lines, capsys)
        assert code == EXIT_IO and out.out == ""
        assert out.err == f"error: malformed trace: line {index + 1}: nested too deeply to decode\n"


def _middle(lines, want) -> int:
    """The index of the middle one of the round records among `lines` for
    which `want(record)` holds."""
    found = [i for i in range(1, len(lines) - 1) if want(json.loads(lines[i]))]
    return found[len(found) // 2]


def _unescalated(rec):
    return rec["action"] != "strong_verify"


def _edit(key, change, want=_unescalated):
    """A forgery that changes `key` of one round record by `change`."""
    def forge(lines):
        i = _middle(lines, want)
        rec = json.loads(lines[i])
        rec[key] = change(rec[key])
        lines[i] = cli._dumps(rec)
        return i + 1, key
    return forge


def _renumber(lines, start, by):
    for i in range(start, len(lines) - 1):
        rec = json.loads(lines[i])
        rec["t"] += by
        lines[i] = cli._dumps(rec)


def _delete(want):
    def forge(lines):
        i = _middle(lines, want)
        del lines[i]
        _renumber(lines, i, -1)
        return i + 1, None
    return forge


def _swap(lines):
    i = _middle(lines, _unescalated)
    a, b = json.loads(lines[i]), json.loads(lines[i + 1])
    a["t"], b["t"] = b["t"], a["t"]
    lines[i:i + 2] = [cli._dumps(b), cli._dumps(a)]
    return i + 1, None


def _duplicate(lines):
    i = _middle(lines, _unescalated)
    lines.insert(i + 1, lines[i])
    _renumber(lines, i + 1, 1)
    return i + 2, None


def _header_seed(key):
    def forge(lines):
        header = json.loads(lines[0])
        config = header["config"]
        if key == "seed_base":
            config["seed_base"] += 1
        else:
            config[key]["seed"] += 1
        lines[0] = cli._dumps(header)
        return 1, "config.policy.seed" if key == "seed_base" else f"config.{key}.seed"
    return forge


def _other_region(region):
    return {"accept": "reject", "reject": "uncertain", "uncertain": "accept"}[region]


def _score_within_region(lines):
    # halfway to 1 keeps a score above tau_A above it
    i = _middle(lines, lambda rec: rec["region"] == "accept" and rec["w"] < 1.0)
    rec = json.loads(lines[i])
    rec["w"] = (rec["w"] + 1.0) / 2
    lines[i] = cli._dumps(rec)
    return i + 1, "w"


FORGERIES = {
    "threshold_moved_one_ulp": _edit("tau_A_after", lambda v: math.nextafter(v, math.inf)),
    "unescalated_round_deleted": _delete(_unescalated),
    "escalated_round_deleted": _delete(lambda rec: rec["action"] == "strong_verify"),
    "two_rows_swapped": _swap,
    "row_duplicated": _duplicate,
    "explored_flipped": _edit("explored", lambda v: not v),
    "region_relabelled": _edit("region", _other_region),
    "g_latent_flipped": _edit("g_latent", lambda v: 1 - v),
    "score_changed_within_its_region": _score_within_region,
    "seed_base_changed": _header_seed("seed_base"),
    "policy_seed_changed": _header_seed("policy"),
    "stream_seed_changed": _header_seed("stream"),
}
FORGED_RUNS = {
    "kernel": GOLDEN_TRACES["drift_kernel"][0],
    "best_of_n": GOLDEN_TRACES["math_like_engine"][0],
    # 12,098 rounds: three ranges where run_check forks, the forgery in the second
    "kernel_three_ranges": {"policy": POLICY, "stream": UNEVEN_DRIFT, "horizon": None, "seed_base": 3},
}


@pytest.fixture(scope="module", params=sorted(FORGED_RUNS))
def honest_lines(request, tmp_path_factory):
    """The lines of an honest kernel-stream trace of one or three ranges of
    rounds, or of a best-of-n task trace, which `check` passes."""
    tmp = tmp_path_factory.mktemp(request.param)
    out = tmp / "trace.jsonl"
    cfg = write_config(tmp, "sim.json", FORGED_RUNS[request.param])
    assert main(["simulate", "-c", cfg, "-o", str(out)]) == EXIT_OK
    assert main(["check", str(out)]) == EXIT_OK
    return out.read_text().splitlines()


@pytest.mark.parametrize("name", sorted(FORGERIES))
def test_a_forgery_fails_at_its_first_forged_line(tmp_path, capsys, honest_lines, name):
    lines = list(honest_lines)
    line, key = FORGERIES[name](lines)
    code, out = run_check(tmp_path / "forged.jsonl", lines, capsys)
    assert code == EXIT_CHECK_FAILED
    assert out.out.startswith(differs(line, f"{key} is " if key else "")[:-1]), out
    assert out.out.count("\n") == 1  # no bound or claim line


HEADER_EDITS = {
    **{
        key: functools.partial(lambda key, value, c: c["policy"].update({key: value}), key, value)
        for key, value in [
            ("alpha", 0.2), ("beta", 0.2), ("eta", 0.1), ("q_accept", 0.2), ("q_reject", 0.2),
            ("tau_accept_init", 0.8), ("tau_reject_init", 0.2),
        ]
    },
    "horizon": lambda c: c.update(horizon=100),
    "delta": lambda c: c.update(delta=0.1),
    "rep": lambda c: c.update(rep=1),
}


@pytest.mark.parametrize("name", sorted(HEADER_EDITS))
def test_an_edited_header_fails_where_its_run_differs(tmp_path, capsys, honest_lines, name):
    # the header's config is a simulate config: the file simulate writes
    # for the edited one shows the first line that is not that run
    header = json.loads(honest_lines[0])
    HEADER_EDITS[name](header["config"])
    lines = [cli._dumps(header), *honest_lines[1:]]
    out = tmp_path / "run.jsonl"
    assert main(["simulate", "-c", write_config(tmp_path, "sim.json", header["config"]), "-o", str(out)]) == EXIT_OK
    run = out.read_text().splitlines()
    line = next(i for i, (a, b) in enumerate(zip(lines, run)) if a != b) + 1
    code, got = run_check(tmp_path / "edited.jsonl", lines, capsys)
    assert code == EXIT_CHECK_FAILED
    assert got.out.startswith(differs(line, "")[:-1]), (line, got)
    assert got.out.count("\n") == 1  # no bound or claim line


HONEST_RUNS = {
    "rep_1": {"policy": POLICY, "stream": UNIFORM_STREAM, "horizon": 3_000, "seed_base": 11, "rep": 1},
    "rep_4": {"policy": POLICY, "stream": UNIFORM_STREAM, "horizon": 3_000, "seed_base": 11, "rep": 4},
    "delta_0.01": {"policy": POLICY, "stream": UNIFORM_STREAM, "horizon": 3_000, "seed_base": 11, "delta": 0.01},
    "delta_0.5": {"policy": POLICY, "stream": UNIFORM_STREAM, "horizon": 3_000, "seed_base": 11, "delta": 0.5},
    "large_seed_base": {"policy": POLICY, "stream": UNIFORM_STREAM, "horizon": 3_000, "seed_base": 2**31 + 5},
    "beta_scores_three_ranges": {
        "policy": POLICY, "stream": {**UNIFORM_STREAM, "score_dist": BetaDist(2.0, 5.0).to_dict()},
        "horizon": 9_000, "seed_base": 1,
    },
    "drift_prefix": {"policy": POLICY, "stream": preset_drift(3_000, seed=1), "horizon": 2_500, "seed_base": 2},
    "stepwise": GOLDEN_TRACES["stepwise_engine"][0],
    "math_like_hard": {
        "policy": {**POLICY, "q_accept": 0.3, "q_reject": 0.3},
        "stream": preset_math_like("hard", problems=100, seed=1), "horizon": None, "seed_base": 4,
    },
}


@pytest.mark.parametrize("name", sorted(HONEST_RUNS))
def test_check_passes_what_simulate_writes(tmp_path, capsys, name):
    # with the bounds of the same run made in memory
    cfg = HONEST_RUNS[name]
    out = tmp_path / "trace.jsonl"
    assert main(["simulate", "-c", write_config(tmp_path, "sim.json", cfg), "-o", str(out)]) == EXIT_OK
    code, got = run_check(out, out.read_text().splitlines(), capsys)
    rep = cfg.get("rep", 0)
    trace = run_rep(RunSpec(
        policy=PolicyConfig.from_dict(cfg["policy"]), stream=cfg["stream"], horizon=cfg["horizon"],
        repetitions=rep + 1, seed_base=cfg["seed_base"],
    ), rep)
    bounds = verify_bound(trace, cfg.get("delta", 0.05))["sides"]
    assert all(s["pass"] for s in bounds.values())
    shown = "".join(
        f"bound {side}: err={s['err']:.6f} <= {s['bound']:.6f} (margin {s['margin']:.6f}) PASS\n"
        for side, s in bounds.items()
    )
    assert code == EXIT_OK
    assert got.out.startswith(shown), got
    assert got.out.endswith("trace is byte for byte the run its header describes: PASS\nall checks passed\n")


def test_hostile_headers_are_answered_in_seconds(tmp_path):
    # headers that name runs far longer than their files: a task stream
    # runs no more rounds than the file could hold, and the kernel stops at
    # the first line that differs. A header of another version is malformed
    cfg = write_config(tmp_path, "sim.json", {
        **FORGED_RUNS["best_of_n"], "stream": preset_math_like("easy", problems=20, seed=0),
    })
    honest = tmp_path / "trace.jsonl"
    assert main(["simulate", "-c", cfg, "-o", str(honest)]) == EXIT_OK
    lines = honest.read_text().splitlines()
    edits = {
        "task": lambda c: c.update(horizon=10**12, stream={**c["stream"], "problems": 10**9}),
        "kernel": lambda c: c.update(horizon=10**12, stream={
            **UNIFORM_STREAM, "seed": experiments.derive_seed(c["seed_base"], 0, experiments._STREAM_CHANNEL),
        }),
    }
    paths = {}
    for name, edit in [*edits.items(), ("version", None)]:
        header = json.loads(lines[0])
        if edit is None:
            header["version"] = "0.0.1"
        else:
            edit(header["config"])
        paths[name] = str(tmp_path / f"{name}.jsonl")
        Path(paths[name]).write_text("\n".join([cli._dumps(header), *lines[1:]]) + "\n")
    script = (
        "import contextlib, io, json, sys\n"
        "import selverify.cli\n"
        "res = {}\n"
        f"for name, path in {paths!r}.items():\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = selverify.cli.main(['check', path])\n"
        "    res[name] = [code, out.getvalue(), err.getvalue()]\n"
        "print(json.dumps(res))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(selverify.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    res = json.loads(proc.stdout.splitlines()[-1])
    # the task run goes on where the honest one ended, at its summary line
    code, out, _ = res["task"]
    assert code == EXIT_CHECK_FAILED
    assert out.startswith(differs(len(lines), "action is absent in the file, ")[:-1])
    code, out, _ = res["kernel"]
    assert code == EXIT_CHECK_FAILED and out.startswith(differs(2, "")[:-1])
    assert res["version"] == [
        EXIT_IO, "", "error: malformed trace: header version '0.0.1' is not this package's, "
        f"{selverify.__version__!r}\n",
    ]


class TestDiagnose:
    def test_point_mass_has_zero_sharpness(self, tmp_path):
        cfg = write_config(
            tmp_path, "diag.json",
            {
                "stream": {"kind": "calibrated", "score_dist": PointMass(0.5).to_dict(), "seed": 1},
                "samples": 2000,
            },
        )
        out = tmp_path / "diag.json.out"
        assert main(["diagnose", "-c", cfg, "-o", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["sharpness_mean"] == 0.0
        assert report["brier"] == 0.25

    def test_easy_preset_separation(self, tmp_path):
        cfg = write_config(
            tmp_path, "diag.json",
            {"stream": preset_math_like("easy"), "samples": 100000},
        )
        out = tmp_path / "d.json"
        assert main(["diagnose", "-c", cfg, "-o", str(out), "--seed", "5"]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["separation"] == pytest.approx(0.57, abs=0.03)

    @pytest.mark.parametrize("field, value, message", [
        ("problems", None, "stream spec missing key 'problems'"),
        # read as they are, not truncated or taken as 1
        *[("samples", v, f"samples must be an integer >= 1, got {v!r}") for v in (1000.9, True, 0, "100")],
        *[("bins", v, f"bins must be an integer >= 1, got {v!r}") for v in ("10", 2.5, 0, False)],
        # the stream's counts and seed too
        *[("problems", v, f"problems must be an integer >= 1, got {v!r}") for v in (2.5, True, 0)],
        *[("budget", v, f"budget must be an integer >= 1, got {v!r}") for v in ("4", 4.0, False)],
        *[("seed", v, f"seed must be an integer >= 0, got {v!r}") for v in (True, 1.5, -1)],
        # and its real-valued parameters: a bool or a string is not a number
        *[("difficulty", {"kind": "point", "value": v},
           f"point mass value must be a number in [0, 1], got {v!r}") for v in (True, "0.9")],
        *[("incorrect_scores", {"kind": "beta", "a": v, "b": 2},
           f"beta shape a must be a number > 0, got {v!r}") for v in (True, "9")],
    ])
    def test_incomplete_task_spec_is_a_validation_error(self, tmp_path, capsys, field, value, message):
        stream = preset_math_like("easy")
        cfg = {"stream": stream, "samples": 100}
        if value is None:
            del stream[field]
        else:
            (stream if field in stream else cfg)[field] = value
        cfg = write_config(tmp_path, "diag.json", cfg)
        assert main(["diagnose", "-c", cfg, "-o", str(tmp_path / "d.json")]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "diag.json"]

    def test_stdout_summarizes_the_report(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "diag.json",
            {"stream": {"kind": "calibrated", "score_dist": UniformDist().to_dict(), "seed": 0},
             "samples": 5000},
        )
        assert main(["diagnose", "-c", cfg, "-o", str(tmp_path / "d.json")]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "sharpness" in stdout
        assert "brier" in stdout


class TestParser:
    def test_version_flag(self, capsys):
        import selverify

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert selverify.__version__ in capsys.readouterr().out

    def test_unknown_command_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            main([])
