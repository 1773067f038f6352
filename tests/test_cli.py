"""Command-line surface: file formats, override handling, exit codes."""

import errno
import functools
import hashlib
import importlib.util
import io
import itertools
import json
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
    return [json.loads(line) for line in open(path) if line.strip()]


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
}


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def simulate_bytes(tmp_path, monkeypatch, cfg: dict) -> bytes:
    """The file `simulate` writes for `cfg`. It must not depend on how many
    processes write it or how many rounds each writes, and no writer may
    outlive the command: it is run as it is, then with ranges of one and
    two 4,096-round chunks and the process count forced to 1, 2 and 3."""
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
    # check holds the columns once plus one chunk of decoded lines; a
    # second copy of the columns alone would take the growth to 2x
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

    @pytest.mark.parametrize("field, value, rule", [
        *[("repetitions", v, "an integer >= 1") for v in (2.0, True, 0)],
        *[("seed_base", v, "an integer >= 0") for v in (1.5, True)],
    ])
    def test_a_bad_count_is_refused_before_any_run(
        self, tmp_path, capsys, monkeypatch, field, value, rule
    ):
        def no_runs(*args, **kw):
            raise AssertionError("a run started")

        monkeypatch.setattr(experiments, "run_one", no_runs)
        cfg = write_config(tmp_path, "sweep.json", {**sweep_cfg_dict(), field: value})
        assert main(["sweep", "-c", cfg, "-o", str(tmp_path / "s.csv")]) == EXIT_VALIDATION
        assert f"{field} must be {rule}, got {value!r}" in capsys.readouterr().err
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
        assert "summary metrics match records: PASS" in stdout

    def test_tampered_threshold_fails(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        lines = trace.read_text().splitlines()
        rec = json.loads(lines[500])
        rec["tau_A_after"] = 5.0
        lines[500] = json.dumps(rec)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_CHECK_FAILED
        stdout = capsys.readouterr().out
        assert "claim threshold_band" in stdout and "FAIL" in stdout

    def test_tampered_summary_fails(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        lines = trace.read_text().splitlines()
        summary = json.loads(lines[-1])
        summary["metrics"]["err_type1"] = 0.0001
        lines[-1] = json.dumps(summary)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_CHECK_FAILED
        assert "summary metrics match records: FAIL" in capsys.readouterr().out

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

        monkeypatch.setattr(cli, "_parse_trace_file", no_reading)
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

    def test_blank_lines_are_skipped(self, tmp_path):
        trace = self.make_trace(tmp_path)
        lines = trace.read_text().splitlines()
        lines[1:1] = ["", "  "]
        trace.write_text("\n".join(lines) + "\n\n")
        assert main(["check", str(trace)]) == EXIT_OK

    @staticmethod
    def _record_as_list(lines):
        lines[5] = json.dumps(list(json.loads(lines[5]).values()))

    @staticmethod
    def _record_without_w(lines):
        rec = json.loads(lines[5])
        del rec["w"]
        lines[5] = json.dumps(rec)

    @staticmethod
    def _summary_in_the_middle(lines):
        lines.insert(5, lines.pop())

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
        _record_as_list, _record_without_w, _summary_in_the_middle,
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
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


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

    @pytest.mark.parametrize("edit", [
        lambda cfg: cfg.pop("policy"),
        lambda cfg: cfg["policy"].update(eta="x"),
        lambda cfg: cfg["policy"].update(eta=0),
        lambda cfg: cfg["policy"].pop("q_accept"),
        lambda cfg: cfg.update(delta="x"),
        lambda cfg: cfg["policy"].update(seed=True),
    ], ids=["no_policy", "eta_not_a_number", "eta_zero", "policy_lacks_a_key",
            "delta_not_a_number", "seed_a_bool"])
    def test_bad_header_config_is_an_io_error(self, tmp_path, capsys, edit):
        trace = self.make_trace(tmp_path)
        lines = trace.read_text().splitlines()
        header = json.loads(lines[0])
        edit(header["config"])
        lines[0] = json.dumps(header)
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: malformed trace: header ") and "Traceback" not in err

    def test_a_decode_error_names_its_file_line(self, tmp_path, capsys):
        trace = self.make_trace(tmp_path)
        lines = trace.read_text().splitlines()
        lines.insert(3, "")
        lines[10] = lines[10][:-1]  # file line 11 loses its closing brace
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["check", str(trace)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: malformed trace: line 11: Expecting ',' delimiter")


@pytest.fixture(scope="module")
def long_trace_lines(tmp_path_factory):
    """The lines of an honest 10,000-round file: `check` folds its rounds
    4,096 at a time, in three chunks."""
    tmp = tmp_path_factory.mktemp("long")
    cfg = simulate_config(tmp, horizon=10_000)
    out = tmp / "trace.jsonl"
    assert main(["simulate", "-c", cfg, "-o", str(out)]) == EXIT_OK
    return out.read_text().splitlines()


def run_check(path, lines, capsys):
    """Exit code and output of `check` on a file of `lines`. They, and the
    header, certificate and summary, must not depend on how many byte
    ranges the file is folded in, and no worker process may outlive it
    nor any descriptor be left open."""
    path.write_text("\n".join(lines) + "\n")
    parse = cli._parse_trace_file
    runs = []
    try:
        for n in (1, 2, 3):
            cli._parse_trace_file = functools.partial(parse, ranges=n)
            capsys.readouterr()
            fds = sorted(os.listdir("/dev/fd"))
            runs.append((main(["check", str(path)]), capsys.readouterr()))
            assert_no_children()
            assert sorted(os.listdir("/dev/fd")) == fds
    finally:
        cli._parse_trace_file = parse
    assert runs[1:] == runs[:1] * 2, runs
    if runs[0][0] != EXIT_IO:
        header, cert, summary = parse(str(path), ranges=1)
        for n in (2, 3):
            other = parse(str(path), ranges=n)
            assert (other[0], other[2]) == (header, summary)
            assert_same_certificate(other[1], cert)
    return runs[0]


def _cut_short(rec):
    return rec[: len(rec) // 2]


def _w_as_a_string(rec):
    return rec.replace('"w":', '"w":"x","was":')


def _without_tau_a_before(rec):
    obj = json.loads(rec)
    del obj["tau_A_before"]
    return json.dumps(obj)


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
        assert out.err.startswith("error: malformed trace: ") and "Traceback" not in out.err
        if spoil is _cut_short:  # the file line, wherever the range it lies in starts
            assert out.err.startswith(f"error: malformed trace: line {round_index + 1}: ")

    def test_a_file_without_its_summary(self, tmp_path, capsys, long_trace_lines):
        code, honest = run_check(tmp_path / "a.jsonl", long_trace_lines, capsys)
        assert code == EXIT_OK
        code, cut = run_check(tmp_path / "b.jsonl", long_trace_lines[:-1], capsys)
        assert code == EXIT_OK
        assert cut.out == honest.out.replace("summary metrics match records: PASS\n", "")

    def test_a_header_only_file(self, tmp_path, capsys, long_trace_lines):
        code, out = run_check(tmp_path / "t.jsonl", long_trace_lines[:1], capsys)
        assert code == EXIT_OK
        assert out.out.splitlines() == [
            "bound type1: vacuous: N₀=0 PASS",
            "bound type2: vacuous: N₁=0 PASS",
            "claim telescoping_accept: {'sum': 0.0, 'limit': 0.0} PASS",
            "claim telescoping_reject: {'sum': 0.0, 'limit': 0.0} PASS",
            "claim threshold_band: {'low': 0.0, 'high': 1.0, 'band': [-0.5, 1.5]} PASS",
            "claim domination_type1: {'policy': 0, 'threshold': 0} PASS",
            "claim domination_type2: {'policy': 0, 'threshold': 0} PASS",
            "all checks passed",
        ]

    @pytest.mark.parametrize("above", [[False], [True], [False, True]], ids=["-inf", "inf", "nan"])
    def test_non_finite_terms_give_the_ieee_sum(self, tmp_path, capsys, long_trace_lines, above):
        # q_t of 0 on a queried incorrect round makes its accept term
        # +-inf; the rounds sit in the first and the last chunk
        lines = list(long_trace_lines)
        recs = {i: json.loads(lines[i]) for i in (*range(1, 200), *range(9_800, 10_001))}
        for want, order in zip(above, (sorted(recs), sorted(recs, reverse=True))):
            i = next(i for i in order if recs[i].get("g_observed") == 0
                     and (recs[i]["w"] > recs[i]["tau_A_before"]) == want)
            recs[i]["q_t"] = 0
            lines[i] = json.dumps(recs[i])
        path = tmp_path / "t.jsonl"
        code, out = run_check(path, lines, capsys)
        _, trace, _ = per_line_parse(str(path))
        alpha = trace.config["policy"]["alpha"]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = ((trace.w > trace.tau_a_before) - alpha) / trace.q
            want = float(terms[trace.g_observed == 0].sum())
        assert not np.isfinite(want)
        line = next(line for line in out.out.splitlines() if "telescoping_accept" in line)
        assert f"'sum': {want!r}," in line
        assert line.endswith("FAIL" if want != -np.inf else "PASS")
        assert code == (EXIT_OK if want == -np.inf else EXIT_CHECK_FAILED)


def _crlf(lines):
    return [line + "\r" for line in lines]


def _blank_after_every_line(lines):
    # every cut falls just before or just after a blank line
    return [x for i, line in enumerate(lines) for x in (line, " \t" if i % 2 else "")]


def _blank_megabytes_in_the_middle(lines):
    # 4 MB of blank lines between the two halves of the records: split in
    # three, the middle range holds no value
    return lines[:5_000] + [" " * 999] * 4_000 + lines[5_000:]


def _blank_lines_at_the_end(lines):
    return lines + ["", "  ", ""]


def _blank_megabytes_at_the_end(lines):
    # the last ranges hold no value: the summary is held back two ranges
    # before the end of the file
    return lines + [" " * 999] * 4_000


class TestRangedCheck:
    """`check` folds the byte ranges of a file in parallel processes."""

    @pytest.mark.parametrize("edit", [
        _crlf, _blank_after_every_line, _blank_megabytes_in_the_middle,
        _blank_lines_at_the_end, _blank_megabytes_at_the_end,
        lambda lines: _crlf(_blank_after_every_line(lines)),
    ], ids=["crlf", "blank_after_every_line", "blank_megabytes_in_the_middle",
            "blank_lines_at_the_end", "blank_megabytes_at_the_end", "crlf_and_blank_lines"])
    def test_line_endings_and_blank_lines_at_the_cuts(self, tmp_path, capsys, long_trace_lines, edit):
        _, honest = run_check(tmp_path / "a.jsonl", long_trace_lines, capsys)
        code, out = run_check(tmp_path / "b.jsonl", edit(list(long_trace_lines)), capsys)
        assert (code, out.out) == (EXIT_OK, honest.out)

    def test_a_killed_worker_is_a_read_error(self, tmp_path, capsys, monkeypatch, long_trace_lines):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(long_trace_lines) + "\n")
        parent, fold = os.getpid(), cli._fold_range

        def fold_or_die(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return fold(*args)

        monkeypatch.setattr(cli, "_fold_range", fold_or_die)
        monkeypatch.setattr(cli, "_parse_trace_file", functools.partial(cli._parse_trace_file, ranges=2))
        capsys.readouterr()
        assert main(["check", str(path)]) == EXIT_IO
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error: cannot read trace: the process reading part of the file "
            f"ended by signal {int(signal.SIGKILL)}\n"
        )
        assert_no_children()

    def test_a_deeply_nested_last_value_crosses_the_pipe(self, tmp_path, capsys, long_trace_lines):
        # pickle recurses deeper than json: a worker sends its last line's
        # text, which the last record, with no summary after it, shows
        rec = json.loads(long_trace_lines[-2])
        rec["note"] = json.loads("[" * 600 + "]" * 600)
        lines = long_trace_lines[:-2] + [json.dumps(rec)]
        _, honest = run_check(tmp_path / "a.jsonl", long_trace_lines[:-1], capsys)
        code, out = run_check(tmp_path / "b.jsonl", lines, capsys)
        assert (code, out.out) == (EXIT_OK, honest.out)

    @pytest.mark.parametrize("forks", [0, 1, 2], ids=["first", "second", "third"])
    def test_a_failed_fork_folds_the_range_here(self, tmp_path, capsys, monkeypatch, long_trace_lines, forks):
        lines = list(long_trace_lines)
        _, honest = run_check(tmp_path / "a.jsonl", lines, capsys)
        lines[9_990] = _cut_short(lines[9_990])
        _, bad = run_check(tmp_path / "b.jsonl", lines, capsys)
        fork, in_order, tries = os.fork, cli._in_order, []

        def counted_in_order(*args):
            tries.append(0)  # the forks one file's ranges try
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
        # one range forks nothing, and no fork is tried after one failed
        assert tries == [0, min(2, forks + 1), min(3, forks + 1)] * 3

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

    def test_the_range_count(self, monkeypatch):
        # check and simulate run as many processes as _process_count says
        size = 3 * cli._MIN_RANGE_BYTES
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        assert cli._process_count() == 4
        assert [cli._range_count(k * size // 3) for k in (0, 1, 2, 3, 9)] == [1, 1, 2, 3, 4]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # taskset -c 0
        assert (cli._process_count(), cli._range_count(size)) == (1, 1)
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            m.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
            assert (cli._process_count(), cli._range_count(size)) == (1, 1)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert (cli._process_count(), cli._range_count(size)) == (1, 1)

    @pytest.mark.parametrize("index", [100, 9_990], ids=["first_range", "last_range"])
    def test_a_line_nested_too_deeply_is_malformed(self, tmp_path, capsys, long_trace_lines, index):
        # json.loads raises RecursionError on it, not JSONDecodeError
        lines = list(long_trace_lines)
        lines[index] = "[" * 100_000 + "]" * 100_000
        code, out = run_check(tmp_path / "t.jsonl", lines, capsys)
        assert code == EXIT_IO and out.out == ""
        assert out.err == f"error: malformed trace: line {index + 1}: nested too deeply to decode\n"


def per_line_parse(path):
    """`cli._parse_trace_file` with one json.loads call per line and the
    whole trace in memory: the reference the chunked decoding and folding
    must agree with. `check` takes its trace where it takes a certificate."""
    with open(path, "r", encoding="utf-8") as fh:
        values = [json.loads(line) for line in fh if line.strip()]
    if not values:
        raise ValueError("trace file is empty")
    header, records = values[0], values[1:]
    cli._check_header(header)
    summary = None
    if records and isinstance(records[-1], dict) and "metrics" in records[-1]:
        summary = records.pop()
        if not isinstance(summary["metrics"], dict):
            raise ValueError("summary metrics must be an object")
    return header, Trace.from_records(header["config"], records), summary


def assert_same_certificate(cert, ref):
    assert cert.ledger == ref.ledger
    # repr tells -0.0 from 0.0 and shows a NaN
    assert repr(cli.check_claims(cert)) == repr(cli.check_claims(ref))


def _split_and_merge(lines):
    # record 3 is cut at a comma over two lines and records 8 and 9 share
    # one: joined with "," alone the lines would still make 40 records
    head, tail = lines[3].split(",", 1)
    lines[8:10] = [lines[8] + "," + lines[9]]
    lines[3:4] = [head, tail]


def _extra_key(value):
    def edit(lines):
        for i in (2, 7, 13):
            rec = json.loads(lines[i])
            rec["note"] = value
            lines[i] = json.dumps(rec)
    return edit


def _blank_lines_at_chunk_edges(lines):
    for i in (41, 11, 10, 6, 5, 2):
        lines.insert(i, " \t" if i % 2 else "")


def _crlf_line_endings(lines):
    lines[:] = [line + "\r" for line in lines]


def _bad_line_in_the_middle(lines):
    lines[20] = lines[20][:-1]


def _header_only(lines):
    del lines[1:]


def _header_and_summary(lines):
    del lines[1:-1]


DECODE_CORPUS = {
    # name: (edit of the lines of an honest 40-round trace, exit code)
    "honest": (lambda lines: None, EXIT_OK),
    "split_and_merge": (_split_and_merge, EXIT_IO),
    "two_records_on_one_line": (TestCheck._two_records_on_one_line, EXIT_IO),
    "bracket_in_a_string": (_extra_key("a[b]c"), EXIT_OK),
    "list_valued_extra_key": (_extra_key([1, [2, 3]]), EXIT_OK),
    "blank_lines_at_chunk_edges": (_blank_lines_at_chunk_edges, EXIT_OK),
    "crlf_line_endings": (_crlf_line_endings, EXIT_OK),
    "bad_line_in_the_middle": (_bad_line_in_the_middle, EXIT_IO),
    "header_only": (_header_only, EXIT_OK),
    # the summary no longer matches the records it counted
    "header_and_summary": (_header_and_summary, EXIT_CHECK_FAILED),
}
CHUNK_SIZES = pytest.mark.parametrize("size", [1, 2, 5, None], ids=["1", "2", "5", "default"])
FINAL_NEWLINE = pytest.mark.parametrize(
    "final_newline", [True, False], ids=["newline", "no_newline"]
)


class TestChunkedDecoding:
    """`check` decodes a chunk of lines per json.loads call; each file must
    get the exit code, header, trace and summary of per-line decoding."""

    @staticmethod
    def assert_agrees(tmp_path, monkeypatch, capsys, size, horizon, edit, code, final_newline):
        if size is not None:
            monkeypatch.setattr(cli, "_DECODE_CHUNK", size)
        cfg = simulate_config(tmp_path, horizon=horizon)
        path = tmp_path / "trace.jsonl"
        assert main(["simulate", "-c", cfg, "-o", str(path)]) == EXIT_OK
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + ("\n" if final_newline else ""), newline="")
        capsys.readouterr()
        with monkeypatch.context() as m:
            m.setattr(cli, "_parse_trace_file", per_line_parse)
            assert main(["check", str(path)]) == code
            reference = capsys.readouterr()
        assert main(["check", str(path)]) == code
        assert capsys.readouterr().out == reference.out
        if code == EXIT_IO:
            return
        header, cert, summary = cli._parse_trace_file(str(path))
        ref_header, ref_trace, ref_summary = per_line_parse(str(path))
        assert header == ref_header and summary == ref_summary
        assert_same_certificate(cert, experiments._Certificate.of(ref_trace))
        # the records the chunks decode to, over every fold, in one trace
        gathered = []

        def gather(config, records):
            records = list(records)
            gathered.extend(records)
            return experiments._fold_records(config, records)

        monkeypatch.setattr(cli, "_fold_records", gather)
        cli._parse_trace_file(str(path))
        trace = Trace.from_records(header["config"], gathered)
        assert len(trace) == len(ref_trace)
        for c in experiments._COLUMNS:
            a, b = getattr(trace, c.attr), getattr(ref_trace, c.attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), c.attr

    @CHUNK_SIZES
    @pytest.mark.parametrize("name", sorted(DECODE_CORPUS))
    @FINAL_NEWLINE
    def test_agrees_with_per_line_decoding(
        self, tmp_path, monkeypatch, capsys, name, size, final_newline
    ):
        edit, code = DECODE_CORPUS[name]
        self.assert_agrees(tmp_path, monkeypatch, capsys, size, 40, edit, code, final_newline)

    @CHUNK_SIZES
    @FINAL_NEWLINE
    def test_summary_alone_in_the_last_chunk(
        self, tmp_path, monkeypatch, capsys, size, final_newline
    ):
        # the header is read on its own, so records that fill whole chunks
        # leave the summary alone in the last one
        size_used = size or cli._DECODE_CHUNK
        horizon = size_used * max(1, 40 // size_used)
        self.assert_agrees(
            tmp_path, monkeypatch, capsys, size, horizon, lambda lines: None, EXIT_OK,
            final_newline,
        )

    def test_a_bracket_opened_on_one_line_and_closed_on_the_next_is_refused(self):
        # wrapped, "[1" and "2]" make one wrapper holding two values, so the
        # values add up to the line count: only the count of "[" catches it
        with pytest.raises(ValueError, match="line 7: "):
            cli._decode_lines(["[1\n", "2]\n"], 7)

    def test_split_and_merge_fools_an_unwrapped_join(self, tmp_path):
        # why each line gets its own brackets: joined with "," alone, the
        # split-and-merged lines decode to as many records as before
        cfg = simulate_config(tmp_path, horizon=40)
        path = tmp_path / "trace.jsonl"
        assert main(["simulate", "-c", cfg, "-o", str(path)]) == EXIT_OK
        lines = path.read_text().splitlines()[1:-1]
        _split_and_merge(lines)
        joined = json.loads("[" + ",".join(lines) + "]")
        assert len(joined) == 40 and all(isinstance(rec, dict) for rec in joined)
        with pytest.raises(ValueError, match="line 5: "):
            cli._decode_lines([line + "\n" for line in lines], 2)


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
    ])
    def test_incomplete_task_spec_is_a_validation_error(self, tmp_path, capsys, field, value, message):
        stream = preset_math_like("easy")
        cfg = {"stream": stream, "samples": 100}
        if field == "problems":
            del stream["problems"]
        else:
            cfg[field] = value
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
