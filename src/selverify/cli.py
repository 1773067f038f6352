"""Command-line surface.

Subcommands: simulate (one run to a line-delimited JSON trace file), sweep
(target grid plus baseline anchors to CSV), population (optimal-policy
values to JSON lines), check (re-verify a trace file's bounds and claims),
diagnose (score diagnostics for a stream spec).

Configs are JSON documents. --set path=value overrides an existing key
(dotted paths descend into nested objects; creating new keys is refused).
--seed replaces the config's seed entry. Output files are written to a
temporary file and renamed into place, so failures never leave partial
output. Relative output paths resolve under $SELVERIFY_OUTPUT_DIR when it
is set.

Exit codes: 0 success / all checks pass, 1 check failure, 2 I/O or parse
error, 3 validation error.

simulate and check run in parallel forked processes, up to one per CPU
this process may run on (`_process_count`), through one helper,
`_in_order`: simulate formats ranges of rounds in workers, check folds
byte ranges of the file in workers. A worker keeps its result in its own
memory and hands the bytes back through a pipe; the command process
alone writes the file or merges the certificates, in order. Where a fork
fails, the command process runs that share and every later one itself.
Output, verdicts and exit codes do not depend on the number of processes.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import os
import pickle
import shutil
import stat
import sys
import tempfile
from typing import Iterator, Optional, TextIO

from . import __version__, _kernel, kernel_backend
from .distributions import dist_from_dict
from .experiments import (
    ParetoPoint,
    RunSpec,
    _Certificate,
    _check_count,
    _fold_records,
    _kernel_chunks,
    _kernel_path,
    _rep_setup,
    _takes,
    _write_rows,
    check_claims,
    run_rep,
    sweep,
    verify_bound,
)
from .metrics import ErrorLedger
from .policy import PolicyConfig, ProtocolError
from .population import (
    PolicyKind,
    PopulationSpec,
    brute_force_value,
    discretize,
    effective_weights,
    optimal_policy,
    value,
)
from .streams import score_report

__all__ = ["main", "SWEEP_COLUMNS", "point_to_row", "point_from_row"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_IO = 2
EXIT_VALIDATION = 3

# A sweep CSV row holds the compared fields of `ParetoPoint` in declaration
# order; each cell is parsed by its field's annotation.
_CELL_PARSERS = {
    "Optional[float]": lambda s: None if s == "" else float(s),
    "float": float,
    "int": int,
    "bool": lambda s: bool(int(s)),
}
_SWEEP_FIELDS = [
    (f.name, _CELL_PARSERS[f.type]) for f in dataclasses.fields(ParetoPoint) if f.compare
]
SWEEP_COLUMNS = [name for name, _ in _SWEEP_FIELDS]

# Trace lines decoded per json.loads call by `check`.
_DECODE_CHUNK = 512
# The fewest bytes of a trace file `check` gives a process of its own. A
# forked process costs about 7 ms: 2 ms to fork, pipe and join, the rest
# in copying the pages it writes. Split in two, a 4 MiB file (16,000
# rounds) was checked faster than by one process in 25 of 25 alternated
# runs, a 2 MiB file in 19 of 25, and a 1 MiB file in 1 of 25.
_MIN_RANGE_BYTES = 2 << 20
# Rounds of `simulate` per forked worker, in `_kernel._CHUNK` blocks. A
# worker holds its range's text, about 1 MB per block. Medians of 10
# alternated fresh-process runs on the 100k-round `trace_io` seed-1 config
# (25 blocks), shared 2-core host, each worker writing its own range to
# the file: 0.65 s in one process; 0.46 s with 4 blocks per worker, 0.45 s
# with 10, 0.42 s with 13, 0.48 s with 16, 0.58 s with 20. At 1M rounds:
# 6.5 s in one process; 5.3 s with 4, 4.6 s with 8, 4.2 s with 13, 4.1 s
# with 24, where a worker peaks at 54 MB against 43 MB with 13.
_RANGE_CHUNKS = 13


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config root must be a JSON object, got {type(cfg).__name__}")
    return cfg


def _parse_override(text: str) -> tuple[list[str], object]:
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ValueError(f"override must look like path.to.key=value, got {text!r}")
    try:
        val = json.loads(raw)
    except json.JSONDecodeError:
        val = raw
    return key.split("."), val


def _apply_overrides(cfg: dict, overrides) -> None:
    for text in overrides or ():
        path, val = _parse_override(text)
        node = cfg
        for part in path[:-1]:
            if not isinstance(node, dict) or part not in node:
                raise ValueError(f"override path {'.'.join(path)!r} does not exist in the config")
            node = node[part]
        leaf = path[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ValueError(f"override path {'.'.join(path)!r} does not exist in the config")
        node[leaf] = val


def _resolve_output(path: Optional[str], default_name: str) -> str:
    out = path or default_name
    env = os.environ.get("SELVERIFY_OUTPUT_DIR")
    if env and not os.path.isabs(out):
        out = os.path.join(env, out)
    return out


@contextlib.contextmanager
def _atomic_write(path: str) -> Iterator[TextIO]:
    """A text file to write `path` through: it appears under that name only
    once the block completes."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _summary_metrics(ledger: ErrorLedger) -> dict:
    return {
        "err_type1": ledger.err_type1(),
        "err_type2": ledger.err_type2(),
        "err_type1_threshold": ledger.err_type1_threshold(),
        "err_type2_threshold": ledger.err_type2_threshold(),
        "sv_rate": ledger.sv_rate(),
    }


def _delta(config: dict, what: str = "delta") -> float:
    """The `delta` of a run config, 0.05 if it has none. Raises ValueError
    unless it is a JSON number in (0, 1)."""
    delta = config.get("delta", 0.05)
    if type(delta) not in (int, float) or not 0.0 < delta < 1.0:
        raise ValueError(f"{what} must be a number in (0, 1), got {delta!r}")
    return delta


def _process_count() -> int:
    """How many processes `simulate` or `check` may run at once: one per
    CPU this process may run on, and one where processes cannot be
    forked. So `taskset -c 0` runs either command in one process."""
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


@contextlib.contextmanager
def _in_order(works, procs: int, what: str) -> Iterator[Iterator]:
    """Run the callables `work(out)` of `works`, each of which writes its
    result to the binary file `out`, and yield an iterator of functions
    `copy(dest)`, one per work and in its order, each of which writes that
    work's result to the binary file `dest`; call each before the next.

    A work is taken from `works` just before it starts, so it runs on from
    the state the works before it left. With `procs` > 1 up to `procs`
    works run at once, each in a process of its own (`_fork`): `copy`
    copies the bytes from its pipe and then waits for it (`_wait`). Where
    `procs` is 1, and from the first fork that fails on, `copy` runs the
    work itself. No process outlives the block."""
    works, started = iter(works), collections.deque()

    def copy(dest) -> None:
        pid, got = started[0]
        if pid is None:
            started.popleft()
            got(dest)
            return
        with got:
            shutil.copyfileobj(got, dest)
        started.popleft()
        _wait(pid, what)

    def copies():
        nonlocal procs
        while True:
            while len(started) < procs and (work := next(works, None)) is not None:
                got = _fork(work) if procs > 1 else None
                if got is None:
                    procs, got = 1, (None, work)
                started.append(got)
            if not started:
                return
            yield copy

    try:
        yield copies()
    finally:
        for pid, got in started:  # left by a failed command
            if pid is not None:
                import signal  # not with the package: only a failed command needs it

                # kill before waiting: the processes forked later hold this
                # pipe's read end too, so closing it does not stop the writer
                os.kill(pid, signal.SIGKILL)
                got.close()
                os.waitpid(pid, 0)


def _format_range(chunks, cert: _Certificate, out) -> None:
    """Write the rows of the column `chunks` to the binary file `out` and
    fold them into `cert`."""
    text = io.TextIOWrapper(out, encoding="utf-8", newline="")
    try:
        for cols in chunks:
            _write_rows(text, cols)
            cert.add(cols)
    finally:
        text.detach()


def _write_chunks(fh: TextIO, chunks, cert: _Certificate, procs: int) -> None:
    """Write the rows of the column `chunks` to `fh` and fold them into
    `cert`, in order: one `_in_order` work formats each range of
    `_RANGE_CHUNKS` chunks. A work that runs in a process of its own runs
    on from the chunk generator's state at the start of its range; this
    process folds that range as it takes the next work, and copies the
    rows into `fh`, so it alone writes the file."""
    chunks = iter(chunks)

    def works():
        for cols in chunks:
            rows = itertools.chain([cols], itertools.islice(chunks, _RANGE_CHUNKS - 1))
            yield functools.partial(_format_range, rows, cert)
            for cols in rows:  # none are left where the work ran here
                cert.add(cols)

    fh.flush()  # the rows go to its buffer, after the text written so far
    with _in_order(works(), procs, "writing part of the trace") as copies:
        for copy in copies:
            copy(fh.buffer)


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _apply_overrides(cfg, args.set)
    if args.seed is not None:
        cfg["seed_base"] = args.seed
    rep = cfg.get("rep", 0)
    _check_count("rep", rep, 0)
    delta = _delta(cfg)
    spec = RunSpec(
        policy=PolicyConfig.from_dict(cfg["policy"]),
        stream=cfg["stream"],
        horizon=cfg.get("horizon"),
        repetitions=rep + 1,
        seed_base=cfg.get("seed_base", 0),
    )
    config, stream, echo = _rep_setup(spec, rep)
    procs = 1
    if _kernel_path(stream, spec.horizon):
        chunks = _kernel_chunks(config, _takes(stream, spec.horizon))
        # a run of one range is formatted here: a worker would only add a fork
        known = [n for n in (spec.horizon, getattr(stream, "total_length", None)) if n is not None]
        if not known or min(known) > _RANGE_CHUNKS * _kernel._CHUNK:
            procs = _process_count()
    else:
        # task runs are short: they run in memory and are written as one chunk
        chunks = [vars(run_rep(spec, rep))]
    print(f"kernel backend: {kernel_backend()}", file=sys.stderr)
    echo["delta"] = delta
    cert = _Certificate(echo, ledger_only=True)
    out = _resolve_output(args.output, "trace.jsonl")
    with _atomic_write(out) as fh:
        fh.write(_dumps({"config": echo, "version": __version__}) + "\n")
        _write_chunks(fh, chunks, cert, procs)
        bounds = verify_bound(cert, delta)
        m = _summary_metrics(cert.ledger)
        fh.write(_dumps({"metrics": m, "bounds": bounds}) + "\n")
    print(f"wrote {cert.ledger.total} rounds to {out}")
    print(
        f"err_type1={m['err_type1']:.6f} err_type2={m['err_type2']:.6f} "
        f"sv_rate={m['sv_rate']:.6f}"
    )
    for side in ("type1", "type2"):
        s = bounds["sides"][side]
        status = "PASS" if s["pass"] else "FAIL"
        print(f"bound {side}: err={s['err']:.6f} <= {s['bound']:.6f} {status}")
    return EXIT_OK


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def point_to_row(p: ParetoPoint) -> list[str]:
    return [_fmt_cell(getattr(p, name)) for name in SWEEP_COLUMNS]


def point_from_row(row: list[str]) -> ParetoPoint:
    return ParetoPoint(
        **{name: parse(cell) for (name, parse), cell in zip(_SWEEP_FIELDS, row)}
    )


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    _apply_overrides(cfg, args.set)
    if args.seed is not None:
        cfg["seed_base"] = args.seed
    template = PolicyConfig.from_dict(cfg["policy"])
    targets = [(float(a), float(b)) for a, b in cfg["targets"]]
    rows = sweep(
        policy_template=template,
        stream_spec=cfg["stream"],
        targets=targets,
        repetitions=cfg.get("repetitions", 1),
        seed_base=cfg.get("seed_base", 0),
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    writer.writerows(point_to_row(p) for p in rows)
    out = _resolve_output(args.output, "sweep.csv")
    with _atomic_write(out) as fh:
        fh.write(buf.getvalue())
    print(f"wrote {len(rows)} rows to {out}")
    for p in rows:
        tag = "oracle" if p.is_oracle else "weak_only" if p.is_weak_only else f"a={p.alpha} b={p.beta}"
        print(
            f"{tag}: accuracy={p.accuracy:.4f} (se {p.accuracy_stderr:.4f}) "
            f"strong/problem={p.strong_per_problem:.4f}"
        )
    return EXIT_OK


def cmd_population(args) -> int:
    cfg = _load_config(args.config)
    _apply_overrides(cfg, args.set)
    dist = dist_from_dict(cfg["score_dist"])
    alpha0 = float(cfg["alpha0"])
    alpha1 = float(cfg["alpha1"])
    calibrated = cfg.get("calibrated", False)
    if not isinstance(calibrated, bool):
        raise ValueError(f"calibrated must be true or false, got {calibrated!r}")
    atoms = cfg.get("atoms", 1001)
    _check_count("atoms", atoms, 2)
    lines = []
    worst_gap = 0.0
    worst_tol = 0.0
    all_ok = True
    for pair in cfg["pairs"]:
        lam1, lam2 = float(pair[0]), float(pair[1])
        spec = PopulationSpec(
            score_dist=dist,
            lambda1=lam1,
            lambda2=lam2,
            alpha0=alpha0,
            alpha1=alpha1,
            calibrated=calibrated,
        )
        a, b = effective_weights(spec)
        pol = optimal_policy(a, b)
        val = value(spec)
        bf, _ = brute_force_value(discretize(spec, atoms))
        rec = {
            "lambda1": lam1,
            "lambda2": lam2,
            "a": a,
            "b": b,
            "policy_kind": pol.kind.value,
            "value": val,
            "brute_force_value": bf,
        }
        if pol.kind is PolicyKind.THREE_REGION:
            rec["t_low"] = pol.reject_below
            rec["t_high"] = pol.accept_above
        elif pol.kind is PolicyKind.TWO_REGION:
            rec["w_star"] = pol.crossover
        lines.append(_dumps(rec))
        # discretization moves each atom at most half a cell; the cost is
        # max(a, b)-Lipschitz in the score
        tol = max(a, b) / (2.0 * (atoms - 1)) + 1e-9
        gap = abs(val - bf)
        if gap > worst_gap:
            worst_gap, worst_tol = gap, tol
        if gap > tol:
            all_ok = False
    out = _resolve_output(args.output, "population.jsonl")
    with _atomic_write(out) as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} lines to {out}")
    print(
        f"grid oracle agreement: worst |value - brute_force_value| = {worst_gap:.3e} "
        f"(tolerance {worst_tol:.3e}) {'PASS' if all_ok else 'FAIL'}"
    )
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


class _LineError(ValueError):
    """A line that is not JSON. Its args are the line's number in the file
    and what is wrong with it."""

    def __str__(self) -> str:
        return "line {}: {}".format(*self.args)


def _decode_line(line: str, lineno: int):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise _LineError(lineno, f"{exc.msg} (column {exc.pos + 1})") from None
    except RecursionError:
        raise _LineError(lineno, "nested too deeply to decode") from None


def _decode_lines(lines: list, first: int) -> list:
    """The values of the non-blank lines in `lines`, the first of which is
    line `first` of its file.

    The lines are decoded by one json.loads call, each wrapped in its own
    brackets, and the result is used only if the text holds no other "["
    and every wrapper holds one value. That is what decoding the lines one
    at a time gives: a line keeps its newline and a JSON string cannot hold
    a raw one, so no string spans two lines, and with no other "[" each
    "]" can only close its own line's wrapper. Otherwise the lines are
    decoded one at a time, so that an error names its line.
    """
    chunk = list(filter(str.strip, lines))
    text = "[[" + "],[".join(chunk) + "]]"
    if text.count("[") == len(chunk) + 1:
        try:
            wrapped = json.loads(text)
        except (ValueError, RecursionError):
            pass
        else:
            if sum(map(len, wrapped)) == len(chunk):
                return [w[0] for w in wrapped]
    return [_decode_line(line, n) for n, line in enumerate(lines, first) if line.strip()]


def _check_header(header) -> None:
    """Raise ValueError unless `header` holds the config and version that
    `simulate` writes, with a policy `PolicyConfig` takes as it is and a
    `delta` in (0, 1) if one is given."""
    if (
        not isinstance(header, dict)
        or not isinstance(header.get("config"), dict)
        or "version" not in header
    ):
        raise ValueError("first line must be a header object with config and version")
    config = header["config"]
    policy = config.get("policy")
    if not isinstance(policy, dict):
        raise ValueError("header config must hold a policy object")
    try:
        full = PolicyConfig.from_dict(policy).to_dict()
    except (TypeError, ValueError) as exc:
        raise ValueError(f"header policy: {exc}") from None
    if full.keys() != policy.keys():
        missing = sorted(full.keys() - policy.keys())
        raise ValueError(f"header policy lacks {', '.join(missing)}")
    _delta(config, "header delta")


class _ByteRange(io.RawIOBase):
    """The bytes [pos, end) of the file open as `fd`, read with pread, so
    that the processes reading one descriptor share no file offset. `end`
    may be moved while no byte beyond it has been read."""

    def __init__(self, fd: int, pos: int, end: int):
        self.fd, self.pos, self.end = fd, pos, end

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        data = os.pread(self.fd, min(len(buf), self.end - self.pos), self.pos)
        buf[:len(data)] = data
        self.pos += len(data)
        return len(data)


def _range_lines(fd: int, start: int, end: int) -> TextIO:
    """The lines of the bytes [start, end) of `fd`, read as `open` reads a
    text file: UTF-8 with universal newlines."""
    return io.TextIOWrapper(_ByteRange(fd, start, end), encoding="utf-8")


def _range_count(size: int) -> int:
    """How many processes fold a trace file of `size` bytes: up to
    `_process_count`, each with `_MIN_RANGE_BYTES` or more."""
    return max(1, min(_process_count(), size // _MIN_RANGE_BYTES))


def _range_starts(fd: int, lo: int, size: int, n: int) -> list[int]:
    """Where the second to the nth of n near-equal ranges of the bytes
    [lo, size) of `fd` start, each just after a newline; fewer where
    lines are long."""
    starts = set()
    for k in range(1, n):
        pos = lo + (size - lo) * k // n
        while pos < size and (block := os.pread(fd, 1 << 16, pos)):
            if (i := block.find(b"\n")) >= 0:
                starts.add(pos + i + 1)
                break
            pos += len(block)
    return sorted(start for start in starts if start < size)


def _fold_range(config: dict, lines) -> tuple[_Certificate, list]:
    """The certificate of the values of the non-blank `lines` but the last,
    and a list holding the text of that last line (empty if there is
    none): the caller decides whether it is the summary or a record. A
    `_LineError` numbers the lines from 1."""
    tail = []  # the last non-blank line so far, and its value
    first = 1

    def held_chunks():
        nonlocal first
        while chunk := list(itertools.islice(lines, _DECODE_CHUNK)):
            values = _decode_lines(chunk, first)
            first += len(chunk)
            if values:
                held = tail[1:] + values[:-1]
                tail[:] = next(filter(str.strip, reversed(chunk))), values[-1]
                yield held

    return _fold_records(config, itertools.chain.from_iterable(held_chunks())), tail[:1]


def _fold_part(config: dict, lines, skipped, out) -> None:
    """Pickle to the binary file `out` the `_fold_range` of `lines` and
    None, or None and the exception it raised. `skipped()` is the number
    of lines in the file before `lines`, so that a `_LineError` names the
    line in the file."""
    try:
        got = _fold_range(config, lines), None
    except Exception as exc:
        if isinstance(exc, _LineError):
            lineno, msg = exc.args
            exc = _LineError(lineno + skipped(), msg)
        got = None, exc
    pickle.dump(got, out)


def _parse_trace_file(
    path: str, ranges: Optional[int] = None
) -> tuple[dict, _Certificate, Optional[dict]]:
    """Header, certificate and summary (or None) of a `simulate` file,
    decoded a chunk of lines at a time and folded as it is read. The header
    is checked before any record is decoded. The summary is a `metrics`
    object on the last non-blank line; any other line after the header
    must be a round record.

    The lines after the header are cut into `ranges` byte ranges
    (`_range_count` of the file's size by default), each starting just
    after a newline; a file that is not a regular one (a pipe, say) is one
    range. The first range continues the header's reader. Each range is
    one `_in_order` work, all of them at once, and this process merges
    their certificates in file order, folding the last value of each range
    in its place, except the file's last, which may be the summary."""
    with open(path, "rb", buffering=0) as fh:
        fd = fh.fileno()
        st = os.fstat(fd)
        regular = stat.S_ISREG(st.st_mode)
        if regular:
            lines = _range_lines(fd, 0, st.st_size)
        else:
            lines = io.TextIOWrapper(fh, encoding="utf-8")
        lineno, header = 0, None
        for lineno, line in enumerate(lines, 1):
            if line.strip():
                header = _decode_line(line, lineno)
                break
        if header is None:
            raise ValueError("trace file is empty")
        _check_header(header)
        config = header["config"]
        starts = []
        if regular:
            # the other ranges lie past the bytes that reading the header took in
            n = _range_count(st.st_size) if ranges is None else ranges
            starts = _range_starts(fd, lines.buffer.pos, st.st_size, n)
            lines.buffer.end = (starts + [st.st_size])[0]

        def later(start: int, end: int):
            return functools.partial(
                _fold_part, config, _range_lines(fd, start, end),
                lambda: sum(1 for _ in _range_lines(fd, 0, start)),
            )

        works = itertools.chain(
            [functools.partial(_fold_part, config, lines, lambda: lineno)],
            itertools.starmap(later, zip(starts, starts[1:] + [st.st_size])),
        )
        cert, held = _Certificate(config), []
        with _in_order(works, len(starts) + 1, "reading part of the file") as copies:
            for copy in copies:
                out = io.BytesIO()
                copy(out)
                result, exc = pickle.loads(out.getbuffer())
                if exc is not None:
                    raise exc
                part, tail = result
                if tail:  # a range of blank lines leaves what is held for later
                    cert.merge(_fold_records(config, map(json.loads, held))).merge(part)
                    held = tail
    values = [json.loads(line) for line in held]
    summary = None
    if values and isinstance(values[0], dict) and "metrics" in values[0]:
        summary = values.pop()
        if not isinstance(summary["metrics"], dict):
            raise ValueError("summary metrics must be an object")
    cert.merge(_fold_records(config, values))
    return header, cert, summary


def cmd_check(args) -> int:
    delta = None if args.delta is None else _delta({"delta": args.delta}, "--delta")
    try:
        header, cert, summary = _parse_trace_file(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return EXIT_IO
    except (KeyError, ValueError, TypeError, IndexError, OverflowError) as exc:
        print(f"error: malformed trace: {exc}", file=sys.stderr)
        return EXIT_IO
    if delta is None:
        delta = _delta(header["config"])
    failures = 0
    bounds = verify_bound(cert, delta)
    labels = {"type1": "N₀", "type2": "N₁"}
    for side in ("type1", "type2"):
        s = bounds["sides"][side]
        status = "PASS" if s["pass"] else "FAIL"
        failures += 0 if s["pass"] else 1
        if s["vacuous"]:
            print(f"bound {side}: vacuous: {labels[side]}=0 {status}")
        else:
            print(
                f"bound {side}: err={s['err']:.6f} <= {s['bound']:.6f} "
                f"(margin {s['margin']:.6f}) {status}"
            )
    claims = check_claims(cert)
    for name, claim in claims["claims"].items():
        status = "PASS" if claim["pass"] else "FAIL"
        failures += 0 if claim["pass"] else 1
        detail = {k: v for k, v in claim.items() if k != "pass"}
        print(f"claim {name}: {detail} {status}")
    if summary is not None:
        recomputed = _summary_metrics(cert.ledger)
        same = all(
            summary["metrics"].get(k) == v for k, v in recomputed.items()
        )
        failures += 0 if same else 1
        print(f"summary metrics match records: {'PASS' if same else 'FAIL'}")
    if failures:
        print(f"{failures} check(s) FAILED")
        return EXIT_CHECK_FAILED
    print("all checks passed")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    cfg = _load_config(args.config)
    _apply_overrides(cfg, args.set)
    seed = args.seed if args.seed is not None else cfg.get("seed")
    samples, bins = cfg.get("samples", 10**5), cfg.get("bins", 20)
    _check_count("samples", samples, 1)
    _check_count("bins", bins, 1)
    report = score_report(cfg["stream"], samples=samples, bins=bins, seed=seed)
    out = _resolve_output(args.output, "diagnose.json")
    with _atomic_write(out) as fh:
        fh.write(_dumps(report) + "\n")
    print(f"wrote diagnostics to {out}")
    print(f"samples={report['samples']}")
    print(
        f"sharpness |w-0.5|: mean={report['sharpness_mean']:.6f} "
        f"median={report['sharpness_median']:.6f} std={report['sharpness_std']:.6f}"
    )
    mu1, mu0, sep = report["mu_correct"], report["mu_incorrect"], report["separation"]
    print(f"mu_correct={_fmt_opt(mu1)} mu_incorrect={_fmt_opt(mu0)} separation={_fmt_opt(sep)}")
    print(f"brier={report['brier']:.6f}")
    return EXIT_OK


def _fmt_opt(v) -> str:
    return "n/a" if v is None else f"{v:.6f}"


def _add_common(sub, seed_help: str):
    sub.add_argument("-c", "--config", required=True, help="JSON config file")
    sub.add_argument("-o", "--output", help="output path (default under $SELVERIFY_OUTPUT_DIR)")
    sub.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override an existing config key (dotted path, JSON value)",
    )
    sub.add_argument("--seed", type=int, help=seed_help)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="selverify",
        description="Selective verification policies: simulate, sweep, and check.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="run one policy/stream trace to a JSONL file")
    _add_common(s, "override the config's seed_base")
    s.set_defaults(handler=cmd_simulate)

    s = sub.add_parser("sweep", help="evaluate target grid plus anchors to CSV")
    _add_common(s, "override the config's seed_base")
    s.set_defaults(handler=cmd_sweep)

    s = sub.add_parser("population", help="optimal population policies to JSON lines")
    _add_common(s, "ignored; population results are deterministic")
    s.set_defaults(handler=cmd_population)

    s = sub.add_parser("check", help="re-verify a trace file's bounds and claims")
    s.add_argument("trace", help="trace file from simulate")
    s.add_argument("--delta", type=float, help="confidence level (default: header's)")
    s.set_defaults(handler=cmd_check)

    s = sub.add_parser("diagnose", help="score diagnostics for a stream spec")
    _add_common(s, "override the config's sampling seed")
    s.set_defaults(handler=cmd_diagnose)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError, TypeError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
