"""Command-line surface.

Subcommands: simulate (one run to a line-delimited JSON trace file), sweep
(target grid plus baseline anchors to CSV), population (optimal-policy
values to JSON lines), check (regenerate a trace file's run from its header,
compare it with the file and re-verify its bounds and claims),
diagnose (score diagnostics for a stream spec).

Configs are JSON documents. --set path=value overrides an existing key
(dotted paths descend into nested objects; creating new keys is refused).
--seed replaces the config's seed entry. Output files are written to a
temporary file and renamed into place, so failures never leave partial
output. Relative output paths resolve under $SELVERIFY_OUTPUT_DIR when it
is set.

Exit codes: 0 success / all checks pass, 1 check failure, 2 I/O or parse
error, 3 validation error.

simulate and check run one pipeline (`_trace_writer`) with two sinks:
simulate writes the trace file, check compares the bytes with the file it
is given (`_Compare`), so a file passes only if it is byte for byte the
run its header describes. The pipeline takes the run's column chunks from
`experiments._run_chunks`, which `run_one` reads too, and formats ranges
of rounds of a non-reactive stream in parallel forked processes, up to one
per CPU this process may run on (`_process_count`), through
`experiments._in_order`, the one helper that forks, for sweeps too: a
worker keeps its rows in its own memory and hands the bytes back through a
pipe, and the command process alone copies them into the sink, in order.
Where a fork fails, the command process runs that range and every later
one itself; where another thread is alive, it runs them all. Output,
verdicts, CSV rows and exit codes do not depend on the number of processes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import itertools
import json
import os
import shutil
import sys
import tempfile
from typing import Iterator, Optional, TextIO

from . import __version__, _kernel
from .distributions import dist_from_dict
from .experiments import (
    ParetoPoint,
    RunSpec,
    _Certificate,
    _REQUIRED,
    _check_horizon,
    _in_order,
    _process_count,
    _record_chunks,
    _rep_setup,
    _run_chunks,
    _write_rows,
    check_claims,
    run_rep,  # not called here: the benchmark's tracer wraps cli.run_rep
    sweep,
    verify_bound,
)
from .metrics import ErrorLedger
from .policy import PolicyConfig, ProtocolError, _check_count, _check_number, _check_pair
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

# Rounds per forked worker of `simulate` and `check`, in `_kernel._CHUNK`
# blocks; a worker holds its range's text, about 1 MB per block. Medians
# of 8 alternated fresh-process runs on the 100k-round `trace_io` seed-1
# config (25 blocks), shared 2-core Xeon host, simulate / check: 0.48 /
# 0.46 s in one process; 0.47 / 0.46, 0.51 / 0.47, 0.50 / 0.44 and 0.49 /
# 0.51 s with 4, 8, 13 and 20 blocks per worker, all within the 0.05 s
# that runs of one setting spread by.
_RANGE_CHUNKS = 13

# The most bytes a trace file line may take with its newline; a record takes ~260.
_MAX_LINE_BYTES = 1 << 20


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


def _write_chunks(sink, chunks, cert: _Certificate, procs: int) -> None:
    """Write the rows of the column `chunks` to the binary file `sink` and
    fold them into `cert`, in order: one `_in_order` work formats each
    range of `_RANGE_CHUNKS` chunks. A work that runs in a process of its
    own runs on from the chunk generator's state at the start of its range;
    this process folds that range as it takes the next work, and copies the
    rows into `sink`, so it alone writes the sink."""
    chunks = iter(chunks)

    def works():
        for cols in chunks:
            rows = itertools.chain([cols], itertools.islice(chunks, _RANGE_CHUNKS - 1))
            yield functools.partial(_format_range, rows, cert)
            for cols in rows:  # none are left where the work ran here
                cert.add(cols)

    with _in_order(works(), procs, "writing part of the trace") as copies:
        for copy in copies:
            copy(sink)


def _trace_writer(cfg: dict, claims: bool = False, most: Optional[int] = None):
    """Check the run config `cfg` (policy, stream, horizon, seed_base, rep
    and delta) and return a function `write(sink)` that writes the trace
    file of its run to the binary file `sink` and returns the run's
    certificate, with what `check_claims` reads if `claims` is set, and the
    bounds and metrics of the summary line.

    The run stops after `most` rounds if that is given, though the header
    still names the config's horizon. `write` takes the run's column chunks
    from `experiments._run_chunks` as it writes them."""
    rep = cfg.get("rep", 0)
    _check_count("rep", rep, 0)
    delta = _check_number("delta", cfg.get("delta", 0.05), " in (0, 1)")
    spec = RunSpec(
        policy=PolicyConfig.from_dict(cfg["policy"]),
        stream=cfg["stream"],
        horizon=cfg.get("horizon"),
        repetitions=rep + 1,
        seed_base=cfg.get("seed_base", 0),
    )
    config, stream, echo = _rep_setup(spec, rep)
    _check_horizon(stream, spec.horizon)  # the config's, not the cap `most`
    horizon = min((n for n in (spec.horizon, most) if n is not None), default=None)
    chunks = _run_chunks(config, stream, horizon, _kernel._CHUNK)
    # a run of one range, or a task run, which is short, is formatted here:
    # a worker would only add a fork
    ends = [n for n in (horizon, getattr(stream, "total_length", None)) if n is not None]
    short = stream.reactive or min(ends, default=sys.maxsize) <= _RANGE_CHUNKS * _kernel._CHUNK
    procs = 1 if short else _process_count()
    echo["delta"] = delta
    cert = _Certificate(echo, ledger_only=not claims)

    def write(sink):
        sink.write((_dumps({"config": echo, "version": __version__}) + "\n").encode())
        _write_chunks(sink, chunks, cert, procs)
        bounds = verify_bound(cert, delta)
        metrics = _summary_metrics(cert.ledger)
        sink.write((_dumps({"metrics": metrics, "bounds": bounds}) + "\n").encode())
        return cert, bounds, metrics

    return write


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _apply_overrides(cfg, args.set)
    if args.seed is not None:
        cfg["seed_base"] = args.seed
    write = _trace_writer(cfg)
    out = _resolve_output(args.output, "trace.jsonl")
    with _atomic_write(out) as fh:
        cert, bounds, m = write(fh.buffer)  # bytes, past the text layer
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
    rows = sweep(
        policy_template=template,
        stream_spec=cfg["stream"],
        targets=cfg["targets"],
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
    alpha0 = _check_number("alpha0", cfg["alpha0"])
    alpha1 = _check_number("alpha1", cfg["alpha1"])
    calibrated = cfg.get("calibrated", False)
    if not isinstance(calibrated, bool):
        raise ValueError(f"calibrated must be true or false, got {calibrated!r}")
    atoms = cfg.get("atoms", 1001)
    _check_count("atoms", atoms, 2)
    lines = []
    worst_gap = 0.0
    worst_tol = 0.0
    all_ok = True
    pairs = cfg["pairs"]
    if not isinstance(pairs, list):
        raise ValueError(f"pairs must be a list of pairs, got {pairs!r}")
    if not pairs:
        raise ValueError("pairs must hold at least one pair")
    for i, pair in enumerate(pairs):
        lam1, lam2 = _check_pair(f"pairs[{i}]", pair)
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


def _decode_line(line: bytes, lineno: int):
    """The JSON value of line `lineno` of a trace file. Raises ValueError,
    naming the line, where it holds none or is over `_MAX_LINE_BYTES`."""
    if len(line) > _MAX_LINE_BYTES:
        raise ValueError(f"line {lineno}: longer than {_MAX_LINE_BYTES} bytes")
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        why = f"{exc.msg} (column {exc.pos + 1})"
    except ValueError as exc:  # not UTF-8, or an integer too long to convert
        why = exc
    except RecursionError:
        why = "nested too deeply to decode"
    raise ValueError(f"line {lineno}: {why}")


def _check_header(header) -> None:
    """Raise ValueError unless `header` holds the config and version that
    `simulate` writes: this package's version, and every policy key."""
    config = header.get("config") if isinstance(header, dict) else None
    if not isinstance(config, dict) or "version" not in header:
        raise ValueError("first line must be a header object with config and version")
    if header["version"] != __version__:
        raise ValueError(f"header version {header['version']!r} is not this package's, {__version__!r}")
    policy = config.get("policy")
    missing = [
        f.name for f in dataclasses.fields(PolicyConfig) if not isinstance(policy, dict) or f.name not in policy
    ]
    if missing:
        raise ValueError(f"header policy lacks {', '.join(missing)}")


_ABSENT = object()


def _first_difference(a, b, path: str = ""):
    """The first key, in `_dumps` order, at which the JSON values `a` and
    `b` differ, as a dotted path, and the `_dumps` of each value there
    (absent for a missing key); None where they are the same."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            found = _first_difference(a.get(key, _ABSENT), b.get(key, _ABSENT), f"{path}{key}.")
            if found:
                return found
        return None
    shown = ["absent" if v is _ABSENT else _dumps(v) for v in (a, b)]
    return None if shown[0] == shown[1] else (path[:-1], *shown)


class _Differs(Exception):
    """A trace file is not the run its header describes; the message says
    where it first differs."""


class _Compare(io.RawIOBase):
    """A binary sink that compares the bytes written to it with the bytes
    the binary file `fh` reads next. From the first byte that differs on,
    it keeps what it is written up to the end of that line of the run, and
    then raises `_Differs`."""

    def __init__(self, fh):
        self.fh = fh
        # the bytes that matched and where the line they end on starts
        self.pos = self.start = 0
        self.rest = None  # the run's bytes from the first that differs

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        b, n = bytes(b), len(b)
        if self.rest is None:
            got = self.fh.read(n)
            same = n if got == b else next(
                (i for i, (x, y) in enumerate(zip(got, b)) if x != y), len(got)
            )
            if (end := b.rfind(b"\n", 0, same)) >= 0:
                self.start = self.pos + end + 1
            self.pos += same
            if same == n:
                return n
            self.rest, b = b"", b[same:]
        self.rest += b
        if b"\n" in self.rest:
            raise _Differs
        return n

    def lineno(self) -> int:
        """The number of the line the matched bytes end on, counted only now."""
        self.fh.seek(0)
        return 1 + sum(
            self.fh.read(min(_MAX_LINE_BYTES, self.start - i)).count(b"\n")
            for i in range(0, self.start, _MAX_LINE_BYTES)
        )


def _difference(fh, sink: _Compare) -> str:
    """What differs on the first line of the file `fh` that differs from
    the run `sink` compared it with. Raises ValueError where that line is
    neither a round record nor a summary."""
    n = sink.lineno()
    fh.seek(sink.start)
    line = fh.readline(_MAX_LINE_BYTES + 1)
    if not line.strip():
        return f"line {n}: " + ("the file has a blank line" if line else "the file ends before the run does")
    value = _decode_line(line, n)
    if n > 1:  # the header was checked before the run started
        try:
            if not (isinstance(value, dict) and "metrics" in value):
                next(_record_chunks([value]))  # raises unless it is a round record
            elif not isinstance(value["metrics"], dict):
                raise ValueError("summary metrics must be an object")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"line {n}: {exc}") from None
    run = line[:sink.pos - sink.start] + sink.rest[:sink.rest.index(b"\n")]
    found = _first_difference(value, json.loads(run))
    if found is None:
        return f"line {n}: the values are the run's, only the bytes differ"
    return "line {}: {} is {} in the file, {} in the run".format(n, *found)


# The length of the shortest line a round record can take: its required
# keys, each with a one-byte value, and a newline. So a file of n bytes
# holds fewer than n // _MIN_RECORD_BYTES + 1 records.
_MIN_RECORD_BYTES = len(_dumps(dict.fromkeys((c.key for c in _REQUIRED), 0))) + 1


def _open_trace(path: str):
    """The file at `path`, open for binary reads; one that cannot seek (a
    pipe, say) is first copied into an unnamed temporary file."""
    fh = open(path, "rb")
    if fh.seekable():
        return fh
    spool = tempfile.TemporaryFile()
    with fh:
        shutil.copyfileobj(fh, spool)
    spool.seek(0)
    return spool


def _check_trace(fh) -> _Certificate:
    """The certificate of the run whose trace file the binary file `fh` is,
    byte for byte, as `simulate`'s pipeline regenerates it from the header.
    Raises `_Differs` where the file is not that run, and ValueError on a
    bad header or a malformed first line that differs."""
    header = fh.readline(_MAX_LINE_BYTES + 1)
    if not header:
        raise ValueError("trace file is empty")
    header = _decode_line(header, 1)
    _check_header(header)
    # a run of more rounds than the file could hold is not the file
    most = os.fstat(fh.fileno()).st_size // _MIN_RECORD_BYTES + 1
    try:
        write = _trace_writer(header["config"], claims=True, most=most)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"header {exc}") from None
    fh.seek(0)
    sink = _Compare(fh)
    try:
        cert = write(sink)[0]
    except _Differs:
        raise _Differs(_difference(fh, sink)) from None
    if fh.read(1):
        raise _Differs(f"line {sink.lineno()}: the file goes on after the run ends")
    return cert


def cmd_check(args) -> int:
    delta = None if args.delta is None else _check_number("--delta", args.delta, " in (0, 1)")
    try:
        fh = _open_trace(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return EXIT_IO
    with fh:
        try:
            cert = _check_trace(fh)
        except _Differs as exc:
            print(f"trace differs from the run its header describes: {exc}")
            return EXIT_CHECK_FAILED
        except ValueError as exc:
            print(f"error: malformed trace: {exc}", file=sys.stderr)
            return EXIT_IO
    if delta is None:
        delta = cert.config["delta"]
    failures = 0
    bounds = verify_bound(cert, delta)
    for side, label in (("type1", "N₀"), ("type2", "N₁")):
        s = bounds["sides"][side]
        failures += not s["pass"]
        shown = f"vacuous: {label}=0" if s["vacuous"] else (
            f"err={s['err']:.6f} <= {s['bound']:.6f} (margin {s['margin']:.6f})"
        )
        print(f"bound {side}: {shown} {'PASS' if s['pass'] else 'FAIL'}")
    for name, claim in check_claims(cert)["claims"].items():
        failures += not claim["pass"]
        detail = {k: v for k, v in claim.items() if k != "pass"}
        print(f"claim {name}: {detail} {'PASS' if claim['pass'] else 'FAIL'}")
    print("trace is byte for byte the run its header describes: PASS")
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
