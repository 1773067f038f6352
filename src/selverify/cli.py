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
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import os
import sys
import tempfile
from typing import Iterator, Optional, TextIO

from . import __version__, kernel_backend
from .distributions import dist_from_dict
from .experiments import (
    ParetoPoint,
    RunSpec,
    _Certificate,
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


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    _apply_overrides(cfg, args.set)
    if args.seed is not None:
        cfg["seed_base"] = args.seed
    rep = int(cfg.get("rep", 0))
    delta = _delta(cfg)
    spec = RunSpec(
        policy=PolicyConfig.from_dict(cfg["policy"]),
        stream=cfg["stream"],
        horizon=cfg.get("horizon"),
        repetitions=rep + 1,
        seed_base=int(cfg.get("seed_base", 0)),
    )
    config, stream, echo = _rep_setup(spec, rep)
    if _kernel_path(stream, spec.horizon):
        chunks = _kernel_chunks(config, _takes(stream, spec.horizon))
    else:
        # task runs are short: they run in memory and are written as one chunk
        chunks = [vars(run_rep(spec, rep))]
    print(f"kernel backend: {kernel_backend()}", file=sys.stderr)
    echo["delta"] = delta
    cert = _Certificate(echo, ledger_only=True)
    out = _resolve_output(args.output, "trace.jsonl")
    with _atomic_write(out) as fh:
        fh.write(_dumps({"config": echo, "version": __version__}) + "\n")
        for cols in chunks:
            _write_rows(fh, cols)
            cert.add(cols)
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
        repetitions=int(cfg.get("repetitions", 1)),
        seed_base=int(cfg.get("seed_base", 0)),
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
    calibrated = bool(cfg.get("calibrated", False))
    atoms = int(cfg.get("atoms", 1001))
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


def _decode_line(line: str, lineno: int):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {lineno}: {exc.msg} (column {exc.pos + 1})") from None


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


def _parse_trace_file(path: str) -> tuple[dict, _Certificate, Optional[dict]]:
    """Header, certificate and summary (or None) of a `simulate` file,
    decoded a chunk of lines at a time and folded as it is read. The header
    is checked before any record is decoded. The summary is a `metrics`
    object on the last non-blank line; any other line after the header
    must be a round record."""
    summary = None
    with open(path, "r", encoding="utf-8") as fh:
        lineno, header = 0, None
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                header = _decode_line(line, lineno)
                break
        if header is None:
            raise ValueError("trace file is empty")
        _check_header(header)

        def record_chunks():
            # holds each chunk back until it is known not to be the last
            nonlocal summary
            held, first = [], lineno + 1
            while lines := list(itertools.islice(fh, _DECODE_CHUNK)):
                values = _decode_lines(lines, first)
                first += len(lines)
                if values:
                    yield held
                    held = values
            if held and isinstance(held[-1], dict) and "metrics" in held[-1]:
                summary = held.pop()
                if not isinstance(summary["metrics"], dict):
                    raise ValueError("summary metrics must be an object")
            yield held

        records = itertools.chain.from_iterable(record_chunks())
        cert = _fold_records(header["config"], records)
    return header, cert, summary


def cmd_check(args) -> int:
    try:
        header, cert, summary = _parse_trace_file(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return EXIT_IO
    except (KeyError, ValueError, TypeError, IndexError, OverflowError) as exc:
        print(f"error: malformed trace: {exc}", file=sys.stderr)
        return EXIT_IO
    delta = args.delta
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
    report = score_report(
        cfg["stream"],
        samples=int(cfg.get("samples", 10**5)),
        bins=int(cfg.get("bins", 20)),
        seed=seed,
    )
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
