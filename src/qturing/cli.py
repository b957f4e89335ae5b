"""Command-line front end emitting reproducible CSV/JSON data.

Subcommands: ``pattern`` (head Bloch scatter), ``distance`` (paired-run
distance trace), ``stability`` (orbit stability report), ``oracle-check``
(simulation vs closed forms), ``lyapunov`` (divergence-rate fit).

``--alpha1`` accepts either a bare float (always treated as inexact) or a
``p/q`` pair meaning (p/q)*pi exactly; periodicity claims are only
meaningful with the exact form.  Outputs are deterministic: floats are
written with 17 significant digits, every output file gets a sibling
``<name>.manifest.json`` recording the resolved configuration and the
output checksum, and there is no randomness anywhere in the pipeline.

Exit codes: 0 success, 1 check failure, 2 usage or configuration error.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import re
import sys
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, NoReturn

from . import __version__, analysis, engine, oracle
from .engine import Subsystem, TapeState
from .schedule import LOG_GOLDEN_RATIO, AngleSequence, ScheduleConfig, ScheduleMode

_EXACT_RE = re.compile(r"^\s*([+-]?\d+)\s*/\s*(\d+)\s*$")

#: an argument that starts like a negative number (-3/7, -.5, -1e-9, -inf,
#: -nan) is an option's value, never an option
_NEGATIVE_RE = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

#: most digits read in each of an --alpha1 p/q's p and q; int() itself stops
#: at 4300 by default, with a message that names neither the flag nor a bound
_MAX_ALPHA1_DIGITS = 4300

#: CSV rows formatted per write while an output streams to disk
_CHUNK_ROWS = 1024

#: (header, row format) of each streamed CSV output
_PATTERN_CSV = ("n,s1,s2,s3,purity", "%d,%.17g,%.17g,%.17g,%.17g")
_DISTANCE_CSV = ("n,d2,overlap", "%d,%.17g,%.17g")

#: smallest --steps of the paired-trace commands, 1 elsewhere.  This rule and
#: their --delta >= 0 rule belong to the command line alone: the library's
#: paired runs (engine.pair_rows) take any step count >= 0 and any finite delta
_MIN_STEPS = {"distance": 2, "lyapunov": 2}

#: help texts shared by several subcommands; each states the bound main checks
_ALPHA1_HELP = ("first rotation angle: a finite float, or p/q meaning (p/q)*pi exactly, "
                "with 1 <= q <= 2**1020 after reduction")
_OUT_HELP = "output file path, not a directory"
_RECORD_EVERY_HELP = "record every k-th step, k >= 1 (default %(default)s)"


def parse_alpha1(spec: str, mode: ScheduleMode, delta: float) -> ScheduleConfig:
    """Schedule config from an alpha1 spec, float or exact 'p/q' of pi; errors name --alpha1."""
    match = _EXACT_RE.match(spec)
    if match:
        digits = max(len(match.group(1).lstrip("+-")), len(match.group(2)))
        if digits > _MAX_ALPHA1_DIGITS:
            raise ValueError(f"--alpha1 p and q must have at most {_MAX_ALPHA1_DIGITS} "
                             f"digits each, got {digits}")
        p, q = int(match.group(1)), int(match.group(2))
        if q == 0:
            raise ValueError(f"--alpha1 denominator must be >= 1, got {spec!r}")
        den = q // math.gcd(p, q)  # the reduced denominator that ScheduleConfig bounds
        if den > 2**1020:
            raise ValueError(f"--alpha1 denominator must be <= 2**1020, got {den.bit_length()} bits")
        return ScheduleConfig.exact_pi(p, q, mode=mode, delta=delta)
    try:
        value = float(spec)
    except ValueError:
        raise ValueError(f"--alpha1 must be a float or p/q, got {spec!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"--alpha1 must be finite, got {value}")
    return ScheduleConfig(mode=mode, alpha1=value, delta=delta)


def _config_json(cfg: ScheduleConfig) -> dict:
    return {
        "mode": cfg.mode.value,
        "alpha1": cfg.alpha1,
        "delta": cfg.delta,
        "exact": list(cfg.exact) if cfg.exact else None,
    }


def _json(obj: dict) -> str:
    """Strict JSON text: a NaN or infinity raises ValueError instead."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_chunks(header: str, fmt: str, rows: Iterable[tuple]) -> Iterator[bytes]:
    """UTF-8 CSV text: ``header``, then ``fmt % row`` for each row, every
    line newline-terminated, formatted _CHUNK_ROWS rows at a time by one
    bytes ``%`` on a flat tuple.

    Bytes, not str: with glibc 2.36, a str ``%`` of this size fragmented
    the C heap, so that 300 in-process ``pattern`` runs of 2000 steps left
    7 MB of it free but unused and the peak RSS grew run after run; the
    bytes ``%`` did not, and it needs no encoding after.
    """
    yield (header + "\n").encode()
    line = (fmt + "\n").encode()
    it = iter(rows)
    while batch := list(islice(it, _CHUNK_ROWS)):
        yield line * len(batch) % tuple(chain.from_iterable(batch))


def _naming(path: Path, op, *args):
    """``op(*args)``, whose OSError names ``path``, the requested output,
    instead of the temporary file that ``op`` was given."""
    try:
        return op(*args)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def _write_output(path: Path, chunks: Iterable[bytes], command: str, config: dict) -> None:
    """Write the byte ``chunks`` to ``path`` and its manifest: both or neither.

    The bytes stream into a temporary file beside ``path`` while their SHA-256
    is updated; the manifest goes to a second temporary file, and only then
    are both moved into place with os.replace.  On any exception, raised by
    the writing or by whatever produces ``chunks``, the temporary files are
    removed, and so are an output already moved into place and the manifest
    it did not get.
    """
    manifest_path = path.with_name(path.name + ".manifest.json")
    suffix = f".{os.getpid()}.{os.urandom(4).hex()}.tmp"
    tmp_data = path.with_name(f".{path.name}{suffix}")
    tmp_manifest = path.with_name(f".{manifest_path.name}{suffix}")
    placed = False
    try:
        digest = hashlib.sha256()
        with _naming(path, open, tmp_data, "xb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
        manifest = {
            "command": command,
            "config": config,
            "version": __version__,
            "output": path.name,
            "sha256": digest.hexdigest(),
        }
        with _naming(manifest_path, open, tmp_manifest, "xb") as fh:
            fh.write(_json(manifest).encode("utf-8"))
        _naming(path, os.replace, tmp_data, path)
        placed = True
        _naming(manifest_path, os.replace, tmp_manifest, manifest_path)
    except BaseException:
        stale = (path, manifest_path) if placed else ()
        for leftover in (tmp_data, tmp_manifest, *stale):
            leftover.unlink(missing_ok=True)
        raise


def _emit_report(report: dict, out: str | None, command: str, config: dict) -> None:
    text = _json(report)
    if out:
        _write_output(Path(out), [text.encode("utf-8")], command, config)
    else:
        sys.stdout.write(text)


def cmd_pattern(args: argparse.Namespace) -> int:
    schedule = parse_alpha1(args.alpha1, ScheduleMode(args.mode), 0.0)
    seq = AngleSequence(schedule)
    initial = engine.init_state(args.head_angle, TapeState(args.tape))
    rows = analysis.trajectory_bloch(seq, initial, args.steps, args.record_every)
    config = {
        "schedule": _config_json(schedule),
        "steps": args.steps,
        "head_angle": args.head_angle,
        "tape": args.tape,
        "record_every": args.record_every,
    }
    _write_output(Path(args.out), _csv_chunks(*_PATTERN_CSV, rows), "pattern", config)
    return 0


def cmd_distance(args: argparse.Namespace) -> int:
    schedule = parse_alpha1(args.alpha1, ScheduleMode(args.mode), args.delta)
    rows = analysis.distance_rows(schedule, args.steps, args.subsystem, args.record_every)
    config = {
        "schedule": _config_json(schedule),
        "delta": args.delta,
        "steps": args.steps,
        "subsystem": args.subsystem,
        "record_every": args.record_every,
    }
    _write_output(Path(args.out), _csv_chunks(*_DISTANCE_CSV, rows), "distance", config)
    return 0


def cmd_stability(args: argparse.Namespace) -> int:
    schedule = parse_alpha1(args.alpha1, ScheduleMode.FIBONACCI, 0.0)
    config = {
        "schedule": _config_json(schedule),
        "m": args.m,
        "deltas": args.deltas,
    }
    try:
        limits, found = analysis.stability_numeric(args.m, args.deltas, schedule)
    except analysis.ClosedFormMismatch as exc:  # a check failure, not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except analysis.NoPeriodicOrbit as exc:  # reported, then a usage error in main
        report = {
            "error": "not a periodic orbit",
            "alpha1": {"p": exc.p, "q": exc.q},
            "m": args.m,
            "conditions": exc.conditions,
        }
        _emit_report(report, args.out, "stability", config)
        raise
    p, q = schedule.exact
    results = []
    for res in found:
        row = {
            "delta": res.delta,
            "m11": res.m11,
            "m22": res.m22,
            "m11_closed": res.m11_closed,
            "m22_closed": res.m22_closed,
            "m11_rel_err": abs(res.m11 - limits.m11) / limits.m11 if limits.m11 else None,
            "m22_abs_err": abs(res.m22 - limits.m22),
        }
        if limits.tape is not None:
            row["tape"] = res.tape
            row["tape_rel_err"] = abs(res.tape - limits.tape) / abs(limits.tape)
        results.append(row)
    report = {
        "alpha1": {"p": p, "q": q},
        "m": args.m,
        "period": 2 * args.m,
        "limits": {"m11": limits.m11, "m22": limits.m22, "tape": limits.tape},
        "results": results,
    }
    _emit_report(report, args.out, "stability", config)
    return 0


def cmd_oracle_check(args: argparse.Namespace) -> int:
    """Compare the engine with the closed forms at every step; exit 1 on a failure.

    ``engine.iterate`` and ``oracle.predictions`` run side by side on one
    schedule, each from its own streams, and the oracle never reads an
    engine state.  A step fails when one of its six deviations exceeds the
    tolerance or is NaN; two runs of unequal length raise ValueError, which
    ``main`` turns into exit 2 with no report.
    """
    schedule = parse_alpha1(args.alpha1, ScheduleMode.FIBONACCI, args.delta)
    seq = AngleSequence(schedule)
    weights = oracle.SuperpositionWeights(
        1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)
    )
    state = engine.init_state(args.delta)
    tolerance = args.tolerance
    max_dev = 0.0
    first_fail = None
    head, tape = engine.head_bloch, engine.tape_bloch
    for (n, st), (p2, p3, p_t3) in zip(engine.iterate(seq, state, args.steps),
                                       oracle.predictions(seq, weights, args.steps),
                                       strict=True):
        h1, h2, h3 = head(st)
        t1, t2, t3 = tape(st)
        devs = (abs(h1), abs(h2 - p2), abs(h3 - p3), abs(t1), abs(t2), abs(t3 - p_t3))
        dev = max(devs)
        # max() drops a NaN that is not its first argument; the sum of the
        # six deviations is NaN exactly when one of them is
        if first_fail is None and not (dev <= tolerance and sum(devs) >= 0.0):
            first_fail = n
        if dev > max_dev:
            max_dev = dev
    passed = first_fail is None
    report = {
        "steps": args.steps,
        "delta": args.delta,
        "tolerance": args.tolerance,
        "max_deviation": max_dev,
        "first_failing_step": first_fail,
        "pass": passed,
    }
    config = {
        "schedule": _config_json(schedule),
        "steps": args.steps,
        "tolerance": args.tolerance,
    }
    _emit_report(report, args.out, "oracle-check", config)
    return 0 if passed else 1


def cmd_lyapunov(args: argparse.Namespace) -> int:
    schedule = parse_alpha1(args.alpha1, ScheduleMode(args.mode), args.delta)
    # the fit reads d2 at steps 2 * fit_lo ... 2 * fit_hi only, and checks its
    # window before it draws a row, so a bad window runs no cycle
    rows = analysis.distance_rows(schedule, min(args.steps, 2 * args.fit_hi), args.subsystem)
    rate = analysis.lyapunov_estimate(rows, (args.fit_lo, args.fit_hi))
    report = {
        "rate_per_cycle": rate,
        "fit_window_cycles": [args.fit_lo, args.fit_hi],
        "reference_rate": LOG_GOLDEN_RATIO,
        "mode": args.mode,
        "delta": args.delta,
    }
    config = {
        "schedule": _config_json(schedule),
        "delta": args.delta,
        "steps": args.steps,
        "subsystem": args.subsystem,
        "fit_window": [args.fit_lo, args.fit_hi],
    }
    _emit_report(report, args.out, "lyapunov", config)
    return 0


def _parse_deltas(text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        vals = []
    if not vals:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of numbers, got {text!r}")
    return vals


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are one ``error:`` line and exit 2.

    A value that starts like a negative number is read as a value in both
    ``--opt -3/7`` and ``--opt=-3/7`` forms, where stock argparse reads
    ``-3/7`` or ``-1e-9`` as an unknown option.  Subparsers are built from
    this class too.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_RE

    def error(self, message: str) -> NoReturn:
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qturing`` parser, built on the first call and shared by every
    later one: parsing reads it and changes nothing."""
    parser = _Parser(
        prog="qturing",
        description="Deterministic two-spin quantum Turing network toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        name: str, help: str, *, delta_default: float, out_required: bool = False
    ) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--alpha1", required=True, help=_ALPHA1_HELP)
        sp.add_argument("--delta", type=float, default=delta_default,
                        help="seed/preparation perturbation, finite"
                        + (" and >= 0" if name in _MIN_STEPS else "") + " (default %(default)s)")
        sp.add_argument("--steps", type=int, default=200, help=f"number of gates to apply, "
                        f"{_MIN_STEPS.get(name, 1)} to 1e6 (default %(default)s)")
        sp.add_argument("--out", required=out_required, help=_OUT_HELP
                        + ("" if out_required else " (default: report to stdout)"))
        return sp

    sp = sub.add_parser("pattern", help="head Bloch scatter of a single trajectory")
    sp.add_argument("--alpha1", required=True, help=_ALPHA1_HELP)
    sp.add_argument("--steps", type=int, default=10000,
                    help="number of gates to apply, 1 to 1e6 (default %(default)s)")
    sp.add_argument("--mode", choices=[m.value for m in ScheduleMode],
                    default=ScheduleMode.FIBONACCI.value)
    sp.add_argument("--head-angle", type=float, default=0.0,
                    help="head preparation angle, finite (default %(default)s)")
    sp.add_argument("--tape", choices=[t.value for t in TapeState],
                    default=TapeState.MINUS_ONE.value)
    sp.add_argument("--record-every", type=int, default=1, help=_RECORD_EVERY_HELP)
    sp.add_argument("--out", required=True, help=_OUT_HELP)
    sp.set_defaults(func=cmd_pattern)

    sp = add_common("distance", "distance trace between paired trajectories",
                    delta_default=0.001, out_required=True)
    sp.add_argument("--mode", choices=[m.value for m in ScheduleMode],
                    default=ScheduleMode.FIBONACCI.value)
    sp.add_argument("--subsystem", choices=[s.value for s in Subsystem],
                    default=Subsystem.HEAD.value)
    sp.add_argument("--record-every", type=int, default=1, help=_RECORD_EVERY_HELP)
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("stability", help="periodic-orbit stability report")
    sp.add_argument("--alpha1", required=True,
                    help="exact p/q of pi, with 1 <= q <= 2**1020 after reduction")
    sp.add_argument("--m", type=int, required=True,
                    help=f"cycle count, 1 to {oracle.MAX_CYCLE}; period is 2m")
    sp.add_argument("--deltas", type=_parse_deltas, default=[1e-4, 1e-5, 1e-6],
                    help="comma-separated perturbations, each in (0, 0.1] "
                    "(default 1e-4,1e-5,1e-6)")
    sp.add_argument("--out", help=_OUT_HELP + " (default: report to stdout)")
    sp.set_defaults(func=cmd_stability)

    sp = add_common("oracle-check", "simulation vs closed-form comparison", delta_default=0.0)
    sp.set_defaults(steps=2000)
    sp.add_argument("--tolerance", type=float, default=1e-9,
                    help="largest deviation that passes, finite and >= 0 (default %(default)s)")
    sp.set_defaults(func=cmd_oracle_check)

    sp = add_common("lyapunov", "divergence-rate fit", delta_default=1e-8)
    sp.add_argument("--mode", choices=[m.value for m in ScheduleMode],
                    default=ScheduleMode.FIBONACCI.value)
    sp.add_argument("--subsystem", choices=[s.value for s in Subsystem],
                    default=Subsystem.HEAD.value)
    sp.add_argument("--fit-lo", type=int, default=5,
                    help="first fit cycle, >= 0 (default %(default)s)")
    sp.add_argument("--fit-hi", type=int, default=15,
                    help="last fit cycle, >= --fit-lo (default %(default)s)")
    sp.set_defaults(func=cmd_lyapunov)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every bounded option is checked once, before any work, and fails through
    # parser.error as argparse's own errors do: one error: line and exit 2
    opt = vars(args).get
    out = opt("out")
    low = _MIN_STEPS.get(args.command, 1)
    for flag, bad, rule in [  # (option, value out of range, rule); NaN is out of range
        ("--steps", opt("steps", low) < low, f"must be >= {low}"),
        ("--steps", opt("steps", 0) > 10**6, "must be <= 1e6"),
        ("--m", opt("m", 1) < 1, "must be >= 1"),
        ("--m", opt("m", 0) > oracle.MAX_CYCLE, f"must be <= {oracle.MAX_CYCLE}"),
        ("--record-every", opt("record_every", 1) < 1, "must be >= 1"),
        ("--tolerance", not 0.0 <= opt("tolerance", 0.0) < math.inf,
         f"must be finite and >= 0, got {opt('tolerance')}"),
        ("--delta", not math.isfinite(opt("delta", 0.0)), f"must be finite, got {opt('delta')}"),
        ("--delta", opt("delta", 0.0) < 0.0 and args.command in _MIN_STEPS,
         f"must be >= 0, got {opt('delta')}"),
        ("--head-angle", not math.isfinite(opt("head_angle", 0.0)),
         f"must be finite, got {opt('head_angle')}"),
        *(("--deltas", not 0.0 < d <= 0.1, f"values must lie in (0, 0.1], got {d}")
          for d in opt("deltas", ())),
        # '', '.', '..', '/' and 'x/' name a directory, or nothing
        ("--out", out is not None and os.path.basename(out) in ("", ".", ".."),
         f"must name a file, got {out!r}"),
    ]:
        if bad:
            parser.error(f"{flag} {rule}")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
