"""Benchmark of qturing over four workloads.

    python3 bench/run.py --workload pattern --seed 1 --seconds 10 --trace 0

Each workload runs in this one process and thread as a closed loop: an op
starts when the previous one has ended. An op is one call into the program's
public entry points, ``qturing.cli.main`` (outputs go to a temporary
directory inside the checkout) or ``qturing.oracle.periodic_orbit_check``.
The seed makes the inputs; the program sees only the generated arguments.
Ops come in rounds of fixed make-up, and the loop ends after the round in
which ``--seconds`` run out. Every op's output is checked by ``checks``.

The calibration kernel (``kernel``) is timed before the first op and after
every op; each op time is scaled by REFERENCE_S over the mean of the two
kernel times next to it, and ``throughput`` is the median
over rounds of work units per scaled second. ``--trace 1`` runs the same loop
with every layer wrapped (``layers``) and reports per-layer numbers instead.
The last line of standard output is one JSON object with the result.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import kernel
import orbit_table
from layers import GROUPS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"

#: steps of one timed op; each op takes about 30-130 ms
STEPS = {"pattern": 2000, "distance": 1000, "oracle-check": 1000}
#: steps of the one CLI-sized op that sets peak_rss_mb on pattern and distance
RSS_STEPS = 10**5
DELTA = 1e-3
Q_MAX = 400
TAPES = tuple(checks.TAPE_WEIGHTS)
MODES = ("fibonacci", "arithmetic", "fixed")
SUBSYSTEMS = ("head", "tape", "network")
SETUP_RUNS = 11
_SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import qturing.cli\n"
    "print(time.perf_counter() - t0)\n"
)


@dataclass
class Op:
    """One timed call into qturing and the check of what it returned."""

    call: Callable[[], object]
    #: returns None when the op failed (no result), else the problems found
    verify: Callable[[object], list[str] | None]
    units: int
    label: str
    #: rows the op emits: CSV rows, or steps compared by oracle-check
    rows: int = 0
    #: the CLI's --steps (0 for orbit searches)
    steps: int = 0


class Context:
    """The imported package and the directory ops write their outputs to."""

    def __init__(self, qt, out_dir: Path) -> None:
        self.qt = qt
        self.out = out_dir

    @functools.cached_property
    def orbit_table(self) -> dict:
        """Reference periods written by ``orbit_table.py``."""
        return json.loads(orbit_table.TABLE.read_text(encoding="utf-8"))

    def cli_op(self, argv: list[str], name: str, units: int, rows: int,
               check_text: Callable[[str], list[str]]) -> Op:
        out = self.out / name

        def verify(rc: object) -> list[str] | None:
            if rc == 2 or not out.exists():
                return None
            problems = check_text(out.read_text(encoding="utf-8")) + checks.manifest(out)
            if rc != 0:
                problems.append(f"qturing {argv[0]} exited with {rc}")
            out.unlink()
            return problems

        return Op(lambda: self.qt.cli.main([*argv, "--out", str(out)]), verify, units,
                  "qturing " + " ".join(argv), rows, units)

    def emitted_angles(self, alpha1: float, count: int) -> list[float]:
        """Fibonacci-mode float angles a_1..a_count as the program emits them."""
        sched = self.qt.schedule
        seq = sched.AngleSequence(sched.ScheduleConfig(mode=sched.ScheduleMode.FIBONACCI, alpha1=alpha1))
        return [seq.angle(m) for m in range(1, count + 1)]


def draw_pq(rng: random.Random) -> tuple[int, int]:
    q = rng.randint(3, Q_MAX)
    while True:
        p = rng.randrange(1, 2 * q)
        if math.gcd(p, q) == 1:
            return p, q


def draw_float(rng: random.Random) -> str:
    return "%.12f" % rng.uniform(0.05, checks.TWO_PI - 0.05)


def pattern_op(ctx: Context, rng: random.Random, exact: bool, steps: int) -> Op:
    tape = rng.choice(TAPES)
    if exact:
        p, q = draw_pq(rng)
        spec = f"{p}/{q}"

        def check_text(text: str) -> list[str]:
            return checks.pattern(text, checks.exact_branch_angles(p, q, steps), tape)
    else:
        spec = draw_float(rng)

        def check_text(text: str) -> list[str]:
            angles = ctx.emitted_angles(float(spec), (steps + 1) // 2)
            return (checks.fibonacci_recurrence(float(spec), angles)
                    or checks.pattern(text, checks.float_branch_angles(angles, steps), tape))

    argv = ["pattern", "--alpha1", spec, "--steps", str(steps), "--tape", tape]
    return ctx.cli_op(argv, "pattern.csv", steps, steps, check_text)


def distance_op(ctx: Context, rng: random.Random, mode: str, subsystem: str,
                exact: bool, steps: int) -> Op:
    if exact:
        p, q = draw_pq(rng)
        spec, alpha1, pq = f"{p}/{q}", p / q * math.pi, (p, q)
    else:
        spec = draw_float(rng)
        alpha1, pq = float(spec), None
    ref_exact = pq if mode == "fibonacci" else None
    argv = ["distance", "--alpha1", spec, "--mode", mode, "--subsystem", subsystem,
            "--delta", repr(DELTA), "--steps", str(steps)]
    return ctx.cli_op(argv, "distance.csv", steps, steps + 1,
                      lambda text: checks.distance(text, mode, alpha1, ref_exact, DELTA, subsystem, steps))


def oracle_op(ctx: Context, rng: random.Random, exact: bool, delta: float) -> Op:
    steps = STEPS["oracle-check"]
    spec = "%d/%d" % draw_pq(rng) if exact else draw_float(rng)
    argv = ["oracle-check", "--alpha1", spec, "--delta", repr(delta), "--steps", str(steps)]
    return ctx.cli_op(argv, "oracle.json", steps, steps, lambda text: checks.oracle_report(text, steps))


def orbit_op(ctx: Context, p: int, q: int, period: int) -> Op:
    def verify(found: object) -> list[str] | None:
        if found is None:
            return None
        return [] if found == period else [f"periodic_orbit_check({p}, {q}) = {found}, expected {period}"]

    return Op(lambda: ctx.qt.oracle.periodic_orbit_check(p, q), verify, 1,
              f"periodic_orbit_check({p}, {q})")


def pattern_round(ctx: Context, rng: random.Random) -> list[Op]:
    return [pattern_op(ctx, rng, exact, STEPS["pattern"]) for exact in (True, False)]


def distance_round(ctx: Context, rng: random.Random) -> list[Op]:
    return [distance_op(ctx, rng, mode, sub, exact, STEPS["distance"])
            for mode in MODES for sub in SUBSYSTEMS for exact in (True, False)]


def oracle_round(ctx: Context, rng: random.Random) -> list[Op]:
    return [oracle_op(ctx, rng, exact, delta) for exact in (True, False) for delta in (0.0, DELTA)]


def orbits_round(ctx: Context, rng: random.Random) -> list[Op]:
    table = ctx.orbit_table
    ops = [orbit_op(ctx, *table["capped"])]
    ops += [orbit_op(ctx, *rng.choice(b["entries"])) for b in table["bins"]]
    return ops


def pattern_rss(ctx: Context, rng: random.Random) -> Op:
    return pattern_op(ctx, rng, True, RSS_STEPS)


def distance_rss(ctx: Context, rng: random.Random) -> Op:
    return distance_op(ctx, rng, "fibonacci", "head", True, RSS_STEPS)


WORKLOADS = {
    "pattern": (pattern_round, pattern_rss),
    "distance": (distance_round, distance_rss),
    "oracle-check": (oracle_round, None),
    "orbits": (orbits_round, None),
}


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, op: Op) -> tuple[float, object]:
        """Call ``op`` and return (seconds, result or the exception it raised)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a crashing op is counted, not fatal
            result = exc
        dt = time.perf_counter() - t0
        return dt, result

    def check(self, op: Op, result: object) -> None:
        found = None if isinstance(result, Exception) else op.verify(result)
        if found is None:
            self.failed += 1
            if self.failed <= 3:
                detail = ("".join(traceback.format_exception(result))
                          if isinstance(result, Exception) else repr(result))
                print(f"failed: {op.label} -> {detail}", file=sys.stderr)
        else:
            self.problems += [f"{op.label}: {p}" for p in found]


def measure(ctx: Context, make_round, rng: random.Random, seconds: float,
            tally: Tally, tracer: Tracer | None):
    """Run whole rounds until ``seconds`` pass; return per-round figures and layer totals."""
    rounds = []
    calls: dict[str, float] = {g: 0 for g in GROUPS}
    self_s: dict[str, float] = {g: 0.0 for g in GROUPS}
    rows = steps = 0
    deadline = time.perf_counter() + seconds
    k_before = kernel.timed()
    while True:
        units = raw = scaled = 0.0
        kernels = []
        for op in make_round(ctx, rng):
            if tracer:
                tracer.active = True
            dt, result = tally.run(op)
            if tracer:
                tracer.active = False
            k_after = kernel.timed()
            kernels.append(k_after)
            scale = 2.0 * kernel.REFERENCE_S / (k_before + k_after)
            k_before = k_after
            units += op.units
            raw += dt
            scaled += dt * scale
            rows += op.rows
            steps += op.steps
            if tracer:
                op_calls, op_self = tracer.take()
                for g, c in op_calls.items():
                    calls[g] += c
                    self_s[g] += op_self[g] * scale
            tally.check(op, result)
        rounds.append((units / scaled, units / raw, statistics.median(kernels)))
        if time.perf_counter() >= deadline:
            return rounds, calls, self_s, rows, steps


def remove_empty(directory: Path) -> None:
    """Remove ``directory`` unless another run still has outputs in it."""
    try:
        directory.rmdir()
    except OSError:
        pass


def setup_seconds() -> float:
    """Median time from a fresh interpreter until qturing.cli is imported."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-I", "-c", _SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def import_package():
    """Import qturing from this checkout's ``src`` and nowhere else."""
    if not (SRC / "qturing" / "cli.py").is_file():
        raise SystemExit(f"error: no qturing sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qturing
    import qturing.cli
    if Path(qturing.__file__).resolve().parent != SRC / "qturing":
        raise SystemExit(f"error: imported qturing from {qturing.__file__}, not {SRC}")
    return qturing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    qt = import_package()
    setup_s = setup_seconds() if not args.trace else None
    make_round, make_rss = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(qt)
    RUNS_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=RUNS_DIR))
    tally = Tally()
    try:
        ctx = Context(qt, out_dir)
        rounds, calls, self_s, rows, steps = measure(ctx, make_round, rng, args.seconds, tally, tracer)
        peak_mb = None
        if not args.trace:
            rss_op = make_rss(ctx, rng) if make_rss else None
            result = tally.run(rss_op)[1] if rss_op else None
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if rss_op:
                tally.check(rss_op, result)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        remove_empty(RUNS_DIR)

    for problem in tally.problems[:10]:
        print(f"incorrect: {problem}", file=sys.stderr)
    n = len(rounds)
    throughput = statistics.median(r[0] for r in rounds)
    print(f"workload {args.workload}  seed {args.seed}  rounds {n}  "
          f"ops {tally.attempted}  failed {tally.failed}  trace {args.trace}")
    print(f"raw_throughput {statistics.median(r[1] for r in rounds):.6g} 1/s  "
          f"kernel_median {statistics.median(r[2] for r in rounds) * 1e3:.4g} ms  "
          f"{'traced_' if args.trace else ''}throughput {throughput:.6g} 1/s")
    if args.trace:
        metrics = {}
        for g in GROUPS:
            metrics[f"{g}.calls"] = {"value": calls[g] / n, "unit": "calls/round"}
            metrics[f"{g}.self_s"] = {"value": self_s[g] / n, "unit": "s/round"}
        metrics["engine.bloch_vector.per_row"] = {
            "value": calls["engine.bloch_vector"] / rows if rows else 0.0, "unit": "calls/row"}
        metrics["schedule.fib_mod.per_step"] = {
            "value": calls["schedule.fib_mod"] / steps if steps else 0.0, "unit": "calls/step"}
    else:
        metrics = {
            "throughput": {"value": throughput, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
