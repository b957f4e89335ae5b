"""Show that each output check of the benchmark fails on a corrupted output.

    python3 bench/selftest.py

Runs real ops of every kind through the same ``Op.verify`` the benchmark
uses and requires a clean pass. Then it corrupts each output (one CSV value
shifted by 1e-6 or set to NaN, an oracle report with a NaN, a deviation
above 1e-9 or ``pass: false``, a wrong orbit period), rewrites the manifest
so that its SHA-256 still matches, and requires the check to report a
problem. A stale manifest must fail too. It also rescans a sample of the
reference periods. Exits 1 if any check lets a corruption through.
"""
from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable

import checks
import run


class SelfTest:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, label: str, problems: list[str] | None, ok: bool) -> None:
        """Record a failure unless ``problems`` is empty exactly when ``ok``."""
        passed = (problems == []) == ok
        if not passed:
            self.failures.append(f"{label}: expected {'a pass' if ok else 'a problem'}, got {problems!r}")
        print(f"{'ok  ' if passed else 'FAIL'} {label}: {problems[:1] if problems else problems}")

    def corrupt_all(self, label: str, op: run.Op, out: Path,
                    variants: dict[str, Callable[[str], str]]) -> str:
        """Check the op's real output, then each corruption of it; return the output."""
        rc = op.call()
        text = out.read_text(encoding="utf-8")
        rewrite(out, text)
        self.expect(f"{label} clean", op.verify(rc), True)
        rewrite(out, text.replace("\n", "\n ", 1) if text.startswith("n,") else " " + text, False)
        self.expect(f"{label} stale manifest", op.verify(rc), False)
        for name, fn in variants.items():
            rewrite(out, fn(text))
            self.expect(f"{label} {name}", op.verify(rc), False)
        return text


def shift_csv(text: str, row: int, col: int, value: str | None = None) -> str:
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = value if value is not None else repr(float(cells[col]) + 1e-6)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def rewrite(out: Path, text: str, fresh_manifest: bool = True) -> None:
    """Write ``text`` to ``out``; by default give its manifest the matching SHA-256."""
    out.write_text(text, encoding="utf-8")
    if fresh_manifest:
        man_path = out.with_name(out.name + ".manifest.json")
        man = json.loads(man_path.read_text(encoding="utf-8"))
        man["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        man_path.write_text(json.dumps(man), encoding="utf-8")


def main() -> int:
    qt = run.import_package()
    test = SelfTest()
    rng = random.Random("selftest")
    run.RUNS_DIR.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=run.RUNS_DIR))
    try:
        ctx = run.Context(qt, out_dir)
        for exact in (True, False):
            op = run.pattern_op(ctx, rng, exact, 300)
            test.corrupt_all(f"pattern {'exact' if exact else 'float'}", op, ctx.out / "pattern.csv", {
                "s1 + 1e-6": lambda t: shift_csv(t, 150, 1),
                "s2 + 1e-6": lambda t: shift_csv(t, 299, 2),
                "s3 + 1e-6": lambda t: shift_csv(t, 7, 3),
                "purity + 1e-6": lambda t: shift_csv(t, 42, 4),
                "s2 = nan": lambda t: shift_csv(t, 100, 2, "nan"),
            })
        for mode in run.MODES:
            for sub in run.SUBSYSTEMS:
                op = run.distance_op(ctx, rng, mode, sub, mode == "fibonacci", 300)
                variants = {
                    "early d2 + 1e-6": lambda t: shift_csv(t, 12, 1),
                    "early overlap + 1e-6": lambda t: shift_csv(t, 31, 2),
                    "late d2 = nan": lambda t: shift_csv(t, 250, 1, "nan"),
                    "late d2 = 2.5": lambda t: shift_csv(t, 250, 1, "2.5"),
                }
                if sub == "network":
                    variants["late d2 + 1e-6"] = lambda t: shift_csv(t, 200, 1)
                if mode == "fixed":
                    variants["late overlap + 1e-6"] = lambda t: shift_csv(t, 200, 2)
                text = test.corrupt_all(f"distance {mode} {sub}", op, ctx.out / "distance.csv", variants)
                rows = [[float(v) for v in line.split(",")] for line in text.split("\n")[1:-1]]
                for other in run.MODES:
                    if other != mode:
                        test.expect(f"distance {mode} {sub} read as {other} growth",
                               checks.growth_class(other, run.DELTA, rows), False)
        for exact in (True, False):
            op = run.oracle_op(ctx, rng, exact, run.DELTA)

            def report(t: str, **kw) -> str:
                return json.dumps({**json.loads(t), **kw}, sort_keys=True, indent=2) + "\n"

            test.corrupt_all(f"oracle-check {'exact' if exact else 'float'}", op, ctx.out / "oracle.json", {
                "max_deviation = NaN": lambda t: report(t, max_deviation=float("nan")),
                "max_deviation = 2e-9": lambda t: report(t, max_deviation=2e-9),
                "pass = false": lambda t: report(t, **{"pass": False}),
                "first_failing_step = 3": lambda t: report(t, first_failing_step=3),
            })
        for b in ctx.orbit_table["bins"][:6]:
            p, q, period = rng.choice(b["entries"])
            op = run.orbit_op(ctx, p, q, period)
            test.expect(f"orbit ({p}, {q}) clean", op.verify(op.call()), True)
            test.expect(f"orbit ({p}, {q}) period + 2", op.verify(period + 2), False)
            test.expect(f"orbit ({p}, {q}) rescanned", [] if checks.orbit_period(p, q) == period else ["table"], True)
        if run.orbit_op(ctx, *ctx.orbit_table["capped"]).verify(None) is not None:
            test.failures.append("a search that gives up must count as a failed op")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        run.remove_empty(run.RUNS_DIR)
    failures = test.failures
    print(f"{len(failures)} check(s) let a corruption through" if failures else "every corruption was caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
