"""Reference computations and output checks, made apart from qturing.

Nothing here imports the package: the angles, cumulative rotations, state
vectors and orbit periods are computed again from their definitions, and
each program output is compared with them. Every check returns a list of
problems; an empty list means the output is correct. A NaN never passes: each
comparison is written so that NaN lands on the failing side.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

TWO_PI = 2.0 * math.pi
LOG_PHI = math.log((1.0 + math.sqrt(5.0)) / 2.0)

#: agreement required between program output and reference values
TOL = 1e-9

#: steps over which the program's float angles stay within reach of the
#: closed forms: the Fibonacci recurrence amplifies rounding by the golden
#: ratio per cycle, the arithmetic one by the cycle count
EARLY_STEPS = {"fibonacci": 40, "arithmetic": 200, "fixed": 200}

#: head-branch weights (|a+|^2, |a-|^2) of each initial tape ket
TAPE_WEIGHTS = {"minus1": (0.5, 0.5), "plus1": (0.5, 0.5), "plus": (1.0, 0.0), "minus": (0.0, 1.0)}


def _off(x: float, ref: float, tol: float = TOL) -> bool:
    return not abs(x - ref) <= tol


def _wrap_diff(x: float) -> float:
    """Distance of x from the nearest multiple of 2*pi."""
    r = x % TWO_PI
    return min(r, TWO_PI - r)


def manifest(out: Path) -> list[str]:
    """The sibling manifest names the output and holds its SHA-256."""
    man_path = out.with_name(out.name + ".manifest.json")
    try:
        man = json.loads(man_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{man_path.name}: unreadable manifest ({exc})"]
    problems = []
    if man.get("output") != out.name:
        problems.append(f"{man_path.name}: names output {man.get('output')!r}")
    if man.get("sha256") != hashlib.sha256(out.read_bytes()).hexdigest():
        problems.append(f"{man_path.name}: SHA-256 does not match {out.name}")
    return problems


def _csv(text: str, header: str) -> tuple[list[list[float]], list[str]]:
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        return [], [f"malformed CSV: header {lines[0]!r}"]
    try:
        return [[float(v) for v in line.split(",")] for line in lines[1:-1]], []
    except ValueError as exc:
        return [], [f"malformed CSV value: {exc}"]


# -- pattern ---------------------------------------------------------------


def exact_branch_angles(p: int, q: int, steps: int) -> list[tuple[float, float]]:
    """Cumulative head angles (C+, C-) after each step n = 1..steps.

    alpha1 = (p/q) pi: the angles a_m = p F_m (mod 2q) are integer residues
    in units of pi/q, so the sums are exact. The plus branch adds every
    rotation; the minus-branch head is also reflected (C -> -C) by every
    conditional NOT.
    """
    mod = 2 * q
    f_prev, f = 0, 1
    plus = minus = 0
    out = []
    for n in range(1, steps + 1):
        if n % 2:
            a = p * f % mod
            f_prev, f = f, (f_prev + f) % mod
            plus = (plus + a) % mod
            minus = (minus + a) % mod
        else:
            minus = -minus % mod
        out.append((math.pi * plus / q, math.pi * minus / q))
    return out


def float_branch_angles(angles: list[float], steps: int) -> list[tuple[float, float]]:
    """Cumulative head angles (C+, C-) from emitted angles a_1, a_2, ..."""
    plus = minus = 0.0
    out = []
    for n in range(1, steps + 1):
        if n % 2:
            a = angles[(n - 1) // 2]
            plus = (plus + a) % TWO_PI
            minus = (minus + a) % TWO_PI
        else:
            minus = -minus % TWO_PI
        out.append((plus, minus))
    return out


def fibonacci_recurrence(alpha1: float, angles: list[float]) -> list[str]:
    """Emitted float angles obey a_1 = alpha1, a_{m+1} = a_m + a_{m-1} (mod 2 pi)."""
    seq = [0.0] + angles
    bad = [m for m in range(1, len(seq)) if
           not _wrap_diff(seq[m] - (alpha1 if m == 1 else seq[m - 1] + seq[m - 2])) <= 1e-12]
    return [f"emitted angle a_{bad[0]} breaks the Fibonacci recurrence"] if bad else []


def pattern(text: str, branch_angles: list[tuple[float, float]], tape: str) -> list[str]:
    """Head scatter: s1 = 0, (s2, s3) = weighted branch vectors, purity = |s|^2."""
    rows, problems = _csv(text, "n,s1,s2,s3,purity")
    if problems:
        return problems
    if [r[0] for r in rows] != list(range(1, len(branch_angles) + 1)):
        return [f"pattern rows are not n = 1..{len(branch_angles)}"]
    wp, wm = TAPE_WEIGHTS[tape]
    for (n, s1, s2, s3, purity), (cp, cm) in zip(rows, branch_angles):
        if (_off(s1, 0.0) or _off(s2, wp * math.sin(cp) + wm * math.sin(cm))
                or _off(s3, -(wp * math.cos(cp) + wm * math.cos(cm)))):
            return [f"pattern row n={n:.0f}: Bloch vector off the branch prediction"]
        if _off(purity, s1 * s1 + s2 * s2 + s3 * s3, 1e-12):
            return [f"pattern row n={n:.0f}: purity is not |s|^2"]
    return []


# -- distance --------------------------------------------------------------


def schedule_angles(mode: str, alpha1: float, exact: tuple[int, int] | None,
                    a0: float, count: int) -> list[float]:
    """a_1..a_count of a schedule seeded with a_0, from closed forms.

    Fibonacci: a_m = alpha1 F_m + a0 F_{m-1}; arithmetic: a_m = a0 + m (alpha1 - a0);
    fixed: a_m = alpha1. Exact Fibonacci angles use integer residues.
    """
    out = []
    f_prev, f = 0, 1
    for m in range(1, count + 1):
        if mode == "fibonacci":
            base = math.pi * (exact[0] * f % (2 * exact[1])) / exact[1] if exact else alpha1 * f
            out.append((base + a0 * f_prev) % TWO_PI)
            f_prev, f = f, f_prev + f
        elif mode == "arithmetic":
            out.append((a0 + m * (alpha1 - a0)) % TWO_PI)
        else:
            out.append(alpha1 % TWO_PI)
    return out


def _rotate(c: list[complex], alpha: float) -> list[complex]:
    co, si = math.cos(alpha / 2.0), -1j * math.sin(alpha / 2.0)
    return [co * c[0] + si * c[2], co * c[1] + si * c[3], si * c[0] + co * c[2], si * c[1] + co * c[3]]


def _reduced(c: list[complex], subsystem: str) -> list[complex]:
    if subsystem == "head":
        pairs = ((c[0], c[1]), (c[2], c[3]))
    else:
        pairs = ((c[0], c[2]), (c[1], c[3]))
    return [x[0] * y[0].conjugate() + x[1] * y[1].conjugate() for x in pairs for y in pairs]


def paired_run(mode: str, alpha1: float, exact: tuple[int, int] | None, delta: float,
               subsystem: str, steps: int) -> list[tuple[float, float]]:
    """(d2, overlap) at n = 0..steps of the unperturbed and perturbed runs.

    Run A starts from |-1,-1> with a_0 = 0; run B has its head rotated by
    delta and the schedule seeded with a_0 = delta.
    """
    count = (steps + 1) // 2
    ang_a = schedule_angles(mode, alpha1, exact, 0.0, count)
    ang_b = schedule_angles(mode, alpha1, exact, delta, count)
    a = [1.0 + 0j, 0j, 0j, 0j]
    b = _rotate(a, delta)
    out = []
    for n in range(steps + 1):
        if n:
            if n % 2:
                a, b = _rotate(a, ang_a[n // 2]), _rotate(b, ang_b[n // 2])
            else:
                a, b = [a[1], a[0], a[2], a[3]], [b[1], b[0], b[2], b[3]]
        ov = abs(sum(y.conjugate() * x for x, y in zip(a, b))) ** 2
        if subsystem == "network":
            d2 = 2.0 * (1.0 - ov)
        else:
            d2 = sum(abs(x - y) ** 2 for x, y in zip(_reduced(a, subsystem), _reduced(b, subsystem)))
        out.append((d2, ov))
    return out


def _slope(xs: list[float], ys: list[float]) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def growth_class(mode: str, delta: float, rows: list[list[float]]) -> list[str]:
    """Network distance 2(1 - overlap) shows the drive's growth class.

    fixed: constant 2 sin^2(delta/2), with every subsystem d2 below it;
    arithmetic: D ~ n^k with k in [1.8, 2.2] over n = 4..60;
    fibonacci: ln D grows by ln(golden ratio) +- 0.05 per two-step cycle
    before saturation.
    """
    net = {int(r[0]): 2.0 * (1.0 - r[2]) for r in rows}
    if mode == "fixed":
        level = 2.0 * math.sin(delta / 2.0) ** 2
        if any(_off(v, level, 1e-12) for v in net.values()):
            return ["fixed drive: network distance is not constant"]
        if any(not r[1] <= level + 1e-12 for r in rows):
            return ["fixed drive: subsystem distance exceeds the network distance"]
        return []
    if mode == "arithmetic":
        pts = [(n, v) for n, v in net.items() if 4 <= n <= 60 and 0.0 < v < 0.5]
        if len(pts) < 5:
            return ["arithmetic drive: too few points to fit"]
        k = _slope([math.log(n) for n, _ in pts], [0.5 * math.log(v) for _, v in pts])
        return [] if 1.8 <= k <= 2.2 else [f"arithmetic drive: exponent {k:.3f} is not ~2"]
    pts = [(m, net[2 * m]) for m in range(2, 16) if 2 * m in net and 0.0 < net[2 * m] < 0.5]
    if len(pts) < 5:
        return ["fibonacci drive: too few points to fit"]
    rate = _slope([m for m, _ in pts], [0.5 * math.log(v) for _, v in pts])
    return [] if abs(rate - LOG_PHI) <= 0.05 else [f"fibonacci drive: rate {rate:.4f} is not ln(phi)"]


def distance(text: str, mode: str, alpha1: float, exact: tuple[int, int] | None,
             delta: float, subsystem: str, steps: int) -> list[str]:
    """Distance trace: range, network identity, early agreement, growth class."""
    rows, problems = _csv(text, "n,d2,overlap")
    if problems:
        return problems
    if [r[0] for r in rows] != list(range(steps + 1)):
        return [f"distance rows are not n = 0..{steps}"]
    for n, d2, ov in rows:
        if not 0.0 <= d2 <= 2.0 or not 0.0 <= ov <= 1.0 + 1e-12:
            return [f"distance row n={n:.0f}: d2={d2!r} or overlap={ov!r} out of range"]
        if subsystem == "network" and _off(d2, 2.0 * (1.0 - ov), 1e-12):
            return [f"distance row n={n:.0f}: network d2 != 2(1 - overlap)"]
    early = min(steps, EARLY_STEPS[mode])
    ref = paired_run(mode, alpha1, exact, delta, subsystem, early)
    for (n, d2, ov), (rd2, rov) in zip(rows, ref):
        if _off(d2, rd2) or _off(ov, rov):
            return [f"distance row n={n:.0f}: differs from the reference state-vector run"]
    return growth_class(mode, delta, rows)


# -- oracle-check ----------------------------------------------------------


def oracle_report(text: str, steps: int) -> list[str]:
    """The report passes, and its largest deviation is finite and below 1e-9."""
    try:
        rep = json.loads(text)
    except ValueError as exc:
        return [f"oracle-check report is not JSON: {exc}"]
    dev = rep.get("max_deviation")
    if rep.get("pass") is not True or rep.get("first_failing_step") is not None:
        return [f"oracle-check reports failure at step {rep.get('first_failing_step')}"]
    if not isinstance(dev, float) or not math.isfinite(dev) or not dev < 1e-9:
        return [f"oracle-check max_deviation {dev!r} is not finite and below 1e-9"]
    if rep.get("steps") != steps:
        return [f"oracle-check covered {rep.get('steps')} steps, asked for {steps}"]
    return []


# -- orbits ----------------------------------------------------------------


def orbit_period(p: int, q: int, m_stop: int | None = None) -> int | None:
    """Smallest period 2m of the head pattern for alpha1 = (p/q) pi, uncapped.

    Advances the integer angle residues (units of pi/q) and both branch
    angles cycle by cycle until C+ = C- = 0 and a_{m+1} = a_1 (mod 2 pi).
    Every rational alpha1 closes, so the scan ends; ``m_stop`` only lets a
    caller give up early, returning None.
    """
    mod = 2 * q
    a1 = p % mod
    a_prev, a = 0, a1
    plus = minus = 0
    m = 0
    while m_stop is None or m < m_stop:
        m += 1
        plus = (plus + a) % mod
        minus = -(minus + a) % mod
        a_prev, a = a, (a_prev + a) % mod
        if plus == 0 and minus == 0 and a == a1:
            return 2 * m
    return None

