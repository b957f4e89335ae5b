"""Paired-trajectory experiments: distance traces, divergence rates,
finite-difference stability factors.

A paired run reads its perturbation delta from ``schedule.delta``, which
acts on both the initial head preparation and the schedule seed
(a_0 = delta): the same physical dial, so the perturbed run evolves under a
genuinely different gate sequence.  A trace measures the part of the network
that ``engine.Subsystem`` names: the head, the tape or the whole network.
A paired run takes one form, the ``(n, d2, overlap)`` rows of
``distance_rows``: ``distance`` writes them as they stream, and the fits
read them once and keep only the points in their window.  This module does
no arithmetic on a state.

Everything is deterministic; identical configurations produce bit-identical
traces.  Each experiment is an independent pure computation.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from . import engine, oracle
from .engine import State, Subsystem
from .schedule import AngleSequence, ScheduleConfig

_SATURATION_GUARD = 0.5  # keep divergence fits clear of the d2 <= 2 ceiling


@dataclass(frozen=True)
class ExperimentConfig:
    """A paired run; its perturbation delta is ``schedule.delta``."""

    schedule: ScheduleConfig
    steps: int
    subsystem: Subsystem
    record_every: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "subsystem", Subsystem(self.subsystem))
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.schedule.delta < 0.0:
            raise ValueError(f"delta must be >= 0, got {self.schedule.delta}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


def trajectory_bloch(
    seq: AngleSequence,
    initial: State,
    steps: int,
    record_every: int = 1,
) -> Iterator[tuple[int, float, float, float]]:
    """(step, head s1, s2, s3) rows of a single trajectory, yielded as it
    advances: every ``record_every`` steps and at the last step.

    One cycle (rotation, then conditional NOT) per loop turn, as
    ``engine.iterate`` steps it, with a_m drawn from one ``seq.angles()``
    stream and the head read by ``engine.head_bloch``; an odd ``steps`` ends
    on the tail rotation, by the stream's next angle.  A negative ``steps``
    or a ``record_every`` below 1 raises ValueError.
    """
    if steps < 0:
        raise ValueError(f"step count must be >= 0, got {steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    angles = seq.angles()
    rotate, flip, head = engine.apply_head_rotation, engine.apply_qcnot, engine.head_bloch
    state = initial
    for m, a in zip(range(1, steps // 2 + 1), angles):
        state = rotate(state, a)
        if (2 * m - 1) % record_every == 0:
            yield (2 * m - 1, *head(state))
        state = flip(state)
        if (2 * m) % record_every == 0 or 2 * m == steps:
            yield (2 * m, *head(state))
    if steps % 2:
        yield (steps, *head(rotate(state, next(angles))))


def distance_rows(cfg: ExperimentConfig) -> Iterator[tuple[int, float, float]]:
    """(step, squared distance, squared network overlap) of the unperturbed
    and delta-perturbed trajectories, yielded as they advance: at step 0,
    every ``record_every`` steps and at the last step.

    Trajectory A starts from |-1, -1> under the unperturbed schedule;
    trajectory B starts with the head rotated by delta = ``schedule.delta``
    under the schedule re-seeded with a_0 = delta.  The rows are those of
    ``engine.pair_rows``, which steps both twins together.
    """
    schedule = cfg.schedule
    return engine.pair_rows(
        AngleSequence(replace(schedule, delta=0.0)), AngleSequence(schedule),
        engine.init_state(0.0), engine.init_state(schedule.delta),
        cfg.steps, cfg.record_every, cfg.subsystem,
    )


def distance_trace(cfg: ExperimentConfig) -> list[tuple[int, float, float]]:
    """The rows of ``distance_rows`` in a list.  No command calls it; it is
    kept because the benchmark's layer tracer (bench/layers.py) wraps it by
    name."""
    return list(distance_rows(cfg))


def _slope(xs: array, ys: array) -> float:
    """Least-squares slope of ys against xs."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def lyapunov_estimate(rows: Iterable[tuple[int, float, float]],
                      fit_window: tuple[int, int]) -> float:
    """Divergence rate per two-step cycle from a pre-saturation window.

    Least-squares slope of ln D(2m) against the cycle index m over the
    (n, d2, overlap) ``rows`` with n = 2m and m in [fit_window[0],
    fit_window[1]].  The window is checked before the first row is read:
    it must start at cycle 0 or later and not end before it starts.  It
    must hold at least five recorded cycles and stay below the saturation
    guard d2 < 0.5; a Fibonacci schedule targets ln((1 + sqrt(5))/2) ~ 0.4812.
    """
    m_lo, m_hi = fit_window
    if m_lo < 0:
        raise ValueError(f"fit window starts at cycle {m_lo}, must start at >= 0")
    if m_lo > m_hi:
        raise ValueError(f"fit window is inverted: first cycle {m_lo} > last cycle {m_hi}")
    ms, logs = array("d"), array("d")
    for n, val, _ in rows:
        if n % 2 or not 2 * m_lo <= n <= 2 * m_hi:
            continue
        if math.isnan(val):
            raise ValueError(f"d2({n}) is NaN")
        if val >= _SATURATION_GUARD:
            raise ValueError(
                f"window reaches saturation: d2({n}) = {val:.3g} >= {_SATURATION_GUARD}"
            )
        if val > 0.0:
            ms.append(n // 2)
            logs.append(0.5 * math.log(val))
    if len(ms) < 5:
        raise ValueError(f"window holds {len(ms)} usable points, need >= 5")
    return _slope(ms, logs)


def fit_power_law(rows: Iterable[tuple[int, float, float]], window: tuple[int, int]) -> float:
    """Exponent k of D ~ n**k over the (n, d2, overlap) ``rows`` with n in
    ``window``; a row at or above the saturation guard is left out."""
    lo, hi = window
    logn, logd = array("d"), array("d")
    for n, d2, _ in rows:
        if lo <= n <= hi:
            if math.isnan(d2):
                raise ValueError(f"d2({n}) is NaN")
            if 0.0 < d2 < _SATURATION_GUARD:
                logn.append(math.log(n))
                logd.append(0.5 * math.log(d2))
    if len(logn) < 5:
        raise ValueError(f"window holds {len(logn)} usable points, need >= 5")
    return _slope(logn, logd)


class ClosedFormMismatch(RuntimeError):
    """A simulated stability factor disagrees with its closed form."""


class NoPeriodicOrbit(ValueError):
    """alpha1 = (p/q)*pi closes no periodic orbit at cycle m; ``conditions``
    are the three closure conditions of ``oracle.orbit_conditions``."""

    def __init__(self, p: int, q: int, m: int, conditions: list[bool]) -> None:
        super().__init__(f"no periodic orbit of period {2 * m} at alpha1 = ({p}/{q})*pi: "
                         f"closure conditions {conditions}")
        self.p, self.q, self.conditions = p, q, conditions


@dataclass(frozen=True)
class StabilityResult:
    delta: float
    m11: float
    m22: float
    m11_closed: float
    m22_closed: float
    tape: float | None


def _orbit_run(schedule: ScheduleConfig, m: int, delta: float) -> tuple[float, float, float, float]:
    """Head s2 and s3 at step 2m and tape s3 at steps 2 and 2m + 2 of the
    run with head preparation and schedule seed both set to delta."""
    seq = AngleSequence(replace(schedule, delta=delta))
    for n, state in engine.iterate(seq, engine.init_state(delta), 2 * m + 2):
        if n == 2:
            tape_2 = engine.tape_bloch(state)[2]
        if n == 2 * m:
            _, s2, s3 = engine.head_bloch(state)
    return s2, s3, tape_2, engine.tape_bloch(state)[2]


def stability_numeric(
    m: int, deltas: Iterable[float], schedule: ScheduleConfig
) -> list[StabilityResult]:
    """Orbit stability factors from simulation, one result per delta.

    Checks every input before the first run: alpha1 must be an exact p/q
    of pi, m >= 1, every delta in (0, 0.1], and cycle m must close a
    periodic orbit (NoPeriodicOrbit otherwise).  Then runs the unperturbed
    trajectory once and each delta-perturbed one once, to step 2m + 2.
    M11 and M22 are the in-plane head components at step 2m over their
    initial values; each must agree with its finite-delta closed form to
    1e-8 relative, or ClosedFormMismatch is raised.  The tape factor is the
    response ratio delta sigma3(2m+2) / delta sigma3(2), which converges to
    F_{m+1} sin(a_{m+2}) / sin(a_1) as delta -> 0; it is None where
    ``oracle.tape_factor_undefined`` gives a reason.
    """
    if schedule.exact is None:
        raise ValueError("stability requires alpha1 as an exact p/q of pi")
    if m < 1:
        raise ValueError(f"cycle index must be >= 1, got {m}")
    deltas = list(deltas)
    for delta in deltas:
        if not 0.0 < delta <= 0.1:
            raise ValueError(f"delta must lie in (0, 0.1], got {delta}")
    p, q = schedule.exact
    conds = list(oracle.orbit_conditions(p, q, m))
    if not all(conds):
        raise NoPeriodicOrbit(p, q, m, conds)
    s2, s3, tape_2a, tape_end_a = _orbit_run(schedule, m, 0.0)
    if abs(s2) > 1e-8 or abs(s3 + 1.0) > 1e-8:
        raise ValueError(f"orbit fails to close after {2 * m} steps: head (s2, s3) = ({s2}, {s3})")
    tape_defined = oracle.tape_factor_undefined(m, schedule) is None

    results = []
    for delta in deltas:
        s2, s3, tape_2b, tape_end_b = _orbit_run(schedule, m, delta)
        m11 = s2 / math.sin(delta)
        m22 = s3 / (-math.cos(delta))
        m11_closed, m22_closed = oracle.stability_matrix_closed(m, delta)
        for num, closed, name in ((m11, m11_closed, "M11"), (m22, m22_closed, "M22")):
            if abs(num - closed) > 1e-8 * abs(closed):
                raise ClosedFormMismatch(
                    f"{name} simulation/closed-form mismatch: {num!r} vs {closed!r}"
                )
        tape = None
        if tape_defined:
            denom = tape_2b - tape_2a
            if denom == 0.0:
                raise ValueError("tape perturbation vanished at step 2; cannot form ratio")
            tape = (tape_end_b - tape_end_a) / denom
        results.append(StabilityResult(delta, m11, m22, m11_closed, m22_closed, tape))
    return results
