"""Paired-trajectory experiments: distance traces, divergence rates,
finite-difference stability factors.

A paired run reads its perturbation delta from ``schedule.delta``, which
acts on both the initial head preparation and the schedule seed
(a_0 = delta): the same physical dial, so the perturbed run evolves under a
genuinely different gate sequence.  A trace measures the part of the network
that ``engine.Subsystem`` names: the head, the tape or the whole network.

Everything is deterministic; identical configurations produce bit-identical
traces.  Each experiment is an independent pure computation.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from . import engine, oracle
from .engine import BlochVector, State, Subsystem
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


@dataclass
class DistanceTrace:
    """Recorded (step, squared distance, squared network overlap) triples."""

    steps: tuple[int, ...]
    d2: tuple[float, ...]
    overlap: tuple[float, ...]

    def d2_at(self, step: int) -> float:
        idx = bisect_left(self.steps, step)
        if idx == len(self.steps) or self.steps[idx] != step:
            raise KeyError(f"step {step} was not recorded")
        return self.d2[idx]

    def presaturation_end(self) -> int:
        """First recorded step whose d2 reaches the saturation guard (or last step)."""
        for n, d2 in zip(self.steps, self.d2):
            if d2 >= _SATURATION_GUARD:
                return n
        return self.steps[-1]


def trajectory_bloch(
    seq: AngleSequence,
    initial: State,
    steps: int,
    record_every: int = 1,
) -> Iterator[tuple[int, BlochVector]]:
    """(step, head Bloch vector) of a single trajectory, yielded as it
    advances: every ``record_every`` steps and at the last step."""
    spin_bloch = engine.spin_bloch
    for n, state in engine.iterate(seq, initial, steps):
        if n % record_every == 0 or n == steps:
            yield n, spin_bloch(state, "head")


def distance_rows(cfg: ExperimentConfig) -> Iterator[tuple[int, float, float]]:
    """(step, squared distance, squared network overlap) of the unperturbed
    and delta-perturbed trajectories, yielded as they advance: at step 0,
    every ``record_every`` steps and at the last step.

    Trajectory A starts from |-1, -1> under the unperturbed schedule;
    trajectory B starts with the head rotated by delta = ``schedule.delta``
    under the schedule re-seeded with a_0 = delta.
    """
    seq_a = AngleSequence(replace(cfg.schedule, delta=0.0))
    seq_b = AngleSequence(cfg.schedule)
    state_a = engine.init_state(0.0)
    state_b = engine.init_state(cfg.schedule.delta)

    subsystem, metrics = cfg.subsystem, engine.pair_metrics
    steps, every = cfg.steps, cfg.record_every
    yield (0, *metrics(state_a, state_b, subsystem))
    iter_a = engine.iterate(seq_a, state_a, steps)
    iter_b = engine.iterate(seq_b, state_b, steps)
    for (n, sa), (_, sb) in zip(iter_a, iter_b):
        if n % every == 0 or n == steps:
            yield (n, *metrics(sa, sb, subsystem))


def distance_trace(cfg: ExperimentConfig) -> DistanceTrace:
    """The rows of ``distance_rows`` collected into one trace."""
    steps, d2, overlap = zip(*distance_rows(cfg))
    return DistanceTrace(steps, d2, overlap)


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ys against xs."""
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def check_fit_window(fit_window: tuple[int, int]) -> None:
    """Reject a fit window that starts below cycle 0 or ends before it starts."""
    m_lo, m_hi = fit_window
    if m_lo < 0:
        raise ValueError(f"fit window starts at cycle {m_lo}, must start at >= 0")
    if m_lo > m_hi:
        raise ValueError(f"fit window is inverted: first cycle {m_lo} > last cycle {m_hi}")


def lyapunov_estimate(trace: DistanceTrace, fit_window: tuple[int, int]) -> float:
    """Divergence rate per two-step cycle from a pre-saturation window.

    Least-squares slope of ln D(2m) against the cycle index m over
    m in [fit_window[0], fit_window[1]], where 0 <= fit_window[0] <=
    fit_window[1].  The window must hold at least five recorded cycles and
    stay below the saturation guard d2 < 0.5; a Fibonacci schedule targets
    ln((1 + sqrt(5))/2) ~ 0.4812.
    """
    check_fit_window(fit_window)
    m_lo, m_hi = fit_window
    ms, logs = [], []
    for m in range(m_lo, m_hi + 1):
        try:
            val = trace.d2_at(2 * m)
        except KeyError:
            continue
        if val >= _SATURATION_GUARD:
            raise ValueError(
                f"window reaches saturation: d2({2 * m}) = {val:.3g} >= {_SATURATION_GUARD}"
            )
        if val > 0.0:
            ms.append(m)
            logs.append(0.5 * math.log(val))
    if len(ms) < 5:
        raise ValueError(f"window holds {len(ms)} usable points, need >= 5")
    return _slope(ms, logs)


def fit_power_law(trace: DistanceTrace, window: tuple[int, int]) -> float:
    """Exponent k of D ~ n**k over the recorded steps in ``window``."""
    lo, hi = window
    pts = [
        (n, d2)
        for n, d2 in zip(trace.steps, trace.d2)
        if lo <= n <= hi and 0.0 < d2 < _SATURATION_GUARD
    ]
    if len(pts) < 5:
        raise ValueError(f"window holds {len(pts)} usable points, need >= 5")
    return _slope([math.log(n) for n, _ in pts], [0.5 * math.log(d2) for _, d2 in pts])


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


def _orbit_run(schedule: ScheduleConfig, m: int, delta: float) -> tuple[BlochVector, float, float]:
    """Head Bloch vector at step 2m and tape sigma3 at steps 2 and 2m + 2 of
    the run with head preparation and schedule seed both set to delta."""
    seq = AngleSequence(replace(schedule, delta=delta))
    for n, state in engine.iterate(seq, engine.init_state(delta), 2 * m + 2):
        if n == 2:
            tape_2 = engine.spin_bloch(state, "tape").s3
        if n == 2 * m:
            head = engine.spin_bloch(state, "head")
    return head, tape_2, engine.spin_bloch(state, "tape").s3


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
    closure, tape_2a, tape_end_a = _orbit_run(schedule, m, 0.0)
    if abs(closure.s2) > 1e-8 or abs(closure.s3 + 1.0) > 1e-8:
        raise ValueError(f"orbit fails to close after {2 * m} steps: {closure}")
    tape_defined = oracle.tape_factor_undefined(m, schedule) is None

    results = []
    for delta in deltas:
        head, tape_2b, tape_end_b = _orbit_run(schedule, m, delta)
        m11 = head.s2 / math.sin(delta)
        m22 = head.s3 / (-math.cos(delta))
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
