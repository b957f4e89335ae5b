"""Closed-form predictions for the driven two-spin network.

Everything here is an independent second route to quantities the state
engine produces by direct simulation: superposed head trajectories (unit
weights (1, 0) and (0, 1) give the primitive, entanglement-free branches),
the tape polarization, periodic-orbit closure in exact integer arithmetic,
and the stability factors of periodic orbits under a seed perturbation.
Pure functions throughout.

Head and tape predictions assume the head is prepared with the schedule's
seed perturbation delta, as ``engine.init_state(delta)`` does.
"""
from __future__ import annotations

import math
from math import cos, sin
from dataclasses import dataclass, field
from typing import NamedTuple

from .engine import BlochVector
from .schedule import (
    AngleSequence,
    ScheduleConfig,
    ScheduleMode,
    fib,
    fib_mod,  # noqa: F401  (bench/layers.py traces oracle.fib_mod by name)
    fib_pair_mod,
    wrap_angle,
)

#: largest index at which Fibonacci numbers stay meaningful in double
#: precision products; larger requests are rejected rather than degraded
_MAX_FIB_INDEX = 90

#: largest cycle index m that ``stability_limits`` accepts: it reads F_{m+2}
MAX_CYCLE = _MAX_FIB_INDEX - 2


@dataclass(frozen=True)
class SuperpositionWeights:
    """Branch amplitudes a+ and a-; ``wp`` and ``wm`` are |a+|^2 and |a-|^2."""

    a_plus: complex
    a_minus: complex
    wp: float = field(init=False, repr=False, compare=False)
    wm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        wp, wm = abs(self.a_plus) ** 2, abs(self.a_minus) ** 2
        norm = wp + wm
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"weights must be normalized, |a+|^2+|a-|^2 = {norm}")
        object.__setattr__(self, "wp", wp)
        object.__setattr__(self, "wm", wm)


class StabilityLimits(NamedTuple):
    m11: int
    m22: float
    tape: float | None


def _check_fib_index(m: int) -> None:
    if m > _MAX_FIB_INDEX:
        raise ValueError(
            f"index {m} exceeds {_MAX_FIB_INDEX}; Fibonacci factors would "
            "silently lose double precision"
        )


def sin_alpha1(config: ScheduleConfig) -> float:
    """sin(alpha1), exactly zero for declared integer multiples of pi."""
    if config.exact is not None and config.exact[1] == 1:
        return 0.0
    s = sin(config.alpha1)
    return 0.0 if abs(s) < 1e-12 else s


def tape_factor_undefined(m: int, config: ScheduleConfig) -> str | None:
    """Why the tape stability factor is undefined at cycle m, or None.

    The factor is defined exactly when the period 2m is divisible by 4 and
    sin(alpha1) != 0.
    """
    if m % 2 != 0:
        return f"tape factor needs period 2m = 0 (mod 4), got m = {m}"
    if sin_alpha1(config) == 0.0:
        return "tape factor diverges: sin(alpha1) = 0"
    return None


def head_bloch_superposed(seq: AngleSequence, weights: SuperpositionWeights, n: int) -> BlochVector:
    """Head Bloch vector of a weighted superposition of the two branches.

    The tape eigenstates stay orthogonal for all times, so the reduced head
    state is the convex combination of the branch states with weights
    |a+|^2 and |a-|^2.  Weights (1, 0) and (0, 1) give the entanglement-free
    branches alone, each at (0, sin C, -cos C) for its cumulative angle C
    after n steps, preparation included.
    """
    if n < 0:
        raise ValueError(f"step index must be >= 0, got {n}")
    wp, wm = weights.wp, weights.wm
    c_plus = seq.cumulative_plus((n + 1) // 2)
    c_minus = seq.cumulative_minus(n)
    return BlochVector(
        0.0,
        wp * sin(c_plus) + wm * sin(c_minus),
        wp * -cos(c_plus) + wm * -cos(c_minus),
    )


def tape_sigma3(seq: AngleSequence, n: int) -> float:
    """Tape polarization at step n for the initial state |-1, -1>.

    Valid for Fibonacci schedules with a (possibly zero) seed perturbation
    delta.  The other two tape components vanish identically for this
    initial state.
    """
    if n < 0:
        raise ValueError(f"step index must be >= 0, got {n}")
    cfg = seq.config
    if cfg.mode is not ScheduleMode.FIBONACCI:
        raise ValueError(f"tape formula requires a Fibonacci schedule, got {cfg.mode}")
    # the emitted angle at index k+1 already carries delta * F_k
    a = seq.angle(n // 2 + 1)
    if n % 4 in (0, 1):
        return -cos(wrap_angle(a - wrap_angle(cfg.alpha1)))
    return cos(a)


def orbit_conditions(p: int, q: int, m: int) -> tuple[bool, bool, bool]:
    """The three closure conditions at cycle m for alpha1 = (p/q)*pi.

    Order: cumulative-plus = 0 (mod 2*pi), cumulative-minus = 0 (mod 2*pi),
    angle recurrence returns (a_{m+1} = a_1 mod 2*pi).  Exact integers,
    from one walk to (F_m, F_{m+1}) mod 2q: F_{m-1} = F_{m+1} - F_m (also
    at m = 0, where F_{-1} = 1) and F_{m+2} = F_m + F_{m+1}.
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    if math.gcd(p, q) != 1:
        raise ValueError(f"(p, q) must be coprime, got ({p}, {q})")
    if m < 0:
        raise ValueError(f"cycle index must be >= 0, got {m}")
    mod = 2 * q
    f0, f1 = fib_pair_mod(m, mod)
    f_m1 = (f1 - f0) % mod
    f2 = (f0 + f1) % mod
    c_plus = (p * (f2 - 1)) % mod == 0
    if m % 2 == 0:
        c_minus = (p * (f_m1 - 1)) % mod == 0
    else:
        c_minus = (p * (f_m1 + 1)) % mod == 0
    c_angle = (p * (f1 - 1)) % mod == 0
    return c_plus, c_minus, c_angle


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization {r: k} of n >= 1 by trial division: 2, then odd r."""
    out: dict[int, int] = {}
    while n % 2 == 0:
        out[2] = out.get(2, 0) + 1
        n //= 2
    r = 3
    while r * r <= n:
        while n % r == 0:
            out[r] = out.get(r, 0) + 1
            n //= r
        r += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _wall_bound(r: int) -> int:
    """A multiple b(r) of the Pisano period of the prime r (Wall 1960)."""
    if r == 2:
        return 3
    if r == 5:
        return 20
    return r - 1 if r % 5 in (1, 4) else 2 * (r + 1)


def periodic_orbit_check(p: int, q: int) -> int:
    """Smallest period n = 2m of the head pattern for alpha1 = (p/q)*pi.

    Every rational alpha1 closes, and the period is found in exact integer
    arithmetic.  With M = 2q / gcd(p, 2q), the plus and angle conditions of
    ``orbit_conditions`` say F_{m+2} = F_{m+1} = 1 (mod M), that is
    (F_m, F_{m+1}) = (0, 1) (mod M), which holds exactly when the Pisano
    period pi(M) divides m.  Then F_{m-1} = 1 (mod M), so the minus
    condition holds for even m, and for odd m only when M <= 2.  The
    closing m are therefore exactly the multiples of one m0, and m0
    divides N = lcm(W(2q), 2) because pi(M) | pi(2q) | W(2q), where W(2q)
    is the lcm over the prime powers r^k of 2q of r^(k-1) b(r) (Wall:
    pi(r^k) | r^(k-1) pi(r) and pi(r) | b(r); the conjectured equality
    pi(r^k) = r^(k-1) pi(r) is not used).  Dividing N by each of its
    primes while the conditions still hold at N/r leaves m0.  Each test is
    one fast-doubling walk.  1/999983 (period 3,999,936, 4 tests) takes
    about 0.08 ms on a 2-core Xeon with Python 3.11, two thirds of it in
    the trial division of 2q and of its Wall bounds.
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    if math.gcd(p, q) != 1:
        raise ValueError(f"(p, q) must be coprime, got ({p}, {q})")
    if q < 0:
        p, q = -p, -q
    n = 2
    primes = {2}
    for r, k in _factorize(2 * q).items():
        b = _wall_bound(r)
        n = math.lcm(n, r ** (k - 1) * b)
        primes.add(r)
        primes.update(_factorize(b))
    for r in primes:
        while n % r == 0 and all(orbit_conditions(p, q, n // r)):
            n //= r
    return 2 * n


def stability_limits(m: int, seq: AngleSequence | None = None) -> StabilityLimits:
    """Small-perturbation limits of the orbit stability factors at cycle m.

    Returns (F_{m-1}, 1, F_{m+1} * sin(a_{m+2}) / sin(a_1)); the tape factor
    needs the angle schedule and is only defined for periods divisible by 4,
    so it is None unless ``seq`` is given.
    """
    if m < 1:
        raise ValueError(f"cycle index must be >= 1, got {m}")
    _check_fib_index(m + 2)
    tape = None
    if seq is not None:
        reason = tape_factor_undefined(m, seq.config)
        if reason is not None:
            raise ValueError(reason)
        tape = fib(m + 1) * sin(seq.angle(m + 2)) / sin_alpha1(seq.config)
    return StabilityLimits(fib(m - 1), 1.0, tape)


def stability_matrix_closed(m: int, delta: float) -> tuple[float, float]:
    """Finite-delta closed forms of the orbit stability factors (M11, M22).

    M11 = cos(delta F_m) sin(delta F_{m-1}) / sin(delta) and
    M22 = cos(delta F_m) cos(delta F_{m-1}) / cos(delta); their delta -> 0
    limits are F_{m-1} and 1.
    """
    if m < 1:
        raise ValueError(f"cycle index must be >= 1, got {m}")
    if not 0.0 < delta <= 0.1:
        raise ValueError(f"delta must lie in (0, 0.1], got {delta}")
    _check_fib_index(m)
    dm = delta * fib(m)
    dm1 = delta * fib(m - 1)
    m11 = cos(dm) * sin(dm1) / sin(delta)
    m22 = cos(dm) * cos(dm1) / cos(delta)
    return m11, m22


def delta_c(m: int, delta: float) -> tuple[float, float]:
    """Cumulative-angle shifts (delta F_{m+1}, -delta F_{m-2}) at cycle m.

    Exact for any delta, not a linearization: re-seeding the recurrence with
    a_0 = delta shifts the plus cumulative by delta F_{m+1} and the minus
    cumulative by -delta F_{m-2}.
    """
    if m < 2:
        raise ValueError(f"cycle index must be >= 2, got {m}")
    _check_fib_index(m + 1)
    return delta * fib(m + 1), -delta * fib(m - 2)
