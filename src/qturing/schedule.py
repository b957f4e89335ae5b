"""Control-angle schedules driving the head rotations.

Three schedules are supported: Fibonacci-like (a_{m+1} = a_m + a_{m-1}),
fixed (a_m = a_1) and arithmetic (a_{m+1} = 2 a_m - a_{m-1}).  Indexing
convention: a_1 is the first rotation angle and the recurrence seed a_0
defaults to 0.  A nonzero ``delta`` re-seeds the recurrence with a_0 = delta,
so in Fibonacci mode the emitted angles are a_m + delta * F_{m-1} with
F_0 = 0, F_1 = 1.

All angles are reduced mod 2*pi at every recurrence step: the raw Fibonacci
angles grow like ((1+sqrt(5))/2)**m and would exhaust double precision near
m ~ 75, while every consumer is trigonometric, and reduction commutes with
the additive recurrences.

Every run reads its schedule in order, so each loop draws from a stream:
``AngleSequence.angles()`` yields a_1, a_2, ... and
``AngleSequence.cumulatives()`` yields the cumulative rotations of the two
tape branches, one pair per cycle.  A stream keeps its state in generator
locals; the point reads ``angle``, ``cumulative_plus`` and
``cumulative_minus`` return the same values bit for bit at any index.

When alpha1 is declared as an exact rational multiple of pi via
``exact=(p, q)``, every Fibonacci-mode angle and cumulative rotation is a
closed form in integer Fibonacci residues mod 2q, so arbitrarily long
periodic runs carry no float drift.  A stream advances its residues by one
addition per index; a point read is stateless, one fast-doubling walk to
its index.  One float recurrence, ``_recurrence``, serves both backends:
on the float backend it yields the angles a_m, and on the exact one the
delta part delta * F_{k-1} mod 2*pi at index k, the float schedule at
alpha1 = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, repeat, tee
from typing import Iterable, Iterator

TWO_PI = 2.0 * math.pi

#: growth rate of the Fibonacci recurrence, beta = (1 + sqrt(5)) / 2
GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0

#: expected divergence rate per two-step cycle, ln((1 + sqrt(5)) / 2)
LOG_GOLDEN_RATIO = math.log(GOLDEN_RATIO)


class ScheduleMode(str, Enum):
    FIBONACCI = "fibonacci"
    FIXED = "fixed"
    ARITHMETIC = "arithmetic"


def wrap_angle(x: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    r = x % TWO_PI
    # float mod can round up to the modulus itself (e.g. tiny negative x)
    return 0.0 if r == TWO_PI else r


def fib(n: int) -> int:
    """n-th Fibonacci number (F_0 = 0, F_1 = 1), exact integer."""
    if n < 0:
        raise ValueError(f"negative Fibonacci index: {n}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fib_pair_mod(n: int, mod: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) mod ``mod`` by fast doubling, O(log n).

    Walks the bits of n from the top, keeping (F_k, F_{k+1}) mod ``mod``
    for the prefix k read so far: F_2k = F_k (2 F_{k+1} - F_k) and
    F_{2k+1} = F_k^2 + F_{k+1}^2.
    """
    if n < 0:
        raise ValueError(f"negative Fibonacci index: {n}")
    if mod <= 0:
        raise ValueError(f"modulus must be positive, got {mod}")
    a, b = 0, 1
    for bit in bin(n)[2:]:
        c = a * (2 * b - a) % mod
        d = (a * a + b * b) % mod
        if bit == "1":
            a, b = d, (c + d) % mod
        else:
            a, b = c, d
    return a, b


def fib_mod(n: int, mod: int) -> int:
    """F_n mod ``mod``, the first element of ``fib_pair_mod``."""
    return fib_pair_mod(n, mod)[0]


@dataclass(frozen=True)
class ScheduleConfig:
    """Immutable description of one control-angle schedule.

    ``exact``, when given, declares alpha1 = (p/q)*pi with coprime integers
    and enables the drift-free integer path (Fibonacci mode only; the fixed
    and arithmetic recurrences have no precision blow-up to protect against).
    """

    mode: ScheduleMode
    alpha1: float
    delta: float = 0.0
    exact: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", ScheduleMode(self.mode))
        if not math.isfinite(self.alpha1):
            raise ValueError(f"alpha1 must be finite, got {self.alpha1}")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        if self.exact is not None:
            p, q = self.exact
            if q < 1:
                raise ValueError(f"exact denominator must be >= 1, got {q}")
            if q > 2**1020:  # angles are pi * r / q with r < 2q: pi * 2q must be finite
                raise ValueError(f"exact denominator must be <= 2**1020, got {q.bit_length()} bits")
            if math.gcd(p, q) != 1:
                raise ValueError(f"exact pair must be coprime, got ({p}, {q})")
            declared = (p / q) * math.pi
            if abs(declared - self.alpha1) > math.ulp(max(abs(declared), 1.0)):
                raise ValueError(
                    f"exact pair ({p}, {q}) declares alpha1={declared!r}, "
                    f"got {self.alpha1!r}"
                )

    @classmethod
    def exact_pi(
        cls,
        p: int,
        q: int,
        mode: ScheduleMode = ScheduleMode.FIBONACCI,
        delta: float = 0.0,
    ) -> "ScheduleConfig":
        """Schedule with alpha1 = (p/q)*pi declared exactly."""
        g = math.gcd(p, q)
        p, q = p // g, q // g
        p %= 2 * q
        return cls(mode=mode, alpha1=(p / q) * math.pi, delta=delta, exact=(p, q))


#: entries a point-read cache appends per block when a read runs past it
_GROW_BLOCK = 256


def _recurrence(mode: ScheduleMode, a0: float, a1: float) -> Iterator[float]:
    """a_1, a_2, ... of the schedule seeded (a0, a1), each reduced mod 2*pi."""
    yield a1
    if mode is ScheduleMode.FIXED:
        yield from repeat(a1)  # endless
    fibonacci = mode is ScheduleMode.FIBONACCI
    while True:
        a0, a1 = a1, wrap_angle(a0 + a1 if fibonacci else 2.0 * a1 - a0)
        yield a1


def _grow(cache: list, feed: Iterator, i: int):
    """Entry i of a point-read cache, extended first from ``feed`` in whole
    blocks of _GROW_BLOCK when it is shorter."""
    if i >= len(cache):
        cache.extend(islice(feed, (i - len(cache)) // _GROW_BLOCK * _GROW_BLOCK + _GROW_BLOCK))
    return cache[i]


def _fib_at(m: int, mod: int) -> tuple[int, int]:
    """(F_{m-1}, F_m) mod ``mod`` for m >= -1, with F_{-2} = -1 and F_{-1} = 1:
    one fib_pair_mod walk for m >= 1, none below."""
    if m > 0:
        return fib_pair_mod(m - 1, mod)
    return (1, 0) if m == 0 else (mod - 1, 1)


@dataclass
class AngleSequence:
    """One schedule on one of two backends, chosen once.

    Each call of ``angles()`` or ``cumulatives()`` starts a new stream at
    m = 1 and grows nothing on the instance.  On the float backend the
    point reads read lists filled from private streams in blocks of
    _GROW_BLOCK.  On the exact Fibonacci backend a point read is the stream
    started at its index by one ``fib_pair_mod`` walk to (F_{m-1}, F_m)
    mod 2q, with the delta part at index k read from a list filled from the
    float schedule at alpha1 = 0; at delta = 0 that part is 0.0 and no list
    grows.
    """

    config: ScheduleConfig

    def __post_init__(self) -> None:
        cfg = self.config
        self._a0 = wrap_angle(cfg.delta)
        # (p, q) on the exact backend, None on the float one
        self._exact = cfg.exact if cfg.mode is ScheduleMode.FIBONACCI else None
        if self._exact is not None:
            self._delta_list = [self._a0]  # delta * F_{k-1} mod 2*pi at index k >= 0
            self._delta_feed = self._deltas()
            return
        self._a1 = wrap_angle(cfg.alpha1)
        self._ang = [self._a0]  # a_m at index m >= 0
        self._ang_feed = _recurrence(cfg.mode, self._a0, self._a1)
        self._cum = [(self._a0, self._a0)]  # (C+(m), C-(2m)) at index m >= 0
        self._cum_feed = self._float_cumulatives()

    # -- streams -------------------------------------------------------------

    def angles(self) -> Iterator[float]:
        """Stream a_1, a_2, ...: bit for bit ``angle(m)`` for m = 1, 2, ..."""
        if self._exact is None:
            return _recurrence(self.config.mode, self._a0, self._a1)
        return self._exact_angles(1, self._deltas())

    def cumulatives(self) -> Iterator[tuple[float, float]]:
        """Stream (C+(m), C-(2m)) for m = 1, 2, ...: bit for bit
        ``(cumulative_plus(m), cumulative_minus(2 * m))``."""
        if self._exact is None:
            return self._float_cumulatives()
        # delta * F_{m+1} and delta * F_{m-2} are entries m + 2 and m - 1
        ahead, behind = tee(self._deltas())
        return self._exact_cumulatives(1, zip(islice(ahead, 2, None), chain((self._a0,), behind)))

    def _deltas(self) -> Iterator[float]:
        """Entries k = 1, 2, ... of the exact backend's delta list,
        delta * F_{k-1} mod 2*pi: the float schedule at alpha1 = 0, seeded
        (delta, 0)."""
        if not self.config.delta:
            return repeat(0.0)
        return _recurrence(ScheduleMode.FIBONACCI, self._a0, 0.0)

    def _float_cumulatives(self) -> Iterator[tuple[float, float]]:
        a0 = self._a0
        plus, alt = a0, 0.0  # a_0 + sum_{j<=m} a_j and sum_{j<=m} (-1)^j a_j
        angles = _recurrence(self.config.mode, a0, self._a1)
        for a in angles:  # an odd m, then the even m + 1
            plus, alt = wrap_angle(plus + a), wrap_angle(alt - a)
            yield plus, wrap_angle(alt - a0)
            a = next(angles)
            plus, alt = wrap_angle(plus + a), wrap_angle(alt + a)
            yield plus, wrap_angle(a0 - alt)

    # The exact backend's closed forms, each written once: a stream starts at
    # m = 1, and a point read is the stream started at its index by one walk.

    def _exact_angles(self, m: int, deltas: Iterable[float]) -> Iterator[float]:
        """a_m, a_{m+1}, ...: one angle per delta part delta * F_{k-1} in
        ``deltas``, for k = m, m + 1, ..."""
        p, q = self._exact
        mod = 2 * q
        f_prev, f = _fib_at(m - 1, mod)
        for d in deltas:
            f_prev, f = f, (f_prev + f) % mod
            yield wrap_angle(math.pi * ((p * f) % mod) / q + d)

    def _exact_cumulatives(self, m: int,
                           deltas: Iterable[tuple[float, float]]) -> Iterator[tuple[float, float]]:
        """(C+(k), C-(2k)) for k = m, m + 1, ...: one pair per pair of delta
        parts (delta * F_{k+1}, delta * F_{k-2}) in ``deltas``."""
        p, q = self._exact
        mod = 2 * q
        f_prev, f = _fib_at(m - 1, mod)
        sign = -1 if m % 2 else 1  # (-1)^k
        for d_plus, d_minus in deltas:
            f_prev, f = f, (f_prev + f) % mod
            # sum_{j<=k} F_j = F_{k+2} - 1 and F_{k+2} = F_{k-1} + 2 F_k
            plus = wrap_angle(math.pi * ((p * (f_prev + 2 * f - 1)) % mod) / q + d_plus)
            # C-(2k) = (p/q)*pi * ((-1)^k - F_{k-1}) - delta * F_{k-2}
            yield plus, wrap_angle(math.pi * ((p * (sign - f_prev)) % mod) / q - d_minus)
            sign = -sign

    # -- point reads ---------------------------------------------------------

    def _delta_part(self, k: int) -> float:
        """Entry k >= 0 of the exact backend's delta list, delta * F_{k-1} mod 2*pi."""
        return _grow(self._delta_list, self._delta_feed, k) if self.config.delta else 0.0

    def _cumulatives_at(self, m: int) -> tuple[float, float]:
        """(C+(m), C-(2m)) for m >= 0."""
        if self._exact is None:
            return _grow(self._cum, self._cum_feed, m)
        # delta * F_{m-2}; F_{-2} = -1 is the one index the delta list does not hold
        behind = self._delta_part(m - 1) if m else wrap_angle(-self.config.delta)
        return next(self._exact_cumulatives(m, [(self._delta_part(m + 2), behind)]))

    def angle(self, m: int) -> float:
        """Rotation angle a_m in [0, 2*pi), m >= 1."""
        if m < 1:
            raise ValueError(f"angle index must be >= 1, got {m}")
        if self._exact is None:
            return _grow(self._ang, self._ang_feed, m)
        return next(self._exact_angles(m, [self._delta_part(m)]))

    def cumulative_plus(self, m: int) -> float:
        """Total rotation accrued by the tape-plus branch after 2m steps.

        Equals a_0 + sum_{j=1..m} a_j mod 2*pi; the delta part makes the
        delta-perturbed cumulative exceed the unperturbed one by exactly
        delta * F_{m+1}, matching the perturbed evolution it predicts.
        """
        if m < 0:
            raise ValueError(f"cycle index must be >= 0, got {m}")
        return self._cumulatives_at(m)[0]

    def cumulative_minus(self, n: int) -> float:
        """Cumulative angle of the tape-minus branch after n steps.

        The head of this branch is reflected by every conditional flip, so
        the angle obeys C_{2m} = -C_{2m-1} and C_{2m-1} = a_m + C_{2m-2};
        this evaluates the resulting alternating sum (seed included) mod
        2*pi, in closed form (p/q)*pi * ((-1)^m - F_{m-1}) - delta * F_{m-2}
        on the exact backend.
        """
        if n < 0:
            raise ValueError(f"step index must be >= 0, got {n}")
        even = self._cumulatives_at((n + 1) // 2)[1]
        return even if n % 2 == 0 else wrap_angle(-even)
