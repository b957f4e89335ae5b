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

When alpha1 is declared as an exact rational multiple of pi via
``exact=(p, q)``, every Fibonacci-mode angle and cumulative rotation is a
closed form in integer Fibonacci residues mod 2q, read from one carried
residue pair, so arbitrarily long periodic runs carry no float drift.  Each
command reads the pair at the same index or one index up, one addition;
any other move re-seeds it with one fast-doubling walk.  The seed term
delta * F_k mod 2*pi of a nonzero delta is a float recurrence on every
schedule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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


#: float angles the float backend appends per block when a read runs past its cache
_GROW_BLOCK = 256


def _residues(pair: list[int], m: int, mod: int) -> tuple[int, int]:
    """Move the carried pair [k, F_{k-1}, F_k] mod ``mod`` to index m >= 0 and
    return (F_{m-1}, F_m), with F_{-1} = 1: one addition for m = k + 1, one
    fib_pair_mod walk for any move but 0 or +1."""
    k, prev, cur = pair
    if m == k + 1:
        prev, cur = cur, (prev + cur) % mod
    elif m != k:
        prev, cur = fib_pair_mod(m - 1, mod) if m else (1, 0)
    pair[:] = m, prev, cur
    return prev, cur


@dataclass
class AngleSequence:
    """Iterator state of one schedule on one of two backends, chosen once.

    An exact Fibonacci schedule answers every query in closed form from the
    integer residues (F_{m-1}, F_m) mod 2q of one carried pair, which a
    query at the same index reads and a query one index up advances by one
    addition.  Any other schedule caches its float angles, grown in blocks
    of _GROW_BLOCK, and their running sums as far as a cumulative query
    reads them, so a cached angle is one list read.  A nonzero delta adds
    the seed term delta * F_k mod 2*pi, a float recurrence cached as far as
    it is read.  Instances are single-owner: advance one sequence per thread.
    """

    config: ScheduleConfig

    def __post_init__(self) -> None:
        cfg = self.config
        a0 = wrap_angle(cfg.delta)
        # delta * F_k mod 2*pi at index k + 2, from F_{-2} = -1 and F_{-1} = 1;
        # at delta = 0 every seed term is 0.0 and the list never grows
        self._dfib = [wrap_angle(-cfg.delta), a0, 0.0, a0]
        self._seed = self._seed_term if cfg.delta else lambda k: 0.0
        # (p, q) on the exact backend, None on the float one
        self._exact = cfg.exact if cfg.mode is ScheduleMode.FIBONACCI else None
        if self._exact is not None:
            self._pair = [0, 1, 0]  # [k, F_{k-1}, F_k] mod 2q
            return
        a1 = wrap_angle(cfg.alpha1)
        self._ang = [a0, a1]                        # emitted angles, index m >= 0
        self._cum = [a0, wrap_angle(a0 + a1)]       # a_0 + sum_{j<=m} a_j
        self._alt = [0.0, wrap_angle(-a1)]          # sum_{j<=m} (-1)^j a_j

    # -- recurrence -------------------------------------------------------

    def _seed_term(self, k: int) -> float:
        """delta * F_k mod 2*pi, k >= -2, grown by the float recurrence."""
        dfib = self._dfib
        while len(dfib) <= k + 2:
            dfib.append(wrap_angle(dfib[-1] + dfib[-2]))
        return dfib[k + 2]

    def _grow(self, m: int) -> None:
        """Extend the float backend's angles through index m, in whole blocks."""
        ang = self._ang
        k = len(ang)
        if k > m:
            return
        count = (m - k) // _GROW_BLOCK * _GROW_BLOCK + _GROW_BLOCK
        if self.config.mode is ScheduleMode.FIXED:
            ang.extend([wrap_angle(self.config.alpha1)] * count)
            return
        fibonacci = self.config.mode is ScheduleMode.FIBONACCI
        prev2, prev1 = ang[k - 2], ang[k - 1]
        for _ in range(count):
            prev2, prev1 = prev1, wrap_angle(prev2 + prev1 if fibonacci else 2.0 * prev1 - prev2)
            ang.append(prev1)

    def _sums(self, m: int) -> None:
        """Extend the float backend's running sums through index m."""
        if len(self._cum) > m:
            return
        self._grow(m)
        ang, cum, alt = self._ang, self._cum, self._alt
        for k in range(len(cum), m + 1):
            cum.append(wrap_angle(cum[k - 1] + ang[k]))
            alt.append(wrap_angle(alt[k - 1] - ang[k] if k % 2 else alt[k - 1] + ang[k]))

    # -- operations -------------------------------------------------------

    def angle(self, m: int) -> float:
        """Rotation angle a_m in [0, 2*pi), m >= 1."""
        if m < 1:
            raise ValueError(f"angle index must be >= 1, got {m}")
        if self._exact is None:
            try:
                return self._ang[m]
            except IndexError:
                self._grow(m)
                return self._ang[m]
        p, q = self._exact
        f = _residues(self._pair, m, 2 * q)[1]
        return wrap_angle(math.pi * ((p * f) % (2 * q)) / q + self._seed(m - 1))

    def cumulative_plus(self, m: int) -> float:
        """Total rotation accrued by the tape-plus branch after 2m steps.

        Equals a_0 + sum_{j=1..m} a_j mod 2*pi; the seed term makes the
        delta-perturbed cumulative exceed the unperturbed one by exactly
        delta * F_{m+1}, matching the perturbed evolution it predicts.
        """
        if m < 0:
            raise ValueError(f"cycle index must be >= 0, got {m}")
        if self._exact is None:
            self._sums(m)
            return self._cum[m]
        p, q = self._exact
        f_prev, f = _residues(self._pair, m, 2 * q)
        # sum_{j<=m} F_j = F_{m+2} - 1 and F_{m+2} = F_{m-1} + 2 F_m
        r = (p * (f_prev + 2 * f - 1)) % (2 * q)
        return wrap_angle(math.pi * r / q + self._seed(m + 1))

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
        m = (n + 1) // 2
        if self._exact is None:
            self._sums(m)
            a0, alt = self._ang[0], self._alt[m]
            even = wrap_angle(a0 - alt if m % 2 == 0 else alt - a0)
        else:
            p, q = self._exact
            f = _residues(self._pair, m, 2 * q)[0]
            r = (p * ((1 - f) if m % 2 == 0 else -(f + 1))) % (2 * q)
            even = wrap_angle(math.pi * r / q - self._seed(m - 2))
        return even if n % 2 == 0 else wrap_angle(-even)

    def delta_fib(self, m: int) -> float:
        """Accumulated seed perturbation delta * F_m mod 2*pi, m >= 0."""
        if m < 0:
            raise ValueError(f"index must be >= 0, got {m}")
        return self._seed(m)
