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
``exact=(p, q)``, Fibonacci-mode angles are computed from integer Fibonacci
residues mod 2q, so arbitrarily long periodic runs carry no float drift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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


def fib_mod(n: int, mod: int) -> int:
    """F_n mod ``mod`` by fast doubling, O(log n).

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
        c = (a * ((2 * b - a) % mod)) % mod
        d = (a * a + b * b) % mod
        if bit == "1":
            a, b = d, (c + d) % mod
        else:
            a, b = c, d
    return a


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


@dataclass
class AngleSequence:
    """Iterator state of one schedule plus cached cumulative quantities.

    The recurrence advances a rolling pair (a_{m-1}, a_m) mod 2*pi, or in
    exact mode the integer pair (F_{m-1}, F_m) mod 2q; emitted values and
    the running sums consumed by the closed-form predictions are cached so
    random access is O(1) after a single forward pass.  The exact path
    without delta skips the caches and reads each value from ``fib_mod``.
    Instances are single-owner: advance one sequence per thread.
    """

    config: ScheduleConfig
    _ang: list[float] = field(init=False)        # emitted angles, index m >= 1
    _cum: list[float] = field(init=False)        # a_0 + sum_{j<=m} a_j
    _alt: list[float] = field(init=False)        # sum_{j<=m} (-1)^j a_j
    _dfib: list[float] = field(init=False)       # delta * F_m mod 2*pi
    _fib: tuple[int, int] = field(init=False)    # (F_{k-1}, F_k) mod 2q at the last cached k

    def __post_init__(self) -> None:
        a0 = wrap_angle(self.config.delta)
        if self.config.exact is not None and self.config.mode is ScheduleMode.FIBONACCI:
            a1 = self._exact_base(1)  # grid value, not the rounded (p/q)*pi
        else:
            a1 = wrap_angle(self.config.alpha1)
        self._ang = [a0, a1]
        self._cum = [a0, wrap_angle(a0 + a1)]
        self._alt = [0.0, wrap_angle(-a1)]
        self._dfib = [0.0, wrap_angle(self.config.delta)]
        self._fib = (0, 1)

    # -- recurrence -------------------------------------------------------

    def _exact_base(self, m: int) -> float:
        """Unperturbed exact-mode angle pi * ((p * F_m) mod 2q) / q."""
        p, q = self.config.exact  # type: ignore[misc]
        return math.pi * ((p * fib_mod(m, 2 * q)) % (2 * q)) / q

    def _grow(self, m: int) -> None:
        ang = self._ang
        k = len(ang)
        if k > m:
            return
        cfg = self.config
        cum, alt, dfib = self._cum, self._alt, self._dfib
        exact = cfg.exact is not None and cfg.mode is ScheduleMode.FIBONACCI
        if exact:
            p, q = cfg.exact  # type: ignore[misc]
            mod = 2 * q
            f_prev, f = self._fib
        prev2, prev1 = ang[k - 2], ang[k - 1]
        while k <= m:
            if exact:
                f_prev, f = f, (f_prev + f) % mod
                # _exact_base(k) plus the seed term; dfib is all zeros for delta = 0
                nxt = wrap_angle(math.pi * ((p * f) % mod) / q + dfib[k - 1])
            elif cfg.mode is ScheduleMode.FIBONACCI:
                nxt = wrap_angle(prev2 + prev1)
            elif cfg.mode is ScheduleMode.ARITHMETIC:
                nxt = wrap_angle(2.0 * prev1 - prev2)
            else:
                nxt = wrap_angle(cfg.alpha1)
            ang.append(nxt)
            cum.append(wrap_angle(cum[k - 1] + nxt))
            alt.append(wrap_angle(alt[k - 1] - nxt if k % 2 else alt[k - 1] + nxt))
            dfib.append(wrap_angle(dfib[k - 1] + dfib[k - 2]))
            prev2, prev1 = prev1, nxt
            k += 1
        if exact:
            self._fib = (f_prev, f)

    # -- operations -------------------------------------------------------

    def angle(self, m: int) -> float:
        """Rotation angle a_m in [0, 2*pi), m >= 1."""
        if m < 1:
            raise ValueError(f"angle index must be >= 1, got {m}")
        cfg = self.config
        if (
            cfg.exact is not None
            and cfg.mode is ScheduleMode.FIBONACCI
            and cfg.delta == 0.0
        ):
            # O(log m) random access; supports very large m without caching
            return self._exact_base(m)
        self._grow(m)
        return self._ang[m]

    def cumulative_plus(self, m: int) -> float:
        """Total rotation accrued by the tape-plus branch after 2m steps.

        Equals a_0 + sum_{j=1..m} a_j mod 2*pi; the seed term makes the
        delta-perturbed cumulative exceed the unperturbed one by exactly
        delta * F_{m+1}, matching the perturbed evolution it predicts.
        """
        if m < 0:
            raise ValueError(f"cycle index must be >= 0, got {m}")
        cfg = self.config
        if (
            cfg.exact is not None
            and cfg.mode is ScheduleMode.FIBONACCI
            and cfg.delta == 0.0
        ):
            p, q = cfg.exact
            # sum_{j<=m} F_j = F_{m+2} - 1
            r = (p * (fib_mod(m + 2, 2 * q) - 1)) % (2 * q)
            return math.pi * r / q
        self._grow(m)
        return self._cum[m]

    def cumulative_minus(self, n: int) -> float:
        """Cumulative angle of the tape-minus branch after n steps.

        The head of this branch is reflected by every conditional flip, so
        the angle obeys C_{2m} = -C_{2m-1} and C_{2m-1} = a_m + C_{2m-2};
        this evaluates the resulting alternating sum (seed included) mod 2*pi.
        """
        if n < 0:
            raise ValueError(f"step index must be >= 0, got {n}")
        m = (n + 1) // 2
        cfg = self.config
        if (
            cfg.exact is not None
            and cfg.mode is ScheduleMode.FIBONACCI
            and cfg.delta == 0.0
        ):
            p, q = cfg.exact
            f = fib_mod(m - 1, 2 * q) if m >= 1 else 1
            r = (p * ((1 - f) if m % 2 == 0 else -(f + 1))) % (2 * q)
            even = math.pi * r / q
        else:
            self._grow(m)
            sign = 1.0 if m % 2 == 0 else -1.0
            even = wrap_angle(sign * self._ang[0] - (-1.0) ** m * self._alt[m])
        if n % 2 == 0:
            return even
        return wrap_angle(-even)

    def delta_fib(self, m: int) -> float:
        """Accumulated seed perturbation delta * F_m mod 2*pi, m >= 0."""
        if m < 0:
            raise ValueError(f"index must be >= 0, got {m}")
        self._grow(max(m, 1))
        return self._dfib[m]

    def unperturbed(self) -> "AngleSequence":
        """Fresh sequence with the same config but delta = 0."""
        return AngleSequence(replace(self.config, delta=0.0))
