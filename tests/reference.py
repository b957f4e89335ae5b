"""Reference helpers the tests compare the engine against; the package does
not call them."""
from __future__ import annotations

from fractions import Fraction

from qturing.engine import State, iterate
from qturing.schedule import AngleSequence, ScheduleConfig, ScheduleMode, fib_mod, wrap_angle

#: 2*pi to 40 digits, for exact reductions of huge multiples of an angle
TWO_PI_40 = Fraction("6.283185307179586476925286766559005768394")


def run(seq: AngleSequence, state: State, n_steps: int) -> State:
    """State after n_steps alternating gates (n_steps = 0 returns the input)."""
    for _, state in iterate(seq, state, n_steps):
        pass
    return state


def norm_sq(state: State) -> float:
    """Squared norm of a state vector."""
    return sum(c.real * c.real + c.imag * c.imag for c in state)


class EagerFloatSchedule:
    """Every query of a float-backend schedule through cycle ``top``, grown
    one index at a time in one pass: angles, running sums and seed terms
    from the same recurrences, additions and reductions the package uses."""

    def __init__(self, config: ScheduleConfig, top: int) -> None:
        a0 = wrap_angle(config.delta)
        a1 = wrap_angle(config.alpha1)
        ang, cum, alt = [a0, a1], [a0, wrap_angle(a0 + a1)], [0.0, wrap_angle(-a1)]
        prev2, prev1 = a0, a1
        for k in range(2, top + 1):
            if config.mode is ScheduleMode.FIBONACCI:
                nxt = wrap_angle(prev2 + prev1)
            elif config.mode is ScheduleMode.ARITHMETIC:
                nxt = wrap_angle(2.0 * prev1 - prev2)
            else:
                nxt = wrap_angle(config.alpha1)
            ang.append(nxt)
            cum.append(wrap_angle(cum[k - 1] + nxt))
            alt.append(wrap_angle(alt[k - 1] - nxt if k % 2 else alt[k - 1] + nxt))
            prev2, prev1 = prev1, nxt
        # delta * F_k mod 2*pi at index k + 2, from F_{-2} = -1 and F_{-1} = 1
        dfib = [wrap_angle(-config.delta), a0, 0.0, a0]
        while len(dfib) < top + 3:
            dfib.append(wrap_angle(dfib[-1] + dfib[-2]))
        self.ang, self.cum, self.alt, self.dfib = ang, cum, alt, dfib

    def angle(self, m: int) -> float:
        return self.ang[m]

    def cumulative_plus(self, m: int) -> float:
        return self.cum[m]

    def cumulative_minus(self, n: int) -> float:
        m = (n + 1) // 2
        sign = 1.0 if m % 2 == 0 else -1.0
        even = wrap_angle(sign * self.ang[0] - (-1.0) ** m * self.alt[m])
        return even if n % 2 == 0 else wrap_angle(-even)

    def delta_fib(self, m: int) -> float:
        return self.dfib[m + 2]


def orbit_conditions_three_walks(p: int, q: int, m: int) -> tuple[bool, bool, bool]:
    """The closure conditions at cycle m >= 0 for alpha1 = (p/q)*pi, with
    F_{m-1}, F_{m+1} and F_{m+2} mod 2q each from its own fib_mod walk."""
    mod = 2 * q
    f_m1 = fib_mod(m - 1, mod) if m >= 1 else 1
    f1 = fib_mod(m + 1, mod)
    f2 = fib_mod(m + 2, mod)
    c_plus = (p * (f2 - 1)) % mod == 0
    if m % 2 == 0:
        c_minus = (p * (f_m1 - 1)) % mod == 0
    else:
        c_minus = (p * (f_m1 + 1)) % mod == 0
    c_angle = (p * (f1 - 1)) % mod == 0
    return c_plus, c_minus, c_angle
