"""Reference helpers the tests compare the engine against; the package does
not call them.

The complex gate engine is the reference route for the real one: a state is
four Python complexes c = (c0, c1, c2, c3), indexed c[2h + t], and every
gate, Bloch vector and pair metric is complex arithmetic on them.  ``lift``
maps an engine state (x0, x1, y2, y3) to its amplitudes (x0, x1, i y2, i y3).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from qturing import engine
from qturing.engine import State, TapeState
from qturing.schedule import AngleSequence, ScheduleConfig, ScheduleMode, fib_mod, wrap_angle

#: 2*pi to 40 digits, for exact reductions of huge multiples of an angle
TWO_PI_40 = Fraction("6.283185307179586476925286766559005768394")

#: amplitudes (c0, c1, c2, c3) of a network state, indexed c[2h + t]
ComplexState = tuple[complex, complex, complex, complex]
#: 2x2 matrix as rows ((m00, m01), (m10, m11))
Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]

SIGMA1: Matrix2 = ((0j, 1 + 0j), (1 + 0j, 0j))
SIGMA2: Matrix2 = ((0j, 1j), (complex(0.0, -1.0), 0j))  # i sigma1 sigma3
SIGMA3: Matrix2 = ((-1 + 0j, 0j), (0j, 1 + 0j))

#: Pauli triple in component order (sigma1, sigma2, sigma3)
PAULI = (SIGMA1, SIGMA2, SIGMA3)

_SQRT_HALF = 1.0 / math.sqrt(2.0)

_TAPE_AMPLITUDES = {
    TapeState.MINUS_ONE: (1.0, 0.0),
    TapeState.PLUS_ONE: (0.0, 1.0),
    TapeState.PLUS: (_SQRT_HALF, _SQRT_HALF),
    TapeState.MINUS: (_SQRT_HALF, -_SQRT_HALF),
}


def lift(state: State) -> ComplexState:
    """The complex amplitudes (x0, x1, i y2, i y3) of an engine state."""
    x0, x1, y2, y3 = state
    return complex(x0), complex(x1), complex(0.0, y2), complex(0.0, y3)


def init_state(head_angle: float, tape: TapeState | str = TapeState.MINUS_ONE) -> ComplexState:
    """Product state exp(-i sigma1 head_angle / 2)|-1> (x) |tape>."""
    t0, t1 = _TAPE_AMPLITUDES[TapeState(tape)]
    h0 = math.cos(head_angle / 2.0)
    h1 = -1j * math.sin(head_angle / 2.0)
    return (complex(h0 * t0), complex(h0 * t1), h1 * t0, h1 * t1)


def apply_head_rotation(state: ComplexState, alpha: float) -> ComplexState:
    """Rotate the head spin: multiply by exp(-i sigma1 alpha / 2) (x) 1."""
    c = math.cos(alpha / 2.0)
    s = -1j * math.sin(alpha / 2.0)
    c0, c1, c2, c3 = state
    return (c * c0 + s * c2, c * c1 + s * c3, s * c0 + c * c2, s * c1 + c * c3)


def apply_qcnot(state: ComplexState) -> ComplexState:
    """Conditional NOT: flip the tape when the head is |-1> (c0 <-> c1)."""
    c0, c1, c2, c3 = state
    return (c1, c0, c2, c3)


def iterate(seq: AngleSequence, state: ComplexState,
            n_steps: int) -> Iterator[tuple[int, ComplexState]]:
    """Yield (n, state) after each gate: gate 2m-1 rotates the head by
    seq.angle(m), gate 2m applies the conditional NOT."""
    for m in range(1, n_steps // 2 + 1):
        state = apply_head_rotation(state, seq.angle(m))
        yield 2 * m - 1, state
        state = apply_qcnot(state)
        yield 2 * m, state
    if n_steps % 2:
        yield n_steps, apply_head_rotation(state, seq.angle(n_steps // 2 + 1))


def pauli_bloch(rho: Matrix2) -> tuple[float, float, float]:
    """(Tr rho sigma_j) for j = 1, 2, 3, read from ``PAULI`` at call time and
    summed in matrix-product order, (rho sigma)_00 + (rho sigma)_11."""
    (r00, r01), (r10, r11) = rho
    return tuple(((r00 * s00 + r01 * s10) + (r10 * s01 + r11 * s11)).real
                 for (s00, s01), (s10, s11) in PAULI)


def spin_bloch(state: ComplexState, spin: str) -> tuple[float, float, float]:
    """Bloch vector of one spin from the four complex amplitudes: with
    r = rho_01 = c0 conj(c2) + c1 conj(c3) the head has s1 = 2 Re r,
    s2 = 2 Im r and s3 = rho_11 - rho_00; the tape swaps c[1] and c[2]."""
    c0, c1, c2, c3 = state
    if spin == "tape":
        c1, c2 = c2, c1
    r = c0 * c2.conjugate() + c1 * c3.conjugate()
    p0 = (c0 * c0.conjugate()).real + (c1 * c1.conjugate()).real
    p1 = (c2 * c2.conjugate()).real + (c3 * c3.conjugate()).real
    return (2.0 * r.real + 0.0, 2.0 * r.imag + 0.0, p1 - p0 + 0.0)


def pair_metrics(state_a: ComplexState, state_b: ComplexState,
                 subsystem: str) -> tuple[float, float]:
    """(d2, |<b|a>|^2) from the eight complex amplitudes: the network d2 is
    2 (1 - |<b|a>|^2), a spin's d2 is Tr[(rho_a - rho_b)^2] of its reduced
    states, (drho_00)^2 + (drho_11)^2 + 2 |drho_01|^2 for the head; the tape
    swaps c[1] and c[2]."""
    a0, a1, a2, a3 = state_a
    b0, b1, b2, b3 = state_b
    b0c, b1c, b2c, b3c = b0.conjugate(), b1.conjugate(), b2.conjugate(), b3.conjugate()
    z = b0c * a0 + b1c * a1 + b2c * a2 + b3c * a3
    ov = z.real * z.real + z.imag * z.imag
    if subsystem == "network":
        return 2.0 * (1.0 - ov), ov
    if subsystem == "tape":
        a1, a2, b1, b2, b1c, b2c = a2, a1, b2, b1, b2c, b1c
    a0c, a1c, a2c, a3c = a0.conjugate(), a1.conjugate(), a2.conjugate(), a3.conjugate()
    d00 = (a0 * a0c + a1 * a1c).real - (b0 * b0c + b1 * b1c).real
    d11 = (a2 * a2c + a3 * a3c).real - (b2 * b2c + b3 * b3c).real
    d01 = (a0 * a2c + a1 * a3c) - (b0 * b2c + b1 * b3c)
    return d00 * d00 + d11 * d11 + 2.0 * (d01.real * d01.real + d01.imag * d01.imag), ov


def run(seq: AngleSequence, state: State, n_steps: int) -> State:
    """Engine state after n_steps alternating gates (n_steps = 0 returns the input)."""
    for _, state in engine.iterate(seq, state, n_steps):
        pass
    return state


def norm_sq(state: State | ComplexState) -> float:
    """Squared norm of a state vector, real or complex."""
    return sum(c.real * c.real + c.imag * c.imag for c in state)


class EagerFloatSchedule:
    """Every query of a float-backend schedule through cycle ``top``, grown
    one index at a time in one pass: angles and running sums from the same
    recurrences, additions and reductions the package uses."""

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
        self.ang, self.cum, self.alt = ang, cum, alt

    def angle(self, m: int) -> float:
        return self.ang[m]

    def cumulative_plus(self, m: int) -> float:
        return self.cum[m]

    def cumulative_minus(self, n: int) -> float:
        m = (n + 1) // 2
        sign = 1.0 if m % 2 == 0 else -1.0
        even = wrap_angle(sign * self.ang[0] - (-1.0) ** m * self.alt[m])
        return even if n % 2 == 0 else wrap_angle(-even)


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
