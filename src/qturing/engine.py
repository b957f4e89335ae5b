"""Exact state-vector engine for the two-spin head/tape network.

Conventions, fixed once and used everywhere:

- single-spin kets are ordered (|-1>, |1>), so sigma3 = diag(-1, +1) and
  sigma3 |p> = p |p>;
- sigma1 = [[0, 1], [1, 0]] and sigma2 = i * sigma1 * sigma3;
- network amplitudes are indexed c[2h + t] with h, t in {0, 1} for the
  head and tape spin, i.e. c[0] is the amplitude of |-1> (x) |-1>.

With these choices a head prepared from |-1> by a rotation through the
cumulative angle C sits at Bloch vector (0, sin C, -cos C), so the analytic
trajectory formulas come out without sign fudging.

Even-numbered gates apply the conditional NOT: the tape spin is flipped
exactly when the head is in |-1>.  It is realized as an amplitude
permutation (swap c[0] <-> c[1]), which makes it bit-exact and self-inverse.
A state is a tuple of four Python complexes and a reduced density matrix
a 2x2 tuple of tuples: at this size plain scalar arithmetic is faster than
any array library.  All operations are pure functions of the state;
independent trajectories can run in parallel without shared mutable state.

A part of the network is a ``Subsystem`` member or its value: ``"head"`` or
``"tape"`` names one spin, which every function taking a spin accepts, and
``"network"`` names both, which only ``pair_metrics`` accepts.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Iterator, NamedTuple

from .schedule import AngleSequence

#: amplitudes (c0, c1, c2, c3) of a network state, indexed c[2h + t]
State = tuple[complex, complex, complex, complex]
#: 2x2 matrix as rows ((m00, m01), (m10, m11))
Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]

SIGMA1: Matrix2 = ((0j, 1 + 0j), (1 + 0j, 0j))
SIGMA2: Matrix2 = ((0j, 1j), (complex(0.0, -1.0), 0j))  # i sigma1 sigma3
SIGMA3: Matrix2 = ((-1 + 0j, 0j), (0j, 1 + 0j))

#: Pauli triple in component order (sigma1, sigma2, sigma3)
PAULI = (SIGMA1, SIGMA2, SIGMA3)

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class TapeState(str, Enum):
    """Initial tape kets; PLUS/MINUS are the sigma1 eigenstates."""

    MINUS_ONE = "minus1"
    PLUS_ONE = "plus1"
    PLUS = "plus"
    MINUS = "minus"


class Subsystem(str, Enum):
    HEAD = "head"
    TAPE = "tape"
    NETWORK = "network"


class BlochVector(NamedTuple):
    s1: float
    s2: float
    s3: float

    def length_sq(self) -> float:
        return self.s1 * self.s1 + self.s2 * self.s2 + self.s3 * self.s3


_TAPE_AMPLITUDES = {
    TapeState.MINUS_ONE: (1.0, 0.0),
    TapeState.PLUS_ONE: (0.0, 1.0),
    TapeState.PLUS: (_SQRT_HALF, _SQRT_HALF),
    TapeState.MINUS: (_SQRT_HALF, -_SQRT_HALF),
}


def init_state(head_angle: float, tape: TapeState | str = TapeState.MINUS_ONE) -> State:
    """Product state exp(-i sigma1 head_angle / 2)|-1> (x) |tape>."""
    if not math.isfinite(head_angle):
        raise ValueError(f"head_angle must be finite, got {head_angle}")
    t0, t1 = _TAPE_AMPLITUDES[TapeState(tape)]
    h0 = math.cos(head_angle / 2.0)
    h1 = -1j * math.sin(head_angle / 2.0)
    return (complex(h0 * t0), complex(h0 * t1), h1 * t0, h1 * t1)


def apply_head_rotation(state: State, alpha: float) -> State:
    """Rotate the head spin: multiply by exp(-i sigma1 alpha / 2) (x) 1."""
    c = math.cos(alpha / 2.0)
    s = -1j * math.sin(alpha / 2.0)
    c0, c1, c2, c3 = state
    return (c * c0 + s * c2, c * c1 + s * c3, s * c0 + c * c2, s * c1 + c * c3)


def apply_qcnot(state: State) -> State:
    """Conditional NOT: flip the tape when the head is |-1> (c0 <-> c1)."""
    c0, c1, c2, c3 = state
    return (c1, c0, c2, c3)


def iterate(seq: AngleSequence, state: State, n_steps: int) -> Iterator[tuple[int, State]]:
    """Yield (n, state) after each gate: odd gates rotate, even gates QCNOT.

    Gate 2m-1 rotates the head by seq.angle(m); gate 2m applies the
    conditional NOT.  Each loop turn steps one cycle, and an odd count ends
    on a rotation.  Deterministic and norm-preserving throughout.
    """
    if n_steps < 0:
        raise ValueError(f"step count must be >= 0, got {n_steps}")
    angle = seq.angle
    for m in range(1, n_steps // 2 + 1):
        state = apply_head_rotation(state, angle(m))
        yield 2 * m - 1, state
        state = apply_qcnot(state)
        yield 2 * m, state
    if n_steps % 2:
        yield n_steps, apply_head_rotation(state, angle(n_steps // 2 + 1))


def reduce_spin(state: State, spin: Subsystem | str) -> Matrix2:
    """2x2 reduced density matrix of one spin (partial trace over the other).

    For the head rho_hh' = sum_t c[2h+t] conj(c[2h'+t]); the tape sums over
    the head index instead, which is the same formula with c1 and c2 swapped.
    """
    c0, c1, c2, c3 = state
    if spin == "tape":  # a Subsystem member equals its value
        c1, c2 = c2, c1
    elif spin != "head":
        raise ValueError(f"spin must be 'head' or 'tape', got {spin!r}")
    k0, k1, k2, k3 = c0.conjugate(), c1.conjugate(), c2.conjugate(), c3.conjugate()
    return ((c0 * k0 + c1 * k1, c0 * k2 + c1 * k3), (c2 * k0 + c3 * k1, c2 * k2 + c3 * k3))


def bloch_vector(rho: Matrix2) -> BlochVector:
    """Pauli expectation values (Tr rho sigma_j) of a 2x2 density matrix.

    The trace is summed in matrix-product order, (rho sigma)_00 +
    (rho sigma)_11.
    """
    (r00, r01), (r10, r11) = rho
    ((a00, a01), (a10, a11)), ((b00, b01), (b10, b11)), ((c00, c01), (c10, c11)) = PAULI
    v1 = (r00 * a00 + r01 * a10) + (r10 * a01 + r11 * a11)
    v2 = (r00 * b00 + r01 * b10) + (r10 * b01 + r11 * b11)
    v3 = (r00 * c00 + r01 * c10) + (r10 * c01 + r11 * c11)
    if abs(v1.imag) > 1e-9 or abs(v2.imag) > 1e-9 or abs(v3.imag) > 1e-9:
        bad = next(v.imag for v in (v1, v2, v3) if abs(v.imag) > 1e-9)
        raise ValueError(f"density matrix is corrupted: Im Tr(rho sigma) = {bad}")
    return BlochVector(v1.real, v2.real, v3.real)


def spin_bloch(state: State, spin: Subsystem | str) -> BlochVector:
    """Bloch vector of one spin, straight from the four amplitudes.

    The value of ``bloch_vector(reduce_spin(state, spin))``, summed without
    forming the matrix: with r = rho_01 = c0 conj(c2) + c1 conj(c3) the head
    has s1 = 2 Re r, s2 = 2 Im r and s3 = rho_11 - rho_00; the tape uses the
    same formulas with c[1] and c[2] swapped.  Adding 0.0 turns a -0.0 into
    0.0, which the matrix route never emits.
    """
    c0, c1, c2, c3 = state
    if spin == "tape":
        c1, c2 = c2, c1
    elif spin != "head":
        raise ValueError(f"spin must be 'head' or 'tape', got {spin!r}")
    r = c0 * c2.conjugate() + c1 * c3.conjugate()
    p0 = (c0 * c0.conjugate()).real + (c1 * c1.conjugate()).real
    p1 = (c2 * c2.conjugate()).real + (c3 * c3.conjugate()).real
    return BlochVector(2.0 * r.real + 0.0, 2.0 * r.imag + 0.0, p1 - p0 + 0.0)


def distance_sq(rho_a: Matrix2, rho_b: Matrix2) -> float:
    """Squared distance Tr[(rho_a - rho_b)^2], in [0, 2] for unit-trace states.

    For Hermitian arguments the trace equals the squared Frobenius norm of
    the difference, which is how it is computed here: nonnegative by
    construction instead of up to cancellation noise.  Matrices of any one
    shape are accepted; a shape mismatch raises ValueError.
    """
    total = 0.0
    for row_a, row_b in zip(rho_a, rho_b, strict=True):
        for x, y in zip(row_a, row_b, strict=True):
            d = x - y
            total += d.real * d.real + d.imag * d.imag
    return total


def pair_metrics(state_a: State, state_b: State, subsystem: Subsystem | str) -> tuple[float, float]:
    """Squared distance and squared overlap of two network states.

    Returns (d2, |<b|a>|^2).  For ``"network"`` d2 is the network distance
    2 (1 - |<b|a>|^2); for a spin it is Tr[(rho_a - rho_b)^2] for the reduced
    state of that spin, i.e. the value of ``distance_sq`` on the two
    ``reduce_spin`` matrices, summed straight from the eight amplitudes
    without forming the matrices.  For the head
    rho_hh' = sum_t c[2h+t] conj(c[2h'+t]) and
    d2 = (drho_00)^2 + (drho_11)^2 + 2 |drho_01|^2; the tape uses the same
    formula with c[1] and c[2] swapped.
    """
    a0, a1, a2, a3 = state_a
    b0, b1, b2, b3 = state_b
    b0c, b1c, b2c, b3c = b0.conjugate(), b1.conjugate(), b2.conjugate(), b3.conjugate()
    z = b0c * a0 + b1c * a1 + b2c * a2 + b3c * a3
    ov = z.real * z.real + z.imag * z.imag
    if subsystem == "network":
        return 2.0 * (1.0 - ov), ov
    if subsystem == "tape":
        a1, a2, b1, b2, b1c, b2c = a2, a1, b2, b1, b2c, b1c
    elif subsystem != "head":
        raise ValueError(f"subsystem must be 'head', 'tape' or 'network', got {subsystem!r}")
    a0c, a1c, a2c, a3c = a0.conjugate(), a1.conjugate(), a2.conjugate(), a3.conjugate()
    d00 = (a0 * a0c + a1 * a1c).real - (b0 * b0c + b1 * b1c).real
    d11 = (a2 * a2c + a3 * a3c).real - (b2 * b2c + b3 * b3c).real
    d01 = (a0 * a2c + a1 * a3c) - (b0 * b2c + b1 * b3c)
    return d00 * d00 + d11 * d11 + 2.0 * (d01.real * d01.real + d01.imag * d01.imag), ov


def overlap_sq(psi_a: State, psi_b: State) -> float:
    """Squared overlap |<psi_b|psi_a>|^2 of two normalized state vectors."""
    return abs(sum(b.conjugate() * a for a, b in zip(psi_a, psi_b))) ** 2
