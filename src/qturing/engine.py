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

Every gate is real in the basis where the head's |1> carries a factor i: a
state is four floats (x0, x1, y2, y3), the amplitudes c = (x0, x1, i y2,
i y3).  ``init_state`` builds only such states (real tape kets, a head
turned about sigma1), a head rotation is a real 4x4 map and the conditional
NOT (flip the tape when the head is |-1>) swaps x0 and x1, bit-exact and
self-inverse.  So head s1 and tape s2 are 0 by construction.  A sigma2 or
sigma3 rotation, or a complex tape ket, would leave this subspace.  All
operations are pure functions of the state.

A Bloch vector is a plain ``(s1, s2, s3)`` float tuple.  ``head_bloch``
and ``tape_bloch`` read one from the four floats, each writing one spin's
formula once.  ``pair_metrics`` defines a paired run's row from two
states.  Three loops step a state, each for one kind of run: ``iterate``
yields the states to callers that read them (``oracle-check``,
``stability``), ``head_rows`` yields ``pattern``'s head rows and
``pair_rows`` a paired run's rows.  The two kernels hold a state as four
local floats and write the rotation inline, and the conditional NOT is a
renaming.  IEEE addition and multiplication commute, so the flip leaves
bit-identical every term that it only reorders: head s3, the network
overlap z, the head's diagonal distance terms and the tape's off-diagonal
one.  The kernels compute those once per cycle, and the rest, such as head
s2, once per row.

``reduce_spin``, ``bloch_vector``, ``distance_sq`` and ``overlap_sq`` remain
only as the density-matrix route: the tests hold the amplitude route to
them, and the benchmark's tracer wraps them by name.  The two that take
states lift them to the complex amplitudes c first.

A part of the network is a ``Subsystem`` member or its value: ``"head"`` or
``"tape"`` names one spin, which every function taking a spin accepts, and
``"network"`` names both, which only ``pair_metrics`` accepts.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Iterator

from .schedule import AngleSequence

#: real coordinates (x0, x1, y2, y3) of the amplitudes (x0, x1, i y2, i y3)
State = tuple[float, float, float, float]
#: 2x2 matrix as rows ((m00, m01), (m10, m11))
Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]

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
    h1 = math.sin(head_angle / 2.0)
    return (h0 * t0, h0 * t1, -h1 * t0, -h1 * t1)


def apply_head_rotation(state: State, alpha: float) -> State:
    """Rotate the head spin: multiply by exp(-i sigma1 alpha / 2) (x) 1."""
    c = math.cos(alpha / 2.0)
    s = math.sin(alpha / 2.0)
    x0, x1, y2, y3 = state
    return (c * x0 + s * y2, c * x1 + s * y3, c * y2 - s * x0, c * y3 - s * x1)


def apply_qcnot(state: State) -> State:
    """Conditional NOT: flip the tape when the head is |-1> (x0 <-> x1)."""
    x0, x1, y2, y3 = state
    return (x1, x0, y2, y3)


def iterate(seq: AngleSequence, state: State, n_steps: int) -> Iterator[tuple[int, State]]:
    """Yield (n, state) after each gate: odd gates rotate, even gates QCNOT.

    Gate 2m-1 rotates the head by a_m, drawn from one ``seq.angles()``
    stream; gate 2m applies the conditional NOT.  Each loop turn steps one
    cycle, and an odd count ends on a rotation by the stream's next angle.
    Deterministic and norm-preserving throughout.  ``oracle-check`` and
    ``stability`` step through it; ``head_rows`` and ``pair_rows`` are its
    row kernels.
    """
    if n_steps < 0:
        raise ValueError(f"step count must be >= 0, got {n_steps}")
    angles = seq.angles()
    for m, a in zip(range(1, n_steps // 2 + 1), angles):
        state = apply_head_rotation(state, a)
        yield 2 * m - 1, state
        state = apply_qcnot(state)
        yield 2 * m, state
    if n_steps % 2:
        yield n_steps, apply_head_rotation(state, next(angles))


def head_rows(
    seq: AngleSequence, state: State, steps: int, record_every: int
) -> Iterator[tuple[int, float, float, float, float]]:
    """(n, s1, s2, s3, s1^2 + s2^2 + s3^2) rows of ``head_bloch`` for the
    run started at ``state`` and driven by ``seq``: every ``record_every``
    steps and at the last step.

    The run steps one cycle per loop turn, held as four local floats and
    rotated by the next angle of one ``angles()`` stream, as in
    ``pair_rows``: the rotation is written inline, and the names keep the
    state before the flip, so the flipped state is (x1, x0, y2, y3).  The
    two record flags are computed once per cycle.  The flip leaves s3
    bit-identical, so a recorded cycle computes it once; s2 is computed per
    row, each with ``head_bloch``'s expressions in its order.  s1 is 0, so
    the purity s2^2 + s3^2 equals the sum of three squares bit for bit.
    An odd ``steps``' tail rotation, by the stream's next angle, calls
    ``head_bloch`` itself.
    """
    if steps < 0:
        raise ValueError(f"step count must be >= 0, got {steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    angles, cos, sin, every = seq.angles(), math.cos, math.sin, record_every
    x1, x0, y2, y3 = state  # as if state were the flipped state: the flip is its own inverse
    for n, angle in zip(range(2, steps + 1, 2), angles):
        h = angle / 2.0
        c, s = cos(h), sin(h)
        x0, x1, y2, y3 = c * x1 + s * y2, c * x0 + s * y3, c * y2 - s * x1, c * y3 - s * x0
        odd = (n - 1) % every == 0
        even = n % every == 0 or n == steps
        if not (odd or even):
            continue
        s3 = (y2 * y2 + y3 * y3) - (x0 * x0 + x1 * x1) + 0.0
        sq3 = s3 * s3
        if odd:
            s2 = -2.0 * (x0 * y2 + x1 * y3) + 0.0
            yield (n - 1, 0.0, s2, s3, s2 * s2 + sq3)
        if even:
            s2 = -2.0 * (x1 * y2 + x0 * y3) + 0.0
            yield (n, 0.0, s2, s3, s2 * s2 + sq3)
    if steps % 2:
        s1, s2, s3 = head_bloch(apply_head_rotation((x1, x0, y2, y3), next(angles)))
        yield (steps, s1, s2, s3, s1 * s1 + s2 * s2 + s3 * s3)


def _lift(state: State) -> tuple[complex, complex, complex, complex]:
    """The complex amplitudes (x0, x1, i y2, i y3) of a state."""
    x0, x1, y2, y3 = state
    return complex(x0), complex(x1), complex(0.0, y2), complex(0.0, y3)


def reduce_spin(state: State, spin: Subsystem | str) -> Matrix2:
    """2x2 reduced density matrix of one spin (partial trace over the other).

    For the head rho_hh' = sum_t c[2h+t] conj(c[2h'+t]); the tape sums over
    the head index instead, which is the same formula with c1 and c2 swapped.
    """
    c0, c1, c2, c3 = _lift(state)
    if spin == "tape":  # a Subsystem member equals its value
        c1, c2 = c2, c1
    elif spin != "head":
        raise ValueError(f"spin must be 'head' or 'tape', got {spin!r}")
    k0, k1, k2, k3 = c0.conjugate(), c1.conjugate(), c2.conjugate(), c3.conjugate()
    return ((c0 * k0 + c1 * k1, c0 * k2 + c1 * k3), (c2 * k0 + c3 * k1, c2 * k2 + c3 * k3))


def bloch_vector(rho: Matrix2) -> tuple[float, float, float]:
    """Pauli expectation values (Tr rho sigma_j) of a 2x2 density matrix.

    Tr rho sigma1 = rho_01 + rho_10, Tr rho sigma2 = i (rho_10 - rho_01) and
    Tr rho sigma3 = rho_11 - rho_00; a trace with an imaginary part above
    1e-9 means rho is not Hermitian.  Adding 0.0 turns a -0.0 into 0.0.
    """
    (r00, r01), (r10, r11) = rho
    traces = (r01 + r10, (r10 - r01) * 1j, r11 - r00)
    for v in traces:
        if abs(v.imag) > 1e-9:
            raise ValueError(f"density matrix is corrupted: Im Tr(rho sigma) = {v.imag}")
    return tuple(v.real + 0.0 for v in traces)


def head_bloch(state: State) -> tuple[float, float, float]:
    """Head Bloch vector (s1, s2, s3) of a state, as a plain tuple: the value
    of ``bloch_vector(reduce_spin(state, "head"))`` without forming the
    matrix.  Adding 0.0 turns a -0.0 into 0.0, which the matrix route never
    emits.
    """
    x0, x1, y2, y3 = state
    return (0.0, -2.0 * (x0 * y2 + x1 * y3) + 0.0,
            (y2 * y2 + y3 * y3) - (x0 * x0 + x1 * x1) + 0.0)


def tape_bloch(state: State) -> tuple[float, float, float]:
    """Tape Bloch vector (s1, s2, s3) of a state, as a plain tuple; see
    ``head_bloch``."""
    x0, x1, y2, y3 = state
    return (2.0 * (x0 * x1 + y2 * y3) + 0.0, 0.0,
            (x1 * x1 + y3 * y3) - (x0 * x0 + y2 * y2) + 0.0)


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

    Returns (d2, z^2) with z = <b|a> = sum_k a_k b_k.  For ``"network"`` d2
    is 2 (1 - z^2); for a spin it is ``distance_sq`` of the two
    ``reduce_spin`` matrices, (drho_00)^2 + (drho_11)^2 + 2 (drho_01)^2,
    summed from the eight floats.  The tape's formulas are the head's with
    x1 and y2 swapped.
    """
    a0, a1, a2, a3 = state_a
    b0, b1, b2, b3 = state_b
    z = a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3
    ov = z * z
    if subsystem == "network":
        return 2.0 * (1.0 - ov), ov
    if subsystem == "tape":
        a1, a2, b1, b2 = a2, a1, b2, b1
    elif subsystem != "head":
        raise ValueError(f"subsystem must be 'head', 'tape' or 'network', got {subsystem!r}")
    d00 = (a0 * a0 + a1 * a1) - (b0 * b0 + b1 * b1)
    d11 = (a2 * a2 + a3 * a3) - (b2 * b2 + b3 * b3)
    d01 = (a0 * a2 + a1 * a3) - (b0 * b2 + b1 * b3)
    return d00 * d00 + d11 * d11 + 2.0 * (d01 * d01), ov


def pair_rows(
    seq_a: AngleSequence,
    seq_b: AngleSequence,
    a: State,
    b: State,
    steps: int,
    record_every: int,
    subsystem: Subsystem | str,
) -> Iterator[tuple[int, float, float]]:
    """(n, d2, z^2) rows of ``pair_metrics`` for twins started at ``a`` and
    ``b`` and driven by ``seq_a`` and ``seq_b``: at step 0, every
    ``record_every`` steps and at the last step.

    Both twins step together, one cycle per loop turn, each held as four
    local floats and rotated by the next angle of its own ``angles()``
    stream.  The rotation is written inline, and the conditional NOT
    costs nothing: the names keep the state before the flip, so the flipped
    state is (a1, a0, a2, a3), and the next rotation reads it so.  The
    subsystem is chosen once, before the loop, as two local flags that only
    a recorded cycle reads, and each row computes the expressions of
    ``pair_metrics`` in its order.  IEEE addition and multiplication
    commute, so the flip leaves bit-identical whatever it only reorders: z
    on every subsystem, the head's d00 and d11, and the tape's d01.  The
    network row at step 2m therefore repeats the row at 2m - 1, the head
    recomputes only d01, and the tape only d00 and d11.
    Row 0 and an odd ``steps``' tail rotation, by each stream's next angle,
    call ``pair_metrics`` itself.
    """
    if steps < 0:
        raise ValueError(f"step count must be >= 0, got {steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    yield (0, *pair_metrics(a, b, subsystem))  # rejects an unknown subsystem
    angles_a, angles_b, cos, sin = seq_a.angles(), seq_b.angles(), math.cos, math.sin
    every, cycles = record_every, range(1, steps // 2 + 1)
    a1, a0, a2, a3 = a  # as if a were the flipped state: the flip is its own inverse
    b1, b0, b2, b3 = b
    net, head = subsystem == "network", subsystem == "head"
    for m, angle_a, angle_b in zip(cycles, angles_a, angles_b):
        h = angle_a / 2.0
        c, s = cos(h), sin(h)
        a0, a1, a2, a3 = c * a1 + s * a2, c * a0 + s * a3, c * a2 - s * a1, c * a3 - s * a0
        h = angle_b / 2.0
        c, s = cos(h), sin(h)
        b0, b1, b2, b3 = c * b1 + s * b2, c * b0 + s * b3, c * b2 - s * b1, c * b3 - s * b0
        odd = (2 * m - 1) % every == 0
        even = (2 * m) % every == 0 or 2 * m == steps
        if not (odd or even):
            continue
        z = a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3
        ov = z * z
        if net:
            d2 = 2.0 * (1.0 - ov)
            if odd:
                yield (2 * m - 1, d2, ov)
            if even:
                yield (2 * m, d2, ov)
        elif head:
            d00 = (a0 * a0 + a1 * a1) - (b0 * b0 + b1 * b1)
            d11 = (a2 * a2 + a3 * a3) - (b2 * b2 + b3 * b3)
            diag = d00 * d00 + d11 * d11
            if odd:
                d01 = (a0 * a2 + a1 * a3) - (b0 * b2 + b1 * b3)
                yield (2 * m - 1, diag + 2.0 * (d01 * d01), ov)
            if even:
                d01 = (a1 * a2 + a0 * a3) - (b1 * b2 + b0 * b3)
                yield (2 * m, diag + 2.0 * (d01 * d01), ov)
        else:
            d01 = (a0 * a1 + a2 * a3) - (b0 * b1 + b2 * b3)
            off = 2.0 * (d01 * d01)
            if odd:
                d00 = (a0 * a0 + a2 * a2) - (b0 * b0 + b2 * b2)
                d11 = (a1 * a1 + a3 * a3) - (b1 * b1 + b3 * b3)
                yield (2 * m - 1, d00 * d00 + d11 * d11 + off, ov)
            if even:
                d00 = (a1 * a1 + a2 * a2) - (b1 * b1 + b2 * b2)
                d11 = (a0 * a0 + a3 * a3) - (b0 * b0 + b3 * b3)
                yield (2 * m, d00 * d00 + d11 * d11 + off, ov)
    if steps % 2:
        yield (steps, *pair_metrics(apply_head_rotation((a1, a0, a2, a3), next(angles_a)),
                                    apply_head_rotation((b1, b0, b2, b3), next(angles_b)), subsystem))


def overlap_sq(psi_a: State, psi_b: State) -> float:
    """Squared overlap |<psi_b|psi_a>|^2 of two normalized state vectors."""
    return abs(sum(b.conjugate() * a for a, b in zip(_lift(psi_a), _lift(psi_b)))) ** 2
