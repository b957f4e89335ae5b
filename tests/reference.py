"""Reference helpers the tests compare the engine against; the package does
not call them."""
from __future__ import annotations

from fractions import Fraction

from qturing.engine import State, iterate
from qturing.schedule import AngleSequence

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
