"""Reference helpers the tests compare the engine against; the package does
not call them."""
from __future__ import annotations

from qturing.engine import State, iterate
from qturing.schedule import AngleSequence


def run(seq: AngleSequence, state: State, n_steps: int) -> State:
    """State after n_steps alternating gates (n_steps = 0 returns the input)."""
    for _, state in iterate(seq, state, n_steps):
        pass
    return state


def norm_sq(state: State) -> float:
    """Squared norm of a state vector."""
    return sum(c.real * c.real + c.imag * c.imag for c in state)
