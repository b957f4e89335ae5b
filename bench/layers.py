"""Per-layer call counts and self times, recorded from outside qturing.

``Tracer.install`` replaces the public functions of each module (and the
methods of ``AngleSequence``) with wrappers that count calls and time them.
A layer's self time is its span minus the spans of the traced calls it made.
The wrappers record only while ``active`` is set, so the benchmark's own
checks, which read the program's emitted angles, are not counted.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

#: layer group -> (module or class path, attribute names) it covers
GROUPS = {
    "schedule.angle": [("schedule.AngleSequence", "angle")],
    "schedule.cumulative": [("schedule.AngleSequence", "cumulative_plus"),
                            ("schedule.AngleSequence", "cumulative_minus")],
    "schedule.fib_mod": [("schedule", "fib_mod"), ("oracle", "fib_mod")],
    "engine.gates": [("engine", "apply_head_rotation"), ("engine", "apply_qcnot")],
    "engine.reduce_spin": [("engine", "reduce_spin")],
    "engine.bloch_vector": [("engine", "bloch_vector")],
    "engine.pair": [("engine", "distance_sq"), ("engine", "overlap_sq")],
    "oracle.predict": [("oracle", "head_bloch_superposed"), ("oracle", "tape_sigma3")],
    "oracle.orbit_search": [("oracle", "periodic_orbit_check")],
    "analysis": [("analysis", "trajectory_bloch"), ("analysis", "distance_trace")],
    "cli": [("cli", "main")],
}


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []

    def _wrap(self, group: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            children = [0.0]
            self._stack.append(children)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.calls[group] += 1
                self.self_s[group] += dt - children[0]
                if self._stack:
                    self._stack[-1][0] += dt
        return traced

    def install(self, package) -> None:
        """Wrap every attribute named in GROUPS on the imported ``package``."""
        for group, targets in GROUPS.items():
            for path, name in targets:
                owner = package
                for part in path.split("."):
                    owner = getattr(owner, part)
                setattr(owner, name, self._wrap(group, getattr(owner, name)))

    def take(self) -> tuple[dict[str, int], dict[str, float]]:
        """Counts and self times since the last call, then reset them."""
        calls, self_s = dict(self.calls), dict(self.self_s)
        self.calls.clear()
        self.self_s.clear()
        return calls, self_s
