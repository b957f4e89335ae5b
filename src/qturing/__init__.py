"""Deterministic simulator and analysis toolkit for a two-spin quantum
Turing network driven by Fibonacci-like rotation schedules.

The package is organized as a schedule generator (`schedule`), an exact
state-vector engine (`engine`), closed-form predictions cross-checking the
engine (`oracle`), paired-trajectory chaos diagnostics (`analysis`) and a
CSV/JSON command-line front end (`cli`); these modules are the API.
"""

__version__ = "0.1.0"
