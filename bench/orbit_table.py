"""Regenerate ``orbit_periods.json``, the reference periods of the orbits workload.

    python3 bench/orbit_table.py

Draws coprime (p, q) with q < 80000 and computes each period 2m with the
uncapped scan in ``checks.orbit_period``. Entries are grouped by half-period
m into narrow bins around fixed targets, since a search's cost is
proportional to m; a round of the workload takes one entry from every bin,
so each round costs about the same whatever the seed. Since the Pisano
period of 2q is at most 12q, no entry can reach the program's m_max = 10^6
cap. The table also holds the period of (1, 999983), which lies beyond that
cap. The same generator seed gives the same table.
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

import checks

TABLE = Path(__file__).resolve().parent / "orbit_periods.json"

#: half-period targets; accepted entries lie within WIDTH of their target
TARGETS = (30, 100, 300, 1000, 3000, 10000, 30000, 100000, 300000)
WIDTH = 0.03
PER_BIN = 24
Q_MAX = 79999
CAPPED = (1, 999983)


def _bin(rng: random.Random, target: int) -> list[list[int]]:
    lo, hi = math.ceil(target * (1 - WIDTH)), math.floor(target * (1 + WIDTH))
    entries: dict[tuple[int, int], int] = {}
    while len(entries) < PER_BIN:
        q = rng.randint(max(2, target // 12), min(Q_MAX, 3 * target))
        p = rng.randrange(1, 2 * q)
        if math.gcd(p, q) != 1 or (p, q) in entries:
            continue
        period = checks.orbit_period(p, q, m_stop=hi)
        if period is not None and period // 2 >= lo:
            entries[(p, q)] = period
    return [[p, q, period] for (p, q), period in sorted(entries.items(), key=lambda e: e[0][1])]


def main() -> None:
    rng = random.Random(20260101)
    table = {
        "capped": [*CAPPED, checks.orbit_period(*CAPPED)],
        "bins": [{"target_m": t, "entries": _bin(rng, t)} for t in TARGETS],
    }
    bins = ",\n  ".join(json.dumps(b) for b in table["bins"])
    TABLE.write_text(
        f'{{"capped": {json.dumps(table["capped"])},\n "bins": [\n  {bins}\n ]}}\n', encoding="utf-8"
    )
    print(f"wrote {TABLE.name}: {sum(len(b['entries']) for b in table['bins'])} entries")


if __name__ == "__main__":
    main()
