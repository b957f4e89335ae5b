"""Acceptance suite: one test per top-level claim, each printing a PASS/FAIL
line with the measured numbers.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from qturing import engine, oracle
from qturing.analysis import (
    ExperimentConfig,
    Subsystem,
    distance_trace,
    fit_power_law,
    lyapunov_estimate,
    stability_numeric,
)
from qturing.engine import TapeState
from qturing.oracle import SuperpositionWeights
from qturing.schedule import (
    LOG_GOLDEN_RATIO,
    AngleSequence,
    ScheduleConfig,
    ScheduleMode,
)
from reference import norm_sq, run

EQUAL = SuperpositionWeights(1 / math.sqrt(2), 1 / math.sqrt(2))
APERIODIC_ALPHA1 = (2.0 / 5.0) * 3.141592654  # deliberately truncated pi


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def _schedule(alpha1_spec, delta=0.0, mode=ScheduleMode.FIBONACCI):
    if isinstance(alpha1_spec, tuple):
        return ScheduleConfig.exact_pi(*alpha1_spec, mode=mode, delta=delta)
    return ScheduleConfig(mode=mode, alpha1=alpha1_spec, delta=delta)


def _head_tape(state):
    head = engine.bloch_vector(engine.reduce_spin(state, Subsystem.HEAD))
    tape = engine.bloch_vector(engine.reduce_spin(state, Subsystem.TAPE))
    return head, tape


# -- 1: closed forms reproduce the simulation step by step -----------------------

def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for alpha1_spec in ((2, 5), 0.3, APERIODIC_ALPHA1):
        for delta in (0.0, 0.001):
            seq = AngleSequence(_schedule(alpha1_spec, delta))
            state = engine.init_state(delta)
            for n, st in engine.iterate(seq, state, 2000):
                head, tape = _head_tape(st)
                pred = oracle.head_bloch_superposed(seq, EQUAL, n)
                t3 = oracle.tape_sigma3(seq, n)
                worst = max(
                    worst,
                    abs(head.s1 - pred.s1),
                    abs(head.s2 - pred.s2),
                    abs(head.s3 - pred.s3),
                    abs(tape.s1),
                    abs(tape.s2),
                    abs(tape.s3 - t3),
                )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    _report("1 oracle-equivalence",
            ok, f"max deviation {worst:.3e} over 6 configs x 2000 steps, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 1.0


# -- 2: exact two-fifths-pi drive is periodic with period 40 ----------------------

def test_criterion_2_periodicity():
    start = time.perf_counter()
    seq = AngleSequence(_schedule((2, 5)))
    pts = []
    for n, st in engine.iterate(seq, engine.init_state(0.0), 120):
        head, _ = _head_tape(st)
        pts.append((head.s2, head.s3))

    period_40 = all(
        abs(pts[n][0] - pts[n + 40][0]) < 1e-12 and abs(pts[n][1] - pts[n + 40][1]) < 1e-12
        for n in range(80)
    )
    no_smaller = all(
        any(
            abs(pts[n][0] - pts[n + d][0]) > 1e-9 or abs(pts[n][1] - pts[n + d][1]) > 1e-9
            for n in range(40)
        )
        for d in (1, 2, 4, 5, 8, 10, 20)
    )
    smallest = oracle.periodic_orbit_check(2, 5)
    distinct = {(round(s2, 9), round(s3, 9)) for s2, s3 in pts}
    conditions = oracle.orbit_conditions(2, 5, 20)
    elapsed = time.perf_counter() - start

    ok = (
        period_40
        and no_smaller
        and smallest == 40
        and len(distinct) <= 20
        and all(conditions)
        and elapsed < 1.0
    )
    _report("2 periodicity",
            ok,
            f"period40={period_40}, smallest={smallest}, distinct={len(distinct)} (<=20), "
            f"closure conditions={conditions}, {elapsed:.2f}s")
    assert period_40 and no_smaller
    assert smallest == 40
    assert len(distinct) <= 20
    assert all(conditions)
    assert elapsed < 1.0


# -- 3: truncated-pi drive never revisits the pattern -----------------------------

def test_criterion_3_aperiodicity():
    start = time.perf_counter()
    seq = AngleSequence(_schedule(APERIODIC_ALPHA1))
    even_pts, all_pts = [], []
    for n, st in engine.iterate(seq, engine.init_state(0.0), 10_000):
        head, _ = _head_tape(st)
        all_pts.append((head.s2, head.s3))
        if n % 2 == 0:
            even_pts.append((head.s2, head.s3))

    # once-per-cycle section points: no pair within 1e-9 in both components
    grid = {}
    collisions = 0
    for i, (x, y) in enumerate(even_pts):
        key = (round(x * 1e9), round(y * 1e9))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                j = grid.get((key[0] + dx, key[1] + dy))
                if j is not None and (
                    abs(even_pts[j][0] - x) < 1e-9 and abs(even_pts[j][1] - y) < 1e-9
                ):
                    collisions += 1
        grid[key] = i

    # full record: the point set keeps growing instead of closing
    distinct_all = {(round(x, 9), round(y, 9)) for x, y in all_pts}

    # same enumeration through the closed forms
    oracle_distinct = set()
    for n in range(1, 10_001):
        b = oracle.head_bloch_superposed(seq, EQUAL, n)
        oracle_distinct.add((round(b.s2, 9), round(b.s3, 9)))

    elapsed = time.perf_counter() - start
    ok = (
        collisions == 0
        and len(distinct_all) >= 9990
        and len(distinct_all) == len(oracle_distinct)
        and elapsed < 5.0
    )
    _report("3 aperiodicity",
            ok,
            f"cycle-point collisions={collisions}, distinct={len(distinct_all)}/10000 "
            f"(oracle {len(oracle_distinct)}), {elapsed:.2f}s")
    assert collisions == 0
    assert len(distinct_all) >= 9990
    assert len(distinct_all) == len(oracle_distinct)
    assert elapsed < 5.0


# -- 4: periodic-orbit stability numbers ------------------------------------------

def test_criterion_4_stability_numbers():
    start = time.perf_counter()
    schedule = _schedule((2, 5))

    (res6,) = stability_numeric(20, [1e-6], schedule)
    m11_ok = abs(res6.m11 - 4181) / 4181 < 1e-3
    closed_ok = (
        abs(res6.m11 - res6.m11_closed) < 1e-8 * abs(res6.m11_closed)
        and abs(res6.m22 - res6.m22_closed) < 1e-8 * abs(res6.m22_closed)
    )

    # the unit response of the third component is a vanishing-perturbation
    # statement: the finite-delta value carries a delta^2 (F_m^2+F_{m-1}^2)/2
    # offset (3.2e-5 at delta=1e-6), so verify the limit on a delta sweep
    sweep = [res.m22 for res in stability_numeric(20, (1e-5, 1e-6, 1e-7), schedule)]
    errs = [abs(1.0 - v) for v in sweep]
    m22_ok = errs[0] > errs[1] > errs[2] and errs[-1] < 1e-6

    elapsed = time.perf_counter() - start
    ok = m11_ok and closed_ok and m22_ok and elapsed < 1.0
    _report("4 stability",
            ok,
            f"M11(1e-6)={res6.m11:.3f} (target 4181), "
            f"M22 sweep 1-M22={[f'{e:.2e}' for e in errs]}, "
            f"sim-closed rel {abs(res6.m11 - res6.m11_closed) / res6.m11_closed:.1e}, "
            f"{elapsed:.2f}s")
    assert m11_ok
    assert closed_ok
    assert m22_ok
    assert elapsed < 1.0


# -- 5: divergence rate of the Fibonacci drive -------------------------------------

def test_criterion_5_lyapunov_rate():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        schedule=_schedule((2, 5), delta=1e-8),
        steps=80,
        subsystem=Subsystem.HEAD,
    )
    rate = lyapunov_estimate(distance_trace(cfg), (5, 15))
    elapsed = time.perf_counter() - start
    rel = abs(rate - LOG_GOLDEN_RATIO) / LOG_GOLDEN_RATIO
    ok = rel < 0.05 and elapsed < 1.0
    _report("5 lyapunov", ok,
            f"rate={rate:.4f} vs ln((1+sqrt5)/2)={LOG_GOLDEN_RATIO:.4f} "
            f"(rel {rel:.1%}), {elapsed:.2f}s")
    assert rel < 0.05
    assert elapsed < 1.0


# -- 6: the three schedules separate into three growth classes ----------------------

def test_criterion_6a_fixed_schedule_constant():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        schedule=_schedule((2, 5), delta=0.001, mode=ScheduleMode.FIXED),
        steps=120,
        subsystem=Subsystem.NETWORK,
    )
    trace = distance_trace(cfg)
    steps, d2 = np.asarray(trace.steps), np.asarray(trace.d2)
    window = d2[(steps >= 4) & (steps <= 60)]
    spread = float(np.abs(window - trace.d2_at(4)).max())
    elapsed = time.perf_counter() - start
    ok = spread < 1e-10 and elapsed < 2.0
    _report("6a fixed-constant", ok, f"max|d2(n)-d2(4)|={spread:.2e}, {elapsed:.2f}s")
    assert spread < 1e-10


def test_criterion_6b_arithmetic_schedule_power_law():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        schedule=_schedule((2, 5), delta=0.001, mode=ScheduleMode.ARITHMETIC),
        steps=200,
        subsystem=Subsystem.HEAD,
    )
    k = fit_power_law(distance_trace(cfg), (4, 60))

    # a_{m+1} = 2 a_m - a_{m-1} re-seeded with a_0 = delta (a_1 fixed) shifts
    # a_m by delta (1 - m), so the cumulative angle moves by
    # delta (1 + m - m(m+1)/2) and the distance grows like n^2
    seq_b = AngleSequence(cfg.schedule)
    seq_a = AngleSequence(replace(cfg.schedule, delta=0.0))
    shift_errs = []
    for m in range(101):
        r = (
            seq_b.cumulative_plus(m) - seq_a.cumulative_plus(m)
            - cfg.schedule.delta * (1 + m - m * (m + 1) / 2)
        ) % (2 * math.pi)
        shift_errs.append(min(r, 2 * math.pi - r))
    shift_ok = all(e < 1e-9 for e in shift_errs)  # a NaN fails here, unlike in max()

    elapsed = time.perf_counter() - start
    ok = 1.8 <= k <= 2.2 and shift_ok
    _report("6b arithmetic-power-law", ok,
            f"exponent k={k:.3f}, required band [1.8, 2.2], "
            f"closed-form seed shift error {max(shift_errs):.1e}, {elapsed:.2f}s")
    assert shift_ok, f"cumulative shift deviates from closed form: {shift_errs}"
    assert 1.8 <= k <= 2.2, f"measured exponent {k:.3f} is outside the derived n^2 band"


def test_criterion_6c_fibonacci_schedule_exponential_saturating():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        schedule=_schedule((2, 5), delta=0.001),
        steps=400,
        subsystem=Subsystem.HEAD,
    )
    trace = distance_trace(cfg)
    end = trace.presaturation_end()
    ns = [int(n) for n in trace.steps if 4 <= n < end and trace.d2_at(int(n)) > 0]
    slope = float(
        np.polyfit(ns, [0.5 * math.log(trace.d2_at(n)) for n in ns], 1)[0]
    )
    target = LOG_GOLDEN_RATIO / 2
    rel = abs(slope - target) / target
    peak = float(np.asarray(trace.d2).max())
    elapsed = time.perf_counter() - start
    ok = rel < 0.10 and peak <= 2.0 + 1e-10 and elapsed < 2.0
    _report("6c fibonacci-exponential", ok,
            f"ln-slope/step={slope:.4f} vs {target:.4f} (rel {rel:.1%}), "
            f"max d2={peak:.3f} <= 2, {elapsed:.2f}s")
    assert rel < 0.10
    assert peak <= 2.0 + 1e-10


# -- 7: structural property bundle ---------------------------------------------------

def test_criterion_7_property_suites():
    # unitarity over a long run
    seq = AngleSequence(_schedule(0.3, delta=0.001))
    state = engine.init_state(0.001)
    for _, state in engine.iterate(seq, state, 100_000):
        pass
    norm_dev = abs(norm_sq(state) - 1.0)
    unitarity_ok = norm_dev < 1e-12

    # conditional-NOT involution is bit-exact
    probe = engine.init_state(0.7, TapeState.MINUS)
    involution_ok = np.array_equal(engine.apply_qcnot(engine.apply_qcnot(probe)), probe)

    # entanglement-free branches stay pure on the in-plane circle
    purity_ok = True
    for phi0 in (0.0, 0.7):
        for tape in (TapeState.PLUS, TapeState.MINUS):
            seq = AngleSequence(_schedule(0.3))
            for n, st in engine.iterate(seq, engine.init_state(phi0, tape), 2000):
                head, _ = _head_tape(st)
                if abs(head.length_sq() - 1.0) > 1e-10 or abs(head.s1) > 1e-10:
                    purity_ok = False
                    break

    # in-plane confinement from the ground product state
    confinement_ok = True
    seq = AngleSequence(_schedule(1.1))
    for n, st in engine.iterate(seq, engine.init_state(0.0), 2000):
        head, tape = _head_tape(st)
        if abs(head.s1) > 1e-10 or abs(tape.s1) > 1e-10 or abs(tape.s2) > 1e-10:
            confinement_ok = False
            break

    # distance bounds and the pure-state overlap identity
    metrics_ok = True
    seq_a = AngleSequence(_schedule((2, 5)))
    seq_b = AngleSequence(_schedule((2, 5), delta=0.001))
    sa, sb = engine.init_state(0.0), engine.init_state(0.001)
    it_a, it_b = engine.iterate(seq_a, sa, 500), engine.iterate(seq_b, sb, 500)
    for (n, xa), (_, xb) in zip(it_a, it_b):
        for spin in ("head", "tape"):
            d2 = engine.distance_sq(
                engine.reduce_spin(xa, spin), engine.reduce_spin(xb, spin)
            )
            if not 0.0 <= d2 <= 2.0 + 1e-10:
                metrics_ok = False
        va, vb = np.array(xa), np.array(xb)
        pa, pb = np.outer(va, va.conj()), np.outer(vb, vb.conj())
        ident = abs(
            engine.distance_sq(pa, pb) - 2.0 * (1.0 - engine.overlap_sq(xa, xb))
        )
        if ident > 1e-10:
            metrics_ok = False

    # brute-force matrix-product path
    brute_ok = True
    i2 = np.eye(2, dtype=complex)
    p_minus, p_plus = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    sigma1 = np.array(engine.SIGMA1)
    u_cnot = np.kron(p_minus, sigma1) + np.kron(p_plus, i2)
    for alpha1, delta in ((0.3, 0.0), (2 * math.pi / 5, 0.001)):
        seq = AngleSequence(_schedule(alpha1, delta))
        init = engine.init_state(delta)
        unitary = np.eye(4, dtype=complex)
        for n in range(1, 13):
            if n % 2 == 1:
                a = seq.angle((n + 1) // 2)
                rot = math.cos(a / 2) * i2 - 1j * math.sin(a / 2) * sigma1
                unitary = np.kron(rot, i2) @ unitary
            else:
                unitary = u_cnot @ unitary
            direct = run(AngleSequence(_schedule(alpha1, delta)), init, n)
            if np.abs(np.array(direct) - unitary @ np.array(init)).max() > 1e-12:
                brute_ok = False

    ok = all(
        (unitarity_ok, involution_ok, purity_ok, confinement_ok, metrics_ok, brute_ok)
    )
    _report("7 property-suites", ok,
            f"unitarity(1e5 steps) dev={norm_dev:.1e}, involution={involution_ok}, "
            f"purity={purity_ok}, confinement={confinement_ok}, "
            f"metrics={metrics_ok}, brute-force={brute_ok}")
    assert unitarity_ok
    assert involution_ok
    assert purity_ok
    assert confinement_ok
    assert metrics_ok
    assert brute_ok
