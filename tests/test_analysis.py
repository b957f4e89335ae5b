import math
from dataclasses import replace

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from qturing.analysis import (
    ExperimentConfig,
    NoPeriodicOrbit,
    Subsystem,
    distance_rows,
    distance_trace,
    fit_power_law,
    lyapunov_estimate,
    stability_numeric,
    trajectory_bloch,
)
from qturing import engine
from qturing.oracle import stability_limits
from qturing.schedule import (
    LOG_GOLDEN_RATIO,
    AngleSequence,
    ScheduleConfig,
    ScheduleMode,
    fib,
)

TWO_FIFTHS_PI = ScheduleConfig.exact_pi(2, 5)


def experiment(mode, delta, steps, subsystem, alpha1_exact=(2, 5), **kw):
    schedule = ScheduleConfig.exact_pi(*alpha1_exact, mode=mode, delta=delta)
    return ExperimentConfig(schedule=schedule, steps=steps, subsystem=subsystem, **kw)


# --- distance traces -----------------------------------------------------------

def test_unperturbed_trace_is_identically_zero():
    cfg = experiment(ScheduleMode.FIBONACCI, 0.0, 100, Subsystem.HEAD)
    _, d2, overlap = np.asarray(distance_trace(cfg)).T
    assert np.all(d2 == 0.0)  # identical trajectories, exact zero
    np.testing.assert_allclose(overlap, 1.0, atol=1e-12)


def test_trace_is_deterministic():
    cfg = experiment(ScheduleMode.FIBONACCI, 0.001, 150, Subsystem.HEAD)
    a = distance_trace(cfg)
    b = distance_trace(cfg)
    assert np.array_equal(a, b)


def test_trace_bounds_and_network_identity():
    for sub in Subsystem:
        cfg = experiment(ScheduleMode.FIBONACCI, 0.001, 300, sub)
        _, d2, overlap = np.asarray(distance_trace(cfg)).T
        assert d2.min() >= 0.0
        assert d2.max() <= 2.0 + 1e-10
        assert overlap.min() >= 0.0
        assert overlap.max() <= 1.0 + 1e-12
        if sub is Subsystem.NETWORK:
            np.testing.assert_allclose(
                d2, 2.0 * (1.0 - overlap), atol=1e-10
            )


def test_fixed_schedule_network_distance_is_constant():
    cfg = experiment(ScheduleMode.FIXED, 0.001, 120, Subsystem.NETWORK)
    rows = distance_trace(cfg)
    baseline = reference.d2_at(rows, 4)
    steps, d2, _ = np.asarray(rows).T
    window = d2[(steps >= 4) & (steps <= 60)]
    assert np.abs(window - baseline).max() < 1e-10


def test_fixed_schedule_head_distance_stays_small():
    # the head distance oscillates at O(delta^2) but never grows
    cfg = experiment(ScheduleMode.FIXED, 0.001, 400, Subsystem.HEAD)
    assert np.asarray(distance_trace(cfg))[:, 1].max() < 1e-5


def test_fibonacci_trace_saturates_below_two():
    cfg = experiment(ScheduleMode.FIBONACCI, 0.001, 600, Subsystem.HEAD)
    d2 = np.asarray(distance_trace(cfg))[:, 1]
    assert d2.max() <= 2.0 + 1e-10
    assert d2.max() > 1.5  # reaches the saturation regime


def test_record_every_thins_records():
    cfg = experiment(ScheduleMode.FIBONACCI, 0.001, 100, Subsystem.HEAD, record_every=10)
    assert [n for n, _, _ in distance_rows(cfg)] == list(range(0, 101, 10))


def test_record_every_keeps_final_step():
    thin = distance_trace(
        experiment(ScheduleMode.FIBONACCI, 0.001, 105, Subsystem.HEAD, record_every=10)
    )
    full = distance_trace(experiment(ScheduleMode.FIBONACCI, 0.001, 105, Subsystem.HEAD))
    assert [n for n, _, _ in thin] == [*range(0, 101, 10), 105]
    assert reference.d2_at(thin, 105) == reference.d2_at(full, 105)


def test_trace_lookup_helpers():
    cfg = experiment(ScheduleMode.FIBONACCI, 0.001, 50, Subsystem.HEAD)
    rows = distance_trace(cfg)
    assert reference.d2_at(rows, 10) == rows[10][1]
    with pytest.raises(KeyError):
        reference.d2_at(rows, 999)


def test_config_validation():
    with pytest.raises(ValueError):
        experiment(ScheduleMode.FIBONACCI, -0.1, 100, Subsystem.HEAD)
    with pytest.raises(ValueError):
        experiment(ScheduleMode.FIBONACCI, 0.1, 1, Subsystem.HEAD)
    with pytest.raises(ValueError):
        experiment(ScheduleMode.FIBONACCI, 0.1, 100, Subsystem.HEAD, record_every=0)


# --- growth classes ---------------------------------------------------------------

def test_lyapunov_rate_fibonacci():
    cfg = experiment(ScheduleMode.FIBONACCI, 1e-8, 80, Subsystem.HEAD)
    rate = lyapunov_estimate(distance_rows(cfg), (5, 15))
    assert rate == pytest.approx(LOG_GOLDEN_RATIO, rel=0.05)


def test_lyapunov_rate_arithmetic_is_negligible():
    cfg = experiment(ScheduleMode.ARITHMETIC, 1e-8, 450, Subsystem.HEAD)
    rate = lyapunov_estimate(distance_rows(cfg), (100, 200))
    assert abs(rate) < 0.05


def test_lyapunov_rate_fixed_is_negligible():
    cfg = experiment(ScheduleMode.FIXED, 1e-8, 450, Subsystem.HEAD)
    rate = lyapunov_estimate(distance_rows(cfg), (100, 200))
    assert abs(rate) < 0.05


def test_lyapunov_guards():
    cfg = experiment(ScheduleMode.FIBONACCI, 0.001, 120, Subsystem.HEAD)
    rows = distance_trace(cfg)
    with pytest.raises(ValueError):  # window reaches saturation
        lyapunov_estimate(rows, (5, 40))
    with pytest.raises(ValueError):  # too few points
        lyapunov_estimate(rows, (5, 7))


@pytest.mark.parametrize("window,message", [
    ((15, 5), "fit window is inverted: first cycle 15 > last cycle 5"),
    ((-3, 15), "fit window starts at cycle -3, must start at >= 0"),
], ids=["inverted", "negative-start"])
def test_lyapunov_rejects_bad_window(window, message):
    rows = distance_rows(experiment(ScheduleMode.FIBONACCI, 1e-8, 60, Subsystem.HEAD))
    with pytest.raises(ValueError) as err:
        lyapunov_estimate(rows, window)
    assert str(err.value) == message
    assert next(rows)[0] == 0  # checked before the first row was drawn


def test_lyapunov_window_may_start_at_cycle_zero():
    rows = distance_rows(experiment(ScheduleMode.FIBONACCI, 1e-8, 60, Subsystem.HEAD))
    assert lyapunov_estimate(rows, (0, 15)) == pytest.approx(LOG_GOLDEN_RATIO, rel=0.2)


def _with_nan_at(rows, step):
    return [(n, math.nan if n == step else d2, ov) for n, d2, ov in rows]


@pytest.mark.parametrize("fit,window", [
    (lyapunov_estimate, (5, 15)),
    (fit_power_law, (4, 60)),
], ids=["lyapunov", "power-law"])
def test_fits_reject_a_nan_d2_in_their_window(fit, window):
    # NaN compares False both ways, so it used to drop out of the fit unseen
    rows = distance_trace(experiment(ScheduleMode.FIBONACCI, 1e-8, 80, Subsystem.HEAD))
    clean = fit(rows, window)
    with pytest.raises(ValueError, match=r"^d2\(20\) is NaN$"):
        fit(_with_nan_at(rows, 20), window)
    assert fit(_with_nan_at(rows, 80), window) == clean  # outside the window


def test_fits_stop_at_the_saturation_guard():
    # synthetic rows growing by 1.5 per step, all below the guard of 0.5,
    # and one row at step 14 just above it
    below = [(n, 1e-4 * 1.5**n, 1.0) for n in range(14)]
    above = (14, 0.55, 1.0)
    with pytest.raises(ValueError, match=r"^window reaches saturation: d2\(14\) = 0\.55 >= 0\.5$"):
        lyapunov_estimate([*below, above], (0, 7))
    # the power-law fit leaves the row out, which a row below the guard would move
    assert fit_power_law([*below, above], (1, 14)) == fit_power_law(below, (1, 14))
    assert fit_power_law([*below, (14, 0.45, 1.0)], (1, 14)) != fit_power_law(below, (1, 14))


def test_distance_rows_stream_the_trace():
    cfg = experiment(ScheduleMode.FIBONACCI, 0.001, 105, Subsystem.TAPE, record_every=10)
    rows = distance_rows(cfg)
    assert iter(rows) is rows  # a generator: rows are made as they are read
    assert list(rows) == distance_trace(cfg)


@pytest.mark.parametrize("steps,every", [
    (2, 1), (3, 1), (4, 1), (4, 2), (4, 3), (61, 1), (60, 7), (61, 7), (301, 10),
    (1001, 2), (1001, 3),
])
@pytest.mark.parametrize("schedule", [
    ScheduleConfig.exact_pi(3, 7, delta=1e-3),
    ScheduleConfig.exact_pi(3, 7),
    ScheduleConfig(ScheduleMode.FIBONACCI, 1.2566370616, delta=1e-3),
    ScheduleConfig(ScheduleMode.ARITHMETIC, 1.2566370616, delta=1e-3),
    ScheduleConfig.exact_pi(-2, 5, mode=ScheduleMode.FIXED, delta=0.3),
], ids=["exact", "exact-delta0", "float", "arithmetic", "fixed"])
def test_distance_rows_match_the_complex_reference_twins(schedule, steps, every):
    # both twins stepped in one kernel give, row for row and bit for bit, the
    # pair metrics of two complex reference runs stepped one after the other.
    # A record filter of 2 keeps even steps only and one of 3 alternates
    # odd-only and even-only cycles, and 4 steps at 3 keep both halves of
    # cycle 2: each subsystem's rows, with and without the terms reused
    # across the flip, and the odd tail of 1001 steps
    for subsystem in ("head", "tape", "network"):
        start = (reference.init_state(0.0), reference.init_state(schedule.delta))
        runs = [reference.iterate(AngleSequence(cfg), state, steps)
                for cfg, state in zip((replace(schedule, delta=0.0), schedule), start)]
        rows = [(0, *reference.pair_metrics(*start, subsystem))]
        rows += [(n, *reference.pair_metrics(a, b, subsystem))
                 for (n, a), (_, b) in zip(*runs) if n % every == 0 or n == steps]
        cfg = ExperimentConfig(schedule, steps, Subsystem(subsystem), record_every=every)
        assert repr(list(distance_rows(cfg))) == repr(rows)


def test_lyapunov_requires_recorded_cycles():
    cfg = experiment(ScheduleMode.FIBONACCI, 1e-8, 80, Subsystem.HEAD, record_every=64)
    with pytest.raises(ValueError):
        lyapunov_estimate(distance_rows(cfg), (5, 15))


def test_arithmetic_growth_is_quadratic():
    # seed re-seeding shifts the arithmetic angles linearly, so the
    # cumulative deviation and hence D grow ~ n^2 before saturation
    cfg = experiment(ScheduleMode.ARITHMETIC, 0.001, 200, Subsystem.HEAD)
    k = fit_power_law(distance_rows(cfg), (4, 60))
    assert 1.8 < k < 2.5


def test_fibonacci_growth_class_shared_by_subsystems():
    # ln D slope per step ~ ln(beta)/2 for head, tape and network alike
    for sub in Subsystem:
        cfg = experiment(ScheduleMode.FIBONACCI, 0.001, 200, sub)
        rows = distance_trace(cfg)
        end = reference.presaturation_end(rows)
        ns = [n for n, _, _ in rows if 4 <= n < end and reference.d2_at(rows, n) > 0]
        ys = [0.5 * math.log(reference.d2_at(rows, n)) for n in ns]
        slope = float(np.polyfit(ns, ys, 1)[0])
        assert slope == pytest.approx(LOG_GOLDEN_RATIO / 2, rel=0.25), sub


def test_fit_power_law_needs_points():
    cfg = experiment(ScheduleMode.ARITHMETIC, 0.001, 100, Subsystem.HEAD)
    with pytest.raises(ValueError):
        fit_power_law(distance_rows(cfg), (4, 6))


# --- stability factors --------------------------------------------------------------

def test_stability_matrix_at_known_orbit():
    (res,) = stability_numeric(20, [1e-6], TWO_FIFTHS_PI)
    assert res.m11 == pytest.approx(4181, rel=1e-3)
    assert res.m11 == pytest.approx(res.m11_closed, rel=1e-8)
    assert res.m22 == pytest.approx(res.m22_closed, rel=1e-8)
    # finite-delta value sits below the limit by ~ delta^2 (F_m^2 + F_{m-1}^2)/2
    assert res.m22 == pytest.approx(1.0 - 3.1623e-5, abs=1e-9)


def test_stability_matrix_m22_limit():
    (res,) = stability_numeric(20, [1e-7], TWO_FIFTHS_PI)
    assert abs(res.m22 - 1.0) < 1e-6


def test_stability_matrix_trivial_orbit():
    # alpha1 = 0: every cycle closes, M11 -> F_1 = 1 at m = 2
    (res,) = stability_numeric(2, [1e-6], ScheduleConfig.exact_pi(0, 1))
    assert res.m11 == pytest.approx(1.0, abs=1e-9)
    assert res.m22 == pytest.approx(1.0, abs=1e-9)


def test_stability_matrix_converges_to_limits():
    limits = stability_limits(20, TWO_FIFTHS_PI)
    errs_m11, errs_m22 = [], []
    for res in stability_numeric(20, (1e-4, 1e-5, 1e-6), TWO_FIFTHS_PI):
        errs_m11.append(abs(res.m11 - limits.m11) / limits.m11)
        errs_m22.append(abs(res.m22 - limits.m22))
    assert errs_m11[0] > errs_m11[1] > errs_m11[2]
    assert errs_m22[0] > errs_m22[1] > errs_m22[2]
    # quadratic-in-delta convergence: two decades of delta gain ~ 1e4
    assert errs_m11[2] < errs_m11[0] / 50
    assert errs_m22[2] < errs_m22[0] / 50


def test_stability_matrix_rejects_off_orbit_cycles():
    with pytest.raises(NoPeriodicOrbit) as exc:
        stability_numeric(19, [1e-6], TWO_FIFTHS_PI)
    assert exc.value.conditions == [True, True, False]  # what the CLI reports


def test_stability_matrix_rejects_inexact_angle():
    cfg = ScheduleConfig(ScheduleMode.FIBONACCI, 2 * math.pi / 5)
    with pytest.raises(ValueError):
        stability_numeric(20, [1e-6], cfg)


def test_stability_matrix_rejects_bad_delta():
    with pytest.raises(ValueError):
        stability_numeric(20, [0.0], TWO_FIFTHS_PI)


def test_stability_checks_every_delta_before_the_first_run(monkeypatch):
    # at 1/2 and m = 60 the first delta fails its closed form: checked one
    # by one, the bad second delta would be reported as that mismatch
    def no_run(*args):
        raise AssertionError("a trajectory ran before every delta was checked")

    monkeypatch.setattr(engine, "iterate", no_run)
    with pytest.raises(ValueError, match="delta must lie in"):
        stability_numeric(60, [1e-4, 0.5], ScheduleConfig.exact_pi(1, 2))


def test_tape_stability_matches_closed_difference_quotient():
    seq = AngleSequence(TWO_FIFTHS_PI)
    a1 = TWO_FIFTHS_PI.alpha1
    a22 = seq.angle(22)
    for res in stability_numeric(20, (1e-5, 1e-6), TWO_FIFTHS_PI):
        delta, sim = res.delta, res.tape
        closed = (math.cos(a22 + delta * fib(21)) - math.cos(a22)) / (
            math.cos(a1 + delta) - math.cos(a1)
        )
        assert sim == pytest.approx(closed, rel=1e-8)


def test_tape_stability_converges_to_limit():
    limit = stability_limits(20, TWO_FIFTHS_PI).tape
    errs = []
    for res in stability_numeric(20, (1e-4, 1e-5, 1e-6, 1e-7), TWO_FIFTHS_PI):
        errs.append(abs(res.tape - limit) / limit)
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-3  # within 0.1% by delta = 1e-7


def test_tape_stability_rejects_odd_half_period():
    # period 2m = 2 (mod 4) carries no orbit to linearize around
    with pytest.raises(ValueError):
        stability_numeric(19, [1e-6], TWO_FIFTHS_PI)


def test_tape_stability_rejects_degenerate_angle():
    # sin(alpha1) = 0: the tape ratio is undefined, as the CLI reports it
    (res,) = stability_numeric(2, [1e-6], ScheduleConfig.exact_pi(0, 1))
    assert res.tape is None


# --- single-trajectory records ---------------------------------------------------------

def test_trajectory_bloch_record_shape():
    seq = AngleSequence(TWO_FIFTHS_PI)
    recs = list(trajectory_bloch(seq, engine.init_state(0.0), 20, record_every=5))
    assert [n for n, *_ in recs] == [5, 10, 15, 20]
    for rec in recs:
        assert type(rec) is tuple and len(rec) == 4
        assert abs(rec[1]) < 1e-12


@pytest.mark.parametrize("record_every", [0, -2])
def test_trajectory_bloch_rejects_record_every_below_one(record_every):
    # 0 would divide by zero, and -2 would record every second step; the
    # paired kernel behind distance_rows filters its rows the same way
    seq, state = AngleSequence(TWO_FIFTHS_PI), engine.init_state(0.0)
    with pytest.raises(ValueError, match=f"^record_every must be >= 1, got {record_every}$"):
        list(trajectory_bloch(seq, state, 20, record_every))
    with pytest.raises(ValueError, match=f"^record_every must be >= 1, got {record_every}$"):
        list(engine.pair_rows(seq, seq, state, state, 20, record_every, "head"))


def test_trajectory_bloch_rejects_negative_steps():
    seq, state = AngleSequence(TWO_FIFTHS_PI), engine.init_state(0.0)
    with pytest.raises(ValueError, match="^step count must be >= 0, got -1$"):
        list(trajectory_bloch(seq, state, -1))
    with pytest.raises(ValueError, match="^step count must be >= 0, got -1$"):
        list(engine.pair_rows(seq, seq, state, state, -1, 1, "network"))


@settings(max_examples=150, deadline=None)
@given(
    alpha1=st.one_of(
        st.tuples(st.integers(-40, 40), st.integers(1, 300)),  # exact (p/q)*pi
        st.floats(min_value=-7.0, max_value=7.0),
    ),
    mode=st.sampled_from(ScheduleMode),
    tape=st.sampled_from(engine.TapeState),
    head_angle=st.sampled_from([0.0, 0.3, -1.1, math.pi / 2, math.pi, 2.5]),
    steps=st.sampled_from([1, 2, 3, 61, 2001]),
    record_every=st.sampled_from([1, 2, 7, 10]),
)
def test_trajectory_bloch_rows_equal_spin_bloch_over_iterate(
        alpha1, mode, tape, head_angle, steps, record_every):
    # the one-cycle-per-turn loop gives the rows that head_bloch reads over
    # engine.iterate, bit for bit
    if isinstance(alpha1, tuple):
        schedule = ScheduleConfig.exact_pi(*alpha1, mode=mode)
    else:
        schedule = ScheduleConfig(mode=mode, alpha1=alpha1)
    seq = AngleSequence(schedule)
    initial = engine.init_state(head_angle, tape)
    expected = [
        (n, *(x.hex() for x in engine.head_bloch(state)))
        for n, state in engine.iterate(seq, initial, steps)
        if n % record_every == 0 or n == steps
    ]
    got = [(n, *(x.hex() for x in bloch))
           for n, *bloch in trajectory_bloch(seq, initial, steps, record_every)]
    assert got == expected
