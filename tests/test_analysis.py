import math

import numpy as np
import pytest

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
    trace = distance_trace(cfg)
    assert np.all(np.asarray(trace.d2) == 0.0)  # identical trajectories, exact zero
    np.testing.assert_allclose(trace.overlap, 1.0, atol=1e-12)


def test_trace_is_deterministic():
    cfg = experiment(ScheduleMode.FIBONACCI, 0.001, 150, Subsystem.HEAD)
    a = distance_trace(cfg)
    b = distance_trace(cfg)
    assert np.array_equal(a.d2, b.d2)
    assert np.array_equal(a.overlap, b.overlap)
    assert np.array_equal(a.steps, b.steps)


def test_trace_bounds_and_network_identity():
    for sub in Subsystem:
        cfg = experiment(ScheduleMode.FIBONACCI, 0.001, 300, sub)
        trace = distance_trace(cfg)
        d2, overlap = np.asarray(trace.d2), np.asarray(trace.overlap)
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
    trace = distance_trace(cfg)
    baseline = trace.d2_at(4)
    steps, d2 = np.asarray(trace.steps), np.asarray(trace.d2)
    window = d2[(steps >= 4) & (steps <= 60)]
    assert np.abs(window - baseline).max() < 1e-10


def test_fixed_schedule_head_distance_stays_small():
    # the head distance oscillates at O(delta^2) but never grows
    cfg = experiment(ScheduleMode.FIXED, 0.001, 400, Subsystem.HEAD)
    trace = distance_trace(cfg)
    assert np.asarray(trace.d2).max() < 1e-5


def test_fibonacci_trace_saturates_below_two():
    cfg = experiment(ScheduleMode.FIBONACCI, 0.001, 600, Subsystem.HEAD)
    d2 = np.asarray(distance_trace(cfg).d2)
    assert d2.max() <= 2.0 + 1e-10
    assert d2.max() > 1.5  # reaches the saturation regime


def test_record_every_thins_records():
    cfg = experiment(ScheduleMode.FIBONACCI, 0.001, 100, Subsystem.HEAD, record_every=10)
    trace = distance_trace(cfg)
    assert list(trace.steps) == list(range(0, 101, 10))


def test_record_every_keeps_final_step():
    thin = distance_trace(
        experiment(ScheduleMode.FIBONACCI, 0.001, 105, Subsystem.HEAD, record_every=10)
    )
    full = distance_trace(experiment(ScheduleMode.FIBONACCI, 0.001, 105, Subsystem.HEAD))
    assert list(thin.steps) == [*range(0, 101, 10), 105]
    assert thin.d2_at(105) == full.d2_at(105)


def test_trace_lookup_helpers():
    cfg = experiment(ScheduleMode.FIBONACCI, 0.001, 50, Subsystem.HEAD)
    trace = distance_trace(cfg)
    assert trace.d2_at(10) == trace.d2[10]
    with pytest.raises(KeyError):
        trace.d2_at(999)


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
    rate = lyapunov_estimate(distance_trace(cfg), (5, 15))
    assert rate == pytest.approx(LOG_GOLDEN_RATIO, rel=0.05)


def test_lyapunov_rate_arithmetic_is_negligible():
    cfg = experiment(ScheduleMode.ARITHMETIC, 1e-8, 450, Subsystem.HEAD)
    rate = lyapunov_estimate(distance_trace(cfg), (100, 200))
    assert abs(rate) < 0.05


def test_lyapunov_rate_fixed_is_negligible():
    cfg = experiment(ScheduleMode.FIXED, 1e-8, 450, Subsystem.HEAD)
    rate = lyapunov_estimate(distance_trace(cfg), (100, 200))
    assert abs(rate) < 0.05


def test_lyapunov_guards():
    cfg = experiment(ScheduleMode.FIBONACCI, 0.001, 120, Subsystem.HEAD)
    trace = distance_trace(cfg)
    with pytest.raises(ValueError):  # window reaches saturation
        lyapunov_estimate(trace, (5, 40))
    with pytest.raises(ValueError):  # too few points
        lyapunov_estimate(trace, (5, 7))


@pytest.mark.parametrize("window,message", [
    ((15, 5), "fit window is inverted: first cycle 15 > last cycle 5"),
    ((-3, 15), "fit window starts at cycle -3, must start at >= 0"),
], ids=["inverted", "negative-start"])
def test_lyapunov_rejects_bad_window(window, message):
    trace = distance_trace(experiment(ScheduleMode.FIBONACCI, 1e-8, 60, Subsystem.HEAD))
    with pytest.raises(ValueError) as err:
        lyapunov_estimate(trace, window)
    assert str(err.value) == message


def test_lyapunov_window_may_start_at_cycle_zero():
    trace = distance_trace(experiment(ScheduleMode.FIBONACCI, 1e-8, 60, Subsystem.HEAD))
    assert lyapunov_estimate(trace, (0, 15)) == pytest.approx(LOG_GOLDEN_RATIO, rel=0.2)


def test_distance_rows_stream_the_trace():
    cfg = experiment(ScheduleMode.FIBONACCI, 0.001, 105, Subsystem.TAPE, record_every=10)
    rows = distance_rows(cfg)
    assert iter(rows) is rows  # a generator: rows are made as they are read
    trace = distance_trace(cfg)
    assert list(rows) == list(zip(trace.steps, trace.d2, trace.overlap))


def test_lyapunov_requires_recorded_cycles():
    cfg = experiment(ScheduleMode.FIBONACCI, 1e-8, 80, Subsystem.HEAD, record_every=64)
    trace = distance_trace(cfg)
    with pytest.raises(ValueError):
        lyapunov_estimate(trace, (5, 15))


def test_arithmetic_growth_is_quadratic():
    # seed re-seeding shifts the arithmetic angles linearly, so the
    # cumulative deviation and hence D grow ~ n^2 before saturation
    cfg = experiment(ScheduleMode.ARITHMETIC, 0.001, 200, Subsystem.HEAD)
    k = fit_power_law(distance_trace(cfg), (4, 60))
    assert 1.8 < k < 2.5


def test_fibonacci_growth_class_shared_by_subsystems():
    # ln D slope per step ~ ln(beta)/2 for head, tape and network alike
    for sub in Subsystem:
        cfg = experiment(ScheduleMode.FIBONACCI, 0.001, 200, sub)
        trace = distance_trace(cfg)
        end = trace.presaturation_end()
        ns = [int(n) for n in trace.steps if 4 <= n < end and trace.d2_at(int(n)) > 0]
        ys = [0.5 * math.log(trace.d2_at(n)) for n in ns]
        slope = float(np.polyfit(ns, ys, 1)[0])
        assert slope == pytest.approx(LOG_GOLDEN_RATIO / 2, rel=0.25), sub


def test_fit_power_law_needs_points():
    cfg = experiment(ScheduleMode.ARITHMETIC, 0.001, 100, Subsystem.HEAD)
    with pytest.raises(ValueError):
        fit_power_law(distance_trace(cfg), (4, 6))


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
    limits = stability_limits(20)
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
    limit = stability_limits(20, AngleSequence(TWO_FIFTHS_PI)).tape
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
    assert [n for n, _ in recs] == [5, 10, 15, 20]
    for _, head in recs:
        assert abs(head.s1) < 1e-12
