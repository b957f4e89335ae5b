import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference import TWO_PI_40, orbit_conditions_three_walks

from qturing import engine, oracle
from qturing.engine import Subsystem, TapeState
from qturing.oracle import (
    SuperpositionWeights,
    delta_c,
    head_bloch_superposed,
    orbit_conditions,
    periodic_orbit_check,
    stability_limits,
    stability_matrix_closed,
    tape_sigma3,
)
from qturing.schedule import TWO_PI, AngleSequence, ScheduleConfig, ScheduleMode, fib

EQUAL_WEIGHTS = SuperpositionWeights(1 / math.sqrt(2), 1 / math.sqrt(2))

#: unit weights select one entanglement-free tape branch, |+> or |-> of sigma1
UNIT_WEIGHTS = {
    "plus": SuperpositionWeights(1.0, 0.0),
    "minus": SuperpositionWeights(0.0, 1.0),
}


def fib_seq(alpha1, delta=0.0):
    return AngleSequence(ScheduleConfig(ScheduleMode.FIBONACCI, alpha1, delta=delta))


def circ_dist(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


# --- primitive branches ------------------------------------------------------

def test_primitive_initial_point():
    seq = fib_seq(0.3)
    for weights in UNIT_WEIGHTS.values():
        assert head_bloch_superposed(seq, weights, 0) == pytest.approx((0, 0, -1))


def test_primitive_plus_quarter_turn():
    b = head_bloch_superposed(fib_seq(math.pi / 2), UNIT_WEIGHTS["plus"], 2)
    np.testing.assert_allclose(b, (0.0, 1.0, 0.0), atol=1e-15)


def test_primitive_minus_quarter_turn():
    b = head_bloch_superposed(fib_seq(math.pi / 2), UNIT_WEIGHTS["minus"], 2)
    np.testing.assert_allclose(b, (0.0, -1.0, 0.0), atol=1e-15)


def test_primitive_odd_step_equals_following_even_step_on_plus_branch():
    seq = fib_seq(0.7)
    for m in range(1, 30):
        odd = head_bloch_superposed(seq, UNIT_WEIGHTS["plus"], 2 * m - 1)
        even = head_bloch_superposed(seq, UNIT_WEIGHTS["plus"], 2 * m)
        np.testing.assert_allclose(odd, even, atol=1e-12)


@pytest.mark.parametrize("delta", [0.0, 0.7])
@pytest.mark.parametrize(
    "tape,branch",
    [(TapeState.PLUS, "plus"), (TapeState.MINUS, "minus")],
)
def test_primitive_matches_simulation(delta, tape, branch):
    # the head is prepared with the seed delta, as the oracle assumes
    seq = fib_seq(0.3, delta=delta)
    state = engine.init_state(delta, tape)
    worst = 0.0
    for n, st in engine.iterate(seq, state, 2000):
        sim = engine.bloch_vector(engine.reduce_spin(st, Subsystem.HEAD))
        pred = head_bloch_superposed(seq, UNIT_WEIGHTS[branch], n)
        worst = max(worst, *(abs(a - b) for a, b in zip(sim, pred)))
    assert worst < 1e-9


# --- superpositions ------------------------------------------------------------

def test_superposed_degenerate_weights():
    seq = fib_seq(0.9)
    lone = SuperpositionWeights(1.0, 0.0)
    for n in (0, 1, 5, 8):
        # the plus branch alone sits at (0, sin C, -cos C), C = C_plus(n)
        c = seq.cumulative_plus((n + 1) // 2)
        np.testing.assert_allclose(
            head_bloch_superposed(seq, lone, n),
            (0.0, math.sin(c), -math.cos(c)),
            atol=1e-15,
        )


def test_superposed_equal_weights_cancel_at_quarter_turn():
    b = head_bloch_superposed(fib_seq(math.pi / 2), EQUAL_WEIGHTS, 2)
    np.testing.assert_allclose(b, (0.0, 0.0, 0.0), atol=1e-15)


def test_superposed_periodic_pattern_repeats():
    seq = AngleSequence(ScheduleConfig.exact_pi(2, 5))
    for n in range(0, 81):
        a = head_bloch_superposed(seq, EQUAL_WEIGHTS, n)
        b = head_bloch_superposed(seq, EQUAL_WEIGHTS, n + 40)
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_superposed_matches_alternating_sum_product_form():
    # cos A_m (sin B_m, -cos B_m) at even steps and the swapped form at odd
    # steps, unperturbed equal-weight case
    for alpha1 in (0.3, 1.9, 2 * math.pi / 5):
        seq = fib_seq(alpha1)
        for m in range(1, 51):
            # A_m = a_m + a_{m-2} + ..., B_m = a_{m-1} + a_{m-3} + ...
            a = sum(seq.angle(j) for j in range(m, 0, -2))
            b = sum(seq.angle(j) for j in range(m - 1, 0, -2))
            even = head_bloch_superposed(seq, EQUAL_WEIGHTS, 2 * m)
            np.testing.assert_allclose(
                even,
                (0.0, math.cos(a) * math.sin(b), -math.cos(a) * math.cos(b)),
                atol=1e-9,
            )
            odd = head_bloch_superposed(seq, EQUAL_WEIGHTS, 2 * m - 1)
            np.testing.assert_allclose(
                odd,
                (0.0, math.cos(b) * math.sin(a), -math.cos(b) * math.cos(a)),
                atol=1e-9,
            )


def test_weights_must_be_normalized():
    with pytest.raises(ValueError):
        SuperpositionWeights(1.0, 1.0)


# --- tape polarization -----------------------------------------------------------

def test_tape_sigma3_initial():
    assert tape_sigma3(fib_seq(0.3), 0) == pytest.approx(-1.0, abs=1e-15)


def test_tape_sigma3_after_first_flip():
    assert tape_sigma3(fib_seq(math.pi / 2), 2) == pytest.approx(0.0, abs=1e-15)


def test_tape_sigma3_second_cycle():
    # -cos(a_3 - a_1) = -cos(pi/2)
    assert tape_sigma3(fib_seq(math.pi / 2), 4) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("delta", [0.0, 0.01])
def test_tape_sigma3_matches_simulation(delta):
    seq = fib_seq(0.3, delta=delta)
    for n, st in engine.iterate(seq, engine.init_state(delta), 200):
        sim = engine.bloch_vector(engine.reduce_spin(st, Subsystem.TAPE))
        assert abs(sim.s3 - tape_sigma3(seq, n)) < 1e-10
        assert abs(sim.s1) < 1e-12 and abs(sim.s2) < 1e-12


def test_tape_sigma3_rejects_other_modes():
    seq = AngleSequence(ScheduleConfig(ScheduleMode.FIXED, 0.3))
    with pytest.raises(ValueError):
        tape_sigma3(seq, 4)


# --- periodic orbits ----------------------------------------------------------------

def test_orbit_two_fifths_pi_has_period_forty():
    assert periodic_orbit_check(2, 5) == 40


def test_orbit_zero_angle_is_trivially_periodic():
    assert periodic_orbit_check(0, 1) == 2


def test_orbit_half_pi_period_matches_simulation():
    assert periodic_orbit_check(1, 2) == 12
    seq = AngleSequence(ScheduleConfig.exact_pi(1, 2))
    pts = []
    for n, st in engine.iterate(seq, engine.init_state(0.0), 48):
        b = engine.bloch_vector(engine.reduce_spin(st, Subsystem.HEAD))
        pts.append((b.s2, b.s3))
    for n in range(24):
        assert abs(pts[n][0] - pts[n + 12][0]) < 1e-12
        assert abs(pts[n][1] - pts[n + 12][1]) < 1e-12
    for d in (2, 4, 6):  # no smaller even period
        assert any(
            abs(pts[n][0] - pts[n + d][0]) > 1e-6 or abs(pts[n][1] - pts[n + d][1]) > 1e-6
            for n in range(12)
        )


def test_orbit_conditions_close_at_twenty_cycles():
    assert orbit_conditions(2, 5, 20) == (True, True, True)
    assert not all(orbit_conditions(2, 5, 3))
    assert not all(orbit_conditions(2, 5, 19))


@pytest.mark.parametrize("m", [-1, -2])
def test_orbit_conditions_reject_negative_cycle(m):
    with pytest.raises(ValueError, match=rf"^cycle index must be >= 0, got {m}$"):
        orbit_conditions(2, 5, m)


@settings(max_examples=300, deadline=None)
@given(q=st.integers(1, 2000), p=st.integers(-4000, 4000), m=st.integers(0, 10**6),
       near_closure=st.booleans(), offset=st.integers(-2, 2))
@example(q=1, p=0, m=0, near_closure=False, offset=0)
@example(q=5, p=2, m=20, near_closure=False, offset=0)
@example(q=1999, p=-3, m=0, near_closure=True, offset=-1)
def test_orbit_conditions_match_three_walks(p, q, m, near_closure, offset):
    # one pair walk gives what three fib_mod walks gave, also at and next to
    # the cycles where the orbit closes
    assume(math.gcd(p, q) == 1)
    if near_closure:
        m0 = periodic_orbit_check(p, q) // 2
        m = max(m // m0 * m0 + offset, 0)
    assert orbit_conditions(p, q, m) == orbit_conditions_three_walks(p, q, m)


def test_orbit_search_makes_one_pair_walk_per_closure_test(monkeypatch):
    walks, tests = [], []
    walk, test = oracle.fib_pair_mod, oracle.orbit_conditions
    monkeypatch.setattr(oracle, "fib_pair_mod", lambda n, mod: walks.append(n) or walk(n, mod))
    monkeypatch.setattr(oracle, "orbit_conditions",
                        lambda p, q, m: tests.append(m) or test(p, q, m))
    for p, q in [(2, 5), (1, 999983), (3, 7), (-5, 12), (0, 1)]:
        walks.clear()
        tests.clear()
        periodic_orbit_check(p, q)
        assert tests and walks == tests, (p, q)


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _prime_near(n, step):
    while not _is_prime(n):
        n += step
    return n


#: primes r with r^2 <= 10**7
_SMALL_PRIMES = [r for r in range(2, 3163) if _is_prime(r)]


@settings(max_examples=300, deadline=None)
@given(n=st.one_of(
    st.integers(1, 10**7),
    st.integers(0, 23).map(lambda k: 2**k),
    st.sampled_from(_SMALL_PRIMES).map(lambda r: r * r),
    st.integers(2, 3162).map(lambda k: _prime_near(k * k, -1)),
    st.integers(1, 3161).map(lambda k: _prime_near(k * k, 1)),
))
@example(n=1)
@example(n=2**23)
@example(n=3137 * 3137)
@example(n=9998239)  # the largest prime below 3162^2
@example(n=9985601)  # 3160^2 + 1
@example(n=2 * 999983)
@example(n=10**7)
def test_factorize_gives_prime_factors_of_n(n):
    factors = oracle._factorize(n)
    assert math.prod(r**k for r, k in factors.items()) == n
    assert all(_is_prime(r) and k >= 1 for r, k in factors.items())


def scan_period(p, q):
    """Brute-force reference: the first m with all three closure conditions."""
    mod = 2 * q
    f_prev, f_cur = 0, 1 % mod  # F_0, F_1
    m = 0
    while True:
        m += 1
        f_next = (f_prev + f_cur) % mod   # F_{m+1}
        f_next2 = (f_cur + f_next) % mod  # F_{m+2}
        c_plus = (p * (f_next2 - 1)) % mod == 0
        c_angle = (p * (f_next - 1)) % mod == 0
        if m % 2 == 0:
            c_minus = (p * (f_prev - 1)) % mod == 0
        else:
            c_minus = (p * (f_prev + 1)) % mod == 0
        if c_plus and c_minus and c_angle:
            return 2 * m
        f_prev, f_cur = f_cur, f_next


@settings(max_examples=150, deadline=None)
@given(q=st.integers(1, 1500), p=st.integers(-3000, 3000))
def test_orbit_period_matches_brute_force_scan(p, q):
    assume(math.gcd(p, q) == 1)
    assert periodic_orbit_check(p, q) == periodic_orbit_check(-p, -q) == scan_period(p, q)


def test_orbit_period_beyond_former_search_cap():
    # the true period exceeds the 10**6 cycles the old linear scan tried
    assert periodic_orbit_check(1, 999983) == 3999936


def test_orbit_rejects_bad_fractions():
    with pytest.raises(ValueError):
        periodic_orbit_check(1, 0)
    with pytest.raises(ValueError):
        periodic_orbit_check(4, 10)


def test_orbit_periods_divisible_by_four_for_nondegenerate_angles():
    # sin(alpha1) != 0 (q >= 2): every orbit has period 0 mod 4;
    # the degenerate alpha1 = pi family (q = 1) admits period 6
    for q in range(2, 13):
        for p in range(1, 2 * q):
            if math.gcd(p, q) == 1:
                period = periodic_orbit_check(p, q)
                assert period % 4 == 0, (p, q, period)
    assert periodic_orbit_check(1, 1) == 6


# --- stability ------------------------------------------------------------------------

def test_stability_limits_known_values():
    assert stability_limits(20)[:2] == (4181, 1.0)
    assert stability_limits(1)[:2] == (0, 1.0)
    assert stability_limits(2)[:2] == (1, 1.0)


def test_stability_limits_tape_factor():
    seq = AngleSequence(ScheduleConfig.exact_pi(2, 5))
    limits = stability_limits(20, seq)
    assert limits.tape == pytest.approx(10946.0, abs=1e-6)


def test_stability_limits_tape_needs_even_cycles():
    seq = AngleSequence(ScheduleConfig.exact_pi(2, 5))
    with pytest.raises(ValueError):
        stability_limits(19, seq)


def test_stability_limits_rejects_degenerate_angle():
    seq = AngleSequence(ScheduleConfig.exact_pi(1, 1))  # alpha1 = pi
    with pytest.raises(ValueError):
        stability_limits(20, seq)


def test_stability_limits_rejects_huge_index():
    with pytest.raises(ValueError):
        stability_limits(95)


def test_stability_matrix_closed_small_delta():
    m11, m22 = stability_matrix_closed(20, 1e-6)
    d20, d19 = 1e-6 * fib(20), 1e-6 * fib(19)
    assert m11 == pytest.approx(
        math.cos(d20) * math.sin(d19) / math.sin(1e-6), abs=1e-12
    )
    assert m22 == pytest.approx(
        math.cos(d20) * math.cos(d19) / math.cos(1e-6), abs=1e-15
    )
    assert m11 == pytest.approx(4181, rel=1e-3)


def test_stability_matrix_closed_domain():
    with pytest.raises(ValueError):
        stability_matrix_closed(20, 0.0)
    with pytest.raises(ValueError):
        stability_matrix_closed(20, 0.2)


# --- cumulative-shift closed forms -----------------------------------------------------

def test_delta_c_small_cycle():
    plus, minus = delta_c(2, 0.1)
    assert plus == pytest.approx(0.2, abs=1e-15)   # 0.1 * F_3
    assert minus == pytest.approx(0.0, abs=1e-15)  # -0.1 * F_0


def test_delta_c_zero_perturbation():
    assert delta_c(5, 0.0) == (0.0, 0.0)


def test_delta_c_rejects_first_cycle():
    with pytest.raises(ValueError):
        delta_c(1, 0.1)


def test_delta_c_matches_cumulative_difference():
    # the plus shift is exactly the seed-term difference of the cumulatives;
    # tolerance is drift-limited at large m
    delta = 0.001
    base = fib_seq(0.3)
    pert = fib_seq(0.3, delta=delta)
    for m in range(2, 41):
        shift = (pert.cumulative_plus(m) - base.cumulative_plus(m)) % TWO_PI
        expect = delta_c(m, delta)[0] % TWO_PI
        assert circ_dist(shift, expect) < 5e-8


def test_delta_c_minus_matches_cumulative_difference():
    delta = 0.001
    base = fib_seq(0.3)
    pert = fib_seq(0.3, delta=delta)
    for m in range(2, 41):
        shift = (pert.cumulative_minus(2 * m) - base.cumulative_minus(2 * m)) % TWO_PI
        expect = delta_c(m, delta)[1] % TWO_PI
        assert circ_dist(shift, expect) < 5e-8


# --- periodic-orbit cumulative closed forms ---------------------------------------------

@pytest.mark.parametrize("alpha1", [0.3, 2 * math.pi / 5])
def test_periodic_cumulative_matches_running_sums(alpha1):
    # C_plus(2m) = a_1 (F_{m+2} - 1); C_minus(2m) = a_1 (1 - F_{m-1}) for even
    # m and -a_1 (F_{m-1} + 1) for odd m, reduced exactly mod 2*pi
    seq = fib_seq(alpha1)
    for m in range(1, 31):
        coeff_minus = (1 - fib(m - 1)) if m % 2 == 0 else -(fib(m - 1) + 1)
        plus, minus = (float(c * Fraction(alpha1) % TWO_PI_40)
                       for c in (fib(m + 2) - 1, coeff_minus))
        assert circ_dist(plus, seq.cumulative_plus(m)) < 1e-9
        assert circ_dist(minus, seq.cumulative_minus(2 * m)) < 1e-9


def test_periodic_cumulative_exact_closure():
    # alpha1 = (2/5)*pi closes after m = 20 cycles on both branches: the exact
    # integer path gives 0.0, not a float near 2*pi
    seq = AngleSequence(ScheduleConfig.exact_pi(2, 5))
    assert (seq.cumulative_plus(20), seq.cumulative_minus(40)) == (0.0, 0.0)


# --- oracle vs simulation (compact version of the central property) ----------------------

@pytest.mark.parametrize("alpha1", [0.3, 2 * math.pi / 5])
@pytest.mark.parametrize("delta", [0.0, 0.001])
def test_oracle_matches_simulation(alpha1, delta):
    seq = fib_seq(alpha1, delta=delta)
    state = engine.init_state(delta)
    worst = 0.0
    for n, st in engine.iterate(seq, state, 400):
        head = engine.bloch_vector(engine.reduce_spin(st, Subsystem.HEAD))
        pred = head_bloch_superposed(seq, EQUAL_WEIGHTS, n)
        tape = engine.bloch_vector(engine.reduce_spin(st, Subsystem.TAPE))
        worst = max(
            worst,
            abs(head.s1 - pred.s1),
            abs(head.s2 - pred.s2),
            abs(head.s3 - pred.s3),
            abs(tape.s3 - tape_sigma3(seq, n)),
        )
    assert worst < 1e-9
