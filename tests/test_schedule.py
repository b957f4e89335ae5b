import math
from collections import deque
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import EagerFloatSchedule

from qturing.schedule import (
    TWO_PI,
    AngleSequence,
    ScheduleConfig,
    ScheduleMode,
    fib,
    fib_mod,
    fib_pair_mod,
    wrap_angle,
)

# 2*pi to 60 digits, independent of the package's internal constant
TWO_PI_EXACT = Fraction(
    "6.28318530717958647692528676655900576839433879875021164194989"
)


def make_seq(alpha1, delta=0.0, mode=ScheduleMode.FIBONACCI, exact=None):
    return AngleSequence(ScheduleConfig(mode=mode, alpha1=alpha1, delta=delta, exact=exact))


def circ_dist(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def exact_multiple_mod(coeff, x):
    """(coeff * x) mod 2*pi through exact rational arithmetic."""
    return float((coeff * Fraction(x)) % TWO_PI_EXACT)


# --- Fibonacci helpers ----------------------------------------------------

def test_fib_basics():
    assert [fib(n) for n in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    assert fib(19) == 4181
    assert fib(20) == 6765


@pytest.mark.parametrize("mod", [2, 7, 10, 12, 97])
def test_fib_mod_matches_iteration(mod):
    a, b = 0, 1
    for n in range(400):
        assert fib_mod(n, mod) == a % mod
        a, b = b, a + b


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=0, max_value=3000), mod=st.integers(min_value=1, max_value=10**12))
def test_fib_mod_matches_exact_fibonacci(n, mod):
    assert fib_mod(n, mod) == fib(n) % mod


def test_fib_mod_large_index():
    # independent iterative oracle at a sparse large index
    mod = 10
    a, b = 0, 1
    for _ in range(10**6):
        a, b = b, (a + b) % mod
    assert fib_mod(10**6, mod) == a


def test_fib_rejects_negative():
    with pytest.raises(ValueError):
        fib(-1)
    with pytest.raises(ValueError):
        fib_mod(-1, 5)


@pytest.mark.parametrize("mod", [1, 2, 3, 10, 2 * 999983])
def test_fib_pair_mod_matches_exact_fibonacci(mod):
    for n in range(201):
        assert fib_pair_mod(n, mod) == (fib(n) % mod, fib(n + 1) % mod)


def test_fib_pair_mod_rejects_bad_input():
    with pytest.raises(ValueError, match="negative Fibonacci index: -1"):
        fib_pair_mod(-1, 5)
    for mod in (0, -4):
        with pytest.raises(ValueError, match="modulus must be positive"):
            fib_pair_mod(3, mod)
        with pytest.raises(ValueError, match="modulus must be positive"):
            fib_mod(3, mod)


# --- angle ----------------------------------------------------------------

def test_angle_seed_value():
    assert make_seq(0.3).angle(1) == pytest.approx(0.3, abs=1e-15)


def test_angle_unrolled_recurrence():
    # a2 = a1, a3 = 2 a1, a4 = 3 a1
    seq = make_seq(0.3)
    assert seq.angle(2) == pytest.approx(0.3, abs=1e-15)
    assert seq.angle(3) == pytest.approx(0.6, abs=1e-15)
    assert seq.angle(4) == pytest.approx(0.9, abs=1e-14)


def test_angle_perturbed_third_step():
    # a'_2 = a_1 + delta extended one step: a'_3 = a_3 + delta * F_2
    seq = make_seq(0.3, delta=0.01)
    assert seq.angle(2) == pytest.approx(0.31, abs=1e-15)
    assert seq.angle(3) == pytest.approx(0.61, abs=1e-14)


@pytest.mark.parametrize("m", [1, 2, 5, 17, 100])
def test_angle_fixed_mode_constant(m):
    assert make_seq(0.3, mode=ScheduleMode.FIXED).angle(m) == pytest.approx(0.3)


@settings(max_examples=40, deadline=None)
@given(
    alpha1=st.floats(min_value=0.01, max_value=6.0),
    m=st.integers(min_value=1, max_value=60),
)
def test_angle_arithmetic_is_linear(alpha1, m):
    seq = make_seq(alpha1, mode=ScheduleMode.ARITHMETIC)
    assert circ_dist(seq.angle(m), exact_multiple_mod(m, alpha1)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    alpha1=st.floats(min_value=-10.0, max_value=10.0),
    delta=st.floats(min_value=0.0, max_value=0.5),
    m=st.integers(min_value=1, max_value=80),
    mode=st.sampled_from(list(ScheduleMode)),
)
def test_angle_range(alpha1, delta, m, mode):
    a = make_seq(alpha1, delta=delta, mode=mode).angle(m)
    assert 0.0 <= a < TWO_PI


def test_recurrence_matches_binet_float_small_m():
    beta = (1.0 + math.sqrt(5.0)) / 2.0
    gamma = (1.0 - math.sqrt(5.0)) / 2.0
    seq = make_seq(0.3)
    for m in range(1, 31):
        binet = (0.3 / math.sqrt(5.0)) * (beta**m - gamma**m)
        assert circ_dist(seq.angle(m), binet % TWO_PI) < 1e-8


def test_recurrence_matches_exact_rational():
    # rounding errors feed back through the recurrence and grow like the
    # sequence itself (~beta^m), so 1e-8 agreement with the true value holds
    # only up to m ~ 35 on the float path
    seq = make_seq(0.3)
    for m in range(1, 36):
        assert circ_dist(seq.angle(m), exact_multiple_mod(fib(m), 0.3)) < 1e-8


def test_float_recurrence_drifts_without_exact_mode():
    # the drift the exact integer path exists to remove
    seq = make_seq(0.3)
    dev70 = circ_dist(seq.angle(70), exact_multiple_mod(fib(70), 0.3))
    assert dev70 > 1e-6


@pytest.mark.parametrize("p,q", [(2, 5), (1, 3), (3, 7)])
def test_exact_mode_angle_is_exact(p, q):
    # the stream over the whole range, and point reads at sampled m, against
    # an iterative residue oracle: F_m mod 2q repeats with the Pisano period,
    # so one period of angles is compared a whole period at a time
    seq = AngleSequence(ScheduleConfig.exact_pi(p, q))
    mod = 2 * q
    period, (a, b) = [], (1, 1)  # (F_m, F_{m+1}) mod 2q from m = 1
    while not (period and (a, b) == (1, 1)):
        period.append(math.pi * ((p * a) % mod) / q)
        a, b = b, (a + b) % mod
    angles, top = seq.angles(), 10**6
    for start in range(0, top, len(period)):
        assert list(islice(angles, len(period))) == period, start
    for m in (1, 2, 3, 10, 100, 1000, 10**5, top):
        assert seq.angle(m) == period[(m - 1) % len(period)], m


def test_exact_mode_with_delta_matches_float_recurrence():
    # agreement is drift-limited: both paths carry a float seed-perturbation
    # recurrence whose rounding grows ~beta^m
    exact = AngleSequence(ScheduleConfig.exact_pi(2, 5, delta=0.001))
    plain = make_seq(2 * math.pi / 5, delta=0.001)
    for m in range(1, 41):
        assert circ_dist(exact.angle(m), plain.angle(m)) < 1e-8


@settings(max_examples=30, deadline=None)
@given(
    alpha1=st.floats(min_value=0.01, max_value=6.0),
    delta=st.floats(min_value=1e-6, max_value=0.1),
)
def test_perturbation_linearity(alpha1, delta):
    base = make_seq(alpha1)
    pert = make_seq(alpha1, delta=delta)
    for m in range(1, 41):
        shift = (pert.angle(m) - base.angle(m)) % TWO_PI
        assert circ_dist(shift, (delta * fib(m - 1)) % TWO_PI) < 1e-7


# --- cumulative sums --------------------------------------------------------

def test_cumulative_plus_empty_sum():
    assert make_seq(0.3).cumulative_plus(0) == 0.0


def test_cumulative_plus_direct_example():
    # 0.3 + 0.3 + 0.6
    assert make_seq(0.3).cumulative_plus(3) == pytest.approx(1.2, abs=1e-14)


def test_cumulative_plus_direct_sum_oracle():
    for alpha1, delta in ((0.3, 0.0), (1.1, 0.02), (2 * math.pi / 5, 0.0)):
        seq = make_seq(alpha1, delta=delta)
        raw = delta  # seed term
        for m in range(1, 41):
            raw += seq.angle(m)
            assert circ_dist(seq.cumulative_plus(m), raw % TWO_PI) < 1e-10


def test_cumulative_plus_periodic_closure_exact():
    # alpha1 = (2/5)*pi closes after 20 cycles: integer path gives exactly 0
    seq = AngleSequence(ScheduleConfig.exact_pi(2, 5))
    assert seq.cumulative_plus(20) == 0.0


def test_cumulative_plus_periodic_closure_float_path():
    seq = make_seq(2 * math.pi / 5)
    assert circ_dist(seq.cumulative_plus(20), 0.0) < 1e-12


def test_cumulative_minus_single_cycle():
    seq = make_seq(0.3)
    assert seq.cumulative_minus(2) == pytest.approx((-0.3) % TWO_PI, abs=1e-14)
    assert seq.cumulative_minus(1) == pytest.approx(0.3, abs=1e-14)


@pytest.mark.parametrize("delta", [0.0, 0.01])
def test_cumulative_minus_flip_recursion(delta):
    seq = make_seq(0.7, delta=delta)
    for m in range(1, 31):
        lhs = seq.cumulative_minus(2 * m)
        rhs = (-seq.cumulative_minus(2 * m - 1)) % TWO_PI
        assert circ_dist(lhs, rhs) < 1e-10


def test_cumulative_minus_alternating_sum_oracle():
    for alpha1 in (0.3, 2 * math.pi / 5):
        seq = make_seq(alpha1)
        for m in range(1, 41):
            raw = sum((-1) ** j * seq.angle(j) for j in range(1, m + 1))
            expect = ((-1) ** (m - 1) * raw) % TWO_PI
            assert circ_dist(seq.cumulative_minus(2 * m), expect) < 1e-9


def test_cumulative_minus_exact_matches_float():
    exact = AngleSequence(ScheduleConfig.exact_pi(2, 5))
    plain = make_seq(2 * math.pi / 5)
    for n in range(0, 80):
        assert circ_dist(exact.cumulative_minus(n), plain.cumulative_minus(n)) < 1e-11


@pytest.mark.parametrize("delta", [1e-3, 0.01])
def test_exact_cumulatives_with_delta_match_float(delta):
    # the exact backend's seed terms delta * F_{m+1} and -delta * F_{m-2}
    # (F_{-1} = 1, F_{-2} = -1 at m = 1, 0) against the float running sums;
    # the two round differently, 1.5e-12 apart at most for n < 40
    exact = AngleSequence(ScheduleConfig.exact_pi(2, 5, delta=delta))
    plain = make_seq(2 * math.pi / 5, delta=delta)
    for n in range(0, 40):
        assert circ_dist(exact.cumulative_minus(n), plain.cumulative_minus(n)) < 1e-11
        assert circ_dist(exact.cumulative_plus(n // 2), plain.cumulative_plus(n // 2)) < 1e-11


# --- alternating-index sums -------------------------------------------------

def ab_angles(seq, m):
    """(A_m, B_m) mod 2*pi: A_m = a_m + a_{m-2} + ..., B_m = a_{m-1} + a_{m-3} + ..."""
    a = sum(seq.angle(j) for j in range(m, 0, -2))
    b = sum(seq.angle(j) for j in range(m - 1, 0, -2))
    return wrap_angle(a), wrap_angle(b)


def test_ab_angles_first_cycle():
    a, b = ab_angles(make_seq(0.3), 1)
    assert a == pytest.approx(0.3, abs=1e-15)
    assert b == 0.0


def test_ab_angles_third_cycle():
    # A_3 = a_3 + a_1 = 0.9, B_3 = a_2 = 0.3
    a, b = ab_angles(make_seq(0.3), 3)
    assert a == pytest.approx(0.9, abs=1e-14)
    assert b == pytest.approx(0.3, abs=1e-15)


def test_ab_angles_even_branch_closed_form():
    # A_2 = a_2 = a_1 agrees with (a1/sqrt5)(beta^3 - gamma^3 - sqrt5) = a_1
    a, _ = ab_angles(make_seq(0.3), 2)
    assert a == pytest.approx(0.3, abs=1e-14)


@pytest.mark.parametrize("alpha1", [0.3, 1.9, 2 * math.pi / 5])
def test_ab_angles_match_parity_closed_forms(alpha1):
    seq = make_seq(alpha1)
    for m in range(1, 61):
        a, b = ab_angles(seq, m)
        if m % 2 == 1:
            a_closed = seq.angle(m + 1)
            b_closed = (seq.angle(m) - seq.angle(1)) % TWO_PI
        else:
            a_closed = (seq.angle(m + 1) - seq.angle(1)) % TWO_PI
            b_closed = seq.angle(m)
        assert circ_dist(a, a_closed) < 1e-9
        assert circ_dist(b, b_closed) < 1e-9


# --- delta part: the float schedule at alpha1 = 0 ------------------------------

def delta_part(delta, m):
    """delta * F_m mod 2*pi, m >= 0: entry m + 1 of the float schedule at alpha1 = 0."""
    return make_seq(0.0, delta=delta).angle(m + 1)


def test_delta_part_zero_index():
    assert delta_part(0.5, 0) == 0.0


def test_delta_part_small_values():
    assert delta_part(0.001, 10) == pytest.approx(0.055, abs=1e-12)  # F_10 = 55


def test_delta_part_wraps():
    # F_19 = 4181
    assert circ_dist(delta_part(1.0, 19), 4181 % TWO_PI) < 1e-10


def test_delta_part_exact_oracle():
    for m in range(0, 46):
        assert circ_dist(delta_part(0.013, m), exact_multiple_mod(fib(m), 0.013)) < 1e-8


@pytest.mark.parametrize("delta", [0.0, 1e-3, -1e-3, 1e-8, 0.5, 7.0, 1e12])
def test_exact_backend_is_integer_closed_form_plus_float_delta_part(delta):
    # every exact-backend value is its integer closed form in F_m mod 2q plus
    # delta * F_k mod 2*pi read from the float schedule at alpha1 = 0, whose
    # entry k + 1 is delta * F_k, and delta * F_{-1} = delta; index 0 holds
    # the seed (a_0, a_0).  The streams are scanned over the whole range,
    # point reads at sampled m.
    top = 5000
    sampled = {0, 1, 2, 3, 4, 255, 256, 257, 513, 1000, top - 1, top}
    float_part = make_seq(0.0, delta=delta)
    seed = wrap_angle(delta)

    def part(k):
        return seed if k == -1 else float_part.angle(k + 1)

    for p, q in [(2, 5), (-3, 7), (123, 257), (1, 999983)]:
        seq = AngleSequence(ScheduleConfig.exact_pi(p, q, delta=delta))
        mod = 2 * q
        f = [1, 0]  # F_{m-1}, F_m mod 2q for m = -1, 0, 1, ...; f[m + 1] = F_m
        while len(f) < top + 4:
            f.append((f[-1] + f[-2]) % mod)
        angles, cumulatives = seq.angles(), seq.cumulatives()
        for m in range(top + 1):
            if m:
                want = wrap_angle(math.pi * ((p * f[m + 1]) % mod) / q + part(m - 1))
                assert next(angles).hex() == want.hex(), ("angle", p, q, m)
                if m in sampled:
                    assert seq.angle(m).hex() == want.hex(), ("angle read", p, q, m)
            r = (p * (f[m + 3] - 1)) % mod  # sum_{j<=m} F_j = F_{m+2} - 1
            plus = wrap_angle(math.pi * r / q + part(m + 1))
            r = (p * ((-1) ** m - f[m])) % mod
            even = wrap_angle(math.pi * r / q - part(m - 2)) if m else seed
            if m:
                got = next(cumulatives)
                assert (got[0].hex(), got[1].hex()) == (plus.hex(), even.hex()), ("stream", p, q, m)
            if m in sampled:
                assert seq.cumulative_plus(m).hex() == plus.hex(), ("plus", p, q, m)
                for n in {max(2 * m - 1, 0), 2 * m}:
                    want = even if n % 2 == 0 else wrap_angle(-even)
                    assert seq.cumulative_minus(n).hex() == want.hex(), ("minus", p, q, n)


# --- config validation --------------------------------------------------------

def test_config_rejects_nonfinite():
    with pytest.raises(ValueError):
        ScheduleConfig(ScheduleMode.FIBONACCI, math.inf)
    with pytest.raises(ValueError):
        ScheduleConfig(ScheduleMode.FIBONACCI, 0.3, delta=math.nan)


def test_config_rejects_bad_exact_pairs():
    with pytest.raises(ValueError):
        ScheduleConfig(ScheduleMode.FIBONACCI, 2 * math.pi / 5, exact=(2, 0))
    with pytest.raises(ValueError):
        ScheduleConfig(ScheduleMode.FIBONACCI, 4 * math.pi / 10, exact=(4, 10))
    with pytest.raises(ValueError):
        ScheduleConfig(ScheduleMode.FIBONACCI, 0.3, exact=(2, 5))


def test_exact_pair_allows_one_ulp_of_alpha1():
    declared = (2 / 5) * math.pi
    one_ulp_off = declared + math.ulp(declared)
    assert ScheduleConfig(ScheduleMode.FIBONACCI, one_ulp_off, exact=(2, 5)).alpha1 == one_ulp_off
    with pytest.raises(ValueError, match=r"^exact pair \(2, 5\) declares alpha1="):
        ScheduleConfig(ScheduleMode.FIBONACCI, declared + 1e-12, exact=(2, 5))


def test_exact_denominator_must_keep_angles_finite():
    # every angle is pi * r / q with r < 2q, so pi * 2q must be a finite double
    q = 2**1020
    seq = AngleSequence(ScheduleConfig.exact_pi(2 * q - 1, q))
    assert all(math.isfinite(seq.angle(m)) for m in range(1, 200))
    assert all(math.isfinite(seq.cumulative_minus(n)) for n in range(400))
    for big in (q + 1, 5 * 10**307, 10**400):
        with pytest.raises(ValueError, match=r"exact denominator must be <= 2\*\*1020"):
            ScheduleConfig.exact_pi(1, big)


def test_exact_pi_normalizes():
    assert ScheduleConfig.exact_pi(4, 10).exact == (2, 5)
    assert ScheduleConfig.exact_pi(12, 5).exact == (2, 5)
    assert ScheduleConfig.exact_pi(-2, 5).exact == (8, 5)
    assert ScheduleConfig.exact_pi(0, 7).exact == (0, 1)


def test_mode_accepts_plain_string():
    cfg = ScheduleConfig("fibonacci", 0.3)
    assert cfg.mode is ScheduleMode.FIBONACCI


def test_wrap_angle_range():
    for x in (-1e-9, -10.0, 0.0, 1.0, 7.0, 1e6):
        assert 0.0 <= wrap_angle(x) < TWO_PI


# --- exact-mode growth of the delta part, and streams without walks ---------------

def reference_exact_angles(p, q, delta, count):
    """a_1..a_count of the exact+delta path, each base angle from its own fib_mod."""
    dfib = [0.0, wrap_angle(delta)]
    while len(dfib) < count:
        dfib.append(wrap_angle(dfib[-1] + dfib[-2]))
    out = [math.pi * ((p * fib_mod(1, 2 * q)) % (2 * q)) / q]
    for k in range(2, count + 1):
        out.append(wrap_angle(math.pi * ((p * fib_mod(k, 2 * q)) % (2 * q)) / q + dfib[k - 1]))
    return out


@pytest.mark.parametrize("p,q", [(2, 5), (1, 3), (7, 13), (355, 113), (1, 999983), (3, 1)])
def test_exact_delta_growth_in_uneven_chunks_is_bit_identical(p, q):
    m_max = 3000
    seq = AngleSequence(ScheduleConfig.exact_pi(p, q, delta=1e-3))
    got = [None] * (m_max + 1)
    m = 0
    for i, chunk in enumerate([1, 1, 2, 3, 7, 50, 1, 999, 13, 400, 1523]):
        # queries of every kind at, below and above the grown length
        seq.cumulative_plus(m + chunk // 2)
        seq.cumulative_minus(2 * m + 1)
        seq.cumulative_plus(max(m - 5, 0))
        for k in range(m + 1, m + chunk + 1):
            got[k] = seq.angle(k)
        m += chunk
        assert seq.angle(max(m - i, 1)) == got[max(m - i, 1)]
    assert m == m_max
    assert got[1:] == reference_exact_angles(p, q, 1e-3, m_max)
    whole = AngleSequence(ScheduleConfig.exact_pi(p, q, delta=1e-3))
    assert whole.cumulative_plus(m_max) == seq.cumulative_plus(m_max)
    assert whole.cumulative_minus(2 * m_max) == seq.cumulative_minus(2 * m_max)


def _assert_streams_need_no_fib_mod(monkeypatch, delta):
    import qturing.schedule as schedule

    seq = AngleSequence(ScheduleConfig.exact_pi(7, 13, delta=delta))
    calls = []
    monkeypatch.setattr(schedule, "fib_mod", lambda n, mod: calls.append(n) or fib_mod(n, mod))
    monkeypatch.setattr(schedule, "fib_pair_mod",
                        lambda n, mod: calls.append(n) or fib_pair_mod(n, mod))
    # cmd_oracle_check's streams: angles for the engine, and cumulatives and
    # angles for the oracle
    for _ in zip(range(4001), seq.angles(), seq.cumulatives(), seq.angles()):
        pass
    assert calls == []
    # a point read walks only at delta = 0, once, to (F_3, F_4), so the hook
    # is live; at delta != 0 it reads a list grown from the streams
    seq.angle(5)
    assert calls == ([] if delta else [3])
    seq.cumulative_minus(10)
    assert calls == ([] if delta else [3, 3])


def test_exact_delta_growth_needs_no_fib_mod(monkeypatch):
    _assert_streams_need_no_fib_mod(monkeypatch, 1e-3)


def test_exact_growth_without_delta_needs_no_fib_mod(monkeypatch):
    _assert_streams_need_no_fib_mod(monkeypatch, 0.0)


# --- exact backend: any query order gives the ascending values, each by one
# walk at delta = 0 and from the lists grown from the streams otherwise ------

QUERIES = ("angle", "cumulative_plus", "cumulative_minus")
LOWEST = {"angle": 1, "cumulative_plus": 0, "cumulative_minus": 0}


def ascending_values(config, kind, top):
    """Values of one query kind at every index up to ``top``, each read in
    ascending order from a fresh sequence."""
    seq = AngleSequence(config)
    query = getattr(seq, kind)
    return {i: query(i) for i in range(LOWEST[kind], top + 1)}


@settings(max_examples=60, deadline=None)
@given(
    pq=st.sampled_from([(2, 5), (1, 3), (7, 13), (355, 113), (3, 1), (1, 999983)]),
    delta=st.sampled_from([0.0, 1e-3, 1e-8]),
    moves=st.lists(
        st.tuples(
            st.sampled_from(QUERIES),
            # small forward steps, and jumps backward or far ahead
            st.one_of(st.integers(min_value=0, max_value=3),
                      st.integers(min_value=-400, max_value=400)),
        ),
        min_size=1, max_size=80,
    ),
)
def test_exact_queries_in_any_order_match_ascending_reads(pq, delta, moves):
    # every value must equal, bit for bit, what a fresh sequence returns
    # when it is read in ascending order
    config = ScheduleConfig.exact_pi(*pq, delta=delta)
    queries, index = [], 0
    for kind, move in moves:
        index = max(index + move, LOWEST[kind])
        queries.append((kind, index))
    reference = {
        kind: ascending_values(config, kind, max(i for k, i in queries if k == kind))
        for kind in {kind for kind, _ in queries}
    }
    seq = AngleSequence(config)
    for kind, i in queries:
        assert getattr(seq, kind)(i) == reference[kind][i], (kind, i)


# --- float backend: any query order gives the eager recurrence's values ------

#: indices on both sides of 256 and past 512, read in any order: a list
#: grows by one entry or by hundreds
EDGES = [255, 256, 257, 513]


@settings(max_examples=100, deadline=None)
@given(
    mode=st.sampled_from(list(ScheduleMode)),
    alpha1=st.sampled_from([0.3, 1.2566370616, 2 * math.pi / 5, 5.9, 8.0, -0.7]),
    delta=st.sampled_from([0.0, 1e-3]),
    moves=st.lists(
        st.tuples(
            st.sampled_from(QUERIES),
            st.one_of(st.sampled_from(EDGES), st.integers(min_value=0, max_value=1100)),
        ),
        min_size=1, max_size=40,
    ),
)
@example(mode=ScheduleMode.FIBONACCI, alpha1=0.3, delta=1e-3,
         moves=[("cumulative_plus", 257), ("angle", 256), ("cumulative_minus", 1027),
                ("angle", 513), ("angle", 255)])
@example(mode=ScheduleMode.ARITHMETIC, alpha1=0.3, delta=0.0,
         moves=[("cumulative_minus", 513), ("angle", 1), ("cumulative_plus", 256)])
@example(mode=ScheduleMode.FIXED, alpha1=8.0, delta=1e-3,
         moves=[("angle", 2), ("cumulative_minus", 600), ("angle", 257)])
def test_float_queries_in_any_order_match_eager_recurrence(mode, alpha1, delta, moves):
    # every value must equal, bit for bit, the one-pass reference recurrence,
    # in whatever order the reads grow the lists
    config = ScheduleConfig(mode=mode, alpha1=alpha1, delta=delta)
    queries = [(kind, max(i, LOWEST[kind])) for kind, i in moves]
    reference = EagerFloatSchedule(config, max(i for _, i in queries) + 1)
    seq = AngleSequence(config)
    for kind, i in queries:
        assert getattr(seq, kind)(i).hex() == getattr(reference, kind)(i).hex(), (kind, i)


# --- streams: the point reads bit for bit, and no cache growth -----------------

#: exact (p, q) pairs, at the largest allowed denominator too, and float alpha1
STREAM_ALPHA1 = [(2**1020 - 1, 2**1020), (1, 999983), (-3, 7), (0, 1), (123, 257),
                 1.2566370616, 0.3, 8.0, -0.7]


def stream_config(alpha1, mode, delta):
    if isinstance(alpha1, tuple):
        return ScheduleConfig.exact_pi(*alpha1, mode=mode, delta=delta)
    return ScheduleConfig(mode=mode, alpha1=alpha1, delta=delta)


def hexed(values):
    return [tuple(v.hex() for v in value) if isinstance(value, tuple) else value.hex()
            for value in values]


@settings(max_examples=60, deadline=None)
@given(
    alpha1=st.sampled_from(STREAM_ALPHA1),
    mode=st.sampled_from(list(ScheduleMode)),
    delta=st.sampled_from([0.0, 1e-3, -1e-3, 1e-8, 7.0, 1e12]),
    length=st.sampled_from([1, 2, 3] + EDGES),
    reads=st.lists(st.tuples(st.sampled_from(QUERIES), st.integers(min_value=0, max_value=600)),
                   max_size=6),
)
@example(alpha1=(2**1020 - 1, 2**1020), mode=ScheduleMode.FIBONACCI, delta=7.0, length=513,
         reads=[("angle", 600), ("cumulative_minus", 0), ("cumulative_plus", 257)])
@example(alpha1=1.2566370616, mode=ScheduleMode.FIBONACCI, delta=1e-3, length=257,
         reads=[("cumulative_plus", 256), ("angle", 513)])
def test_streams_equal_the_point_reads_bit_for_bit(alpha1, mode, delta, length, reads):
    # angles() and cumulatives() against the point reads of a second
    # instance, by .hex(); point reads on the first instance between the
    # streams' draws change neither the streams nor the reads
    config = stream_config(alpha1, mode, delta)
    seq, reference = AngleSequence(config), AngleSequence(config)
    angles, cumulatives = seq.angles(), seq.cumulatives()
    drawn = []
    for kind, i in [*reads, *reads]:  # half before the first draw, half between draws
        i = max(i, LOWEST[kind])
        assert getattr(seq, kind)(i).hex() == getattr(reference, kind)(i).hex(), (kind, i)
        drawn.append((next(angles), next(cumulatives)))
    drawn += zip(islice(angles, length), islice(cumulatives, length))
    top = len(drawn)
    assert hexed(a for a, _ in drawn) == hexed(reference.angle(m) for m in range(1, top + 1))
    assert hexed(c for _, c in drawn) == hexed(
        (reference.cumulative_plus(m), reference.cumulative_minus(2 * m)) for m in range(1, top + 1))


def cache_sizes(seq):
    """Lengths of the point-read caches, the lists an instance holds."""
    return {name: len(value) for name, value in vars(seq).items() if isinstance(value, list)}


@pytest.mark.parametrize("config", [
    ScheduleConfig.exact_pi(123, 257, delta=1e-3),
    ScheduleConfig.exact_pi(123, 257),
    ScheduleConfig(ScheduleMode.FIBONACCI, 1.2566370616, delta=1e-3),
    ScheduleConfig(ScheduleMode.ARITHMETIC, 0.3),
], ids=["exact-delta", "exact", "float", "arithmetic"])
def test_streams_grow_no_point_read_cache(config):
    seq = AngleSequence(config)
    sizes = cache_sizes(seq)
    assert sizes
    deque(islice(seq.angles(), 10**5), maxlen=0)
    deque(islice(seq.cumulatives(), 10**4), maxlen=0)
    assert cache_sizes(seq) == sizes
    seq.angle(1000)
    seq.cumulative_plus(1000)
    # the check is live: point reads grow the lists, except the exact
    # backend's at delta = 0, which walk
    assert (cache_sizes(seq) != sizes) == bool(config.delta or config.exact is None)


@pytest.mark.parametrize("delta", [1e-3, 0.37, 1e-8])
@pytest.mark.parametrize("alpha1", [(2, 5), 2 * math.pi / 5], ids=["exact", "float"])
def test_cumulative_minus_at_zero_is_the_seed_on_both_backends(alpha1, delta):
    # index 0 holds the seed a_0 on every backend
    seq = AngleSequence(stream_config(alpha1, ScheduleMode.FIBONACCI, delta))
    assert seq.cumulative_minus(0).hex() == wrap_angle(delta).hex()
    assert seq.cumulative_plus(0).hex() == wrap_angle(delta).hex()
