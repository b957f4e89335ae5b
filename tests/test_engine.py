import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import reference
from reference import PAULI, SIGMA1, SIGMA2, SIGMA3, lift, norm_sq, pauli_bloch, run

from qturing.engine import (
    Subsystem,
    TapeState,
    apply_head_rotation,
    apply_qcnot,
    bloch_vector,
    distance_sq,
    head_bloch,
    head_rows,
    init_state,
    iterate,
    overlap_sq,
    pair_metrics,
    reduce_spin,
    tape_bloch,
)
from qturing.schedule import AngleSequence, ScheduleConfig, ScheduleMode

I2 = np.eye(2, dtype=complex)
S1, S2, S3 = (np.array(sigma) for sigma in (SIGMA1, SIGMA2, SIGMA3))


def fib_seq(alpha1, delta=0.0):
    return AngleSequence(ScheduleConfig(ScheduleMode.FIBONACCI, alpha1, delta=delta))


def random_states(draw_reals):
    """Build a normalized engine state (x0, x1, y2, y3) from 4 reals."""
    vec = np.array(draw_reals)
    return tuple(float(x) for x in vec / np.linalg.norm(vec))


state_strategy = st.builds(
    random_states,
    st.lists(
        st.floats(min_value=-1.0, max_value=1.0), min_size=4, max_size=4
    ).filter(lambda xs: sum(x * x for x in xs) > 1e-6),
)

angle_strategy = st.floats(min_value=-10.0, max_value=10.0)


# --- Pauli conventions -------------------------------------------------------

def test_pauli_algebra():
    np.testing.assert_allclose(S1 @ S2, 1j * S3, atol=1e-15)
    np.testing.assert_allclose(S2 @ S3, 1j * S1, atol=1e-15)
    np.testing.assert_allclose(S3 @ S1, 1j * S2, atol=1e-15)


def test_pauli_hermitian_involutions():
    for sigma in map(np.array, PAULI):
        np.testing.assert_allclose(sigma, sigma.conj().T, atol=1e-15)
        np.testing.assert_allclose(sigma @ sigma, I2, atol=1e-15)


def test_sigma3_eigenbasis_order():
    # sigma3 |p> = p |p> with index 0 <-> |-1>
    np.testing.assert_allclose(S3 @ np.array([1.0, 0.0]), [-1.0, 0.0])
    np.testing.assert_allclose(S3 @ np.array([0.0, 1.0]), [0.0, 1.0])


# --- initial states ----------------------------------------------------------

def test_init_state_ground():
    np.testing.assert_allclose(init_state(0.0, TapeState.MINUS_ONE), [1, 0, 0, 0])


def test_init_state_pi_rotation():
    # cos(pi/2) - i sin(pi/2) sigma1 sends |-1> to -i |1>
    np.testing.assert_allclose(
        lift(init_state(math.pi, TapeState.MINUS_ONE)), [0, 0, -1j, 0], atol=1e-16
    )


def test_init_state_plus_tape():
    s = 1 / math.sqrt(2)
    np.testing.assert_allclose(init_state(0.0, TapeState.PLUS), [s, s, 0, 0])


def test_init_state_accepts_strings():
    np.testing.assert_allclose(init_state(0.0, "plus1"), [0, 1, 0, 0])


@settings(max_examples=50, deadline=None)
@given(phi=angle_strategy, tape=st.sampled_from(list(TapeState)))
def test_init_state_normalized(phi, tape):
    assert norm_sq(init_state(phi, tape)) == pytest.approx(1.0, abs=1e-14)


def test_init_state_rejects_nonfinite():
    with pytest.raises(ValueError):
        init_state(math.nan)


# --- gates --------------------------------------------------------------------

def test_rotation_identity():
    state = init_state(0.7, TapeState.PLUS)
    np.testing.assert_allclose(apply_head_rotation(state, 0.0), state, atol=1e-16)


def test_rotation_quarter_turn_bloch():
    state = apply_head_rotation(init_state(0.0), math.pi / 2)
    b = bloch_vector(reduce_spin(state, Subsystem.HEAD))
    np.testing.assert_allclose(b, (0.0, 1.0, 0.0), atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(state=state_strategy, a=angle_strategy, b=angle_strategy)
def test_rotation_one_parameter_group(state, a, b):
    lhs = apply_head_rotation(apply_head_rotation(state, a), b)
    rhs = apply_head_rotation(state, a + b)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(state=state_strategy, a=angle_strategy)
def test_rotation_preserves_norm(state, a):
    assert norm_sq(apply_head_rotation(state, a)) == pytest.approx(1.0, abs=1e-12)


def test_qcnot_flips_tape_under_head_minus_one():
    np.testing.assert_allclose(apply_qcnot(init_state(0.0)), [0, 1, 0, 0])


@settings(max_examples=50, deadline=None)
@given(phi=angle_strategy)
def test_qcnot_leaves_plus_tape_invariant(phi):
    state = init_state(phi, TapeState.PLUS)
    np.testing.assert_allclose(apply_qcnot(state), state, atol=1e-16)


@settings(max_examples=50, deadline=None)
@given(phi=angle_strategy)
def test_qcnot_acts_as_sigma3_on_minus_tape(phi):
    state = init_state(phi, TapeState.MINUS)
    before = bloch_vector(reduce_spin(state, Subsystem.HEAD))
    after = bloch_vector(reduce_spin(apply_qcnot(state), Subsystem.HEAD))
    np.testing.assert_allclose(
        after, (-before[0], -before[1], before[2]), atol=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(state=state_strategy)
def test_qcnot_involution_is_exact(state):
    twice = apply_qcnot(apply_qcnot(state))
    assert np.array_equal(twice, state)  # amplitude permutation: bit-exact


# --- run ------------------------------------------------------------------------

def test_run_zero_steps():
    state = init_state(0.4, TapeState.MINUS)
    np.testing.assert_allclose(run(fib_seq(0.3), state, 0), state)


def test_run_two_steps_maximally_entangling():
    # quarter-turn then conditional flip leaves the head fully mixed
    final = run(fib_seq(math.pi / 2), init_state(0.0), 2)
    b = bloch_vector(reduce_spin(final, Subsystem.HEAD))
    np.testing.assert_allclose(b, (0.0, 0.0, 0.0), atol=1e-15)


def test_run_zero_angle_fixed_mode_alternates_tape():
    seq = AngleSequence(ScheduleConfig(ScheduleMode.FIXED, 0.0))
    expected = {1: -1.0, 2: 1.0, 3: 1.0, 4: -1.0, 5: -1.0, 6: 1.0}
    for n, state in iterate(seq, init_state(0.0), 6):
        tape = bloch_vector(reduce_spin(state, Subsystem.TAPE))
        assert tape[2] == pytest.approx(expected[n], abs=1e-15)
        head = bloch_vector(reduce_spin(state, Subsystem.HEAD))
        np.testing.assert_allclose(head, (0.0, 0.0, -1.0), atol=1e-15)


def test_run_rejects_negative_steps():
    with pytest.raises(ValueError):
        run(fib_seq(0.3), init_state(0.0), -1)


@pytest.mark.parametrize("n_steps", [0, 1, 2, 3, 2001])
@pytest.mark.parametrize("config", [
    ScheduleConfig.exact_pi(2, 5, delta=1e-3),
    ScheduleConfig(ScheduleMode.ARITHMETIC, 0.3, delta=1e-3),
], ids=["exact", "float"])
def test_iterate_matches_gate_by_gate(config, n_steps):
    # one yield per gate, n = 1..n_steps, each state bit-identical to the
    # gates applied one at a time
    initial = init_state(1e-3, TapeState.MINUS_ONE)  # entangled by the first QCNOT
    got = list(iterate(AngleSequence(config), initial, n_steps))
    assert [n for n, _ in got] == list(range(1, n_steps + 1))
    seq, state = AngleSequence(config), initial
    for n, gated in got:
        state = apply_head_rotation(state, seq.angle((n + 1) // 2)) if n % 2 else apply_qcnot(state)
        assert repr(gated) == repr(state), n


# --- reductions and Bloch vectors ------------------------------------------------

def test_reduce_product_state_is_pure():
    rho = reduce_spin(init_state(0.0), Subsystem.HEAD)
    np.testing.assert_allclose(rho, [[1, 0], [0, 0]], atol=1e-16)


def test_reduce_bell_like_state_is_maximally_mixed():
    # amplitudes (0, 1, -i, 0) / sqrt(2)
    state = (0.0, 1.0 / math.sqrt(2), -1.0 / math.sqrt(2), 0.0)
    rho = reduce_spin(state, Subsystem.HEAD)
    np.testing.assert_allclose(rho, I2 / 2, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(state=state_strategy)
def test_reduce_traces_are_one(state):
    for spin in (Subsystem.HEAD, Subsystem.TAPE):
        assert reduce_spin(state, spin.value) == reduce_spin(state, spin)
        rho = np.array(reduce_spin(state, spin))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        evals = np.linalg.eigvalsh(rho)
        assert evals.min() > -1e-10 and evals.max() < 1.0 + 1e-10


def test_bloch_of_ground_state():
    assert bloch_vector(np.diag([1.0, 0.0]).astype(complex)) == (0, 0, -1)


def test_bloch_of_maximally_mixed():
    assert bloch_vector(I2 / 2) == (0, 0, 0)


def test_bloch_of_plus_projector():
    rho = np.full((2, 2), 0.5, dtype=complex)
    np.testing.assert_allclose(bloch_vector(rho), (1.0, 0.0, 0.0), atol=1e-16)


def test_bloch_rejects_corrupted_density_matrix():
    rho = np.array([[0.5, 0.5j], [0.5j, 0.5]])  # not Hermitian
    with pytest.raises(ValueError):
        bloch_vector(rho)


def test_bloch_rejects_an_imaginary_trace_of_one_micro():
    # Im Tr(rho sigma1) = 1e-6 is far above rounding noise: rho is not Hermitian
    rho = ((0.5 + 0j, 1e-6j), (0j, 0.5 + 0j))
    with pytest.raises(ValueError, match=r"^density matrix is corrupted: Im Tr\(rho sigma\) = 1e-06"):
        bloch_vector(rho)


@settings(max_examples=50, deadline=None)
@given(state=state_strategy)
def test_bloch_length_bounded(state):
    for spin in ("head", "tape"):
        s1, s2, s3 = bloch_vector(reduce_spin(state, spin))
        assert s1 * s1 + s2 * s2 + s3 * s3 <= 1.0 + 1e-12


# --- metrics ----------------------------------------------------------------------

def test_distance_identical_states():
    rho = reduce_spin(init_state(0.3), Subsystem.HEAD)
    assert distance_sq(rho, rho) == 0.0


def test_distance_orthogonal_pure_states():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert distance_sq(a, b) == pytest.approx(2.0, abs=1e-15)


def test_distance_ground_vs_plus():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.full((2, 2), 0.5, dtype=complex)
    assert distance_sq(a, b) == pytest.approx(1.0, abs=1e-15)


def test_distance_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        distance_sq(np.eye(2, dtype=complex) / 2, np.eye(4, dtype=complex) / 4)


@settings(max_examples=50, deadline=None)
@given(sa=state_strategy, sb=state_strategy)
def test_distance_symmetric_and_bounded(sa, sb):
    for spin in ("head", "tape"):
        ra, rb = reduce_spin(sa, spin), reduce_spin(sb, spin)
        d = distance_sq(ra, rb)
        assert 0.0 <= d <= 2.0 + 1e-12
        assert d == pytest.approx(distance_sq(rb, ra), abs=1e-15)


def test_overlap_identical_and_orthogonal():
    psi = init_state(0.0)
    assert overlap_sq(psi, psi) == pytest.approx(1.0, abs=1e-15)
    assert overlap_sq(psi, init_state(0.0, TapeState.PLUS_ONE)) == 0.0


def test_overlap_small_rotation():
    delta = 0.001
    ov = overlap_sq(init_state(0.0), init_state(delta))
    assert ov == pytest.approx(math.cos(delta / 2) ** 2, abs=1e-15)


@settings(max_examples=50, deadline=None)
@given(sa=state_strategy, sb=state_strategy)
def test_network_distance_equals_two_one_minus_overlap(sa, sb):
    # for pure states, Tr[(P_a - P_b)^2] = 2 (1 - |<a|b>|^2)
    va, vb = np.array(lift(sa)), np.array(lift(sb))
    pa, pb = np.outer(va, va.conj()), np.outer(vb, vb.conj())
    assert distance_sq(pa, pb) == pytest.approx(
        2.0 * (1.0 - overlap_sq(sa, sb)), abs=1e-10
    )


# --- long-run invariants -------------------------------------------------------------

def test_unitarity_over_long_run():
    seq = fib_seq(0.3, delta=0.001)
    for n, state in iterate(seq, init_state(0.001), 10_000):
        pass
    assert norm_sq(state) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("phi0", [0.0, 0.7])
@pytest.mark.parametrize("tape", [TapeState.PLUS, TapeState.MINUS])
def test_primitive_states_stay_pure_on_the_circle(phi0, tape):
    seq = fib_seq(0.3)
    for n, state in iterate(seq, init_state(phi0, tape), 500):
        s1, s2, s3 = bloch_vector(reduce_spin(state, Subsystem.HEAD))
        assert abs(s1 * s1 + s2 * s2 + s3 * s3 - 1.0) < 1e-10
        assert abs(s1) < 1e-10


def test_in_plane_confinement_from_ground_product_state():
    seq = fib_seq(1.1)
    for n, state in iterate(seq, init_state(0.0), 500):
        head = bloch_vector(reduce_spin(state, Subsystem.HEAD))
        tape = bloch_vector(reduce_spin(state, Subsystem.TAPE))
        assert abs(head[0]) < 1e-10
        assert abs(tape[0]) < 1e-10 and abs(tape[1]) < 1e-10


# --- brute-force matrix oracle --------------------------------------------------------

def _rotation_matrix(alpha):
    return math.cos(alpha / 2) * I2 - 1j * math.sin(alpha / 2) * S1


def _qcnot_matrix():
    p_minus = np.diag([1.0, 0.0]).astype(complex)
    p_plus = np.diag([0.0, 1.0]).astype(complex)
    return np.kron(p_minus, S1) + np.kron(p_plus, I2)


@pytest.mark.parametrize("alpha1,delta", [(0.3, 0.0), (2 * math.pi / 5, 0.0), (1.1, 0.01)])
def test_gate_sequence_matches_matrix_products(alpha1, delta):
    seq = fib_seq(alpha1, delta=delta)
    initial = init_state(delta)
    unitary = np.eye(4, dtype=complex)
    for n in range(1, 13):
        if n % 2 == 1:
            gate = np.kron(_rotation_matrix(seq.angle((n + 1) // 2)), I2)
        else:
            gate = _qcnot_matrix()
        unitary = gate @ unitary
        np.testing.assert_allclose(
            lift(run(fib_seq(alpha1, delta=delta), initial, n)),
            unitary @ np.array(lift(initial)),
            atol=1e-12,
        )


def test_qcnot_matrix_is_self_inverse():
    u = _qcnot_matrix()
    np.testing.assert_allclose(u @ u, np.eye(4), atol=1e-15)


# --- pair metrics from amplitudes ------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(sa=state_strategy, sb=state_strategy)
def test_pair_metrics_match_density_matrix_route(sa, sb):
    ov_ref = overlap_sq(sa, sb)
    for spin in (Subsystem.HEAD, Subsystem.TAPE, "head", "tape"):
        d2, ov = pair_metrics(sa, sb, spin)
        ref = distance_sq(reduce_spin(sa, spin), reduce_spin(sb, spin))
        # both routes round within ~3 ulp of the exact value, so they can
        # differ by 5 ulp (1.1e-15) where d2 lies in (1, 2]
        assert d2 == pytest.approx(ref, rel=1e-15, abs=1e-15)
        assert abs(ov - ov_ref) <= 1e-15
    d2, ov = pair_metrics(sa, sb, "network")
    assert abs(ov - ov_ref) <= 1e-15
    assert d2 == 2.0 * (1.0 - ov)


def _gamma(n):
    """Higham's gamma_n = n u / (1 - n u) for doubles, u = 2**-53, exactly."""
    nu = Fraction(n, 2**53)
    return nu / (1 - nu)


#: relative error bound of ov = |z|^2 with z = <a|a>, derived for the complex
#: formula Re(z)^2 + Im(z)^2: Im(z) is exactly 0.0, Re(z) is a sum of 8
#: products within gamma_8 of the exact sum, and squaring and adding Im(z)^2
#: round within gamma_2.  pair_metrics' real z = sum of 4 squares and ov = z * z
#: round within gamma_4 and gamma_1, inside the same bound
_OV_REL_BOUND = (1 + _gamma(8)) ** 2 * (1 + _gamma(2)) - 1


@settings(max_examples=100, deadline=None)
@given(state=state_strategy)
@example(state=random_states([1e-6, 1e-6, 0.7460571454963776, 1e-6]))
@example(state=(0.3723327249288464, 0.49479426584840436, 0.4036195876507464,
                0.29623636377956114))
def test_pair_metrics_vanish_for_identical_states(state):
    for spin in (Subsystem.HEAD, Subsystem.TAPE, "head", "tape"):
        assert pair_metrics(state, state, spin)[0] == 0.0
    d2, ov = pair_metrics(state, state, "network")
    # the network distance is 2 (1 - |<a|a>|^2): zero up to the rounding of the
    # norm, so ov is held to the exact |<a|a>|^2 of the drawn, already rounded
    # state, not to 1.0, within the error bound of the formula that sums it
    exact = sum(Fraction(x) ** 2 for x in state) ** 2
    assert abs(Fraction(ov) - exact) <= _OV_REL_BOUND * exact
    assert d2 == 2.0 * (1.0 - ov)


def test_one_schedule_keeps_network_overlap():
    # two initial states driven by the same gate sequence: the network
    # overlap is conserved, whatever the states
    seq = AngleSequence(ScheduleConfig.exact_pi(2, 5))
    a, b = init_state(0.0), init_state(0.001)
    ov0 = pair_metrics(a, b, "network")[1]
    for (_, sa), (_, sb) in zip(iterate(seq, a, 200), iterate(seq, b, 200)):
        assert abs(pair_metrics(sa, sb, "network")[1] - ov0) < 1e-10


def test_pair_metrics_tape_is_not_head():
    # tape flipped, head untouched: only the tape and network distances move
    a = init_state(0.3)
    b = init_state(0.3, TapeState.PLUS_ONE)
    for head, tape in ((Subsystem.HEAD, Subsystem.TAPE), ("head", "tape")):
        assert pair_metrics(a, b, head)[0] == pytest.approx(0.0, abs=1e-15)
        assert pair_metrics(a, b, tape)[0] == pytest.approx(2.0, abs=1e-15)
    assert pair_metrics(a, b, "network") == pytest.approx((2.0, 0.0), abs=1e-15)


def test_pair_metrics_rejects_unknown_spin():
    # None meant "network" once; every subsystem is now named
    for subsystem in ("arm", None):
        with pytest.raises(ValueError, match="'head', 'tape' or 'network'"):
            pair_metrics(init_state(0.0), init_state(0.1), subsystem)


# --- Bloch vectors from amplitudes ----------------------------------------------

#: state coordinates with exact and signed zeros among them
part_strategy = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5]),
    st.floats(min_value=-1.0, max_value=1.0),
)
raw_state_strategy = st.tuples(*[part_strategy] * 4)


@settings(max_examples=300, deadline=None)
@given(state=st.one_of(state_strategy, raw_state_strategy))
def test_spin_bloch_matches_density_matrix_route(state):
    # head_bloch and tape_bloch give the same floats as plain tuples, signed
    # zeros included: compared by repr, not by value; the Pauli-matrix
    # products give the same values
    for spin, plain in ((Subsystem.HEAD, head_bloch), (Subsystem.TAPE, tape_bloch),
                        ("head", head_bloch), ("tape", tape_bloch)):
        rho = reduce_spin(state, spin)
        assert type(plain(state)) is tuple
        assert type(bloch_vector(rho)) is tuple
        assert repr(plain(state)) == repr(bloch_vector(rho))
        assert plain(state) == pauli_bloch(rho)


def test_negated_sigma2_separates_the_bloch_routes(monkeypatch):
    # oracle-check reads head_bloch, which never reads PAULI: a sign error in
    # sigma2 must still make it disagree with the Pauli products wherever s2 != 0
    state = init_state(0.3)
    s1, s2, s3 = PAULI
    monkeypatch.setattr(reference, "PAULI", (s1, tuple(tuple(-x for x in row) for row in s2), s3))
    a1, a2, a3 = head_bloch(state)
    assert a2 == pytest.approx(math.sin(0.3), abs=1e-15)
    for spin in (Subsystem.HEAD, "head"):
        assert pauli_bloch(reduce_spin(state, spin)) == (a1, -a2, a3)


def test_spin_bloch_of_zero_amplitudes_has_no_negative_zero():
    state = (-0.0, 0.0, -0.0, -0.0)
    assert repr(head_bloch(state)) == repr(tape_bloch(state)) == "(0.0, 0.0, 0.0)"
    for spin in (Subsystem.HEAD, Subsystem.TAPE, "head", "tape"):
        assert repr(bloch_vector(reduce_spin(state, spin))) == "(0.0, 0.0, 0.0)"


def test_spin_bloch_rejects_unknown_spin():
    # the network is a subsystem but not a spin: one error line, naming both spins
    for spin in (Subsystem.NETWORK, "network", "arm", None):
        with pytest.raises(ValueError, match="^spin must be 'head' or 'tape', got .+$"):
            reduce_spin(init_state(0.0), spin)


def test_gates_return_real_4_tuples():
    state = init_state(0.4, TapeState.PLUS)
    gated = (apply_head_rotation(state, 1.3), apply_head_rotation(state, 0.0), apply_qcnot(state))
    for out in (state, *gated):
        assert isinstance(out, tuple)
        assert len(out) == 4
        assert all(type(x) is float for x in out)


# --- the real engine against the complex reference ------------------------------

schedule_strategy = st.one_of(
    st.builds(lambda pq, mode, delta: ScheduleConfig.exact_pi(*pq, mode=mode, delta=delta),
              st.sampled_from([(2, 5), (3, 7), (-2, 5), (123, 257), (0, 1)]),
              st.sampled_from(list(ScheduleMode)),
              st.floats(min_value=-0.5, max_value=0.5)),
    st.builds(ScheduleConfig,
              st.sampled_from(list(ScheduleMode)),
              st.floats(min_value=-10.0, max_value=10.0),
              st.floats(min_value=-0.5, max_value=0.5)),
)


@settings(max_examples=100, deadline=None)
@given(config=schedule_strategy, tape=st.sampled_from(list(TapeState)),
       head_angle=st.floats(allow_nan=False, allow_infinity=False),
       steps=st.integers(min_value=0, max_value=300))
@example(config=ScheduleConfig.exact_pi(2, 5, delta=-0.5), tape=TapeState.MINUS,
         head_angle=1e300, steps=401)
def test_complex_reference_stays_in_the_rebit_subspace(config, tape, head_angle, steps):
    # c0 and c1 exactly real, c2 and c3 exactly imaginary after every gate: the
    # four floats of the engine lose nothing, and head s1 and tape s2, which the
    # engine sets to 0.0 by construction, are 0 on the complex route as well
    state = reference.init_state(head_angle, tape)
    for n, state in [(0, state), *reference.iterate(AngleSequence(config), state, steps)]:
        c0, c1, c2, c3 = state
        assert (c0.imag, c1.imag, c2.real, c3.real) == (0.0, 0.0, 0.0, 0.0), n
        assert reference.spin_bloch(state, "head")[0] == 0.0, n
        assert reference.spin_bloch(state, "tape")[1] == 0.0, n


def _bits(state):
    """Hex digits of each real and imaginary part; a zero of either sign is '0'."""
    return [x.hex() if x else "0" for c in state for x in (c.real, c.imag)]


def _schedule(alpha1, mode, delta):
    if isinstance(alpha1, tuple):
        return ScheduleConfig.exact_pi(*alpha1, mode=mode, delta=delta)
    return ScheduleConfig(mode, alpha1, delta=delta)


@settings(max_examples=50, deadline=None)
@given(alpha1=st.sampled_from([(2, 5), (3, 7), (-2, 5), (123, 257), 1.2566370616, 0.3, 5.9]),
       mode=st.sampled_from(list(ScheduleMode)),
       delta=st.sampled_from([0.0, 1e-3, -1e-3]),
       tape=st.sampled_from(list(TapeState)),
       head_angle=st.sampled_from([0.0, 1e-3, -1e-3, 0.3, 0.7, -2.5, math.pi]),
       steps=st.sampled_from([1, 2, 61, 300, 601]))
def test_real_engine_is_the_complex_reference_bit_for_bit(alpha1, mode, delta, tape, head_angle,
                                                          steps):
    # twin A from |-1> (x) |tape> under the schedule at delta = 0, twin B from
    # the head rotated by head_angle under the schedule at delta
    seqs = [AngleSequence(_schedule(alpha1, mode, d)) for d in (0.0, delta, 0.0, delta)]
    run_a = iterate(seqs[0], init_state(0.0, tape), steps)
    run_b = iterate(seqs[1], init_state(head_angle, tape), steps)
    ref_a = reference.iterate(seqs[2], reference.init_state(0.0, tape), steps)
    ref_b = reference.iterate(seqs[3], reference.init_state(head_angle, tape), steps)
    for (n, a), (_, b), (_, ca), (_, cb) in zip(run_a, run_b, ref_a, ref_b, strict=True):
        assert _bits(lift(a)) == _bits(ca), n
        assert _bits(lift(b)) == _bits(cb), n
        for spin, plain in (("head", head_bloch), ("tape", tape_bloch)):
            for state, complex_state in ((a, ca), (b, cb)):
                got = plain(state)
                assert repr(got) == repr(reference.spin_bloch(complex_state, spin)), n
        for subsystem in ("head", "tape", "network"):
            got = pair_metrics(a, b, subsystem)
            assert repr(got) == repr(reference.pair_metrics(ca, cb, subsystem)), n


@settings(max_examples=200, deadline=None)
@given(alpha1=st.one_of(st.tuples(st.integers(-40, 40), st.integers(1, 300)),  # exact (p/q)*pi
                        st.floats(min_value=-7.0, max_value=7.0)),
       mode=st.sampled_from(list(ScheduleMode)),
       tape=st.sampled_from(list(TapeState)),
       head_angle=st.sampled_from([0.0, -0.0, 0.3, -1.1, math.pi / 2, math.pi, 2.5]),
       steps=st.sampled_from([1, 2, 3, 61, 2001]),
       record_every=st.sampled_from([1, 2, 3, 7, 10]))
# s2 = -2 (+0.0) = -0.0 on every row until the + 0.0 turns it into 0.0
@example(alpha1=(0, 1), mode=ScheduleMode.FIXED, tape=TapeState.MINUS_ONE, head_angle=-0.0,
         steps=3, record_every=1)
# the one row is the last step, which the record filter alone would skip
@example(alpha1=(2, 5), mode=ScheduleMode.FIBONACCI, tape=TapeState.PLUS, head_angle=0.3,
         steps=2, record_every=3)
def test_head_rows_are_head_bloch_over_iterate_bit_for_bit(alpha1, mode, tape, head_angle,
                                                           steps, record_every):
    # the kernel's rows are head_bloch of iterate's states under the same
    # filter, with the purity summed from all three components
    seq = AngleSequence(_schedule(alpha1, mode, 0.0))
    expected = []
    for n, state in iterate(seq, init_state(head_angle, tape), steps):
        if n % record_every == 0 or n == steps:
            s1, s2, s3 = head_bloch(state)
            expected.append((n, *(x.hex() for x in (s1, s2, s3, s1 * s1 + s2 * s2 + s3 * s3))))
    got = [(n, *(x.hex() for x in row))
           for n, *row in head_rows(seq, init_state(head_angle, tape), steps, record_every)]
    assert got == expected
