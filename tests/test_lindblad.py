"""Chord damping under hermitian couplings: rates, the decoherence
distance functional, continuous and Trotter-split evolution."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad_vec

from chordwigner import (
    HamiltonianSystem,
    find_period,
    hamiltonian_flow,
    make_system,
    polynomial_system,
)
from chordwigner.lindblad import (
    LindbladChannel,
    NonHermitianError,
    decoherence_distance,
    evolution_trace,
    evolve_contribution,
    hermitian_decay_rate,
    lindblad_rate,
    make_channel,
    momentum_channel,
    polynomial_channel,
    position_channel,
    shell_d2,
    trotter_evolve,
    write_trace,
)
from chordwigner.flow import NumericalError, _tip_flow
from chordwigner.shells import Chord, build_shell, chord_amplitude, find_chords
from chordwigner.wigner import eval_state, pure_state

harmonic = make_system("harmonic")
quartic = make_system("quartic")
frozen = polynomial_system({}, name="zero")  # H = 0: tips never move


def bare_chord(x_plus, x_minus, action=0.0):
    return Chord(x_plus=np.asarray(x_plus, float),
                 x_minus=np.asarray(x_minus, float),
                 theta_plus=0.0, theta_minus=0.0, action=action,
                 wedge=1.0, tau=0.0, caustic=False)


REF = bare_chord((0.8660254, 0.5), (-0.8660254, 0.5), action=0.6142)


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def test_rate_reduces_to_hermitian_form():
    rng = np.random.default_rng(5)
    shell = build_shell(harmonic, 0.5)
    for _ in range(12):
        x = rng.uniform(-0.5, 0.5, 2)
        chords = [c for c in find_chords(shell, x) if not c.caustic]
        if not chords:
            continue
        ch = chords[0]
        coeffs = {(1, 0): rng.normal(), (0, 1): rng.normal(),
                  (0, 2): rng.normal()}
        chan = polynomial_channel(coeffs)
        got = lindblad_rate(ch, [chan], hbar=0.05, amplitude=1.0)
        want = -np.cos(ch.action / 0.05 - np.pi / 4) * hermitian_decay_rate(
            ch, [chan], 0.05)
        assert_allclose(got, want, atol=1e-12 * max(1.0, abs(want)))


def test_rate_constant_channel_zero():
    const_real = polynomial_channel({(0, 0): 2.5})
    const_complex = polynomial_channel({(0, 0): 1.0 + 2.0j})
    assert lindblad_rate(REF, [const_real], 0.05, amplitude=1.0) == 0.0
    assert abs(lindblad_rate(REF, [const_complex], 0.05, amplitude=1.0)) < 1e-12


def test_rate_complex_ladder_channel():
    # L = (q + ip)/sqrt(2) evaluated by independent complex arithmetic
    chan = polynomial_channel({(0, 1): 1 / np.sqrt(2),
                               (1, 0): 1j / np.sqrt(2)})
    assert not chan.hermitian
    hbar = 0.05
    lp = (REF.x_plus[1] + 1j * REF.x_plus[0]) / np.sqrt(2)
    lm = (REF.x_minus[1] + 1j * REF.x_minus[0]) / np.sqrt(2)
    phase = REF.action / hbar - np.pi / 4
    want = (1 / hbar) * (
        (lp * np.conj(lm) * np.exp(1j * phase)).real
        - 0.5 * (abs(lp) ** 2 + abs(lm) ** 2) * np.cos(phase))
    got = lindblad_rate(REF, [chan], hbar, amplitude=1.0)
    assert_allclose(got, want, atol=1e-12)


def test_rate_is_damping_of_the_eval_state_term():
    # for a hermitian channel each chord's rate is -(decay rate) times
    # its term A cos(S/hbar - pi/4) in the Wigner sum eval_state forms
    hbar, x = 0.05, (0.15, 0.35)
    chan = [position_channel(0.3)]
    state = pure_state(quartic, hbar, energy=0.5)
    (chord,) = find_chords(state.shell, x)
    (term,) = eval_state(x, state).contributions
    rate = lindblad_rate(chord, chan, hbar)
    assert_allclose(rate, -hermitian_decay_rate(chord, chan, hbar)
                    * term.value, rtol=1e-12)
    assert_allclose(rate, -0.83267, atol=1e-5)  # -1.092 without the pi/4


def test_rate_default_amplitude_ignores_call_order():
    # without an explicit amplitude the rate uses chord_amplitude's, so
    # an earlier chord_amplitude call cannot change it
    shell = build_shell(harmonic, 0.5)
    chord = find_chords(shell, (0.15, 0.35))[0]
    qchan = [position_channel()]
    first = lindblad_rate(chord, qchan, 0.05)
    amp = chord_amplitude(chord, 0.05)
    assert lindblad_rate(chord, qchan, 0.05) == first
    assert first == lindblad_rate(chord, qchan, 0.05, amplitude=amp)
    assert first != lindblad_rate(chord, qchan, 0.05, amplitude=1.0)
    centre = find_chords(shell, (0.0, 0.0))[0]
    assert centre.caustic
    with pytest.raises(NumericalError):
        lindblad_rate(centre, qchan, 0.05)


def test_hermitian_decay_rate_examples():
    qchan = position_channel()
    vertical = bare_chord((0.8660254, 0.5), (-0.8660254, 0.5))
    assert hermitian_decay_rate(vertical, [qchan], 0.1) == 0.0
    spread = bare_chord((0.0, 1.0), (0.0, -1.0))
    assert_allclose(hermitian_decay_rate(spread, [qchan], 0.1), 20.0,
                    atol=1e-12)
    both = [position_channel(), momentum_channel()]
    assert_allclose(
        hermitian_decay_rate(spread, both, 0.1),
        hermitian_decay_rate(spread, [both[0]], 0.1)
        + hermitian_decay_rate(spread, [both[1]], 0.1), atol=1e-14)
    with pytest.raises(NonHermitianError):
        hermitian_decay_rate(spread, [polynomial_channel({(1, 0): 1j})], 0.1)


# ---------------------------------------------------------------------------
# decoherence distance
# ---------------------------------------------------------------------------

def test_distance_trivial_cases():
    qchan = position_channel()
    const = polynomial_channel({(0, 0): 3.0})
    rec = decoherence_distance((0.2, 0.1), (0.2, 0.1), harmonic, [qchan], 1.0)
    assert rec.d2 < 1e-24
    rec = decoherence_distance((0.5, 0.3), (-0.2, 0.1), harmonic, [const], 1.0)
    assert rec.d2 == 0.0
    rec = decoherence_distance((0.5, 0.3), (-0.2, 0.1), harmonic, [qchan], 0.0)
    assert rec.t == 0.0 and rec.d2 == 0.0


def test_distance_harmonic_closed_form():
    # rigid rotation: q+ - q- = |xi| sin t', so D^2(t) = |xi|^2 (t/2 - sin 2t / 4)
    qchan = position_channel()
    rec = decoherence_distance((0.8660254, 0.5), (-0.8660254, 0.5),
                               harmonic, [qchan], np.pi)
    assert_allclose(rec.d2, 3.0 * np.pi / 2.0, atol=1e-8)


def test_distance_additivity():
    qchan = position_channel()
    t1, t2 = 0.7, 0.9
    whole = decoherence_distance((0.8660254, 0.5), (-0.8660254, 0.5),
                                 quartic, [qchan], t1 + t2)
    first = decoherence_distance((0.8660254, 0.5), (-0.8660254, 0.5),
                                 quartic, [qchan], t1)
    second = decoherence_distance(first.x_plus, first.x_minus,
                                  quartic, [qchan], t2)
    assert_allclose(first.d2 + second.d2, whole.d2, atol=1e-8)


@pytest.mark.parametrize("t", [17.054, 17.403])
def test_distance_long_time_step_count(t):
    # a flow over nearly three periods keeps the closed form to the
    # flow's own tolerance
    xp, xm = np.array([0.5, 0.3]), np.array([-0.2, 0.1])
    rec = decoherence_distance(xp, xm, harmonic, [position_channel()], t)
    dp, dq = xp - xm
    closed = (dq**2 * (t / 2 + np.sin(2 * t) / 4)
              + dp**2 * (t / 2 - np.sin(2 * t) / 4) + dq * dp * np.sin(t) ** 2)
    assert_allclose(rec.d2, closed, rtol=1e-10)


@pytest.mark.parametrize("system", [quartic, make_system("pendulum")],
                         ids=lambda s: s.name)
def test_distance_integrates_the_dense_flow_exactly(system):
    # on each solver step |q+ - q-|^2 is a polynomial of degree 14, so
    # cutting every step in 8 before the same 8-node rule changes D^2
    # by roundoff only
    xp, xm = np.array([0.3, 0.6]), np.array([-0.4, -0.2])
    t = 4.0
    rec = decoherence_distance(xp, xm, system, [position_channel()], t)
    flow, steps = _tip_flow(system, np.stack([xp, xm]), t)
    edges = np.interp(np.arange(8 * steps.size - 7) / 8,
                      np.arange(steps.size), steps)
    x, w = np.polynomial.legendre.leggauss(8)
    half = np.diff(edges)[:, None] / 2
    tips = flow((edges[:-1, None] + half + half * x).ravel())
    dq = (tips[:, 0, 1] - tips[:, 1, 1]).reshape(half.size, 8)
    assert_allclose(rec.d2, np.sum(half * w * dq**2), rtol=1e-14)


def _shell_family(kind, c):
    """p^2/2 + V(q): V = c^2 q^2/2, c q^4/2 or -c cos q."""
    v, dv = {"oscillator": (lambda q: 0.5 * c * c * q * q,
                            lambda q: c * c * q),
             "quartic": (lambda q: 0.5 * c * q**4, lambda q: 2 * c * q**3),
             "pendulum": (lambda q: -c * np.cos(q),
                          lambda q: c * np.sin(q))}[kind]
    return HamiltonianSystem(
        kind, value=lambda x: 0.5 * x[..., 0] ** 2 + v(x[..., 1]),
        grad=lambda x: np.stack([x[..., 0], dv(x[..., 1])], axis=-1))


SHELL_CHANNELS = {"q": position_channel(), "p": momentum_channel(),
                  "q2": polynomial_channel({(0, 2): 1.0})}


def _rotation_modes(c, x, channel):
    """{m: a_m} with L = sum a_m e^{imcs} along the flow of
    H = p^2/2 + c^2 q^2/2 from x: q(s) = Re z e^{ics}, z = q - ip/c, and
    p(s) = Re w e^{ics}, w = p + icq."""
    z, w = x[1] - 1j * x[0] / c, x[0] + 1j * c * x[1]
    return {"q": {1: z / 2, -1: np.conj(z) / 2},
            "p": {1: w / 2, -1: np.conj(w) / 2},
            "q2": {2: z * z / 4, 0: abs(z) ** 2 / 2,
                   -2: np.conj(z) ** 2 / 4}}[channel]


def _rotation_d2(c, x_plus, x_minus, t, channel):
    """D_t^2 in closed form: the channel difference is sum d_m e^{imcs},
    and int_0^t e^{iks} ds = t e^{ikt/2} sinc(kt / 2 pi)."""
    mp = _rotation_modes(c, x_plus, channel)
    mm = _rotation_modes(c, x_minus, channel)
    d = {m: mp[m] - mm[m] for m in mp}
    return sum(dm * np.conj(dn) * t * np.exp(0.5j * (m - n) * c * t)
               * np.sinc((m - n) * c * t / (2 * np.pi))
               for m, dm in d.items() for n, dn in d.items()).real


TIP = st.tuples(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(c=st.floats(0.5, 3.0), x_plus=TIP, x_minus=TIP,
       times=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=6),
       channel=st.sampled_from(sorted(SHELL_CHANNELS)))
def test_trace_matches_the_exact_rotation(c, x_plus, x_minus, times,
                                          channel):
    # a 0 and a repeat among unsorted times: records come back in input
    # order, D^2 is exactly 0 at t = 0 and never decreases with t, and
    # each value is the closed form of the rotation to the flow's rtol,
    # or to a floor of 1e-13 t max L^2 where the difference cancels
    system = _shell_family("oscillator", c)
    chord = bare_chord(x_plus, x_minus, action=0.3)
    chans = [SHELL_CHANNELS[channel]]
    times = [*times, 0.0, times[0]]
    rows = evolution_trace(chord, system, chans, times, 0.05)
    assert [t for t, _ in rows] == times
    zero = rows[-2][1]
    assert zero.record.d2 == 0.0
    assert np.array_equal(zero.base.x_plus, chord.x_plus)
    assert rows[-1][1].record.d2 == rows[0][1].record.d2
    d2 = [ev.record.d2 for _, ev in sorted(rows, key=lambda r: r[0])]
    assert np.all(np.diff(d2) >= 0.0)
    xp, xm = np.array(x_plus), np.array(x_minus)
    scale = sum(abs(a) for x in (xp, xm)
                for a in _rotation_modes(c, x, channel).values()) ** 2
    for t, ev in rows:
        assert_allclose(ev.record.d2, _rotation_d2(c, xp, xm, t, channel),
                        rtol=1e-11, atol=1e-13 * t * scale)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["oscillator", "quartic", "pendulum"]),
       stiffness=st.floats(0.0, 1.0), amplitude=st.floats(0.5, 2.0),
       theta=st.floats(0.0, 2 * np.pi), gap=st.floats(0.3, 2 * np.pi - 0.3),
       fraction=st.floats(0.05, 1.0),
       channel=st.sampled_from(sorted(SHELL_CHANNELS)))
def test_shell_d2_matches_flowed_tips(kind, stiffness, amplitude, theta,
                                      gap, fraction, channel):
    # couplings keep periods near 0.8-1.4, so the reference's Simpson grid
    # (one node per 1e-3) has 800+ nodes per period.  Its error sits in
    # the tip positions, so a D^2 that nearly cancels also gets a floor
    # of 1e-9 t max L^2.
    c = {"oscillator": 5.0 + 3.0 * stiffness,
         "quartic": 150.0 + 250.0 * stiffness,
         "pendulum": 35.0 + 25.0 * stiffness}[kind]
    energy = {"oscillator": 0.5, "quartic": 2.0,
              "pendulum": -c * np.cos(amplitude)}[kind]
    system = _shell_family(kind, c)
    shell = build_shell(system, energy)
    t = fraction * shell.period
    chans = [SHELL_CHANNELS[channel]]
    d2 = shell_d2(shell, [theta], [theta + gap], t, chans)
    assert d2.shape == (1, 1)
    ref = decoherence_distance(shell.point(theta), shell.point(theta + gap),
                               system, chans, t)
    scale = t * np.max(chans[0](shell.points) ** 2)
    assert_allclose(d2[0, 0], ref.d2, rtol=1e-6, atol=1e-9 * scale)


def test_shell_d2_same_angles_match_cross_pairs():
    # one angle array for both sets samples the shell once; it must agree
    # bit for bit with two equal arrays, which sample it for each set
    shell = build_shell(quartic, 0.5)
    thetas = np.arange(64) * 2 * np.pi / 64
    chans = [position_channel(), momentum_channel(0.5)]
    sym = shell_d2(shell, thetas, thetas, 0.9, chans)
    cross = shell_d2(shell, thetas, thetas.copy(), 0.9, chans)
    assert np.array_equal(sym, cross)


GRAM_CHANNELS = dict(SHELL_CHANNELS, qp=polynomial_channel(
    {(0, 1): 1.0, (1, 0): 1.0}))
ANGLES = st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["oscillator", "quartic", "pendulum"]),
       stiffness=st.floats(0.0, 1.0), amplitude=st.floats(0.5, 2.0),
       theta_a=ANGLES, theta_b=ANGLES, shared=st.booleans(),
       fraction=st.floats(1e-3, 1.0),
       channel=st.sampled_from(sorted(GRAM_CHANNELS)))
def test_shell_d2_gram_form_matches_exact_flow(kind, stiffness, amplitude,
                                               theta_a, theta_b, shared,
                                               fraction, channel):
    # the Gram form's structure on every shell kind; on the oscillator
    # H = p^2/2 + c^2 q^2/2 the tips from shell.point move by the exact
    # rotation of (q, p/c) through the angle c s, and the time integral
    # of each pair's squared channel difference is adaptive quadrature
    c = {"oscillator": 5.0 + 3.0 * stiffness,
         "quartic": 150.0 + 250.0 * stiffness,
         "pendulum": 35.0 + 25.0 * stiffness}[kind]
    energy = {"oscillator": 0.5, "quartic": 2.0,
              "pendulum": -c * np.cos(amplitude)}[kind]
    shell = build_shell(_shell_family(kind, c), energy)
    t = fraction * shell.period
    ch = GRAM_CHANNELS[channel]
    ta = np.array(theta_a)
    tb = np.array(theta_b + theta_a[:1] if shared else theta_b)
    d2 = shell_d2(shell, ta, tb, t, [ch])
    assert d2.shape == (ta.size, tb.size)
    assert np.all(d2[ta[:, None] == tb] == 0.0)
    sym = shell_d2(shell, ta, ta, t, [ch])
    assert np.array_equal(sym, sym.T)
    assert np.all(np.diag(sym) == 0.0)
    assert np.all(sym >= 0.0)
    if kind != "oscillator":
        return

    def flowed(x, s):
        p, q = x[:, 0], x[:, 1]
        cos, sin = np.cos(c * s), np.sin(c * s)
        return np.stack([p * cos - c * q * sin, q * cos + p / c * sin], -1)

    xa, xb = shell.point(ta), shell.point(tb)
    scale = t * np.max(ch(shell.points) ** 2)
    ref = quad_vec(lambda s: (ch(flowed(xa, s))[:, None]
                              - ch(flowed(xb, s))[None, :]) ** 2,
                   0.0, t, epsabs=1e-13 * scale, epsrel=1e-13)[0]
    assert_allclose(d2, ref, rtol=0, atol=1e-10 * scale)


@pytest.mark.parametrize("name, energy", [("quartic", 0.5),
                                          ("pendulum", -0.4)])
def test_shell_d2_of_energy_channels_is_exactly_zero(name, energy):
    # L = f(H) has only the m = 0 mode on a shell, which cancels from
    # every tip difference; a coupling-0 channel has no mode at all
    system = make_system(name)
    shell = build_shell(system, energy)
    thetas = np.arange(64) * 2 * np.pi / 64
    chan = LindbladChannel("cos 3H", lambda x: np.cos(3 * system.energy(x)))
    for chans in ([chan], [position_channel(0.0)],
                  [chan, position_channel(0.0)]):
        for tb in (thetas, thetas[::-1] + 0.1):
            d2 = shell_d2(shell, thetas, tb, 0.7 * shell.period, chans)
            assert np.array_equal(d2, np.zeros((64, 64)))


@pytest.mark.parametrize("name, energy", [("harmonic", 0.5),
                                          ("quartic", 0.5),
                                          ("pendulum", -0.4)])
def test_shell_d2_ignores_a_constant_offset(name, energy):
    # L + 1000 has the differences of L; its m = 0 mode, left in the
    # features, would inflate the Gram norms a million-fold and cost
    # the cancellation 1e-7 of D^2
    shell = build_shell(make_system(name), energy)
    thetas = np.arange(64) * 2 * np.pi / 64
    t = 0.6 * shell.period
    plain = shell_d2(shell, thetas, thetas, t, [position_channel()])
    offset = shell_d2(shell, thetas, thetas, t,
                      [polynomial_channel({(0, 1): 1.0, (0, 0): 1e3})])
    assert_allclose(offset, plain, rtol=1e-8)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["oscillator", "quartic", "pendulum"]),
       coupling=st.floats(1.0, 3.0),
       radii=st.tuples(st.floats(0.3, 1.2), st.floats(0.3, 1.2)),
       angles=st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi)),
       fraction=st.floats(0.05, 1.0), split=st.floats(0.1, 0.9),
       channel=st.sampled_from(sorted(SHELL_CHANNELS)))
def test_tip_flow_invariants(kind, coupling, radii, angles, fraction, split,
                             channel):
    # off-shell tips (each on its own energy shell, librating for the
    # pendulum) flowed for up to one period of the x+ orbit
    system = _shell_family(kind, coupling)
    tips = np.array([[r * np.cos(a), r * np.sin(a)]
                     for r, a in zip(radii, angles)])
    t = fraction * find_period(system, tips[0])
    chans = [SHELL_CHANNELS[channel]]
    traj = hamiltonian_flow(system, tips, t, dt=t / 64, dense=True)
    # energy is conserved along both tips
    energy = system.energy(traj.points)
    assert np.max(np.abs(energy - energy[0])) <= 1e-8
    # a batch flows as its tips do one by one; the two runs take
    # different adaptive steps, so they agree to the solver tolerance
    singles = np.stack([hamiltonian_flow(system, x, t).final for x in tips])
    assert_allclose(traj.final, singles, rtol=0, atol=1e-10)
    # D_t^2 adds over [0, t1] and [t1, t]
    t1 = split * t
    whole = decoherence_distance(*tips, system, chans, t)
    first = decoherence_distance(*tips, system, chans, t1)
    second = decoherence_distance(first.x_plus, first.x_minus,
                                  system, chans, t - t1)
    assert_allclose(first.d2 + second.d2, whole.d2, rtol=0, atol=1e-8)
    # one traced flow gives the records of separate evolutions
    chord = bare_chord(*tips, action=0.3)
    times = [0.0, t1, t]
    rows = evolution_trace(chord, system, chans, times, 0.05)
    for (s, ev), s_ref in zip(rows, times):
        ref = evolve_contribution(chord, system, chans, s_ref, 0.05)
        assert s == s_ref
        assert_allclose(ev.record.d2, ref.record.d2, rtol=1e-10)
        assert_allclose(ev.base.x_plus, ref.base.x_plus, rtol=1e-10,
                        atol=1e-10)
        assert_allclose(ev.base.x_minus, ref.base.x_minus, rtol=1e-10,
                        atol=1e-10)


def test_energy_channel_never_damps_shell_chords():
    shell = build_shell(harmonic, 0.5)
    chord = [c for c in find_chords(shell, (0.0, 0.5)) if not c.caustic][0]
    chan = LindbladChannel("cos 3H", lambda x: np.cos(3 * harmonic.energy(x)))
    rec = decoherence_distance(chord.x_plus, chord.x_minus, harmonic,
                               [chan], 2.0)
    assert rec.d2 < 1e-20
    ev = evolve_contribution(chord, harmonic, [chan], 2.0, 0.05)
    assert ev.damping == 1.0


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_unitary_transport_keeps_action_on_shell():
    shell = build_shell(harmonic, 0.5)
    chord = [c for c in find_chords(shell, (0.0, 0.5)) if not c.caustic][0]
    ev = evolve_contribution(chord, harmonic, [], 1.3, 0.05)
    assert ev.damping == 1.0
    assert_allclose(ev.s_t, chord.action, atol=1e-12)
    # tips stay on the shell
    assert abs(float(harmonic.energy(ev.base.x_plus)) - 0.5) < 1e-6


def test_evolved_damping_matches_closed_form():
    chord = bare_chord((0.8660254, 0.5), (-0.8660254, 0.5), action=0.6142)
    ev = evolve_contribution(chord, harmonic, [position_channel()], np.pi,
                             0.05)
    assert_allclose(np.log(ev.damping), -3.0 * np.pi / 2.0 / 0.1, rtol=1e-7)


def test_short_time_damping_expansion():
    chord = bare_chord((0.5, 0.8660254), (0.5, -0.8660254))
    rate = hermitian_decay_rate(chord, [position_channel()], 0.05)
    assert rate > 0
    t = 1e-4
    ev = evolve_contribution(chord, harmonic, [position_channel()], t, 0.05)
    assert abs(ev.damping - (1.0 - t * rate)) < (t * rate) ** 2 + 1e-10


def test_hamilton_jacobi_action_update():
    # tips on different shells: dS/dt = -(H+ - H-), constant along flow
    xp, xm = np.array([0.0, 1.2]), np.array([0.0, 0.8])
    dh = float(quartic.energy(xp) - quartic.energy(xm))
    chord = bare_chord(xp, xm, action=0.3)
    for t in (0.2, 0.5):
        ev = evolve_contribution(chord, quartic, [], t, 0.05)
        assert_allclose(ev.s_t, 0.3 - dh * t, atol=1e-12)
    d = 1e-5
    s1 = evolve_contribution(chord, quartic, [], 0.5, 0.05).s_t
    s2 = evolve_contribution(chord, quartic, [], 0.5 + d, 0.05).s_t
    assert_allclose((s2 - s1) / d, -dh, atol=1e-9)


def test_frozen_hamiltonian_exponential_decay():
    chord = bare_chord((0.3, 0.9), (-0.1, 0.2), action=0.77)
    chans = [position_channel(), momentum_channel(0.5)]
    rate = hermitian_decay_rate(chord, chans, 0.05)
    for t in (0.1, 0.6):
        ev = evolve_contribution(chord, frozen, chans, t, 0.05)
        assert_allclose(ev.s_t, 0.77, atol=1e-15)
        assert_allclose(ev.damping, np.exp(-t * rate), rtol=1e-10)


def test_trotter_unitary_equals_transport():
    shell = build_shell(harmonic, 0.5)
    chord = [c for c in find_chords(shell, (0.0, 0.5)) if not c.caustic][0]
    ev_split = trotter_evolve(chord, harmonic, [], 0.9, 4, 0.05)
    ev_cont = evolve_contribution(chord, harmonic, [], 0.9, 0.05)
    assert ev_split.damping == 1.0
    assert np.max(np.abs(ev_split.base.x_plus - ev_cont.base.x_plus)) < 1e-8


def test_trotter_zero_time_is_identity():
    chord = bare_chord((0.3, 0.9), (-0.1, 0.2), action=0.77)
    ev = trotter_evolve(chord, quartic, [position_channel()], 0.0, 5, 0.05)
    assert ev.damping == 1.0 and ev.record.d2 == 0.0
    assert np.array_equal(ev.base.x_plus, chord.x_plus)
    assert np.array_equal(ev.base.x_minus, chord.x_minus)
    assert ev.s_t == 0.77


def test_trotter_first_order_convergence():
    chord = bare_chord((0.8660254, 0.5), (-0.8660254, 0.5), action=0.6142)
    chans = [position_channel()]
    ref = evolve_contribution(chord, harmonic, chans, 1.0, 0.05)
    errs = {}
    for n in (8, 16, 32):
        ev = trotter_evolve(chord, harmonic, chans, 1.0, n, 0.05)
        errs[n] = abs(np.log(ev.damping) - np.log(ref.damping))
    # halving the step should halve the error: observed order near 1
    r1 = errs[8] / errs[16]
    r2 = errs[16] / errs[32]
    assert 1.6 < r1 < 2.4 and 1.6 < r2 < 2.4


def test_trace_emission(tmp_path):
    chord = bare_chord((0.5, 0.8660254), (0.5, -0.8660254), action=0.41)
    rows = evolution_trace(chord, harmonic, [position_channel()],
                           [0.0, 0.25, 0.5], 0.05)
    assert [t for t, _ in rows] == [0.0, 0.25, 0.5]
    damp = [ev.damping for _, ev in rows]
    assert damp[0] == 1.0 and damp[1] > damp[2]
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(path_a, rows)
    write_trace(path_b, rows)
    assert path_a.read_bytes() == path_b.read_bytes()
    head = path_a.read_text().splitlines()[0]
    assert head == "t,p_plus,q_plus,p_minus,q_minus,S_t,D_t,damping"


def test_make_channel_dispatch():
    assert make_channel("q").name == "q"
    assert make_channel("p", 2.0)(np.array([1.5, 0.0])) == 3.0
    poly = make_channel({(0, 2): 1.0})
    assert poly(np.array([0.0, 3.0])) == 9.0
    with pytest.raises(ValueError):
        make_channel("xyz")
