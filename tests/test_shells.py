"""Shell construction and chord geometry against closed circle forms."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq
from scipy.special import ellipe, ellipk

from chordwigner import (
    HamiltonianSystem,
    ShellError,
    build_shell,
    chord_amplitude,
    find_chords,
    make_system,
    quantize_energy,
)
from chordwigner.shells import _search_chords

harmonic = make_system("harmonic")
quartic = make_system("quartic")
pendulum = make_system("pendulum")


def circle_shell(e=0.5):
    return build_shell(harmonic, e)


def test_build_shell_circle_geometry():
    shell = circle_shell()
    assert_allclose(shell.period, 2 * np.pi, atol=1e-8)
    assert_allclose(shell.area, 2 * np.pi * 0.5, atol=1e-8)
    # starts at (p, q) = (1, 0) and rotates p -> -q; sample placement
    # carries the adaptive integrator's phase error, well under 1e-6
    th = np.linspace(0, 2 * np.pi, 97)
    assert_allclose(shell.point(th),
                    np.stack([np.cos(th), np.sin(th)], axis=-1), atol=5e-7)
    assert np.max(np.abs(harmonic.energy(shell.points) - 0.5)) < 1e-12


def test_closure_error_is_orbit_closure():
    # |x(T) - x0| of the adaptive orbit, not the spacing of two samples
    for system, e in ((harmonic, 0.5), (quartic, 0.5), (pendulum, -0.4)):
        assert build_shell(system, e).closure_error < 1e-9


def test_action_integral_circle():
    # F(theta) = int cos^2 = theta/2 + sin(2 theta)/4 at E = 0.5
    shell = circle_shell()
    th = np.linspace(0, 4 * np.pi, 33)
    assert_allclose(shell.action_integral(th),
                    th / 2 + np.sin(2 * th) / 4, atol=2e-7)


def test_chord_action_circle_closed_form():
    shell = circle_shell(2.0)
    rng = np.random.default_rng(2)
    tm = rng.uniform(0, 2 * np.pi, 60)
    tp = rng.uniform(0, 2 * np.pi, 60)
    dth = (tp - tm) % (2 * np.pi)
    dmin = np.minimum(dth, 2 * np.pi - dth)
    expected = 2.0 * (dmin - np.sin(dmin))  # (R^2/2)(dth - sin dth), R^2 = 4
    assert_allclose(shell.chord_action(tm, tp), expected, atol=1e-6)
    # same chord read from either tip
    assert_allclose(shell.chord_action(tp, tm),
                    shell.chord_action(tm, tp), atol=1e-12)


def test_chord_action_cubic_near_diagonal():
    # S -> |wedge| * dtheta^2 / 12 as the tips coalesce (cubic degeneracy;
    # the next correction is relative O(dtheta))
    shell = build_shell(quartic, 0.5)
    for th in (0.3, 1.1, 2.9, 4.2):
        for dth in (1e-2, 3e-3):
            s = float(shell.chord_action(th, th + dth))
            w = abs(float(shell.wedge(th, th + dth)))
            assert_allclose(s, w * dth**2 / 12, rtol=6 * dth, atol=2e-9)


def test_find_chords_interior_point_example():
    # E = 0.5 circle, x = (p, q) = (0, 0.5): single chord, short arc 2pi/3
    shell = circle_shell()
    chords = find_chords(shell, (0.0, 0.5))
    assert len(chords) == 1
    c = chords[0]
    assert_allclose(c.centre, [0.0, 0.5], atol=1e-9)
    assert_allclose(c.action, 0.5 * (2 * np.pi / 3 - np.sin(2 * np.pi / 3)),
                    atol=1e-6)
    assert_allclose(c.action, 0.6142, atol=1e-4)
    assert_allclose(c.tau, 2 * np.pi / 3, atol=1e-6)
    assert_allclose(abs(c.wedge), 0.8660, atol=1e-4)
    assert not c.caustic
    assert_allclose(chord_amplitude(c, hbar=0.05), 1.2206, atol=1e-3)


def test_find_chords_near_shell_point():
    # chord shorter than the scan grid: diagonal seeds must still split
    shell = circle_shell()
    chords = find_chords(shell, (0.0, 0.999))
    assert len(chords) == 1
    dth = (chords[0].theta_plus - chords[0].theta_minus) % (2 * np.pi)
    assert_allclose(dth, 2 * np.arccos(0.999), atol=1e-6)


def test_find_chords_on_shell_degenerate():
    shell = circle_shell()
    chords = find_chords(shell, (0.6, 0.8))
    assert len(chords) == 1
    assert chords[0].degenerate and chords[0].caustic
    assert_allclose(chords[0].xi, [0.0, 0.0], atol=1e-9)
    with pytest.raises(ValueError):
        chord_amplitude(chords[0], hbar=0.05)


def test_find_chords_outside_is_empty():
    shell = circle_shell()
    assert find_chords(shell, (0.0, 1.5)) == []


def test_centre_chords_are_caustic():
    # every diameter is a caustic chord of the centre
    shell = circle_shell()
    centre = find_chords(shell, (0.0, 0.0))
    assert centre and all(c.caustic for c in centre)
    assert min(abs(c.wedge) for c in centre) < 1e-8
    assert min(abs(c.wedge) for c in find_chords(shell, (0.0, 0.5))) > 0.5


def test_chords_canonical_and_centred():
    shell = build_shell(quartic, 0.5)
    rng = np.random.default_rng(9)
    for _ in range(12):
        x = rng.uniform(-0.6, 0.6, size=2)
        for c in find_chords(shell, x):
            dth = (c.theta_plus - c.theta_minus) % (2 * np.pi)
            assert 0.0 <= dth <= np.pi + 1e-12
            assert_allclose(c.centre, x, atol=1e-8)


def _coupled(kind, c):
    """p^2/2 + V(q): V = c^2 q^2 / 2, c q^4 / 2 or -c cos q."""
    v, dv = {"oscillator": (lambda q: 0.5 * c * c * q * q, lambda q: c * c * q),
             "quartic": (lambda q: 0.5 * c * q**4, lambda q: 2 * c * q**3),
             "pendulum": (lambda q: -c * np.cos(q),
                          lambda q: c * np.sin(q))}[kind]
    return HamiltonianSystem(
        kind, value=lambda x: 0.5 * x[..., 0] ** 2 + v(x[..., 1]),
        grad=lambda x: np.stack([x[..., 0], dv(x[..., 1])], axis=-1))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["oscillator", "quartic", "pendulum"]),
       coupling=st.floats(0.3, 30.0), level=st.floats(0.05, 0.9),
       polar=st.lists(st.tuples(st.floats(0.0, 2 * np.pi),
                                st.floats(0.02, 0.98)),
                      min_size=20, max_size=20))
def test_batched_search_matches_pointwise(kind, coupling, level, polar):
    # V grows with |q|, so scaling a shell point towards the origin by
    # rho < 1 lands strictly inside; 20 points span two search blocks
    system = _coupled(kind, coupling)
    e = -coupling + 2 * coupling * level if kind == "pendulum" else level
    shell = build_shell(system, e)
    xs = np.array([rho * shell.point(th) for th, rho in polar])
    batched, _ = _search_chords(shell, xs)
    for x, chords in zip(xs, batched):
        single = find_chords(shell, x)
        assert len(chords) == len(single)
        assert_allclose([c.action for c in chords],
                        [c.action for c in single], rtol=0, atol=1e-12)
        for c in chords:
            assert_allclose(c.centre, x, atol=1e-8)
            dth = (c.theta_plus - c.theta_minus) % (2 * np.pi)
            assert 0.0 <= dth <= np.pi + 1e-12


def test_wedge_is_four_midpoint_jacobians():
    shell = build_shell(quartic, 0.5)
    h = 1e-5
    rng = np.random.default_rng(4)
    for _ in range(8):
        tm, tp = rng.uniform(0, 2 * np.pi, 2)
        mid = lambda a, b: 0.5 * (shell.point(a) + shell.point(b))
        col_m = (mid(tm + h, tp) - mid(tm - h, tp)) / (2 * h)
        col_p = (mid(tm, tp + h) - mid(tm, tp - h)) / (2 * h)
        det = col_m[0] * col_p[1] - col_m[1] * col_p[0]
        # |d(midpoint)/d(theta_-, theta_+)| = |wedge| / 4
        assert_allclose(0.25 * abs(shell.wedge(tm, tp)), abs(det),
                        rtol=1e-4)


def test_pendulum_shell_area_elliptic():
    # libration area: 16 [E(m) - (1 - m) K(m)], m = (1 + E)/2
    e = -0.5
    shell = build_shell(pendulum, e)
    m = (1 + e) / 2
    assert_allclose(shell.area, 16 * (ellipe(m) - (1 - m) * ellipk(m)),
                    atol=1e-7)


def test_quantize_energy_harmonic():
    assert_allclose(quantize_energy(harmonic, 9, 0.05), 0.475, atol=1e-6)
    assert_allclose(quantize_energy(harmonic, 10, 1.0), 10.5, atol=1e-5)


def test_quantize_energy_quartic_self_consistent():
    hbar = 0.05
    e3 = quantize_energy(quartic, 3, hbar)
    shell = build_shell(quartic, e3)
    assert_allclose(shell.area, 2 * np.pi * hbar * 3.5, atol=2e-6)


def _pendulum_area(e):
    m = (1 + e) / 2
    return 16 * (ellipe(m) - (1 - m) * ellipk(m))


def test_quantize_energy_pendulum_near_separatrix():
    # at hbar = 0.5 level 4 needs area 14.14 of the 16 inside the separatrix
    target = 2 * np.pi * 0.5 * 4.5
    expected = brentq(lambda e: _pendulum_area(e) - target, -0.99, 0.999999,
                      xtol=1e-14)
    assert_allclose(quantize_energy(pendulum, 4, 0.5), expected, atol=1e-10)


def test_quantize_energy_raises_beyond_separatrix():
    # level 5 needs area 17.28, but the separatrix encloses only 16
    with pytest.raises(ShellError, match="separatrix"):
        quantize_energy(pendulum, 5, 0.5)
