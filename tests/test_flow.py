"""Symplectic algebra and integrator checks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import ellipe, ellipk, gamma

from chordwigner import (
    HamiltonianSystem,
    ShellError,
    find_period,
    hamiltonian_flow,
    make_system,
    periodic_orbit,
    poisson_bracket,
    polynomial_system,
    shell_average,
    shell_start,
    skew,
)
from chordwigner.flow import _closed_orbit

harmonic = make_system("harmonic")
quartic = make_system("quartic")
pendulum = make_system("pendulum")


def test_skew_examples():
    assert skew((1.0, 0.0), (0.0, 1.0)) == 1.0
    assert skew((2.0, 1.0), (1.0, 3.0)) == 5.0


def test_skew_antisymmetry():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(50, 2))
    b = rng.normal(size=(50, 2))
    assert_allclose(skew(a, b), -skew(b, a), atol=1e-14)
    assert_allclose(skew(a, a), 0.0, atol=1e-14)


def test_poisson_bracket_canonical():
    q = lambda x: x[..., 1]
    p = lambda x: x[..., 0]
    assert_allclose(poisson_bracket(q, p, (0.3, -1.2)), 1.0, atol=1e-9)


def test_poisson_bracket_with_hamiltonian():
    # {H, q} = -dH/dp = -p for the harmonic oscillator
    q = lambda x: x[..., 1]
    val = poisson_bracket(harmonic.value, q, (2.0, 3.0))
    assert_allclose(val, -2.0, atol=1e-9)


def test_velocity_field_orientation():
    # (pdot, qdot) = (-dH/dq, +dH/dp): clockwise-in-(q,p) rotation for H = r^2/2
    v = harmonic.velocity(np.array([0.0, 1.0]))
    assert_allclose(v, [-1.0, 0.0], atol=1e-14)


def test_harmonic_quarter_turn():
    traj = hamiltonian_flow(harmonic, (0.0, 1.0), np.pi / 2)
    assert_allclose(traj.final, [-1.0, 0.0], atol=1e-6)


def test_flow_batched_matches_scalar():
    x0 = np.array([[0.0, 1.0], [1.0, 0.3], [-0.5, 0.7]])
    batch = hamiltonian_flow(quartic, x0, 0.7).final
    singles = [hamiltonian_flow(quartic, x, 0.7).final for x in x0]
    assert_allclose(batch, np.stack(singles), atol=1e-13)


def test_flow_time_reversal():
    # flowing for 0.05, flipping p and flowing 0.05 again returns to the
    # start with p flipped: H(p, q) = H(-p, q) makes the flow reversible
    rng = np.random.default_rng(3)
    flip = np.array([-1.0, 1.0])
    for _ in range(10):
        x0 = rng.normal(size=2)
        x1 = hamiltonian_flow(pendulum, x0, 0.05).final
        back = hamiltonian_flow(pendulum, flip * x1, 0.05).final
        assert_allclose(flip * back, x0, atol=1e-12)


def test_flow_raises_when_integration_fails():
    # H = p^2/2 - q^4/4 from (1, 1): q blows up in finite time before t = 5
    # and the adaptive step collapses
    unbounded = polynomial_system({(2, 0): 0.5, (0, 4): -0.25})
    with pytest.raises(RuntimeError, match="failed"):
        hamiltonian_flow(unbounded, np.array([1.0, 1.0]), 5.0)


def test_flow_symplectic_jacobian():
    # det of the flow map's Jacobian is 1 (finite differences)
    h = 1e-6
    x0 = np.array([0.4, 0.9])
    cols = []
    for e in (np.array([h, 0.0]), np.array([0.0, h])):
        d = (hamiltonian_flow(quartic, x0 + e, 0.03).final
             - hamiltonian_flow(quartic, x0 - e, 0.03).final) / (2 * h)
        cols.append(d)
    det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
    assert_allclose(det, 1.0, atol=1e-8)


def test_quartic_energy_drift():
    x0 = shell_start(quartic, 0.5)
    period = find_period(quartic, x0)
    traj = hamiltonian_flow(quartic, x0, period, dt=1e-4, dense=True)
    assert traj.energy_drift(quartic) <= 1e-8


def test_period_harmonic():
    assert_allclose(find_period(harmonic, (0.0, 1.3)), 2 * np.pi, atol=1e-8)


def test_period_quartic_vs_gamma_formula():
    # T(E) = (2E)^(-1/4) sqrt(pi) Gamma(1/4)/Gamma(3/4) for H = p^2/2 + q^4/2
    e = 0.5
    expected = (2 * e) ** (-0.25) * np.sqrt(np.pi) * gamma(0.25) / gamma(0.75)
    x0 = shell_start(quartic, e)
    assert_allclose(find_period(quartic, x0), expected, atol=1e-8)


def test_period_pendulum_vs_elliptic():
    # libration at H = E: T = 4 K(m), m = (1 + E)/2
    e = -0.5
    expected = 4.0 * ellipk((1 + e) / 2)
    x0 = shell_start(pendulum, e)
    assert_allclose(find_period(pendulum, x0), expected, atol=1e-8)


def _family(kind, c):
    """(system, period(E), area(E)) for p^2/2 + V(q) with coupling c."""
    def system(v, dv):
        return HamiltonianSystem(
            kind, value=lambda x: 0.5 * x[..., 0] ** 2 + v(x[..., 1]),
            grad=lambda x: np.stack([x[..., 0], dv(x[..., 1])], axis=-1))

    if kind == "oscillator":
        # V = c^2 q^2 / 2: T = 2 pi / c, A = 2 pi E / c
        return (system(lambda q: 0.5 * c * c * q * q, lambda q: c * c * q),
                lambda e: 2 * np.pi / c, lambda e: 2 * np.pi * e / c)
    if kind == "quartic":
        # V = c q^4 / 2, turning point (2E/c)^(1/4):
        # T = (2E c)^(-1/4) sqrt(pi) Gamma(1/4) / Gamma(3/4)
        # A = (2E/c)^(1/4) sqrt(2E) sqrt(pi) Gamma(1/4) / (2 Gamma(7/4))
        return (system(lambda q: 0.5 * c * q**4, lambda q: 2 * c * q**3),
                lambda e: ((2 * e * c) ** -0.25 * np.sqrt(np.pi)
                           * gamma(0.25) / gamma(0.75)),
                lambda e: ((2 * e / c) ** 0.25 * np.sqrt(2 * e)
                           * np.sqrt(np.pi) * gamma(0.25) / (2 * gamma(1.75))))
    # V = -c cos q, libration with m = (1 + E/c)/2:
    # T = 4 K(m) / sqrt(c), A = 16 sqrt(c) [E(m) - (1 - m) K(m)]
    m = lambda e: 0.5 * (1 + e / c)
    return (system(lambda q: -c * np.cos(q), lambda q: c * np.sin(q)),
            lambda e: 4 * ellipk(m(e)) / np.sqrt(c),
            lambda e: 16 * np.sqrt(c) * (ellipe(m(e))
                                         - (1 - m(e)) * ellipk(m(e))))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["oscillator", "quartic", "pendulum"]),
       coupling=st.floats(0.3, 30.0), level=st.floats(0.05, 0.9))
def test_closed_orbit_period_area_and_action_angle(kind, coupling, level):
    # pendulum energies span 5%..90% of the well depth 2c, so every orbit
    # librates
    system, period_of, area_of = _family(kind, coupling)
    e = -coupling + 2 * coupling * level if kind == "pendulum" else level
    period, dense, area = _closed_orbit(system, shell_start(system, e))
    assert_allclose(period, period_of(e), rtol=1e-9)
    assert_allclose(area, area_of(e), rtol=1e-9)
    assert_allclose(dense(period)[:2], dense(0.0)[:2], atol=1e-8)
    # action-angle identity dA/dE = T, by central differences
    h = 1e-4 * abs(e - float(system.energy(np.zeros(2))))
    area_at = lambda en: _closed_orbit(system, shell_start(system, en))[2]
    assert_allclose((area_at(e + h) - area_at(e - h)) / (2 * h), period,
                    rtol=1e-6)


def test_periodic_orbit_closes():
    x0 = shell_start(quartic, 0.5)
    period, pts = periodic_orbit(quartic, x0, n=256)
    # one more substepped sample interval returns to the start
    end = hamiltonian_flow(quartic, pts[-1], period / 256, dt=5e-4).final
    assert_allclose(end, x0, atol=1e-6)
    assert np.max(np.abs(quartic.energy(pts) - 0.5)) < 1e-7


def test_shell_start_and_empty_shell():
    x = shell_start(harmonic, 0.5)
    assert_allclose(harmonic.energy(x), 0.5, atol=1e-12)
    with pytest.raises(ShellError):
        shell_start(harmonic, -1.0)


def test_shell_average_harmonic():
    # <q^2> over the circle of radius R = 2 is R^2/2 = E
    val = shell_average(harmonic, 2.0, lambda x: x[..., 1] ** 2)
    assert_allclose(val, 2.0, atol=1e-6)
    val_p = shell_average(harmonic, 2.0, lambda x: x[..., 0] ** 2)
    assert_allclose(val_p, 2.0, atol=1e-6)


def test_polynomial_system_matches_builtin():
    poly = polynomial_system({(2, 0): 0.5, (0, 2): 0.5})
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 2))
    assert_allclose(poly.energy(x), harmonic.energy(x), atol=1e-14)
    assert_allclose(poly.gradient(x), harmonic.gradient(x), atol=1e-14)
