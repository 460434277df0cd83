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
    polynomial_system,
    quantize_energy,
    shell_average,
    shell_start,
    skew,
)
from chordwigner import shells
from chordwigner.flow import _ORBIT_TOL, _closed_orbit

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


def test_velocity_field_orientation():
    # (pdot, qdot) = (-dH/dq, +dH/dp): clockwise-in-(q,p) rotation for H = r^2/2
    v = harmonic.velocity(np.array([0.0, 1.0]))
    assert_allclose(v, [-1.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("shape", [(2,), (7, 2), (3, 4, 2)])
def test_gradients_fill_fresh_arrays_like_np_stack(shape):
    # the built-in gradients, a polynomial table's and velocity fill one
    # np.empty array: the same floats, bit for bit, as the np.stack forms
    x = np.random.default_rng(3).normal(size=shape)
    p, q = x[..., 0], x[..., 1]
    poly = polynomial_system({(2, 0): 0.5, (0, 4): 0.5})
    for system, dq in ((harmonic, q), (quartic, 2.0 * q**3),
                       (pendulum, np.sin(q)), (poly, 2.0 * q**3)):
        g = np.stack([p, dq], axis=-1)
        for got, want in ((system.gradient(x), g),
                          (system.velocity(x),
                           np.stack([-g[..., 1], g[..., 0]], axis=-1))):
            assert got.shape == shape and got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, x)


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
    energy = quartic.energy(traj.points)
    assert np.max(np.abs(energy - energy[0])) <= 1e-8


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


@settings(max_examples=30)
@given(kind=st.sampled_from(["oscillator", "quartic", "pendulum"]),
       coupling=st.floats(0.3, 30.0), level=st.floats(0.05, 0.9))
def test_closed_orbit_period_area_and_action_angle(kind, coupling, level):
    # pendulum energies span 5%..90% of the well depth 2c, so every orbit
    # librates
    system, period_of, area_of = _family(kind, coupling)
    e = -coupling + 2 * coupling * level if kind == "pendulum" else level
    x0 = shell_start(system, e)
    period, dense, area = _closed_orbit(system, x0, dense=True)
    assert_allclose(period, period_of(e), rtol=1e-9)
    assert_allclose(area, area_of(e), rtol=1e-9)
    assert_allclose(dense(period)[:2], dense(0.0)[:2], atol=1e-8)
    # the interpolant changes no step: the event step builds its own
    no_dense = _closed_orbit(system, x0)
    assert (no_dense[0], no_dense[2]) == (period, area)
    # action-angle identity dA/dE = T, by central differences
    h = 1e-4 * abs(e - float(system.energy(np.zeros(2))))
    area_at = lambda en: _closed_orbit(system, shell_start(system, en))[2]
    assert_allclose((area_at(e + h) - area_at(e - h)) / (2 * h), period,
                    rtol=1e-6)


@pytest.mark.parametrize("kind, coupling", [
    ("oscillator", 0.5), ("oscillator", 5.0), ("quartic", 0.5),
    ("quartic", 144.0)])
@pytest.mark.parametrize("level, hbar", [(0, 0.1), (4, 0.05), (7, 0.1)])
def test_quantize_energy_exact_on_power_law_wells(monkeypatch, kind,
                                                  coupling, level, hbar):
    # A = A(1) E^k with k = 1 (oscillator) or 3/4 (quartic): the log-space
    # Newton lands on the level from the first probe's slope eps T / A
    system, _, area_of = _family(kind, coupling)
    k = 1.0 if kind == "oscillator" else 0.75
    target = 2 * np.pi * hbar * (level + 0.5)
    probes = []

    def counting(*args, **kwargs):
        probes.append(args)
        return _closed_orbit(*args, **kwargs)

    monkeypatch.setattr(shells, "_closed_orbit", counting)
    energy = quantize_energy(system, level, hbar)
    assert_allclose(energy, (target / area_of(1.0)) ** (1 / k), rtol=1e-10)
    assert len(probes) <= 2


def _closed_orbit_numpy_scalars(system, x0):
    """_closed_orbit(system, x0, dense=True) with a right-hand side that
    returns the gradient's numpy scalars, as it did before it unpacked
    Python floats."""
    from scipy.integrate import solve_ivp

    v0 = system.velocity(x0)
    v0 = v0 / float(np.hypot(v0[0], v0[1]))

    def rhs(t, y):
        gp, gq = system.grad(y[:2])
        return [-gq, gp, y[0] * gp]

    def section(t, y):
        return float(np.dot(y[:2] - x0, v0)) if t > 0 else 1.0

    section.terminal, section.direction = True, 1.0
    sol = solve_ivp(rhs, (0.0, 400.0), [x0[0], x0[1], 0.0],
                    method="DOP853", rtol=_ORBIT_TOL, atol=_ORBIT_TOL,
                    dense_output=True, events=section)
    return float(sol.t_events[0][0]), sol.sol, float(sol.y_events[0][0][2])


@pytest.mark.parametrize("system, energy", [
    (harmonic, 0.5), (quartic, 0.5), (pendulum, -0.4),
    (polynomial_system({(2, 0): 0.5, (0, 2): 1.5, (0, 4): 0.25}), 0.7)])
def test_closed_orbit_float_rhs_is_bit_identical(system, energy):
    # period, area and 2048 dense samples agree bit for bit with the
    # numpy-scalar right-hand side, after the same number of gradients
    x0 = shell_start(system, energy)
    calls = []

    def counted(tag):
        def grad(x):
            calls.append(tag)
            return system.grad(x)
        return HamiltonianSystem(system.name, system.value, grad)

    t_new, dense_new, a_new = _closed_orbit(counted("new"), x0, dense=True)
    t_old, dense_old, a_old = _closed_orbit_numpy_scalars(counted("old"), x0)
    assert t_new == t_old and a_new == a_old
    times = t_new * np.arange(2048) / 2048
    assert dense_new(times).tobytes() == dense_old(times).tobytes()
    assert calls.count("new") == calls.count("old") > 500


def test_periodic_orbit_closes():
    x0 = shell_start(quartic, 0.5)
    period, pts = periodic_orbit(quartic, x0)
    # one more substepped sample interval returns to the start
    end = hamiltonian_flow(quartic, pts[-1], period / len(pts),
                           dt=5e-4).final
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


# -- coefficient tables -----------------------------------------------------

_coefficient = st.one_of(
    st.integers(-6, 6).map(float),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))
_table = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                         _coefficient, min_size=1, max_size=8)


def _written_out_system(coeffs):
    """value and grad of a table, one term at a time, each gradient term
    differentiated where it is summed."""
    terms = [(int(a), int(b), float(c)) for (a, b), c in coeffs.items()]

    def value(x):
        p, q = x[..., 0], x[..., 1]
        return sum(c * p**a * q**b for a, b, c in terms)

    def grad(x):
        p, q = x[..., 0], x[..., 1]
        gp = sum(c * a * p ** (a - 1) * q**b for a, b, c in terms if a > 0)
        gq = sum(c * b * p**a * q ** (b - 1) for a, b, c in terms if b > 0)
        return np.stack([gp + 0.0 * p, gq + 0.0 * p], axis=-1)

    return value, grad


def _written_out_channel(coeffs, coupling, dtype):
    def f(x):
        out = np.zeros(x.shape[:-1], dtype=dtype)
        for (a, b), c in coeffs.items():
            out = out + (coupling * c) * x[..., 0] ** a * x[..., 1] ** b
        return out

    return f


def _single_derivative(poly, var):
    """d/dp (var=0) or d/dq (var=1) of a table, accumulated term by term."""
    out = {}
    for (a, b), c in poly.items():
        if var == 0 and a > 0:
            out[(a - 1, b)] = out.get((a - 1, b), 0.0) + a * c
        if var == 1 and b > 0:
            out[(a, b - 1)] = out.get((a, b - 1), 0.0) + b * c
    return out


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and np.array_equal(got, want)
            and got.tobytes() == want.tobytes())


@settings(max_examples=60)
@given(table=_table, imag=_table, coupling=_coefficient,
       seed=st.integers(0, 2**32 - 1))
def test_polynomial_tables_match_written_out_sums(table, imag, coupling,
                                                  seed):
    from chordwigner.lindblad import polynomial_channel

    x = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(7, 2))
    system = polynomial_system(table)
    value, grad = _written_out_system(table)
    complex_table = {k: complex(c, imag.get(k, 0.0)) for k, c in table.items()}
    for pts in (x, x[0]):
        assert _same_bits(system.value(pts), value(pts))
        assert _same_bits(system.grad(pts), grad(pts))
        assert _same_bits(polynomial_channel(table, coupling)(pts),
                          _written_out_channel(table, coupling, float)(pts))
        assert _same_bits(
            polynomial_channel(complex_table, coupling)(pts),
            _written_out_channel(complex_table, coupling, complex)(pts))


@settings(max_examples=60)
@given(table=_table, i=st.integers(0, 6), j=st.integers(0, 6))
def test_poly_deriv_is_repeated_single_derivatives(table, i, j):
    from chordwigner.flow import _poly_deriv

    want = table
    for var, count in ((0, i), (1, j)):
        for _ in range(count):
            want = _single_derivative(want, var)
    got = _poly_deriv(table, i, j)
    assert got.keys() == want.keys()
    if i + j <= 1:
        # == on floats is bit equality up to the sign of a zero coefficient
        assert got == want
    for key, c in want.items():
        assert abs(got[key] - c) <= 1e-15 * abs(c)


def test_empty_tables_give_zeros_of_the_points_shape():
    from chordwigner.lindblad import polynomial_channel

    x = np.ones((5, 2))
    zero = polynomial_system({})
    assert _same_bits(zero.value(x), np.zeros(5))
    assert _same_bits(zero.grad(x), np.zeros((5, 2)))
    assert _same_bits(polynomial_channel({})(x), np.zeros(5))
    # H = q^2/2 has an empty d/dp table
    assert _same_bits(polynomial_system({(0, 2): 0.5}).grad(x),
                      np.stack([np.zeros(5), np.ones(5)], axis=-1))
