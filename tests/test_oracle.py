"""Quantum-oracle self-checks: eigensolver, Weyl transforms, star
products, Lindblad integrator.  Everything here is validated against
closed forms, not against the semiclassical side."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from chordwigner import make_system, polynomial_system
from chordwigner.oracle import (
    DensityGrid,
    OracleError,
    TruncatedState,
    energy_variance,
    gaussian_window_weights,
    harmonic_ladder,
    hermite_psi,
    inverse_weyl,
    lindblad_integrate,
    moyal_star,
    poly_eval,
    _separable_potential,
    _solve_on_box,
    purity,
    solve_eigenstates,
    weyl_transform,
    wigner_of_state,
)

harmonic = make_system("harmonic")
quartic = make_system("quartic")


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

def test_harmonic_spectrum():
    # at (0.05, 30) a box much wider than level 29's turning point makes
    # the 512-point grid step too coarse for its momenta
    for hbar, count in ((1.0, 21), (0.05, 30)):
        basis = solve_eigenstates(harmonic, hbar=hbar, count=count)
        assert_allclose(basis.energies, hbar * (np.arange(count) + 0.5),
                        rtol=1e-8)
        gram = basis.psis @ basis.psis.T * basis.dq
        assert_allclose(gram, np.eye(count), atol=1e-8)


def test_harmonic_wavefunctions_match_hermite():
    basis = solve_eigenstates(harmonic, hbar=0.05, count=11)
    ref = hermite_psi(10, basis.qs, 0.05)
    overlaps = np.abs(ref @ basis.psis.T * basis.dq)
    assert_allclose(np.diag(overlaps), np.ones(11), atol=1e-8)


def test_same_named_oscillators_get_their_own_ladders():
    # both tables default to the name "poly"; each must get hbar w (n + 1/2)
    hbar = 0.1
    for omega in (1.0, 2.0):
        osc = polynomial_system({(2, 0): 0.5, (0, 2): 0.5 * omega**2})
        basis = solve_eigenstates(osc, hbar=hbar, count=8)
        assert_allclose(basis.energies, hbar * omega * (np.arange(8) + 0.5),
                        rtol=1e-8)


def test_quartic_spectrum_monotone_and_residual():
    basis = solve_eigenstates(quartic, hbar=0.05, count=12)
    assert np.all(np.diff(basis.energies) > 0)
    # residual of the spectral Schrödinger operator
    k = 2 * np.pi * np.fft.fftfreq(len(basis.qs), d=basis.dq)
    for n in (0, 5, 11):
        psi = basis.psis[n]
        hpsi = (np.fft.ifft(0.5 * basis.hbar**2 * k**2 * np.fft.fft(psi)).real
                + basis.vgrid * psi)
        res = np.linalg.norm(hpsi - basis.energies[n] * psi)
        assert res / np.linalg.norm(basis.energies[n] * psi) < 1e-8


def test_quartic_high_levels_match_fixed_box():
    # level 39's turning point sizes the box; a box of 180, 20 times
    # wider, puts E_1 at 0.129 instead of 0.035
    basis = solve_eigenstates(quartic, hbar=0.05, count=40)
    ref = _solve_on_box(_separable_potential(quartic), 0.05, 30, 1024, 4.0)
    assert_allclose(basis.energies[:30], ref.energies, rtol=1e-10)


def test_unresolved_momentum_raises():
    # level 119 at hbar 0.05 needs momenta beyond the Nyquist limit of a
    # 512-point grid over its box
    with pytest.raises(OracleError, match="Nyquist"):
        solve_eigenstates(harmonic, hbar=0.05, count=120, n_grid=512)


def test_periodic_potential_raises():
    # cos q has a well every 2 pi, so the states spread over the box
    with pytest.raises(OracleError, match="box edge"):
        solve_eigenstates(make_system("pendulum"), hbar=0.05, count=10)


# ---------------------------------------------------------------------------
# Weyl transform
# ---------------------------------------------------------------------------

def grid_and_mix(hbar=0.1, n=64, width=2.4, seed=0, nstates=6):
    qs = np.linspace(-width, width, n, endpoint=False)
    psis = hermite_psi(nstates - 1, qs, hbar)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(nstates, nstates))
    rho = psis.T @ (c @ c.T / nstates) @ psis * (qs[1] - qs[0])
    rho = rho / np.trace(rho).real * (1.0 / (qs[1] - qs[0]))
    return qs, rho.astype(complex)


def test_ground_state_wigner_gaussian():
    hbar = 0.1
    # box wide enough that chord truncation error e^{-L^2/4 hbar} < 1e-9
    qs = np.linspace(-3.0, 3.0, 128, endpoint=False)
    psi = hermite_psi(0, qs, hbar)[0]
    wg = wigner_of_state(psi, qs, hbar)
    pp, qq = np.meshgrid(wg.ps, wg.q_centres)
    exact = np.exp(-(pp**2 + qq**2) / hbar) / (np.pi * hbar)
    assert np.max(np.abs(wg.w - exact)) < 1e-8
    assert np.min(wg.w) > -1e-12
    assert_allclose(wg.integrate(), 1.0, atol=1e-10)


def test_weyl_trace_and_marginal():
    qs, rho = grid_and_mix()
    dq = qs[1] - qs[0]
    wg = weyl_transform(DensityGrid(qs=qs, rho=rho, hbar=0.1))
    assert_allclose(wg.integrate(), np.trace(rho).real * dq, atol=1e-10)
    qm, dens = wg.marginal_q()
    assert_allclose(qm, qs, atol=1e-12)
    assert_allclose(dens, np.diag(rho).real, atol=1e-8)


def test_weyl_round_trip_and_parseval():
    qs, rho_a = grid_and_mix(seed=1)
    _, rho_b = grid_and_mix(seed=2)
    dq = qs[1] - qs[0]
    ga = DensityGrid(qs=qs, rho=rho_a, hbar=0.1)
    wa = weyl_transform(ga)
    back = inverse_weyl(wa)
    assert np.max(np.abs(back.rho - rho_a)) < 1e-8 * np.max(np.abs(rho_a))
    wb = weyl_transform(DensityGrid(qs=qs, rho=rho_b, hbar=0.1))
    tr_ab = np.trace(rho_a @ rho_b).real * dq * dq
    assert_allclose(wa.braket(wb), tr_ab, rtol=1e-6)


def test_weyl_aliasing_guard():
    qs = np.linspace(-2, 2, 64, endpoint=False)
    rho = np.ones((64, 64), dtype=complex)  # huge boundary density
    with pytest.raises(OracleError):
        weyl_transform(DensityGrid(qs=qs, rho=rho, hbar=0.1))


def test_cat_state_fringes_and_blocks():
    hbar, a = 0.05, 1.0
    qs = np.linspace(-2.5, 2.5, 128, endpoint=False)
    g = np.exp(-((qs - a) ** 2) / (2 * hbar)) + np.exp(
        -((qs + a) ** 2) / (2 * hbar))
    g = g / np.sqrt(np.sum(g**2) * (qs[1] - qs[0]))
    wg = wigner_of_state(g, qs, hbar)
    back = inverse_weyl(wg)
    # off-diagonal coherence blocks at (q, q') = (±a, ∓a) survive the trip
    i_p = np.argmin(np.abs(qs - a))
    i_m = np.argmin(np.abs(qs + a))
    assert abs(back.rho[i_p, i_m]) > 0.25 * abs(back.rho[i_p, i_p])
    assert np.max(np.abs(back.rho - np.outer(g, g))) < 1e-8
    # interference fringes at the midpoint alternate in sign
    mid_row = wg.w[np.argmin(np.abs(wg.q_centres))]
    assert np.min(mid_row) < -0.1 * np.max(wg.w)


def test_zero_wigner_zero_matrix():
    qs, rho = grid_and_mix()
    wg = weyl_transform(DensityGrid(qs=qs, rho=0 * rho, hbar=0.1))
    assert np.all(wg.w == 0)
    assert np.max(np.abs(inverse_weyl(wg).rho)) == 0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 40), hbar=st.floats(0.01, 1.0),
       dq=st.floats(0.01, 0.5), seed=st.integers(0, 2**32 - 1))
def test_weyl_transform_matches_defining_sum(n, hbar, dq, seed):
    # a dense random hermitian rho fills every antidiagonal, so a wrong
    # shift or phase in the row layout shows in W; the alias guard is a
    # statement about physical states and is switched off here
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a + a.conj().T
    qs = -0.5 * n * dq + dq * np.arange(n)
    wg = weyl_transform(DensityGrid(qs=qs, rho=rho, hbar=hbar),
                        alias_tol=np.inf)

    ktilde = np.arange(n) - n // 2
    ref = np.zeros((2 * n - 1, n), dtype=complex)
    for s in range(2 * n - 1):
        for m in range(max(0, s - n + 1), min(n - 1, s) + 1):
            ref[s] += rho[m, s - m] * np.exp(-1j * np.pi * ktilde
                                             * (2 * m - s) / n)
    ref *= dq / (np.pi * hbar)
    assert np.max(np.abs(ref.imag)) < 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(wg.w - ref.real)) < 1e-12 * np.max(np.abs(ref))
    assert_allclose(wg.ps, np.pi * hbar * ktilde / (n * dq), rtol=1e-14)
    assert_allclose(wg.q_centres[::2], qs, atol=1e-14)

    back = inverse_weyl(wg).rho
    assert np.max(np.abs(back - rho)) < 1e-13 * np.max(np.abs(rho))


# ---------------------------------------------------------------------------
# Moyal star
# ---------------------------------------------------------------------------

def sym_grid(hbar=0.1, n=64, width=1.6):
    qs = np.linspace(-width, width, n, endpoint=False)
    ps = np.linspace(-width, width, n, endpoint=False)
    pp, qq = np.meshgrid(ps, qs)
    return ps, qs, pp, qq


def test_star_poly_canonical_commutator():
    hbar = 0.37
    qsym = {(0, 1): 1.0}
    psym = {(1, 0): 1.0}
    comm_dict = moyal_star(qsym, psym, hbar=hbar)
    back = moyal_star(psym, qsym, hbar=hbar)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 2))
    comm = poly_eval(comm_dict, x) - poly_eval(back, x)
    assert_allclose(comm, np.full(40, 1j * hbar), atol=1e-14)


def test_star_with_constant_is_identity():
    hbar = 0.1
    ps, qs, pp, qq = sym_grid(hbar)
    b = np.exp(-(pp**2 + 0.5 * qq**2) / hbar) * (1 + 0.3 * qq)
    one = np.ones_like(b)
    assert np.max(np.abs(moyal_star(one, b, ps, qs, hbar) - b)) < 1e-10
    assert np.max(np.abs(moyal_star(b, one, ps, qs, hbar) - b)) < 1e-10


def test_ground_state_projector_idempotent():
    hbar = 0.1
    ps, qs, pp, qq = sym_grid(hbar)
    w0 = np.exp(-(pp**2 + qq**2) / hbar) / (np.pi * hbar)
    ww = moyal_star(w0, w0, ps, qs, hbar)
    assert np.max(np.abs(2 * np.pi * hbar * ww - w0)) < 1e-6 * np.max(w0)


def test_star_associativity_smooth_symbols():
    hbar = 0.08
    ps, qs, _, _ = sym_grid(hbar, n=64)
    rng = np.random.default_rng(11)

    def bump():
        cp, cq = rng.uniform(-0.3, 0.3, 2)
        sp, sq = rng.uniform(0.25, 0.5, 2)
        pp, qq = np.meshgrid(ps, qs)
        return np.exp(-((pp - cp) / sp) ** 2 - ((qq - cq) / sq) ** 2)

    a, b, c = bump(), bump(), bump()
    left = moyal_star(moyal_star(a, b, ps, qs, hbar), c, ps, qs, hbar)
    right = moyal_star(a, moyal_star(b, c, ps, qs, hbar), ps, qs, hbar)
    assert np.max(np.abs(left - right)) < 1e-6 * np.max(np.abs(left))


def test_mixed_star_eigen_identity():
    # H * W0 = E0 W0 for the harmonic ground state, with polynomial H
    hbar = 0.1
    ps, qs, pp, qq = sym_grid(hbar)
    w0 = np.exp(-(pp**2 + qq**2) / hbar) / (np.pi * hbar)
    hpoly = {(2, 0): 0.5, (0, 2): 0.5}
    hw = moyal_star(hpoly, w0, ps, qs, hbar)
    assert np.max(np.abs(hw - 0.5 * hbar * w0)) < 1e-8 * np.max(w0)
    wh = moyal_star(w0, hpoly, ps, qs, hbar)
    assert np.max(np.abs(wh - 0.5 * hbar * w0)) < 1e-8 * np.max(w0)


def test_grid_star_plane_wave_bopp_shift():
    # e^{ik q} * B = e^{ik q} B(p - hbar k/2, q) exactly, and the mirror
    # identities; these pin the sign and orientation of the twisted kernel
    hbar = 0.1
    ps, qs, pp, qq = sym_grid(hbar, n=96, width=2.4)

    def bump(p, q):
        return np.exp(-((p - 0.2) ** 2 + (q - 0.1) ** 2) / hbar)

    b = bump(pp, qq)
    k0 = 2 * np.pi * 3 / (qs[-1] - qs[0] + (qs[1] - qs[0]))
    wave_q = np.exp(1j * k0 * qq)
    tol = 1e-9
    got = moyal_star(wave_q, b, ps, qs, hbar)
    assert np.max(np.abs(got - wave_q * bump(pp - 0.5 * hbar * k0, qq))) < tol
    got = moyal_star(b, wave_q, ps, qs, hbar)
    assert np.max(np.abs(got - wave_q * bump(pp + 0.5 * hbar * k0, qq))) < tol
    wave_p = np.exp(1j * k0 * pp)
    got = moyal_star(wave_p, b, ps, qs, hbar)
    assert np.max(np.abs(got - wave_p * bump(pp, qq + 0.5 * hbar * k0))) < tol


# ---------------------------------------------------------------------------
# Lindblad integrator
# ---------------------------------------------------------------------------

def test_cat_coherence_exact_rate():
    # H off, L = q: drho(q,q')/dt = -(q - q')^2 rho / (2 hbar)
    hbar, a = 0.05, 1.0
    qs = np.linspace(-2.5, 2.5, 96, endpoint=False)
    g = np.exp(-((qs - a) ** 2) / (2 * hbar)) + np.exp(
        -((qs + a) ** 2) / (2 * hbar))
    g = g / np.sqrt(np.sum(g**2) * (qs[1] - qs[0]))
    rho0 = np.outer(g, g).astype(complex)
    state = TruncatedState(rho=rho0, energies=np.zeros(len(qs)), hbar=hbar)
    times = np.linspace(0.0, 0.04, 9)
    states, diags = lindblad_integrate(state, None, [np.diag(qs)], times)
    i_p = np.argmin(np.abs(qs - a))
    i_m = np.argmin(np.abs(qs + a))
    coh = np.array([abs(s.rho[i_p, i_m]) for s in states])
    rate = np.polyfit(times, np.log(coh), 1)[0]
    target = -(qs[i_p] - qs[i_m]) ** 2 / (2 * hbar)
    assert abs(rate / target - 1) < 1e-6
    assert diags.trace_drift < 1e-10
    assert np.all(np.diff(diags.purities) <= 1e-12)


def test_unitary_evolution_purity_constant():
    hbar = 0.05
    energies, qmat, _ = harmonic_ladder(8, hbar)
    psi = np.zeros(8, dtype=complex)
    psi[0], psi[3] = 1 / np.sqrt(2), 1 / np.sqrt(2)
    state = TruncatedState(rho=np.outer(psi, psi.conj()), energies=energies,
                           hbar=hbar)
    states, diags = lindblad_integrate(state, energies, [], [0.5])
    assert abs(purity(states[-1].rho) - 1.0) < 1e-9
    assert diags.trace_drift < 1e-10


def test_energy_dephasing_keeps_diagonal_stationary():
    hbar = 0.05
    energies, _, _ = harmonic_ladder(10, hbar)
    w = gaussian_window_weights(energies, 0.2, 0.04)
    rho0 = np.diag(w).astype(complex)
    state = TruncatedState(rho=rho0, energies=energies, hbar=hbar)
    l_op = np.diag(np.cos(energies))  # L = f(H)
    states, _ = lindblad_integrate(state, energies, [l_op], [1.0])
    assert np.max(np.abs(states[-1].rho - rho0)) < 1e-12


def test_truncation_leak_aborts():
    hbar = 0.05
    energies, qmat, _ = harmonic_ladder(12, hbar)
    psi = np.zeros(12, dtype=complex)
    psi[-1] = 1.0  # worst case: all population in the top slice
    state = TruncatedState(rho=np.outer(psi, psi), energies=energies,
                           hbar=hbar)
    with pytest.raises(OracleError):
        lindblad_integrate(state, energies, [qmat], [0.1])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(6, 16), hbar=st.floats(0.05, 0.5),
       channel=st.sampled_from(["q", "p", "both", "rotated"]),
       squeeze=st.floats(0.0, 0.5), t_final=st.floats(0.1, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_propagator_matches_matrix_form_master_equation(
        dim, hbar, channel, squeeze, t_final, seed):
    # H = ladder energies + a squeeze term (q p + p q)/2 and the rotated
    # quadrature (q + p)/sqrt 2 are complex hermitian but neither real nor
    # imaginary, so a transposed kron factor in the Liouvillian changes
    # the generator and shows against the matrix-form master equation
    energies, q_mat, p_mat = harmonic_ladder(dim, hbar)
    h_mat = np.diag(energies) + 0.5 * squeeze * (q_mat @ p_mat + p_mat @ q_mat)
    l_ops = {"q": [q_mat], "p": [p_mat], "both": [q_mat, p_mat],
             "rotated": [(q_mat + p_mat) / np.sqrt(2.0)]}[channel]
    rng = np.random.default_rng(seed)
    low = dim // 2
    a = rng.normal(size=(low, low)) + 1j * rng.normal(size=(low, low))
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[:low, :low] = a @ a.conj().T
    rho0 /= np.trace(rho0).real
    times = t_final * np.array([0.0, 0.25, 0.5, 1.0])

    # the comparison is on the truncated ladder itself: leak guard off
    state = TruncatedState(rho=rho0, energies=energies, hbar=hbar)
    states, diags = lindblad_integrate(state, h_mat, l_ops, times,
                                       leak_threshold=1.0)

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        out = (-1j / hbar) * (h_mat @ rho - rho @ h_mat)
        for l in l_ops:
            ll = l.conj().T @ l
            out += (l @ rho @ l.conj().T - 0.5 * (ll @ rho + rho @ ll)) / hbar
        return out.reshape(-1)

    ref = solve_ivp(rhs, (0.0, t_final), rho0.reshape(-1), method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-12)
    for k, snap in enumerate(states):
        rho = snap.rho
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.max(np.abs(rho - ref.y[:, k].reshape(dim, dim))) < 1e-9
    assert np.all(np.diff(diags.purities) <= 1e-12)


def test_energy_variance_basics():
    energies = np.array([0.1, 0.3, 0.7])
    rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
    assert energy_variance(rho, energies) == 0.0
    rho2 = np.diag([0.5, 0.0, 0.5]).astype(complex)
    assert_allclose(energy_variance(rho2, energies), 0.6**2 / 4, atol=1e-14)

