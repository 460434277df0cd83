"""Chord-sum Wigner states: frozen interface examples, linearity,
window behaviour, oscillation geometry, and an exact-oracle mixture
comparison."""
import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chordwigner import find_chords, make_system
from chordwigner.oracle import solve_eigenstates, weyl_transform, DensityGrid
from chordwigner.shells import _BLOCK, _inside
from chordwigner.wigner import (
    eval_grid,
    eval_state,
    pure_state,
    spectral_state,
    window_factor,
)

harmonic = make_system("harmonic")
quartic = make_system("quartic")
pendulum = make_system("pendulum")


def test_interior_point_single_chord_values():
    st = pure_state(harmonic, hbar=0.05, energy=0.5)
    s = eval_state((0.0, 0.5), st)
    assert len(s.contributions) == 1 and not s.caustic_flag
    c = s.contributions[0]
    assert_allclose(c.action, 0.6142, atol=1e-4)
    assert_allclose(c.amplitude, 1.2206, atol=1e-3)
    assert_allclose(s.value, c.amplitude * np.cos(c.action / 0.05 - np.pi / 4),
                    atol=1e-12)
    assert_allclose(s.value, 0.588058, atol=1e-4)  # frozen composite


def test_outside_shell_empty():
    st = pure_state(harmonic, hbar=0.05, energy=0.5)
    s = eval_state((0.0, 1.5), st)
    assert s.value == 0.0 and s.contributions == () and not s.caustic_flag


def test_momentum_parity_even_hamiltonian():
    for system, energy in ((harmonic, 0.5), (quartic, 1.0)):
        st = pure_state(system, hbar=0.05, energy=energy)
        for x in [(0.3, 0.2), (0.5, -0.1), (0.1, 0.4)]:
            a = eval_state(x, st).value
            b = eval_state((-x[0], x[1]), st).value
            assert_allclose(a, b, atol=1e-6 * max(1.0, abs(a)))


@pytest.mark.parametrize("system, epsilon", [(harmonic, 0.0),
                                             (quartic, 0.05),
                                             (pendulum, 0.0)])
def test_eval_grid_matches_pointwise_loop(system, epsilon,
                                          even_odd_reference):
    # the grid holds outside corners and the centre, where all three
    # shells are point-symmetric: every chord is a caustic diameter.  It
    # also holds the bounding-box edges of the shell samples and exact
    # samples (on the shell), and its inside points span several blocks
    energy = -0.4 if system is pendulum else 0.5
    state = spectral_state(system, energy, epsilon, 0.05)
    shell = state.shell
    pts = shell.points
    ks = [np.argmin(pts[:, 0]), np.argmax(pts[:, 0]),
          np.argmin(pts[:, 1]), np.argmax(pts[:, 1]), 300]
    top = 1.2 * np.max(np.abs(pts), axis=0)
    ps = np.union1d(np.linspace(-top[0], top[0], 9), pts[ks, 0])
    qs = np.union1d(np.linspace(-top[1], top[1], 9), pts[ks, 1])
    xs = np.stack(np.meshgrid(ps, qs), axis=-1).reshape(-1, 2)
    inside = _inside(shell, xs)
    assert np.array_equal(inside, even_odd_reference(shell, xs))
    assert inside.sum() > 2 * _BLOCK
    grid = eval_grid(state, ps, qs)
    for i, q in enumerate(qs):
        for k, p in enumerate(ps):
            s = eval_state((p, q), state)
            assert grid.values[i, k] == s.value
            assert grid.n_chords[i, k] == len(s.contributions)
            assert grid.caustic[i, k] == s.caustic_flag
            assert grid.dropped_seeds[i, k] == s.dropped_seeds
            assert ([c.caustic for c in find_chords(shell, (p, q))]
                    == [c.caustic for c in s.contributions])
    assert grid.caustic[qs == 0.0, ps == 0.0].all()
    for k in ks:  # a shell sample owns one degenerate, caustic chord
        at = (qs == pts[k, 1])[:, None] & (ps == pts[k, 0])[None, :]
        assert grid.n_chords[at].tolist() == [1] and grid.caustic[at].all()


def test_dropped_seeds_counted():
    st = pure_state(quartic, hbar=0.05, energy=0.5)
    ps, qs = np.linspace(-1.1, 1.1, 21), np.linspace(-0.95, 0.95, 21)
    grid = eval_grid(st, ps, qs)
    outside = ~st.shell.contains(np.stack(np.meshgrid(ps, qs), axis=-1))
    assert outside.any() and grid.dropped_seeds.sum() > 0
    assert not grid.dropped_seeds[outside].any()
    # every seed of this circle point converges
    circle = pure_state(harmonic, hbar=0.05, energy=0.5)
    assert eval_state((0.0, 0.5), circle).dropped_seeds == 0


def test_pure_state_level_selection():
    st = pure_state(harmonic, hbar=1.0, n=10)
    assert_allclose(st.shell.energy, 10.5, atol=1e-5)
    with pytest.raises(ValueError):
        pure_state(harmonic, hbar=1.0)
    with pytest.raises(ValueError):
        pure_state(harmonic, hbar=1.0, n=3, energy=2.0)


def test_window_factor_forms():
    assert window_factor(1.7, 0.0, 0.05) == 1.0
    eps, hbar = 0.02, 0.05
    assert_allclose(window_factor(2 * hbar / eps, eps, hbar), np.exp(-2),
                    atol=1e-14)
    # nonincreasing in |tau|
    taus = np.linspace(0, 12, 60)
    vals = [window_factor(t, eps, hbar) for t in taus]
    assert np.all(np.diff(vals) <= 0)


def test_spectral_reduces_to_pure_and_ratio():
    pure = pure_state(harmonic, hbar=0.05, energy=0.5)
    zero_eps = spectral_state(harmonic, 0.5, 0.0, 0.05)
    x = (0.0, 0.5)
    assert_allclose(eval_state(x, zero_eps).value, eval_state(x, pure).value,
                    atol=1e-12)
    sp = spectral_state(harmonic, 0.5, 0.02, 0.05)
    cp = eval_state(x, pure).contributions[0]
    cs = eval_state(x, sp).contributions[0]
    assert_allclose(cs.value / cp.value,
                    window_factor(cp.tau, 0.02, 0.05), atol=1e-12)


def test_oscillation_wavelength_matches_phase_gradient():
    # zero spacings of W along the q axis vs 2 pi hbar / |J xi . qhat|
    hbar = 0.02
    st = pure_state(harmonic, hbar=hbar, energy=0.5)
    qs = np.arange(0.0, 0.85, 1e-3)
    w = np.array([eval_state((0.0, q), st).value for q in qs])
    sign_flip = np.where(np.diff(np.sign(w)) != 0)[0]
    zeros = []
    for i in sign_flip:
        t = w[i] / (w[i] - w[i + 1])
        zeros.append(qs[i] + t * 1e-3)
    zeros = np.array(zeros)
    lam_meas = 2.0 * np.diff(zeros)
    q_mid = 0.5 * (zeros[1:] + zeros[:-1])
    # tips at (+-p_s, q): |(J xi)_q| = 2 sqrt(2E - q^2)
    lam_pred = 2 * np.pi * hbar / (2 * np.sqrt(1.0 - q_mid**2))
    # exclude both caustics: the shell itself and the focal point at the
    # origin (diameter chords, vanishing wedge)
    ok = (q_mid > 0.05) & (q_mid < 0.8)
    assert np.all(np.abs(lam_meas[ok] / lam_pred[ok] - 1) < 0.10)


def test_grid_eval_emission(tmp_path):
    st = spectral_state(harmonic, 0.5, 0.02, 0.05)
    res = eval_grid(st, ps=np.linspace(-0.4, 0.4, 5),
                    qs=np.linspace(-0.4, 0.4, 6))
    assert res.values.shape == (6, 5)
    assert np.all(res.n_chords[res.values != 0] >= 1)
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    res.write_csv(csv_a)
    res.write_csv(csv_b)
    assert csv_a.read_bytes() == csv_b.read_bytes()
    head = csv_a.read_text().splitlines()[0]
    assert head == "p,q,W,n_chords,caustic_flag"
    payload = res.manifest()
    assert payload["hbar"] == 0.05 and payload["epsilon"] == 0.02
    assert "maslov" in payload["conventions"]


def test_write_csv_matches_csv_writer(tmp_path):
    # the grid holds the caustic centre, points outside the shell and
    # negative zeros, both as coordinates and as W values
    st = pure_state(harmonic, hbar=0.05, energy=0.5)
    axis = np.linspace(-1.2, 1.2, 13)
    axis[6] = -0.0
    res = eval_grid(st, ps=axis, qs=axis[::-1].copy())
    outside = res.n_chords == 0
    res.values[outside] = -0.0
    assert res.caustic.any() and outside.any()
    assert np.signbit(res.values[outside]).all()
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p", "q", "W", "n_chords", "caustic_flag"])
        for i, q in enumerate(res.qs):
            for k, p in enumerate(res.ps):
                w.writerow([f"{p:.12g}", f"{q:.12g}",
                            f"{res.values[i, k]:.12g}",
                            int(res.n_chords[i, k]), int(res.caustic[i, k])])
    res.write_csv(tmp_path / "out.csv")
    body = (tmp_path / "out.csv").read_bytes()
    assert body == (tmp_path / "ref.csv").read_bytes()
    assert b"\r\n-0,-0," in body and b",-0,0,0\r\n" in body


def test_eigenshell_mixture_matches_oracle():
    # equal mixture of the n = 9, 10 shells vs the exact mixed-state W
    hbar = 1.0
    basis = solve_eigenstates(harmonic, hbar=hbar, count=12)
    dq = basis.dq
    rho = 0.5 * (np.outer(basis.psis[9], basis.psis[9])
                 + np.outer(basis.psis[10], basis.psis[10]))
    wg = weyl_transform(DensityGrid(qs=basis.qs, rho=rho.astype(complex),
                                    hbar=hbar))
    st9 = pure_state(harmonic, hbar=hbar, n=9)
    st10 = pure_state(harmonic, hbar=hbar, n=10)
    qs = np.linspace(0.5, 3.6, 40)
    sc, ex = [], []
    for q in qs:
        sc.append(0.5 * eval_state((0.0, q), st9).value
                  + 0.5 * eval_state((0.0, q), st10).value)
        ex.append(float(wg.interp([(0.0, q)])[0]))
    sc, ex = np.array(sc), np.array(ex)
    scale = np.max(np.abs(ex))
    assert np.max(np.abs(sc - ex)) < 0.15 * scale
