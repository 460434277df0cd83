"""WKB branch decomposition and damped density-matrix elements."""
import numpy as np
import pytest
from scipy.integrate import quad

from chordwigner import build_shell, make_system
from chordwigner.flow import NumericalError, polynomial_system
from chordwigner.lindblad import momentum_channel, position_channel
from chordwigner.projection import (
    TurningPointError,
    density_matrix_sc,
    momentum_rep_element,
    swapped_shell,
    swapped_system,
    wkb_branches,
    write_element_grid,
)
from chordwigner.wigner import eval_state, pure_state

HARM = make_system("harmonic")
SHELL = build_shell(HARM, 0.5)
FROZEN = polynomial_system({}, name="zero")  # H = 0, not the shell's H
HBAR = 0.05


def rotation_d2(x_plus, x_minus, t):
    """D_t^2 for L = q on the unit oscillator, whose tips rotate rigidly
    (the closed form of test_normalization.closed_form_purity)."""
    dp, dq = np.subtract(x_plus, x_minus)
    return (dq**2 * (t / 2 + np.sin(2 * t) / 4)
            + dp**2 * (t / 2 - np.sin(2 * t) / 4) + dq * dp * np.sin(t) ** 2)


def assert_rotation_damping(e0, e1, shell, a_plus, a_minus, t):
    # Each term keeps its t = 0 phase and is damped by the closed form.
    # Simpson nodes on moving tips leave ~1e-9 in the damping; the
    # rel 1e-12 of a static-tip check held only because Simpson
    # integrates a constant integrand exactly.
    x_plus = {b.j: b.x for b in wkb_branches(a_plus, shell)}
    x_minus = {b.j: b.x for b in wkb_branches(a_minus, shell)}
    assert len(e1.terms) == len(e0.terms) == 4
    for t0, t1 in zip(e0.terms, e1.terms):
        assert t1.phase == pytest.approx(t0.phase, abs=1e-12)
        d2 = rotation_d2(x_plus[t1.j_plus], x_minus[t1.j_minus], t)
        assert t1.damping == pytest.approx(np.exp(-d2 / (2 * HBAR)),
                                           rel=1e-8)


def test_branches_harmonic():
    br = wkb_branches(0.0, SHELL)
    assert len(br) == 2
    up, down = br
    assert up.p == pytest.approx(1.0, abs=1e-7)
    assert down.p == pytest.approx(-1.0, abs=1e-7)
    # amplitude 1/sqrt(T |dH/dp|) with T = 2pi, |p| = 1
    for b in br:
        assert b.amplitude == pytest.approx(1.0 / np.sqrt(2 * np.pi),
                                            abs=1e-7)
    # int p dq from the left turning point q = -1
    # forward branch: int_{-1}^{0} sqrt(1-q^2) dq; return branch: the
    # complement of the loop area pi
    assert up.action == pytest.approx(np.pi / 4, abs=1e-6)
    assert down.action == pytest.approx(3 * np.pi / 4, abs=1e-6)
    assert (up.nu, down.nu) == (0, 1)


def test_branch_amplitudes_unit_trace():
    def dens(q):
        return sum(b.amplitude**2 for b in wkb_branches(q, SHELL))

    total, _ = quad(dens, -1.0, 1.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-5)


def test_turning_and_forbidden():
    at_turn = wkb_branches(1.0, SHELL)
    assert len(at_turn) == 1 and at_turn[0].turning
    assert wkb_branches(1.5, SHELL) == []
    assert wkb_branches(-2.0, SHELL) == []


@pytest.mark.parametrize("q", [0.3, -0.55])
def test_action_gradient_is_momentum(q):
    h = 1e-5
    for j in range(2):
        sp = wkb_branches(q + h, SHELL)[j]
        sm = wkb_branches(q - h, SHELL)[j]
        p0 = wkb_branches(q, SHELL)[j].p
        assert (sp.action - sm.action) / (2 * h) == pytest.approx(p0,
                                                                  abs=1e-6)


def test_element_hermitian_and_term_count():
    el = density_matrix_sc(0.3, 0.1, SHELL, HARM, [], 0.0, HBAR)
    rev = density_matrix_sc(0.1, 0.3, SHELL, HARM, [], 0.0, HBAR)
    assert el.value == pytest.approx(np.conj(rev.value), abs=1e-12)
    assert len(el.terms) == 4
    assert all(t.damping == 1.0 for t in el.terms)
    assert not el.flagged


def test_diagonal_branch_pairs_undamped():
    # equal positions: the (j, j) pairs ride identical trajectories
    el = density_matrix_sc(0.3, 0.3, SHELL, HARM, [position_channel()],
                           0.9, HBAR)
    diag = [t for t in el.terms if t.j_plus == t.j_minus]
    off = [t for t in el.terms if t.j_plus != t.j_minus]
    assert diag and all(t.damping == 1.0 for t in diag)
    assert off and all(t.damping < 0.999 for t in off)


def test_harmonic_position_decay_closed_form():
    chan = [position_channel()]
    e0 = density_matrix_sc(0.3, 0.1, SHELL, HARM, chan, 0.0, HBAR)
    e1 = density_matrix_sc(0.3, 0.1, SHELL, HARM, chan, 0.7, HBAR)
    assert_rotation_damping(e0, e1, SHELL, 0.3, 0.1, 0.7)


def test_foreign_dynamics_rejected():
    # on-shell tips move with the shell's own H; other dynamics would
    # leave the WKB phases unevolved, so they raise instead
    chan = [position_channel()]
    with pytest.raises(ValueError, match="shell.system"):
        density_matrix_sc(0.3, 0.1, SHELL, FROZEN, chan, 0.7, HBAR)
    with pytest.raises(ValueError, match="shell.system"):
        momentum_rep_element(0.4, 0.15, SHELL, FROZEN, chan, 0.6, HBAR)


def test_turning_angles_are_roots_of_dq_dtheta():
    # the harmonic shell starts at (p, q) = (1, 0), so q turns at 3 pi/2
    # (left) and pi/2 (right), where p = dq/dt vanishes
    left, right = SHELL.q_turning_angles()
    np.testing.assert_allclose([left, right], [1.5 * np.pi, 0.5 * np.pi],
                               rtol=0, atol=1e-12)
    assert np.all(np.abs(SHELL.point([left, right])[:, 0]) < 1e-12)
    # a well that H(p, 0) never reaches starts on p = 0: its left turning
    # point sits on the seam theta = 0 = 2 pi and counts once
    well = polynomial_system({(2, 0): 0.5, (0, 4): 0.5, (0, 2): -1.0,
                              (0, 0): 0.5})
    shell = build_shell(well, 0.3)
    left, right = shell.q_turning_angles()
    assert min(left, 2 * np.pi - left) < 1e-9
    assert right == pytest.approx(np.pi, abs=1e-9)
    branches = wkb_branches(1.0, shell)
    assert [b.p for b in branches] == pytest.approx([0.6 ** 0.5,
                                                     -0.6 ** 0.5])


def test_degenerate_turning_point_keeps_branches():
    # swapped, the quartic's q - q_t ~ dtheta^4 at the turning points, and
    # the spline's dq/dtheta has two spurious roots a sample step apart
    quartic = make_system("quartic")
    shell = build_shell(quartic, 0.5)
    sw_shell, _ = swapped_shell(shell, [])
    q = sw_shell.points[:, 1]
    qs = sw_shell.point(sw_shell.q_turning_angles())[:, 1]
    np.testing.assert_allclose(qs, [q.min(), q.max()], rtol=0, atol=1e-12)
    el = momentum_rep_element(0.3, 0.1, shell, quartic, [], 0.0, HBAR)
    assert len(el.terms) == 4 and not el.flagged


def test_folded_shell_raises():
    # dq/dt = p^3 - p changes sign at p = 0 and p = +-1, so q turns six
    # times on the E = 0.5 shell, and q = 1.1 has four momentum branches
    folded = polynomial_system({(4, 0): 0.25, (2, 0): -0.5, (0, 2): 0.5})
    shell = build_shell(folded, 0.5)
    for _ in range(2):  # a failed search is not kept
        with pytest.raises(NumericalError, match="6 q-turning points"):
            wkb_branches(1.1, shell)
    with pytest.raises(NumericalError):
        density_matrix_sc(1.1, 1.05, shell, folded, [], 0.0, HBAR)


def test_turning_query_raises():
    with pytest.raises(TurningPointError):
        density_matrix_sc(1.0, 0.3, SHELL, HARM, [], 0.0, HBAR)


def test_stationary_phase_consistency():
    # p-integral of the chord Wigner function against the branch-pair sum
    state = pure_state(HARM, HBAR, energy=0.5)
    qp, qm = 0.3, 0.1
    qbar, dq = 0.5 * (qp + qm), qp - qm
    pmax = np.sqrt(1.0 - qbar**2)
    ps = np.linspace(-0.995 * pmax, 0.995 * pmax, 421)
    w = np.array([eval_state((p, qbar), state).value for p in ps])
    rho = np.trapezoid(w * np.exp(1j * ps * dq / HBAR), ps)
    el = density_matrix_sc(qp, qm, SHELL, HARM, [], 0.0, HBAR)
    assert abs(rho - el.value) / abs(el.value) < 0.15


def test_momentum_rep_matches_symmetric_hamiltonian():
    # (p^2 + q^2)/2 is swap-invariant, so both representations coincide
    pos = density_matrix_sc(0.3, 0.1, SHELL, HARM, [], 0.0, HBAR)
    mom = momentum_rep_element(0.3, 0.1, SHELL, HARM, [], 0.0, HBAR)
    assert mom.value == pytest.approx(pos.value, abs=1e-9)


def test_momentum_rep_harmonic_decay_closed_form():
    # L = p reads the swapped shell's q, which rotates rigidly as well
    chan = [momentum_channel()]
    e0 = momentum_rep_element(0.4, 0.15, SHELL, HARM, chan, 0.0, HBAR)
    e1 = momentum_rep_element(0.4, 0.15, SHELL, HARM, chan, 0.7, HBAR)
    sw_shell = build_shell(swapped_system(HARM), 0.5)
    assert_rotation_damping(e0, e1, sw_shell, 0.4, 0.15, 0.7)


def test_write_element_grid(tmp_path):
    els = [density_matrix_sc(a, b, SHELL, HARM, [], 0.0, HBAR)
           for a, b in ((0.3, 0.1), (0.2, -0.2))]
    path = tmp_path / "els.csv"
    write_element_grid(path, els)
    lines = path.read_text().splitlines()
    assert lines[0] == "q_plus,q_minus,re,im,damping_min"
    assert len(lines) == 3
    path2 = tmp_path / "els2.csv"
    write_element_grid(path2, els)
    assert path.read_bytes() == path2.read_bytes()
