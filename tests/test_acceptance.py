"""Acceptance battery: every deliverable guarantee at its stated tolerance.

One test per guarantee.  Each measures the quantity, records a one-line
verdict for the end-of-run report, and asserts at the stated tolerance.
Where a target is a closed-form constant, its derivation lives next to
the assert or in the check's docstring.
"""
import numpy as np
import pytest

from chordwigner.compare import (
    check_cat_rate,
    check_diffusion_slope,
    check_eigenstate_wigner,
    check_off_diagonal,
    check_purity_decay,
    check_trace_factor,
)
from chordwigner.flow import hamiltonian_flow, make_system
from chordwigner.lindblad import (
    decoherence_distance,
    evolve_contribution,
    position_channel,
    trotter_evolve,
)
from chordwigner.normalization import purity_t0
from chordwigner.oracle import (
    DensityGrid,
    hermite_psi,
    inverse_weyl,
    moyal_star,
    weyl_transform,
)
from chordwigner.shells import Chord, build_shell, find_chords
from chordwigner.wigner import phase_gradient

HARMONIC = make_system("harmonic")


# --- 1: static cat-state decoherence rate ----------------------------------

def test_cat_state_decoherence_rate(criterion_report):
    r = check_cat_rate()
    criterion_report(
        "1 cat-state rate", r.passed,
        f"oracle {r.oracle:.6f} vs (dq)^2/2hbar = {r.semiclassical:.1f}, "
        f"delta {r.delta:.2e} (tol 1%)")
    assert r.delta < 0.01


# --- 2: eigenstate Wigner reconstruction -----------------------------------

def test_eigenstate_wigner_reconstruction(criterion_report):
    r = check_eigenstate_wigner()
    d = r.detail
    ok = r.delta < 0.10 and d["maslov_error"] < d["maslov_tolerance"]
    criterion_report(
        "2 eigenstate Wigner", ok,
        f"pointwise delta {r.delta:.1%} of peak over {d['n_points']} points "
        f"(tol 10%); fitted maslov {d['fitted_maslov']:.4f} vs pi/4, "
        f"error {d['maslov_error']:.4f} rad (tol 0.1)")
    assert r.delta < 0.10
    assert d["maslov_error"] < d["maslov_tolerance"]


# --- 3: purity identity at t = 0 -------------------------------------------

def test_purity_identity_three_shells(criterion_report):
    cases = [("harmonic", 0.5), ("quartic", 0.5), ("pendulum", -0.2)]
    worst = 0.0
    for name, energy in cases:
        shell = build_shell(make_system(name), energy)
        worst = max(worst, abs(purity_t0(shell, 0.05) - 1.0))
    criterion_report(
        "3 purity identity", worst < 1e-9,
        f"max |tr rho^2 - 1| = {worst:.2e} over "
        f"{[c[0] for c in cases]} (tol 1e-9)")
    assert worst < 1e-9


# --- 4: direct trace factor ------------------------------------------------

@pytest.fixture(scope="module")
def trace_factor():
    return check_trace_factor()


def test_trace_factor_hbar_stability(trace_factor, criterion_report):
    st = trace_factor.detail["stability"]
    criterion_report(
        "4a trace factor hbar-stability", st < 0.05,
        f"variation {st:.2%} over hbar in {{0.1, 0.05, 0.025}} (tol 5%)")
    assert st < 0.05


def test_trace_factor_extrapolated_value(trace_factor, criterion_report):
    r = trace_factor
    d = r.detail
    criterion_report(
        "4b trace factor value", r.delta < 0.10,
        f"extrapolated {r.semiclassical:.4f} vs 1/sqrt(3) = {r.oracle:.4f} "
        f"(delta {r.delta:.2%}, tol 10%); Maslov-offset variant "
        f"sqrt(2/3) = {d['berry_constant']:.4f}")
    # The stationary line of the trace integral is a fold (the chord
    # action vanishes cubically at coinciding tips), so the count is
    # Airy-type: each end of the angle-separation range contributes
    # (1/3) sqrt(12 hbar) Gamma(1/2) cos(pi/4), which the prefactor
    # turns into exactly 1/sqrt(3) for any shell.
    assert r.delta < 0.10, (
        f"extrapolated trace factor {r.semiclassical:.4f} is "
        f"{r.delta:.1%} from 1/sqrt(3) = {r.oracle:.4f}")


# --- 5: energy diffusion slope ---------------------------------------------

@pytest.fixture(scope="module")
def diffusion_slope():
    return check_diffusion_slope()


def test_energy_diffusion_slope(diffusion_slope, criterion_report):
    r = diffusion_slope
    criterion_report(
        "5 diffusion slope", r.passed,
        f"oracle Var(E) slope {r.oracle:.6f} vs window_width slope "
        f"hbar*rate = {r.semiclassical:.6f} "
        f"(ratio {r.detail['slope_ratio']:.3f}, tol 15%)")
    # Exactly, d Var(E)/dt = hbar <p^2> for L = q; the ratio sits a few
    # percent above 1 because the coupling also heats the mean energy at
    # hbar / 2, which raises <p^2> over the fit window.
    assert r.delta < 0.15, (
        f"oracle slope {r.oracle:.6f} is {r.detail['slope_ratio']:.2f}x "
        f"the predicted hbar*rate = {r.semiclassical:.6f}")


def test_diffusion_slope_tracks_unhalved_rate(diffusion_slope,
                                              criterion_report):
    # supplementary: same oracle data against the closed form hbar*rate,
    # independent of window_width
    r = diffusion_slope
    closed_form = r.detail["hbar"] * r.detail["bracket_rate"]
    delta = abs(r.oracle - closed_form) / closed_form
    criterion_report(
        "5s diffusion slope vs closed form", delta < 0.15,
        f"oracle {r.oracle:.6f} vs hbar*rate = {closed_form:.6f} "
        f"(delta {delta:.1%}; residual is the heating drift)")
    assert delta < 0.15


# --- 6: purity decay vs oracle ---------------------------------------------

@pytest.fixture(scope="module")
def purity_decay_results():
    return {hb: check_purity_decay(hbar=hb) for hb in (0.05, 0.025)}


def test_purity_decay_tracks_oracle(purity_decay_results, criterion_report):
    worst = {hb: r.delta for hb, r in purity_decay_results.items()}
    ok = all(r.passed for r in purity_decay_results.values())
    rows = {hb: len(r.detail["rows"]) for hb, r in
            purity_decay_results.items()}
    criterion_report(
        "6a purity decay", ok,
        f"worst delta {worst[0.05]:.2e} (hbar 0.05, {rows[0.05]} rows), "
        f"{worst[0.025]:.2e} (hbar 0.025, {rows[0.025]} rows) "
        f"while purity > 0.5 (tol 10%)")
    for r in purity_decay_results.values():
        assert len(r.detail["rows"]) >= 3
        assert r.delta < r.tolerance


def test_purity_decay_improves_with_hbar(purity_decay_results,
                                         criterion_report):
    d_big = purity_decay_results[0.05].delta
    d_small = purity_decay_results[0.025].delta
    criterion_report(
        "6b purity decay hbar-improvement", d_small < d_big,
        f"delta {d_big:.2e} -> {d_small:.2e} as hbar 0.05 -> 0.025")
    assert d_small < d_big


# --- 7: Trotter convergence ------------------------------------------------

def test_trotter_first_order_convergence(criterion_report):
    chord0 = Chord.from_tips([0.0, 0.6], [0.0, -0.6])
    chan = [position_channel()]
    t, hbar = 0.8, 0.05
    cont = np.log(evolve_contribution(chord0, HARMONIC, chan, t,
                                      hbar).damping)
    ns = np.array([8, 16, 32, 64, 128])
    errs = np.array([abs(np.log(trotter_evolve(chord0, HARMONIC, chan, t,
                                               int(n), hbar).damping) - cont)
                     for n in ns])
    order = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    ok = 0.8 <= order <= 1.2 and all(np.diff(errs) < 0)
    criterion_report(
        "7 Trotter order", ok,
        f"|log damping_N - log damping_cont| fits order {order:.3f} "
        f"over N in {[int(n) for n in ns]} (window [0.8, 1.2])")
    assert all(np.diff(errs) < 0)
    assert 0.8 <= order <= 1.2


# --- 8: off-diagonal damping with dynamics on ------------------------------

def test_off_diagonal_damping(criterion_report):
    r = check_off_diagonal()
    d = r.detail
    criterion_report(
        "8 off-diagonal damping", r.passed,
        f"{d['n_compared']} element ratios over {d['n_probes']} antinode "
        f"pairs within 15% on log scale (worst at {r.delta:.1%} of "
        f"tolerance)")
    assert d["n_compared"] >= 3
    assert r.passed


# --- 9: invariant battery --------------------------------------------------

def test_invariant_suites(criterion_report):
    results = []

    # symplecticity: the flow map's Jacobian has unit determinant
    def flow_map(x):
        return hamiltonian_flow(HARMONIC, x, 0.7, dt=1e-3).final

    x0, h = np.array([0.4, 0.3]), 1e-5
    cols = [(flow_map(x0 + h * e) - flow_map(x0 - h * e)) / (2 * h)
            for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
    jac = np.stack(cols, axis=1)
    results.append(("symplecticity", abs(np.linalg.det(jac) - 1.0), 1e-8))

    # Hamilton-Jacobi: d(chord action)/d(centre) = J xi along a branch
    shell = build_shell(HARMONIC, 0.5)
    x_c = np.array([0.15, 0.35])
    base = [c for c in find_chords(shell, x_c) if not c.caustic][0]

    def tracked_action(x):
        cands = [c for c in find_chords(shell, x) if not c.caustic]
        key = lambda c: (abs(np.exp(1j * c.theta_plus)
                             - np.exp(1j * base.theta_plus))
                         + abs(np.exp(1j * c.theta_minus)
                               - np.exp(1j * base.theta_minus)))
        return min(cands, key=key).action

    fd = np.array(
        [(tracked_action(x_c + h * e) - tracked_action(x_c - h * e)) / (2 * h)
         for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))])
    results.append(("hamilton-jacobi",
                    float(np.max(np.abs(fd - phase_gradient(base)))), 1e-6))

    # decoherence distance: D^2 adds over concatenated time intervals
    xp, xm = np.array([0.0, 0.7]), np.array([0.0, -0.4])
    chan = [position_channel()]
    t1, t2 = 0.3, 0.5
    full = decoherence_distance(xp, xm, HARMONIC, chan, t1 + t2).d2
    first = decoherence_distance(xp, xm, HARMONIC, chan, t1).d2
    xp1 = hamiltonian_flow(HARMONIC, xp, t1, dt=1e-3).final
    xm1 = hamiltonian_flow(HARMONIC, xm, t1, dt=1e-3).final
    second = decoherence_distance(xp1, xm1, HARMONIC, chan, t2).d2
    results.append(("D_t additivity", abs(full - first - second), 1e-8))

    # star product: canonical commutator q * p - p * q = i hbar
    hbar = 0.05
    comm = dict(moyal_star({(0, 1): 1.0}, {(1, 0): 1.0}, hbar=hbar))
    for key, val in moyal_star({(1, 0): 1.0}, {(0, 1): 1.0},
                               hbar=hbar).items():
        comm[key] = comm.get(key, 0.0) - val
    resid = abs(comm.pop((0, 0), 0.0) - 1j * hbar)
    resid += sum(abs(v) for v in comm.values())
    results.append(("star commutator", float(resid), 1e-14))

    # Weyl round trip on a thermal-like mixture
    qs = np.linspace(-2.4, 2.4, 64, endpoint=False)
    psis = hermite_psi(5, qs, 0.1)
    weights = np.exp(-0.5 * np.arange(6))
    rho = (psis.T * weights) @ psis
    rho = rho / (np.trace(rho).real * (qs[1] - qs[0]))
    grid = DensityGrid(qs=qs, rho=rho.astype(complex), hbar=0.1)
    back = inverse_weyl(weyl_transform(grid))
    rt = float(np.max(np.abs(back.rho - grid.rho))
               / np.max(np.abs(grid.rho)))
    results.append(("Weyl round trip", rt, 1e-8))

    ok = all(val < tol for _, val, tol in results)
    criterion_report(
        "9 invariants", ok,
        "; ".join(f"{name} {val:.1e} (tol {tol:g})"
                  for name, val, tol in results))
    for name, val, tol in results:
        assert val < tol, f"{name}: {val:.3e} >= {tol:g}"
