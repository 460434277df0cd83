"""Semiclassical-vs-exact comparison checks.

Each check pits one semiclassical prediction against the independent
quantum oracle (or against a derived closed-form constant) and reports
a uniform record: the two values, their delta, the tolerance, and a
pass flag.
The CLI `oracle-compare` command serializes these records; the
acceptance suite asserts on them.
"""
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .flow import make_system
from .lindblad import hermitian_decay_rate, position_channel
from .normalization import direct_trace, purity_decay
from .oracle import (
    TruncatedState,
    energy_variance,
    gaussian_window_weights,
    harmonic_ladder,
    hermite_psi,
    lindblad_integrate,
    solve_eigenstates,
    wigner_of_state,
)
from .projection import density_matrix_sc, wkb_branches
from .shells import _MASLOV, Chord, _search_chords, build_shell, named_shell
from .wigner import SemiclassicalState, _terms


# acceptance targets, fixed so that a caller cannot regrade a result
_CAT_RATE_TOL = 0.01
_EIGEN_TOL = 0.10            # pointwise |delta W| over the peak
_MASLOV_TOL = 0.10           # fitted offset error, rad
_CAUSTIC_FRACTION = 0.04     # |wedge| floor of compared points / speed
_TRACE_TOL = 0.10
_DIFFUSION_TOL = 0.15
_PURITY_TOL = 0.10
_LOG_TOL_FLOOR = 0.10        # off-diagonal log-ratio tolerance: the floor
_LOG_FRACTION = 0.15         # or this fraction of |log ratio|


@dataclass
class CheckResult:
    name: str
    semiclassical: float
    oracle: float
    delta: float
    tolerance: float
    passed: bool
    detail: Dict = field(default_factory=dict)


def check_cat_rate(hbar: float = 0.05, separation: float = 2.0
                   ) -> CheckResult:
    """Static cat coherence: oracle decay rate vs (Delta q)^2 / 2 hbar."""
    a = 0.5 * separation
    chord = Chord.from_tips((0.0, a), (0.0, -a))
    semi = hermitian_decay_rate(chord, [position_channel()], hbar)

    # 100 points over [-2.5, 2.5) put the tips exactly on the grid
    qs = np.linspace(-2.5, 2.5, 100, endpoint=False)
    g = (np.exp(-((qs - a) ** 2) / (2 * hbar))
         + np.exp(-((qs + a) ** 2) / (2 * hbar)))
    g = g / np.sqrt(np.sum(g**2) * (qs[1] - qs[0]))
    state = TruncatedState(rho=np.outer(g, g).astype(complex),
                           energies=np.zeros(len(qs)), hbar=hbar)
    times = np.linspace(0.0, 0.04, 9)
    states, _ = lindblad_integrate(state, None, [np.diag(qs)], times)
    i_p = int(np.argmin(np.abs(qs - a)))
    i_m = int(np.argmin(np.abs(qs + a)))
    coh = np.array([abs(s.rho[i_p, i_m]) for s in states])
    oracle_rate = -float(np.polyfit(times, np.log(coh), 1)[0])
    # the grid snaps the tips; compare against the snapped separation
    semi_snapped = (qs[i_p] - qs[i_m]) ** 2 / (2 * hbar)
    delta = abs(oracle_rate / semi_snapped - 1.0)
    return CheckResult(
        name="cat_rate", semiclassical=float(semi), oracle=oracle_rate,
        delta=delta, tolerance=_CAT_RATE_TOL,
        passed=bool(delta < _CAT_RATE_TOL),
        detail={"separation": separation, "hbar": hbar,
                "snapped_rate": semi_snapped})


def check_eigenstate_wigner(n_level: int = 10, hbar: float = 1.0
                            ) -> CheckResult:
    """Chord-sum Wigner function vs the exact eigenstate's transform.

    Pointwise deltas are normalized to the peak oscillation amplitude
    over the compared (caustic-safe) points.  The chord phases carry the
    offset pi/4; the residual offset that fits the oracle best must be
    near 0, so the fitted Maslov offset lands near pi/4.
    """
    system = make_system("harmonic")
    shell = named_shell(system, hbar, n_level)
    state = SemiclassicalState(shell=shell, hbar=hbar)

    basis = solve_eigenstates(system, hbar, count=n_level + 6)
    wg = wigner_of_state(basis.psis[n_level], basis.qs, hbar)

    r = np.sqrt(2.0 * shell.energy)
    wedge_floor = _CAUSTIC_FRACTION * shell.speed_scale
    cells = [(s, k) for s in range(0, len(wg.q_centres), 24)
             for k in range(0, len(wg.ps), 16)
             if 0.15 * r <= np.hypot(wg.ps[k], wg.q_centres[s]) <= 0.82 * r]
    xs = np.array([[wg.ps[k], wg.q_centres[s]] for s, k in cells],
                  dtype=float).reshape(-1, 2)
    # points with a caustic or near-caustic chord are left out
    found = _search_chords(shell, xs)
    amp, win, phase = _terms(state, found)
    z = np.zeros(len(xs), dtype=complex)
    np.add.at(z, found.owner, amp * win * np.exp(1j * phase))
    skip = found.caustic | (np.abs(found.wedge) < wedge_floor)
    use = ((np.bincount(found.owner, minlength=len(xs)) > 0)
           & (np.bincount(found.owner[skip], minlength=len(xs)) == 0))
    z_arr = z[use]
    ref = np.array([wg.w[s, k] for s, k in cells], dtype=float)[use]
    phis = np.linspace(-np.pi, np.pi, 720, endpoint=False)
    resid = [float(np.sum((np.real(z_arr * np.exp(-1j * f)) - ref) ** 2))
             for f in phis]
    best = int(np.argmin(resid))
    # parabolic refinement around the best sample
    f0, fm, fp = (resid[best], resid[best - 1],
                  resid[(best + 1) % len(phis)])
    shift = 0.5 * (fm - fp) / (fm - 2 * f0 + fp)
    phi_star = float(phis[best] + shift * (phis[1] - phis[0]))

    w_sc = np.real(z_arr)
    peak = float(np.max(np.abs(ref)))
    delta = float(np.max(np.abs(w_sc - ref)) / peak)
    maslov_err = abs(phi_star)
    passed = bool(delta < _EIGEN_TOL and maslov_err < _MASLOV_TOL)
    return CheckResult(
        name="eigenstate_wigner", semiclassical=float(np.max(np.abs(w_sc))),
        oracle=peak, delta=delta, tolerance=_EIGEN_TOL, passed=passed,
        detail={"n_level": n_level, "hbar": hbar, "n_points": len(ref),
                "fitted_maslov": _MASLOV + phi_star,
                "maslov_error": maslov_err,
                "maslov_tolerance": _MASLOV_TOL})


def check_trace_factor() -> CheckResult:
    """Direct-trace limit vs the fold count 1/sqrt(3).

    Near coinciding tips, at angle separation u, |wedge| ~ a|u| and the
    chord action is the shorter-arc area a|u|^3 / 12 at both ends of
    u in [0, 2 pi].  Substituting s = a u^3 / 12 hbar turns each end
    into (1/3) sqrt(12 hbar) int s^{-1/2} cos s ds
    = (1/3) sqrt(12 hbar) Gamma(1/2) cos(pi/4); with the prefactor
    1 / (4 pi sqrt(2 pi hbar)) the two ends sum to exactly 1/sqrt(3),
    whatever a is.  The Maslov-offset variant gives sqrt(2/3) the same
    way; detail records that constant as berry_constant, without
    computing the variant.  Passing also needs the values to vary by
    under 5% across hbar.
    """
    shell = build_shell(make_system("harmonic"), 2.0)
    vals = {h: direct_trace(shell, h).value for h in (0.1, 0.05, 0.025)}
    stability = max(
        abs(vals[0.05] - vals[0.1]) / abs(vals[0.05]),
        abs(vals[0.025] - vals[0.05]) / abs(vals[0.025]))
    extrapolated = 2 * vals[0.025] - vals[0.05]
    target = 1.0 / np.sqrt(3.0)
    delta = abs(extrapolated - target) / target
    return CheckResult(
        name="trace_factor", semiclassical=float(extrapolated),
        oracle=float(target), delta=float(delta), tolerance=_TRACE_TOL,
        passed=bool(delta < _TRACE_TOL and stability < 0.05),
        detail={"values": {f"{h:g}": v for h, v in vals.items()},
                "stability": float(stability),
                "berry_constant": float(np.sqrt(2.0 / 3.0))})


def check_diffusion_slope(hbar: float = 0.05, energy: float = 0.5,
                          epsilon0: float = 0.1, t_final: float = 2.0
                          ) -> CheckResult:
    """Oracle Var(E) growth vs the slope of window_width's eps(t)^2.

    The predicted slope is read off the predictor itself, so the check
    tests window_width; for L = q on the harmonic shell it is
    hbar * bracket_rate.  The oracle also heats the mean energy at
    hbar / 2, which lifts its slope a few percent above the prediction.
    """
    from .diffusion import bracket_rate, window_width

    system = make_system("harmonic")
    chan = [position_channel()]
    rate = bracket_rate(energy, chan, system)
    eps_final = window_width(epsilon0, t_final, hbar, rate)
    predicted = (eps_final**2 - epsilon0**2) / t_final

    # headroom above the window: the coupling both heats the mean and grows
    # exponential-looking tails, so the ladder needs generous slack to keep
    # the oracle's truncation-leak guard quiet over the full fit window
    count = int(np.ceil((energy + 8 * epsilon0 + hbar * t_final) / hbar)) + 50
    energies, q_mat, _ = harmonic_ladder(count, hbar)
    weights = gaussian_window_weights(energies, energy, epsilon0)
    rho0 = np.diag(weights / weights.sum()).astype(complex)
    state = TruncatedState(rho=rho0, energies=energies, hbar=hbar)
    times = np.linspace(0.0, t_final, 9)
    states, _ = lindblad_integrate(state, energies, [q_mat], times)
    var = np.array([energy_variance(s.rho, energies) for s in states])
    slope = float(np.polyfit(times, var, 1)[0])
    delta = abs(slope - predicted) / predicted
    return CheckResult(
        name="diffusion_slope", semiclassical=float(predicted), oracle=slope,
        delta=float(delta), tolerance=_DIFFUSION_TOL,
        passed=bool(delta < _DIFFUSION_TOL),
        detail={"hbar": hbar, "bracket_rate": float(rate),
                "slope_ratio": slope / predicted,
                "var_first": float(var[0]), "var_last": float(var[-1])})


def _decohering_level(n_level: int, count: int, hbar: float, times):
    """Oracle states at 0 and at each of times: level n_level of a
    count-level harmonic ladder under L = q."""
    energies, q_mat, _ = harmonic_ladder(count, hbar)
    rho0 = np.zeros((count, count), dtype=complex)
    rho0[n_level, n_level] = 1.0
    state = TruncatedState(rho=rho0, energies=energies, hbar=hbar)
    return lindblad_integrate(state, energies, [q_mat],
                              np.concatenate([[0.0], times]))[0]


def check_purity_decay(hbar: float = 0.05,
                       times: Optional[Sequence[float]] = None
                       ) -> CheckResult:
    """Angle-pair purity decay vs oracle tr rho^2 while purity > 0.5."""
    system = make_system("harmonic")
    n_level = int(round(0.5 / hbar))
    shell = named_shell(system, hbar, n_level)
    if times is None:
        t_half = 0.7 * hbar / (2.0 * shell.energy)  # crude 0.5-crossing scale
        times = np.linspace(0.0, 3.0 * t_half, 7)[1:]

    states = _decohering_level(n_level, n_level + 1 + max(12, n_level // 2),
                               hbar, times)

    deltas, rows = [], []
    for tv, st in zip(times, states[1:]):
        p_or = float(np.real(np.trace(st.rho @ st.rho)))
        if p_or <= 0.5:
            continue
        p_sc = purity_decay(shell, system, [position_channel()], float(tv),
                            hbar).value
        deltas.append(abs(p_sc - p_or) / p_or)
        rows.append({"t": float(tv), "semiclassical": p_sc, "oracle": p_or})
    worst = float(max(deltas)) if deltas else float("nan")
    passed = bool(deltas) and worst < _PURITY_TOL
    return CheckResult(
        name="purity_decay", delta=worst, tolerance=_PURITY_TOL, passed=passed,
        semiclassical=rows[-1]["semiclassical"] if rows else float("nan"),
        oracle=rows[-1]["oracle"] if rows else float("nan"),
        detail={"hbar": hbar, "n_level": n_level, "exponent": "hbar",
                "rows": rows})


def check_off_diagonal(hbar: float = 0.05) -> CheckResult:
    """Damped element ratio vs oracle, dynamics on, log scale.

    Probes are interference antinodes of the initial element; times are
    period fractions chosen so the damping ratio lands inside the
    measurable window; ratios outside [e^-8, e^-0.5] are skipped as
    unmeasurable against either roundoff or weak damping.
    """
    system = make_system("harmonic")
    n_level = int(round(0.5 / hbar)) - 1
    shell = named_shell(system, hbar, n_level)
    chan = [position_channel()]
    period = float(shell.period)

    # the dissipator spreads population far up the ladder over half a
    # period; the buffer is sized so the truncation-leak guard stays quiet
    count = n_level + 1 + max(70, 7 * n_level)
    times = [period / 32, period / 16, period / 8, period / 4, period / 2]
    states = _decohering_level(n_level, count, hbar, times)

    # antinode probe pairs on a coarse grid inside the allowed region
    r = np.sqrt(2.0 * shell.energy)
    grid = np.linspace(-0.85 * r, 0.85 * r, 15)
    psi = hermite_psi(count - 1, grid, hbar)
    rho0_q = psi.T @ np.real(states[0].rho) @ psi
    mag = np.abs(rho0_q)
    median = float(np.median(mag))
    order = np.dstack(np.unravel_index(np.argsort(mag, axis=None)[::-1],
                                       mag.shape))[0]
    probes = []
    for i, j in order:
        qp, qm = float(grid[i]), float(grid[j])
        if mag[i, j] < 2.0 * median or abs(qp - qm) < 0.3:
            continue
        if any(b.turning for q in (qp, qm) for b in wkb_branches(q, shell)):
            continue
        probes.append((qp, qm))
        if len(probes) == 3:
            break

    psi_p = {q: hermite_psi(count - 1, np.array([q]), hbar)[:, 0]
             for pair in probes for q in pair}
    rows, deltas = [], []
    for qp, qm in probes:
        e0 = density_matrix_sc(qp, qm, shell, system, chan, 0.0, hbar)
        o0 = abs(psi_p[qp] @ states[0].rho @ psi_p[qm])
        for tv, st in zip(times, states[1:]):
            et = density_matrix_sc(qp, qm, shell, system, chan, float(tv),
                                   hbar)
            r_sc = abs(et.value) / abs(e0.value)
            log_sc = float(np.log(r_sc))
            if not (-8.0 <= log_sc <= -0.5):
                continue
            r_or = abs(psi_p[qp] @ st.rho @ psi_p[qm]) / o0
            log_or = float(np.log(r_or))
            tol = max(_LOG_FRACTION * abs(log_sc), _LOG_TOL_FLOOR)
            deltas.append((abs(log_sc - log_or), tol))
            rows.append({"q_plus": qp, "q_minus": qm, "t": float(tv),
                         "log_ratio_sc": log_sc, "log_ratio_oracle": log_or,
                         "tolerance": tol})
    passed = len(deltas) >= 3 and all(d <= tol for d, tol in deltas)
    worst = max((d / tol for d, tol in deltas), default=float("nan"))
    return CheckResult(
        name="off_diagonal",
        semiclassical=rows[-1]["log_ratio_sc"] if rows else float("nan"),
        oracle=rows[-1]["log_ratio_oracle"] if rows else float("nan"),
        delta=float(worst), tolerance=1.0, passed=bool(passed),
        detail={"hbar": hbar, "n_level": n_level, "n_probes": len(probes),
                "n_compared": len(deltas), "rows": rows})


ALL_CHECKS = {
    "cat_rate": check_cat_rate,
    "eigenstate_wigner": check_eigenstate_wigner,
    "trace_factor": check_trace_factor,
    "diffusion_slope": check_diffusion_slope,
    "purity_decay": check_purity_decay,
    "off_diagonal": check_off_diagonal,
}


def run_checks(names: Sequence[str], params: Optional[Dict] = None
               ) -> List[CheckResult]:
    params = params or {}
    out = []
    for name in names:
        if name not in ALL_CHECKS:
            raise ValueError(f"unknown check {name!r}")
        out.append(ALL_CHECKS[name](**params.get(name, {})))
    return out
