"""Angle-pair integrals behind the normalization story: the purity at
t = 0 (exactly 1 after Jacobian cancellation), its decay under
hermitian Lindblad couplings, and the direct trace with its universal
semiclassical deficit.

All double integrals run over the torus of tip-angle pairs, where chord
multiplicities and caustics disappear.  Quadratures are vectorized over
angle blocks and summed in a fixed order, so results are deterministic.
"""
import warnings
from dataclasses import asdict, dataclass
from typing import Dict, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .flow import HamiltonianSystem
from .lindblad import (LindbladChannel, _require_hermitian,
                       _require_shell_dynamics, shell_d2)
from .shells import _MASLOV, TWO_PI, ShellSpec

# subinterval cap of each adaptive half of the direct-trace integral
_QUAD_LIMIT = 400
# trapezoid nodes of the direct trace's inner angle average
_N_INNER = 64


@dataclass(frozen=True)
class AngleIntegralReport:
    """Scalar angle-pair integral with its quadrature provenance."""

    value: float
    grid: int            # angle samples per axis
    est_error: float     # bounded by the observed refinement difference


def purity_t0(shell: ShellSpec, hbar: float) -> float:
    """tr rho^2 at t = 0 from the angle-pair form of 2 pi hbar int W^2 dx.

    The squared chord amplitude carries 1/|wedge| and the centre ->
    angle-pair Jacobian carries |wedge|/8 (tip swap included).  The
    product cancels algebraically, so the integrand is the same constant
    at every angle pair and the torus integral is that constant times
    (2 pi)^2: 1 for every shell, up to roundoff.
    """
    if shell.period <= 0:
        raise ValueError("shell has no positive period")
    c2 = (2.0 / (np.pi * np.sqrt(TWO_PI * hbar))) ** 2
    # cos^2 averaged over oscillations to 1/2
    integrand = TWO_PI * hbar * 0.125 * 0.5 * c2
    return float(integrand * TWO_PI**2)


def purity_decay(shell: ShellSpec, system: HamiltonianSystem,
                 channels: Sequence[LindbladChannel], t: float, hbar: float,
                 n_angle: int = 256) -> AngleIntegralReport:
    """tr rho^2(t) as the angle-pair mean of exp(-D_t^2 / hbar).

    D_t is the decoherence distance of the two tips that start at the
    pair's angles and move along the shell (shell_d2); system must be
    shell.system.  The exponent D^2/hbar is the square of the chord
    damping exp(-D^2 / 2 hbar), because the density enters tr rho^2
    twice.
    """
    _require_hermitian(channels)
    _require_shell_dynamics(shell, system)
    if t == 0 or not channels:
        return AngleIntegralReport(value=1.0, grid=n_angle, est_error=0.0)
    thetas = np.arange(n_angle) * TWO_PI / n_angle
    damp = np.exp(-shell_d2(shell, thetas, thetas, t, channels) / hbar)
    value = float(damp.mean())
    return AngleIntegralReport(value=value, grid=n_angle, est_error=abs(
        value - float(damp[::2, ::2].mean())))


def direct_trace(shell: ShellSpec, hbar: float,
                 maslov: bool = False) -> AngleIntegralReport:
    """Numeric tr rho: oscillatory angle-pair integral of the tip-wedge
    amplitude, |wedge|^{1/2} cos(S/hbar - offset) / (4 pi sqrt(2 pi hbar)).

    The outer variable is the angle difference (adaptive, split at the
    antipodal wedge kink); the inner angle average is a periodic
    trapezoid.  The wedge zero at coinciding tips regularizes the
    amplitude: |wedge|^{+1/2} is evaluated directly, never divided.  As
    hbar -> 0 the small-chord region dominates and the value tends to a
    system-independent constant.  Near coinciding tips, at separation u,
    |wedge| ~ a|u| and the chord action is a|u|^3 / 12 at both ends of
    u in [0, 2 pi]; with s = a u^3 / 12 hbar each end gives
    (1/3) sqrt(12 hbar) Gamma(1/2) cos(pi/4), so the limit is 1/sqrt(3)
    for maslov=False (bare chord action in the cosine) and sqrt(2/3)
    with the pi/4 offset.
    """
    offset = _MASLOV if maslov else 0.0
    pref = 1.0 / (4.0 * np.pi * np.sqrt(TWO_PI * hbar))

    def ring(u: float, m: int) -> float:
        th = np.arange(m) * TWO_PI / m
        w = shell.wedge(th, th + u)
        s = shell.chord_action(th, th + u)
        return float(np.mean(np.sqrt(np.abs(w))
                             * np.cos(s / hbar - offset)))

    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always", IntegrationWarning)
        i1, e1 = quad(lambda u: ring(u, _N_INNER), 0.0, np.pi,
                      limit=_QUAD_LIMIT)
        i2, e2 = quad(lambda u: ring(u, _N_INNER), np.pi, TWO_PI,
                      limit=_QUAD_LIMIT)
        caught = [w for w in rec if issubclass(w.category,
                                               IntegrationWarning)]
    value = pref * TWO_PI * (i1 + i2)
    # inner-grid refinement probe away from the kinks
    probes = (0.41, 1.27, 2.33, np.pi + 0.9, np.pi + 2.1)
    refine = max(abs(ring(u, _N_INNER) - ring(u, 2 * _N_INNER))
                 for u in probes)
    est = pref * TWO_PI * (e1 + e2 + TWO_PI * refine)
    if caught:
        est = max(est, abs(value) * 0.05)
    return AngleIntegralReport(value=float(value), grid=_N_INNER,
                               est_error=float(est))


def run_suite(shell: ShellSpec, hbar: float,
              channels: Sequence[LindbladChannel] = (),
              trace_hbars: Sequence[float] = (),
              decay_times: Sequence[float] = (),
              n_angle: int = 256) -> Dict:
    """All checks in one JSON-serializable report."""
    out: Dict = {
        "purity_t0": purity_t0(shell, hbar),
        "direct_trace": {},
        "purity_decay": {},
        "exponent": "hbar",
        "tolerances": {
            "purity_t0": 1e-9,
            "direct_trace_stability": 0.05,
            "purity_decay_range": [0.0, 1.0],
        },
    }
    for h in trace_hbars:
        out["direct_trace"][f"{h:g}"] = asdict(direct_trace(shell, h))
    for tv in decay_times:
        out["purity_decay"][f"{tv:g}"] = asdict(purity_decay(
            shell, shell.system, channels, tv, hbar, n_angle=n_angle))
    return out
