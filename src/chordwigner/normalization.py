"""Angle-pair integrals behind the normalization story: the indirect
purity (exactly 1 after Jacobian cancellation), its decay under
hermitian Lindblad couplings, the direct trace with its universal
semiclassical deficit, and the small-chord hessian limit that controls
the deficit.

All double integrals run over the torus of tip-angle pairs, where chord
multiplicities and caustics disappear.  Quadratures are vectorized over
angle blocks and summed in a fixed order, so results are deterministic.
"""
import warnings
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .flow import HamiltonianSystem
from .lindblad import (LindbladChannel, _require_hermitian,
                       _require_shell_dynamics, shell_d2)
from .shells import ShellSpec

TWO_PI = 2.0 * np.pi

_EXPONENT_DENOM = {"hbar": 1.0, "half": 2.0, "bare": 0.0}  # see purity_decay


class DegenerateSamplingError(ValueError):
    """Velocity wedge too small to resolve the small-chord hessian."""


@dataclass(frozen=True)
class AngleIntegralReport:
    """Scalar angle-pair integral with its quadrature provenance."""

    value: float
    grid: int            # angle samples per axis
    est_error: float     # bounded by the observed refinement difference


def purity_t0(shell: ShellSpec, hbar: float, n: int = 64,
              amplitude_scale: float = 1.0) -> float:
    """tr rho^2 at t = 0 from the angle-pair form of 2 pi hbar int W^2 dx.

    The squared chord amplitude carries 1/|wedge| and the centre ->
    angle-pair Jacobian carries |wedge|/8 (tip swap included); the
    product is cancelled algebraically before sampling, so the grid mean
    only exercises the wiring and the result is amplitude_scale^2
    exactly, for every shell.
    """
    if shell.period <= 0:
        raise ValueError("shell has no positive period")
    c2 = (amplitude_scale * 2.0 / (np.pi * np.sqrt(TWO_PI * hbar))) ** 2
    # cos^2 averaged over oscillations to 1/2
    integrand = TWO_PI * hbar * 0.125 * 0.5 * c2
    vals = np.full((n, n), integrand)
    return float(vals.mean() * TWO_PI**2)


def purity_decay(shell: ShellSpec, system: HamiltonianSystem,
                 channels: Sequence[LindbladChannel], t: float, hbar: float,
                 n_angle: int = 256, exponent: str = "hbar"
                 ) -> AngleIntegralReport:
    """tr rho^2(t) as the angle-pair mean of exp(-D_t^2 / denom).

    D_t is the decoherence distance of the two tips that start at the
    pair's angles and move along the shell (shell_d2); system must be
    shell.system.  The exponent denominator is a convention switch:
    "hbar" uses D^2/hbar (the square of the amplitude damping,
    appropriate for a squared density), "half" uses D^2/2hbar, "bare"
    uses D^2 alone.
    """
    if exponent not in _EXPONENT_DENOM:
        raise ValueError(f"unknown exponent convention {exponent!r}")
    _require_hermitian(channels)
    _require_shell_dynamics(shell, system)
    denom = hbar * _EXPONENT_DENOM[exponent] or 1.0
    if t == 0 or not channels:
        return AngleIntegralReport(value=1.0, grid=n_angle, est_error=0.0)
    thetas = np.arange(n_angle) * TWO_PI / n_angle
    damp = np.exp(-shell_d2(shell, thetas, thetas, t, channels) / denom)
    value = float(damp.mean())
    return AngleIntegralReport(value=value, grid=n_angle, est_error=abs(
        value - float(damp[::2, ::2].mean())))


def direct_trace(shell: ShellSpec, hbar: float, n_inner: int = 64,
                 maslov: bool = False, quad_limit: int = 400
                 ) -> AngleIntegralReport:
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
    offset = np.pi / 4 if maslov else 0.0
    pref = 1.0 / (4.0 * np.pi * np.sqrt(TWO_PI * hbar))

    def ring(u: float, m: int) -> float:
        th = np.arange(m) * TWO_PI / m
        w = shell.wedge(th, th + u)
        s = shell.chord_action(th, th + u)
        return float(np.mean(np.sqrt(np.abs(w))
                             * np.cos(s / hbar - offset)))

    caught: list = []
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always", IntegrationWarning)
        i1, e1 = quad(lambda u: ring(u, n_inner), 0.0, np.pi,
                      limit=quad_limit)
        i2, e2 = quad(lambda u: ring(u, n_inner), np.pi, TWO_PI,
                      limit=quad_limit)
        caught = [w for w in rec if issubclass(w.category,
                                               IntegrationWarning)]
    value = pref * TWO_PI * (i1 + i2)
    # inner-grid refinement probe away from the kinks
    probes = (0.41, 1.27, 2.33, np.pi + 0.9, np.pi + 2.1)
    refine = max(abs(ring(u, n_inner) - ring(u, 2 * n_inner))
                 for u in probes)
    est = pref * TWO_PI * (e1 + e2 + TWO_PI * refine)
    if caught:
        est = max(est, abs(value) * 0.05)
    return AngleIntegralReport(value=float(value), grid=n_inner,
                               est_error=float(est))


def hessian_limit(shell: ShellSpec, theta: float, delta: float = 0.05,
                  fd_step: float = 1e-3):
    """Second angle derivative of the chord action at a short chord.

    Returns (finite difference, limit) where the limit is half the tip
    velocity wedge in (earlier, later) order, which is the positive
    orientation for a convex shell; the pair agrees as the separation
    delta shrinks.
    """
    tp = theta + delta
    wedge = float(shell.wedge(tp, theta))        # skew(v(theta), v(tp))
    if abs(wedge) < 1e-12 * max(shell.speed_scale, 1.0):
        raise DegenerateSamplingError(
            "tip velocities are parallel at this separation; the "
            "hessian limit is degenerate here")
    s = lambda u: float(shell.chord_action(theta, u))
    fd = (s(tp + fd_step) - 2.0 * s(tp) + s(tp - fd_step)) / fd_step**2
    return fd, 0.5 * wedge


def run_suite(shell: ShellSpec, hbar: float,
              channels: Sequence[LindbladChannel] = (),
              trace_hbars: Sequence[float] = (),
              decay_times: Sequence[float] = (),
              n_angle: int = 256, exponent: str = "hbar") -> Dict:
    """All checks in one JSON-serializable report."""
    out: Dict = {
        "purity_t0": purity_t0(shell, hbar),
        "direct_trace": {},
        "purity_decay": {},
        "exponent": exponent,
        "tolerances": {
            "purity_t0": 1e-9,
            "direct_trace_stability": 0.05,
            "purity_decay_range": [0.0, 1.0],
        },
    }
    for h in trace_hbars:
        rep = direct_trace(shell, h)
        out["direct_trace"][f"{h:g}"] = {
            "value": rep.value, "grid": rep.grid,
            "est_error": rep.est_error,
        }
    for tv in decay_times:
        rep = purity_decay(shell, shell.system, channels, tv, hbar,
                           n_angle=n_angle, exponent=exponent)
        out["purity_decay"][f"{tv:g}"] = {
            "value": rep.value, "grid": rep.grid,
            "est_error": rep.est_error,
        }
    return out
