"""Closed-form references for the benchmark, written without chordwigner.

Every formula here comes from the physics, not from the package under
test: the oscillator Wigner function via Laguerre polynomials, the
decoherence distance of a rigidly rotating chord, areas and periods of
the quartic and pendulum shells via Gamma and complete elliptic
integrals, the heating slope and cat-state rate of the Lindblad
equation, and the Moyal phase of two plane waves.  ``Verdict`` and
``judge`` are the per-op pass/fail rule behind ``pass_ratio`` and
``max_err``.

Conventions match the package's README: phase points are [p, q], the
harmonic oscillator is H = (p^2 + q^2)/2, the quartic H = p^2/2 + q^4/2,
the pendulum H = p^2/2 - cos q, and the dissipator carries 1/hbar.  The
shell formulas also take a coupling (omega, lambda or g) for the stiffer
oscillator, quartic and pendulum the shell sweep uses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ellipe, ellipk, eval_laguerre, gamma

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# pass/fail rule
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    """Outcome of one op: the worst relative error and every miss."""

    max_err: float = 0.0
    misses: List[str] = field(default_factory=list)
    known_defect: Optional[str] = None

    @property
    def passed(self) -> bool:
        return not self.misses

    def judge(self, label: str, value, expected, tol: float,
              scale: Optional[float] = None) -> float:
        """Record |value - expected| / scale against tol (scale defaults
        to |expected|); a non-finite value always misses."""
        value = np.asarray(value, dtype=complex)
        expected = np.asarray(expected, dtype=complex)
        if scale is None:
            scale = float(np.max(np.abs(expected)))
        if not np.all(np.isfinite(value)):
            self.misses.append(f"{label}: non-finite output")
            self.max_err = math.inf
            return math.inf
        err = float(np.max(np.abs(value - expected))) / max(scale, 1e-300)
        self.max_err = max(self.max_err, err)
        if not err <= tol:
            self.misses.append(f"{label}: rel err {err:.3e} > {tol:.1e}")
        return err

    def require(self, label: str, ok: bool) -> None:
        """A structural condition with no error size attached."""
        if not ok:
            self.misses.append(label)


# ---------------------------------------------------------------------------
# harmonic oscillator H = (p^2 + q^2) / 2
# ---------------------------------------------------------------------------

def harmonic_wigner(n: int, hbar: float, p, q):
    """Exact eigenstate Wigner function
    W_n = ((-1)^n / (pi hbar)) exp(-2H/hbar) L_n(4H/hbar)."""
    h = 0.5 * (np.asarray(p, float) ** 2 + np.asarray(q, float) ** 2)
    return ((-1) ** n / (math.pi * hbar) * np.exp(-2.0 * h / hbar)
            * eval_laguerre(n, 4.0 * h / hbar))


def _rotating_d2(a: float, b: float, t: float) -> float:
    """int_0^t (a cos s + b sin s)^2 ds."""
    s2 = math.sin(2.0 * t)
    return (a * a * (0.5 * t + 0.25 * s2) + b * b * (0.5 * t - 0.25 * s2)
            + a * b * 0.5 * (1.0 - math.cos(2.0 * t)))


def harmonic_d2(x_plus, x_minus, t: float, channel: str) -> float:
    """Decoherence distance D_t^2 of a tip pair under the harmonic flow.

    The flow is a rigid rotation, q(s) = q cos s + p sin s and
    p(s) = p cos s - q sin s, so with xi = x_+ - x_- the channel L = q
    gives D_t^2 = int_0^t (xi_q cos s + xi_p sin s)^2 ds and L = p gives
    the same with (xi_p, -xi_q).  The channel L = q^2 has no such
    shortcut and is integrated by adaptive quadrature of the analytic
    integrand.
    """
    pp, qp = float(x_plus[0]), float(x_plus[1])
    pm, qm = float(x_minus[0]), float(x_minus[1])
    xp, xq = pp - pm, qp - qm
    if channel == "q":
        return _rotating_d2(xq, xp, t)
    if channel == "p":
        return _rotating_d2(xp, -xq, t)
    if channel == "q2":
        def g(s):
            c, sn = math.cos(s), math.sin(s)
            return ((qp * c + pp * sn) ** 2 - (qm * c + pm * sn) ** 2) ** 2
        val, _ = quad(g, 0.0, t, epsabs=0.0, epsrel=1e-13, limit=200)
        return val
    raise ValueError(f"no closed form for channel {channel!r}")


def harmonic_purity(radius: float, t: float, hbar: float,
                    n: int = 512) -> float:
    """Angle-pair mean of exp(-D_t^2/hbar) for tip pairs on the circle of
    the given radius under L = q.

    For tips at angles phi_1, phi_2 the coupling difference is
    -2 r sin(delta/2) sin(sigma - s) with delta = phi_1 - phi_2 and
    sigma = (phi_1 + phi_2)/2, whose square integrates in closed form.
    The torus mean is a periodic trapezoid, exact to roundoff for this
    smooth integrand.
    """
    phi = np.arange(n) * TWO_PI / n
    p1, p2 = phi[:, None], phi[None, :]
    delta, sigma = p1 - p2, 0.5 * (p1 + p2)
    amp2 = 4.0 * radius**2 * np.sin(0.5 * delta) ** 2
    # int_0^t sin^2(sigma - s) ds
    ints = 0.5 * t + 0.25 * (np.sin(2.0 * (sigma - t)) - np.sin(2.0 * sigma))
    return float(np.mean(np.exp(-amp2 * ints / hbar)))


def oscillator_energy(n: int, hbar: float, omega: float = 1.0) -> float:
    """Ladder energy hbar omega (n + 1/2) of p^2/2 + omega^2 q^2/2."""
    return hbar * omega * (n + 0.5)


# ---------------------------------------------------------------------------
# shells: areas A(E) = oint p dq and periods T(E) = dA/dE
# ---------------------------------------------------------------------------

# int_0^1 sqrt(1 - u^4) du and int_0^1 du / sqrt(1 - u^4), via Beta
_QUARTIC_I_PLUS = 0.25 * gamma(0.25) * gamma(1.5) / gamma(1.75)
_QUARTIC_I_MINUS = 0.25 * gamma(0.25) * gamma(0.5) / gamma(0.75)


def shell_area(system: str, energy: float, coupling: float = 1.0) -> float:
    """oint p dq.  ``coupling`` is omega for the oscillator
    p^2/2 + omega^2 q^2/2, lambda for the quartic p^2/2 + lambda q^4/2 and
    g for the pendulum p^2/2 - g cos q; 1 gives the built-in systems."""
    if system == "harmonic":
        return TWO_PI * energy
    if system == "oscillator":
        return TWO_PI * energy / coupling
    if system == "quartic":
        # q_max = (2E/lambda)^(1/4):
        # A = 4 (2E)^(3/4) lambda^(-1/4) int_0^1 sqrt(1 - u^4) du
        return (4.0 * (2.0 * energy) ** 0.75 * coupling ** -0.25
                * _QUARTIC_I_PLUS)
    if system == "pendulum":
        # p = sqrt(g) P, E = g e maps it onto p^2/2 - cos q
        m = 0.5 * (1.0 + energy / coupling)
        return 16.0 * math.sqrt(coupling) * (ellipe(m)
                                             - (1.0 - m) * ellipk(m))
    raise ValueError(f"unknown system {system!r}")


def shell_period(system: str, energy: float, coupling: float = 1.0) -> float:
    """T = dA/dE, with ``coupling`` as in ``shell_area``."""
    if system == "harmonic":
        return TWO_PI
    if system == "oscillator":
        return TWO_PI / coupling
    if system == "quartic":
        return (4.0 * (2.0 * energy) ** -0.25 * coupling ** -0.25
                * _QUARTIC_I_MINUS)
    if system == "pendulum":
        return 4.0 * ellipk(0.5 * (1.0 + energy / coupling)) / math.sqrt(
            coupling)
    raise ValueError(f"unknown system {system!r}")


def quantized_energy(system: str, n: int, hbar: float,
                     coupling: float = 1.0) -> float:
    """Energy whose shell area is 2 pi hbar (n + 1/2)."""
    target = TWO_PI * hbar * (n + 0.5)
    if system == "harmonic":
        return hbar * (n + 0.5)
    if system == "oscillator":
        return hbar * coupling * (n + 0.5)
    if system == "quartic":
        return 0.5 * (target * coupling ** 0.25
                      / (4.0 * _QUARTIC_I_PLUS)) ** (4.0 / 3.0)
    if system == "pendulum":
        g = coupling
        if target >= 16.0 * math.sqrt(g):
            raise ValueError("level lies above the separatrix")
        return brentq(lambda e: shell_area("pendulum", e, g) - target,
                      -g * (1.0 - 1e-15), g * (1.0 - 1e-15),
                      xtol=1e-15 * g, rtol=1e-15)
    raise ValueError(f"unknown system {system!r}")


def bracket_rate_q(system: str, energy: float, coupling: float = 1.0
                   ) -> float:
    """Shell average of {H, q}^2 = p^2 for H = p^2/2 + V(q), which is
    <p^2> = (1/T) oint p dq = A/T."""
    return (shell_area(system, energy, coupling)
            / shell_period(system, energy, coupling))


# ---------------------------------------------------------------------------
# exact open dynamics
# ---------------------------------------------------------------------------

def heating_slope(hbar: float) -> float:
    """d<H>/dt for L = q or L = p with the 1/hbar dissipator:
    (1/hbar) <L H L - {L^2, H}/2> = -(1/2 hbar) [L, [L, H]] = hbar/2."""
    return 0.5 * hbar


def cat_rate(separation: float, hbar: float) -> float:
    """Coherence decay rate of a static cat under L = q: (dq)^2 / 2 hbar."""
    return separation**2 / (2.0 * hbar)


def moyal_plane_wave_phase(a: float, b: float, hbar: float) -> complex:
    """e^{iaq} * e^{ibp} = e^{i(aq + bp)} e^{-i hbar a b / 2} under
    {q, p} = 1, so the star product carries this constant phase."""
    return complex(np.exp(-0.5j * hbar * a * b))
