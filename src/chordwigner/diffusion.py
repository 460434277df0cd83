"""Diffusive growth of the spectral energy window under hermitian
couplings.

A window of standard deviation eps damps a chord of traversal time tau
by exp(-(eps tau / hbar)^2 / 2); a hermitian coupling damps a short
chord by exp(-t rate tau^2 / 2 hbar), where rate is the shell average
of {H, L}^2.  The product is a window whose variance grows as
eps(t)^2 = eps0^2 + hbar t rate, the classical limit of the exact
d Var(E)/dt = hbar <{H, L}^2> under the (1/hbar) D[L] dissipator.
"""
import csv
from typing import Sequence

import numpy as np

from .flow import HamiltonianSystem, periodic_orbit, shell_start
from .lindblad import LindbladChannel, _require_hermitian
from .shells import TWO_PI


def bracket_rate(energy: float, channels: Sequence[LindbladChannel],
                 system: HamiltonianSystem) -> float:
    """sum_j <|{H, L_j}|^2> averaged over the closed shell at the energy.

    The coefficient of tau^2 in the short-chord damping exponent
    (t / 2 hbar) * rate * tau^2.  Along the orbit {H, L} = -dL/dt, so
    the time average is the Parseval sum  sum_k (2 pi k / T)^2 |L_k|^2
    over the Fourier modes L_k of L at the periodic_orbit samples, one
    orbit for all channels.
    """
    _require_hermitian(channels)
    period, pts = periodic_orbit(system, shell_start(system, energy))
    n = len(pts)
    omega2 = (TWO_PI / period * np.fft.fftfreq(n, d=1.0 / n)) ** 2
    return float(sum(np.sum(omega2 * np.abs(np.fft.fft(ch(pts)) / n) ** 2)
                     for ch in channels))


def window_width(epsilon0: float, t: float, hbar: float,
                 rate: float) -> float:
    """Window width eps(t) from eps(t)^2 = eps0^2 + hbar t * rate, with
    rate from bracket_rate.

    Matching the short-chord damping exp(-t rate tau^2 / 2 hbar) to the
    window factor exp(-(eps tau / hbar)^2 / 2) gives the slope
    hbar * rate for the energy variance eps^2.
    """
    if epsilon0 < 0 or t < 0:
        raise ValueError("epsilon0 and t must be nonnegative")
    return float(np.sqrt(epsilon0**2 + hbar * t * rate))


def write_diffusion_report(path, rows: Sequence[dict]) -> None:
    """CSV rows: t, epsilon_predicted, epsilon_oracle, slope_ratio.

    The oracle column is filled by the comparison harness; stand-alone
    prediction runs leave it empty.  eps is the standard deviation of
    the window energy, so the oracle column is sqrt(Var(E)) of the
    measured state.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "epsilon_predicted", "epsilon_oracle", "slope_ratio"])
        for row in rows:
            w.writerow([f"{row['t']:.12g}",
                        f"{row['epsilon_predicted']:.12g}",
                        "" if row.get("epsilon_oracle") is None
                        else f"{row['epsilon_oracle']:.12g}",
                        "" if row.get("slope_ratio") is None
                        else f"{row['slope_ratio']:.12g}"])
