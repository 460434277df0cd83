"""Classical phase-space primitives for 1-DOF hamiltonian systems.

Phase points are numpy arrays ``[p, q]`` -- momentum first.  The symplectic
algebra (skew product, Poisson brackets) and the two adaptive DOP853
integrations defined here -- the dense flow of a batch of tips and the
closed orbit through a point -- are the substrate for everything
downstream: shell construction, quantization, chord geometry,
decoherence integrals.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "J",
    "skew",
    "poisson_bracket",
    "HamiltonianSystem",
    "make_system",
    "polynomial_system",
    "Trajectory",
    "hamiltonian_flow",
    "find_period",
    "periodic_orbit",
    "shell_start",
    "shell_average",
    "NumericalError",
    "ShellError",
]

# Symplectic unit: J @ grad(H) is the hamiltonian vector field in [p, q]
# ordering, i.e. (pdot, qdot) = (-dH/dq, +dH/dp).
J = np.array([[0.0, -1.0], [1.0, 0.0]])


class NumericalError(ValueError):
    """Well-formed input whose result is undefined or cannot be resolved
    (a caustic, an empty shell); the CLI exits with code 3 on it."""


class ShellError(NumericalError):
    """Raised when an energy shell is empty or not a closed orbit."""


def skew(a, b):
    """Skew (symplectic) product a ^ b = (J a) . b.

    Accepts stacked arrays of shape (..., 2*l) with the l momenta first;
    for l = 1, skew((a_p, a_q), (b_p, b_q)) = a_p b_q - a_q b_p.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    l = a.shape[-1] // 2
    return np.sum(a[..., :l] * b[..., l:] - a[..., l:] * b[..., :l], axis=-1)


def poisson_bracket(f: Callable, g: Callable, x, step: float = 1e-6):
    """{f, g} = df/dq dg/dp - df/dp dg/dq by central differences at x."""
    x = np.asarray(x, dtype=float)
    ep = np.zeros_like(x)
    ep[..., 0] = step
    eq = np.zeros_like(x)
    eq[..., 1] = step
    dfp = (f(x + ep) - f(x - ep)) / (2 * step)
    dfq = (f(x + eq) - f(x - eq)) / (2 * step)
    dgp = (g(x + ep) - g(x - ep)) / (2 * step)
    dgq = (g(x + eq) - g(x - eq)) / (2 * step)
    return dfq * dgp - dfp * dgq


@dataclass(frozen=True)
class HamiltonianSystem:
    """A 1-DOF hamiltonian H(p, q) with (optionally analytic) gradient."""

    name: str
    value: Callable
    grad: Optional[Callable] = None
    fd_step: float = 1e-7

    def energy(self, x):
        x = np.asarray(x, dtype=float)
        return self.value(x)

    def gradient(self, x):
        """(dH/dp, dH/dq), stacked along the last axis."""
        x = np.asarray(x, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        h = self.fd_step
        ep = np.zeros_like(x)
        ep[..., 0] = h
        eq = np.zeros_like(x)
        eq[..., 1] = h
        gp = (self.value(x + ep) - self.value(x - ep)) / (2 * h)
        gq = (self.value(x + eq) - self.value(x - eq)) / (2 * h)
        return np.stack([gp, gq], axis=-1)

    def velocity(self, x):
        """Hamiltonian vector field J grad H = (-dH/dq, +dH/dp)."""
        g = self.gradient(x)
        return np.stack([-g[..., 1], g[..., 0]], axis=-1)


def make_system(name: str) -> HamiltonianSystem:
    """Built-in systems: 'harmonic', 'quartic', 'pendulum'."""
    if name == "harmonic":
        return HamiltonianSystem(
            name,
            value=lambda x: 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2),
            grad=lambda x: np.stack([x[..., 0], x[..., 1]], axis=-1),
        )
    if name == "quartic":
        return HamiltonianSystem(
            name,
            value=lambda x: 0.5 * x[..., 0] ** 2 + 0.5 * x[..., 1] ** 4,
            grad=lambda x: np.stack([x[..., 0], 2.0 * x[..., 1] ** 3], axis=-1),
        )
    if name == "pendulum":
        return HamiltonianSystem(
            name,
            value=lambda x: 0.5 * x[..., 0] ** 2 - np.cos(x[..., 1]),
            grad=lambda x: np.stack([x[..., 0], np.sin(x[..., 1])], axis=-1),
        )
    raise ValueError(f"unknown system {name!r}")


def polynomial_system(coeffs: dict, name: str = "poly") -> HamiltonianSystem:
    """H = sum c[(a, b)] p^a q^b from a coefficient table."""
    terms = [(int(a), int(b), float(c)) for (a, b), c in coeffs.items()]

    def value(x):
        p, q = x[..., 0], x[..., 1]
        return sum(c * p**a * q**b for a, b, c in terms)

    def grad(x):
        p, q = x[..., 0], x[..., 1]
        gp = sum(c * a * p ** (a - 1) * q**b for a, b, c in terms if a > 0)
        gq = sum(c * b * p**a * q ** (b - 1) for a, b, c in terms if b > 0)
        return np.stack([gp + 0.0 * p, gq + 0.0 * p], axis=-1)

    return HamiltonianSystem(name, value=value, grad=grad)


@dataclass
class Trajectory:
    """Flow samples: times (m,), points (m, ..., 2)."""

    times: np.ndarray
    points: np.ndarray

    @property
    def final(self):
        return self.points[-1]

    def energy_drift(self, system: HamiltonianSystem):
        e = system.energy(self.points)
        return np.max(np.abs(e - e[0]))


def _tip_flow(system, x0, t: float):
    """Dense solution of one DOP853 integration of the batch x0 (..., 2)
    over [0, t], at the closed-orbit settings (rtol = atol = 1e-12).

    Returns a callable mapping times (m,) in [0, t] to points (m, ..., 2).
    Raises RuntimeError when the solver fails.
    """
    from scipy.integrate import solve_ivp

    if t < 0:
        raise ValueError("t must be non-negative")
    x0 = np.asarray(x0, dtype=float)
    sol = solve_ivp(
        lambda _, y: system.velocity(y.reshape(x0.shape)).ravel(),
        (0.0, t), x0.ravel(), method="DOP853", rtol=1e-12, atol=1e-12,
        dense_output=True)
    if sol.status == -1:
        raise RuntimeError(f"tip flow to t={t} failed: {sol.message}")
    return lambda s: sol.sol(np.asarray(s, dtype=float)).T.reshape(
        -1, *x0.shape)


def hamiltonian_flow(system, x0, t: float, dt: float = 1e-3,
                     dense: bool = False) -> Trajectory:
    """Integrate x0 (possibly a batch) for time t >= 0.

    One adaptive DOP853 integration; dt is only the sample spacing.  With
    dense=True the flow is sampled on a grid of ceil(t/dt) equal steps
    ending exactly at t; otherwise at the two endpoints.
    """
    n = max(1, int(np.ceil(t / dt * (1.0 - 1e-12)))) if dense else 1
    times = np.linspace(0.0, t, n + 1)
    return Trajectory(times=times, points=_tip_flow(system, x0, t)(times))


def _closed_orbit(system, x0, t_max: float = 400.0):
    """(period, dense solution, area) of the closed orbit through x0.

    One DOP853 integration of (p, q, oint p dq) with dense output; a
    section through x0 normal to the initial velocity stops it at the
    first return (Hairer, Norsett & Wanner, Solving ODEs I, II.6).
    """
    from scipy.integrate import solve_ivp

    x0 = np.asarray(x0, dtype=float)
    v0 = system.velocity(x0)
    speed = float(np.hypot(v0[0], v0[1]))
    if speed == 0.0:
        raise ShellError("fixed point: no closed orbit through this point")
    v0 = v0 / speed

    def rhs(t, y):
        v = system.velocity(y[:2])
        return [v[0], v[1], y[0] * v[1]]

    def section(t, y):
        # the start itself sits on the section; only a return counts
        return float(np.dot(y[:2] - x0, v0)) if t > 0 else 1.0

    section.terminal = True
    section.direction = 1.0
    sol = solve_ivp(rhs, (0.0, t_max), [x0[0], x0[1], 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True,
                    events=section)
    if sol.status == -1:
        raise RuntimeError(f"orbit integration failed: {sol.message}")
    if not sol.t_events[0].size:
        raise ShellError(f"no closed orbit found within t_max={t_max}")
    period = float(sol.t_events[0][0])
    return period, sol.sol, float(sol.y_events[0][0][2])


def find_period(system, x0, t_max: float = 400.0) -> float:
    """Period of the closed orbit through x0 (first section return)."""
    return _closed_orbit(system, x0, t_max)[0]


def periodic_orbit(system, x0, n: int = 2048):
    """(period, samples): n points uniformly spaced in time along the orbit,
    read off the dense output of one adaptive integration."""
    period, dense, _ = _closed_orbit(system, x0)
    return period, dense(period * np.arange(n) / n)[:2].T


def shell_start(system, energy: float, p_max: float = 1e3):
    """A point on the H = energy shell, searched on the q = 0 then p = 0 axes."""
    from scipy.optimize import brentq

    for axis in (0, 1):
        def f(s):
            x = np.zeros(2)
            x[axis] = s
            return float(system.energy(x)) - energy

        grid = np.concatenate([[0.0], np.geomspace(1e-6, p_max, 200)])
        vals = np.array([f(s) for s in grid])
        sign_change = np.nonzero(vals[:-1] * vals[1:] <= 0)[0]
        for i in sign_change:
            if vals[i] == 0.0 and vals[i + 1] == 0.0:
                continue
            s = brentq(f, grid[i], grid[i + 1], xtol=1e-14)
            x = np.zeros(2)
            x[axis] = s
            return x
    raise ShellError(f"energy shell H = {energy} is empty on both axes")


def shell_average(system, energy: float, func: Callable, n: int = 2048,
                  x0=None) -> float:
    """Time average of func over the closed orbit at the given energy."""
    if x0 is None:
        x0 = shell_start(system, energy)
    _, pts = periodic_orbit(system, x0, n=n)
    return float(np.mean(func(pts)))
