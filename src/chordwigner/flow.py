"""Classical phase-space primitives for 1-DOF hamiltonian systems.

Phase points are numpy arrays ``[p, q]`` -- momentum first.  The symplectic
algebra (skew product, triangle areas, Poisson brackets), the
implicit-midpoint flow and the adaptive closed-orbit integration defined
here are the substrate for everything downstream: shell construction,
quantization, chord geometry, decoherence integrals.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "J",
    "skew",
    "triangle_area",
    "poisson_bracket",
    "HamiltonianSystem",
    "make_system",
    "polynomial_system",
    "Trajectory",
    "midpoint_step",
    "hamiltonian_flow",
    "find_period",
    "periodic_orbit",
    "shell_start",
    "shell_average",
    "ShellError",
]

# Symplectic unit: J @ grad(H) is the hamiltonian vector field in [p, q]
# ordering, i.e. (pdot, qdot) = (-dH/dq, +dH/dp).
J = np.array([[0.0, -1.0], [1.0, 0.0]])


class ShellError(ValueError):
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


def triangle_area(x, x1, x2):
    """Symplectic area of the (x, x1, x2) triangle, doubled orientation:

        Delta = 2 * (x ^ x1 + x1 ^ x2 + x2 ^ x)

    Antisymmetric under swapping any two vertices.
    """
    return 2.0 * (skew(x, x1) + skew(x1, x2) + skew(x2, x))


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


def midpoint_step(system, x, dt, tol: float = 1e-14, max_iter: int = 80):
    """One implicit-midpoint step; fixed-point iteration on the midpoint.

    Symplectic, time-reversible, second order; preserves quadratic
    hamiltonians exactly.  x may be a batch (..., 2).  Raises
    RuntimeError when the iteration has not converged after max_iter
    sweeps (dt too large for the local stiffness).
    """
    x = np.asarray(x, dtype=float)
    y = x + dt * system.velocity(x)  # Euler predictor
    scale = np.max(np.abs(x)) + 1.0
    for _ in range(max_iter):
        y_new = x + dt * system.velocity(0.5 * (x + y))
        if np.max(np.abs(y_new - y)) < tol * scale:
            return y_new
        y = y_new
    raise RuntimeError(
        f"implicit midpoint step dt={dt} did not converge in {max_iter} "
        "iterations; reduce dt")


def hamiltonian_flow(system, x0, t: float, dt: float = 1e-3,
                     dense: bool = False) -> Trajectory:
    """Integrate x0 (possibly a batch) for time t >= 0.

    With dense=True every accepted step is recorded; otherwise only the
    endpoints.  The step count is ceil(t/dt) so the final time is exact.
    """
    x0 = np.asarray(x0, dtype=float)
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        pts = np.stack([x0, x0])
        return Trajectory(times=np.array([0.0, 0.0]), points=pts)
    n = max(1, int(np.ceil(t / dt * (1.0 - 1e-12))))
    h = t / n
    x = x0
    times = [0.0]
    pts = [x0]
    for m in range(n):
        x = midpoint_step(system, x, h)
        if dense or m == n - 1:
            times.append((m + 1) * h)
            pts.append(x)
    return Trajectory(times=np.asarray(times), points=np.stack(pts))


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
