"""Classical phase-space primitives for 1-DOF hamiltonian systems.

Phase points are numpy arrays ``[p, q]`` -- momentum first.  The skew
product and the two adaptive DOP853 integrations defined here -- the
dense flow of a batch of tips and the closed orbit through a point --
are the substrate for everything downstream: shell construction,
quantization, chord geometry, decoherence integrals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "J",
    "skew",
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
_ORBIT_TOL = 1e-12  # rtol = atol of the tip flow and of closed orbits


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


@dataclass(frozen=True)
class HamiltonianSystem:
    """A 1-DOF hamiltonian H(p, q) with its analytic gradient."""

    name: str
    value: Callable
    grad: Callable

    def energy(self, x):
        x = np.asarray(x, dtype=float)
        return self.value(x)

    def gradient(self, x):
        """(dH/dp, dH/dq), stacked along the last axis."""
        return np.asarray(self.grad(np.asarray(x, dtype=float)), dtype=float)

    def velocity(self, x):
        """Hamiltonian vector field J grad H = (-dH/dq, +dH/dp)."""
        g = self.gradient(x)
        return _pair(g, -g[..., 1], g[..., 0])


def _pair(x, a, b):
    """A fresh array of x's shape (..., 2) holding a and b in its two
    columns: filled in place, since np.stack costs as much as the
    derivatives of a built-in system."""
    g = np.empty(np.shape(x))
    g[..., 0], g[..., 1] = a, b
    return g


def make_system(name: str) -> HamiltonianSystem:
    """Built-in systems: 'harmonic', 'quartic', 'pendulum'."""
    if name == "harmonic":
        return HamiltonianSystem(
            name,
            value=lambda x: 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2),
            grad=lambda x: _pair(x, x[..., 0], x[..., 1]),
        )
    if name == "quartic":
        return HamiltonianSystem(
            name,
            value=lambda x: 0.5 * x[..., 0] ** 2 + 0.5 * x[..., 1] ** 4,
            grad=lambda x: _pair(x, x[..., 0], 2.0 * x[..., 1] ** 3),
        )
    if name == "pendulum":
        return HamiltonianSystem(
            name,
            value=lambda x: 0.5 * x[..., 0] ** 2 - np.cos(x[..., 1]),
            grad=lambda x: _pair(x, x[..., 0], np.sin(x[..., 1])),
        )
    raise ValueError(f"unknown system {name!r}")


def _poly_eval(poly: dict, x):
    """sum c p^a q^b of a {(a, b): c} table at points x (..., 2), summed
    in table order; zeros of their shape for an empty table."""
    p, q = x[..., 0], x[..., 1]
    if not poly:
        return np.zeros(np.shape(p))
    return sum(c * p**a * q**b for (a, b), c in poly.items())


def _poly_deriv(poly: dict, i: int, j: int) -> dict:
    """d^i/dp^i d^j/dq^j of a {(a, b): c} table, in closed form."""
    return {(a - i, b - j): c * (math.perm(a, i) * math.perm(b, j))
            for (a, b), c in poly.items() if a >= i and b >= j}


def _poly_mul(pa: dict, pb: dict) -> dict:
    """Product of two {(a, b): c} tables."""
    out: dict = {}
    for (a1, b1), c1 in pa.items():
        for (a2, b2), c2 in pb.items():
            k = (a1 + a2, b1 + b2)
            out[k] = out.get(k, 0.0) + c1 * c2
    return out


def polynomial_system(coeffs: dict, name: str = "poly") -> HamiltonianSystem:
    """H = sum c[(a, b)] p^a q^b from a coefficient table."""
    table = {(int(a), int(b)): float(c) for (a, b), c in coeffs.items()}
    dp, dq = _poly_deriv(table, 1, 0), _poly_deriv(table, 0, 1)

    return HamiltonianSystem(
        name, value=lambda x: _poly_eval(table, x),
        grad=lambda x: _pair(x, _poly_eval(dp, x), _poly_eval(dq, x)))


@dataclass
class Trajectory:
    """Flow samples: times (m,), points (m, ..., 2)."""

    times: np.ndarray
    points: np.ndarray

    @property
    def final(self):
        return self.points[-1]


def _tip_flow(system, x0, t: float):
    """Dense solution of one DOP853 integration of the batch x0 (..., 2)
    over [0, t], at the closed-orbit settings (rtol = atol = _ORBIT_TOL).

    Returns a callable mapping times (m,) in [0, t] to points (m, ..., 2),
    and the solver's step times, between which the callable is one
    degree-7 polynomial.  Raises RuntimeError when the solver fails.
    """
    from scipy.integrate import solve_ivp

    if t < 0:
        raise ValueError("t must be non-negative")
    x0 = np.asarray(x0, dtype=float)
    sol = solve_ivp(
        lambda _, y: system.velocity(y.reshape(x0.shape)).ravel(),
        (0.0, t), x0.ravel(), method="DOP853", rtol=_ORBIT_TOL,
        atol=_ORBIT_TOL, dense_output=True)
    if sol.status == -1:
        raise RuntimeError(f"tip flow to t={t} failed: {sol.message}")
    return (lambda s: sol.sol(np.asarray(s, dtype=float)).T.reshape(
        -1, *x0.shape)), sol.t


def hamiltonian_flow(system, x0, t: float, dt: float = 1e-3,
                     dense: bool = False) -> Trajectory:
    """Integrate x0 (possibly a batch) for time t >= 0.

    One adaptive DOP853 integration; dt is only the sample spacing.  With
    dense=True the flow is sampled on a grid of ceil(t/dt) equal steps
    ending exactly at t; otherwise at the two endpoints.
    """
    n = max(1, int(np.ceil(t / dt * (1.0 - 1e-12)))) if dense else 1
    times = np.linspace(0.0, t, n + 1)
    return Trajectory(times=times, points=_tip_flow(system, x0, t)[0](times))


def _closed_orbit(system, x0, t_max: float = 400.0, dense: bool = False):
    """(period, dense solution or None, area) of the closed orbit through x0.

    One DOP853 integration of (p, q, oint p dq); a section through x0
    normal to the initial velocity stops it at the first return (Hairer,
    Norsett & Wanner, Solving ODEs I, II.6).  The interpolant costs 3 of
    the 16 right-hand sides of a step, so it is built for every step only
    when dense is set; otherwise only at the step where the event fires,
    which locates the return the same way.
    """
    from scipy.integrate import solve_ivp

    x0 = np.asarray(x0, dtype=float)
    v0 = system.velocity(x0)
    speed = float(np.hypot(v0[0], v0[1]))
    if speed == 0.0:
        raise ShellError("fixed point: no closed orbit through this point")
    v0 = v0 / speed
    grad = system.grad

    def rhs(t, y):
        # Python floats, bit for bit the numpy scalars: solve_ivp converts
        # a list of them faster
        gp, gq = np.asarray(grad(y[:2])).tolist()
        return [-gq, gp, y[0] * gp]

    def section(t, y):
        # the start itself sits on the section; only a return counts
        return float(np.dot(y[:2] - x0, v0)) if t > 0 else 1.0

    section.terminal = True
    section.direction = 1.0
    sol = solve_ivp(rhs, (0.0, t_max), [x0[0], x0[1], 0.0], method="DOP853",
                    rtol=_ORBIT_TOL, atol=_ORBIT_TOL, dense_output=dense,
                    events=section)
    if sol.status == -1:
        raise RuntimeError(f"orbit integration failed: {sol.message}")
    if not sol.t_events[0].size:
        raise ShellError(f"no closed orbit found within t_max={t_max}")
    period = float(sol.t_events[0][0])
    return period, sol.sol, float(sol.y_events[0][0][2])


def find_period(system, x0) -> float:
    """Period of the closed orbit through x0 (first section return)."""
    return _closed_orbit(system, x0)[0]


def periodic_orbit(system, x0):
    """(period, samples): 2048 points uniformly spaced in time along the
    orbit, read off the dense output of one adaptive integration."""
    period, dense, _ = _closed_orbit(system, x0, dense=True)
    return period, dense(period * np.arange(2048) / 2048)[:2].T


def shell_start(system, energy: float):
    """A point on the H = energy shell, searched on the q = 0 then p = 0
    axes out to 1e3."""
    from scipy.optimize import brentq

    grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 200)])
    for axis in (0, 1):
        def f(s):
            x = np.zeros(2)
            x[axis] = s
            return float(system.energy(x)) - energy

        pts = np.zeros((len(grid), 2))
        pts[:, axis] = grid
        vals = system.energy(pts) - energy
        sign_change = np.nonzero(vals[:-1] * vals[1:] <= 0)[0]
        for i in sign_change:
            if vals[i] == 0.0 and vals[i + 1] == 0.0:
                continue
            s = brentq(f, grid[i], grid[i + 1], xtol=1e-14)
            x = np.zeros(2)
            x[axis] = s
            return x
    raise ShellError(f"energy shell H = {energy} is empty on both axes")


def shell_average(system, energy: float, func: Callable) -> float:
    """Time average of func over the closed orbit at the given energy."""
    _, pts = periodic_orbit(system, shell_start(system, energy))
    return float(np.mean(func(pts)))
