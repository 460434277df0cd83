"""Energy shells and chord geometry.

A shell is the closed orbit H = E, sampled uniformly in time and wrapped
in periodic splines; theta in [0, 2pi) is the angle (uniformized time)
variable.  A chord is a pair of shell points whose midpoint is a given
phase-space point x; its symplectic area S, tip-velocity wedge and
traversal time are the raw material of the semiclassical construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .flow import (
    HamiltonianSystem,
    NumericalError,
    ShellError,
    _closed_orbit,
    shell_start,
    skew,
)

__all__ = [
    "ShellSpec",
    "Chord",
    "build_shell",
    "find_chords",
    "chord_amplitude",
    "quantize_energy",
]

TWO_PI = 2.0 * np.pi
# Points per block of the batched chord search.  It bounds the working
# arrays: the even-odd test holds block x n_samples values, the seed
# scan block x _N_SCAN^2.
_BLOCK = 16
# Shell samples per axis of the midpoint scan that seeds the Newton.
_N_SCAN = 64


@dataclass
class ShellSpec:
    """Sampled energy shell with periodic-spline accessors."""

    system: HamiltonianSystem
    energy: float
    period: float
    n_samples: int
    theta: np.ndarray          # (n,) uniform grid in [0, 2pi)
    points: np.ndarray         # (n, 2) on-shell samples
    area: float                # oint p dq
    closure_error: float
    _psp: CubicSpline = field(repr=False, default=None)
    _qsp: CubicSpline = field(repr=False, default=None)
    _fsp: CubicSpline = field(repr=False, default=None)  # periodic part of F
    _fmean: float = 0.0        # F(theta) = _fmean*theta + periodic part
    speed_scale: float = 1.0   # max |dx/dtheta|^2, for caustic thresholds

    # -- geometry accessors ------------------------------------------------

    def point(self, theta):
        """Shell point(s) at angle theta (any real, wrapped mod 2pi)."""
        th = np.asarray(theta, dtype=float) % TWO_PI
        return np.stack([self._psp(th), self._qsp(th)], axis=-1)

    def velocity_theta(self, theta):
        """dx/dtheta, the angle-flow tip velocity (T/2pi times J grad H)."""
        th = np.asarray(theta, dtype=float) % TWO_PI
        return np.stack([self._psp(th, 1), self._qsp(th, 1)], axis=-1)

    def action_integral(self, theta):
        """F(theta) = cumulative oint p dq from theta = 0 (not wrapped)."""
        th = np.asarray(theta, dtype=float)
        return self._fmean * th + self._fsp(th % TWO_PI)

    def chord_action(self, theta_minus, theta_plus):
        """Area S between the chord and the *shorter* shell arc (>= 0).

        The two traversals of a chord tile the shell, so the complementary
        arc gives exactly area - S.
        """
        tm = np.asarray(theta_minus, dtype=float)
        dth = (np.asarray(theta_plus, dtype=float) - tm) % TWO_PI
        xm = self.point(tm)
        xp = self.point(tm + dth)
        s_fwd = (self.action_integral(tm + dth) - self.action_integral(tm)
                 - 0.5 * (xp[..., 0] + xm[..., 0]) * (xp[..., 1] - xm[..., 1]))
        return np.where(dth <= np.pi, s_fwd, self.area - s_fwd)

    def wedge(self, theta_minus, theta_plus):
        """Signed tip-velocity wedge (dx/dtheta)_+ ^ (dx/dtheta)_-."""
        return skew(self.velocity_theta(theta_plus),
                    self.velocity_theta(theta_minus))

    def traversal_time(self, theta_minus, theta_plus):
        """Flow time from the minus tip forward to the plus tip."""
        dth = (np.asarray(theta_plus, dtype=float)
               - np.asarray(theta_minus, dtype=float)) % TWO_PI
        return dth * self.period / TWO_PI

    def theta_of_point(self, x, theta0: Optional[float] = None) -> float:
        """Angle of an (approximately) on-shell point."""
        x = np.asarray(x, dtype=float)
        if theta0 is None:
            i = int(np.argmin(np.sum((self.points - x) ** 2, axis=-1)))
            th = self.theta[i]
        else:
            th = float(theta0)
        for _ in range(8):
            r = self.point(th) - x
            v = self.velocity_theta(th)
            th -= float(np.dot(r, v) / np.dot(v, v))
        return th % TWO_PI

    def contains(self, x):
        """Even-odd ray test of x against the sampled shell polygon.

        x may be a stack (..., 2); a single point gives a bool.
        """
        x = np.asarray(x, dtype=float)[..., None, :]
        p0, p1 = self.points, np.roll(self.points, -1, axis=0)
        y0, y1 = p0[:, 0] - x[..., 0], p1[:, 0] - x[..., 0]
        crosses = (y0 > 0) != (y1 > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            q_at = p0[:, 1] + y0 / (y0 - y1) * (p1[:, 1] - p0[:, 1])
        inside = np.sum(crosses & (q_at > x[..., 1]), axis=-1) % 2 == 1
        return inside if inside.ndim else bool(inside)


@dataclass
class Chord:
    """A shell chord centred on x: tips x_±, symplectic data, flags."""

    x_plus: np.ndarray
    x_minus: np.ndarray
    theta_plus: float
    theta_minus: float
    action: float
    wedge: float               # signed tip-velocity wedge
    tau: float                 # traversal time along the short arc
    caustic: bool              # |wedge| below threshold: amplitude invalid
    degenerate: bool = False   # zero-length chord (x on the shell)
    amplitude: Optional[float] = None

    @property
    def centre(self):
        return 0.5 * (self.x_plus + self.x_minus)

    @property
    def xi(self):
        return self.x_plus - self.x_minus


def build_shell(system: HamiltonianSystem, energy: float,
                n_samples: int = 2048, x0=None) -> ShellSpec:
    """Sample the closed orbit H = energy and wrap it in spline accessors.

    Samples are Newton-projected back onto the shell after integration;
    the cumulative action F is computed spectrally from p dq/dtheta, so
    chord actions are accurate to the spline interpolation error.
    """
    if x0 is None:
        x0 = shell_start(system, energy)
    period, orbit, _ = _closed_orbit(system, x0)
    pts = orbit(period * np.arange(n_samples) / n_samples)[:2].T
    closure = float(np.linalg.norm(orbit(period)[:2] - x0))

    # project the integrator's residual energy error off the shell
    for _ in range(3):
        g = system.gradient(pts)
        resid = system.energy(pts) - energy
        pts = pts - g * (resid / np.sum(g * g, axis=-1))[:, None]

    theta = TWO_PI * np.arange(n_samples) / n_samples
    p, q = pts[:, 0], pts[:, 1]

    # F(theta) = int p dq/dtheta: spectral antiderivative of a smooth
    # periodic integrand -> linear-in-theta part + periodic part
    k = np.fft.rfftfreq(n_samples, d=1.0 / n_samples)
    qhat = np.fft.rfft(q)
    dq_dth = np.fft.irfft(1j * k * qhat, n=n_samples)
    fhat = np.fft.rfft(p * dq_dth)
    fmean = float(fhat[0].real) / n_samples
    with np.errstate(divide="ignore", invalid="ignore"):
        anti = np.where(k > 0, fhat / (1j * k), 0.0)
    fper = np.fft.irfft(anti, n=n_samples)
    fper -= fper[0]

    theta_ext = np.append(theta, TWO_PI)
    wrap = lambda v: np.append(v, v[0])
    psp = CubicSpline(theta_ext, wrap(p), bc_type="periodic")
    qsp = CubicSpline(theta_ext, wrap(q), bc_type="periodic")
    fsp = CubicSpline(theta_ext, wrap(fper), bc_type="periodic")

    speed2 = psp(theta, 1) ** 2 + qsp(theta, 1) ** 2
    shell = ShellSpec(
        system=system, energy=float(energy), period=period,
        n_samples=n_samples, theta=theta, points=pts,
        area=fmean * TWO_PI, closure_error=closure,
        _psp=psp, _qsp=qsp, _fsp=fsp, _fmean=fmean,
        speed_scale=float(np.max(speed2)),
    )
    return shell


def _lstsq(a, b):
    """Minimum-norm least squares of stacked systems a x = b, with the
    singular-value cutoff of numpy.linalg.lstsq(rcond=None)."""
    u, s, vt = np.linalg.svd(a)
    c = np.einsum("kji,kj->ki", u, b)
    keep = s > np.finfo(float).eps * max(a.shape[-2:]) * s[:, :1]
    c = np.divide(c, s, out=np.zeros_like(c), where=keep)
    return np.einsum("kji,kj->ki", vt, c)


def _newton_tips(shell: ShellSpec, x, tm, tp, hcell: float):
    """Damped Newton on midpoint(tm, tp) = x over stacked seeds: updates
    tm, tp in place and returns the mask of converged seeds."""
    tol = 1e-10 * np.sqrt(shell.speed_scale)
    ok = np.zeros(len(x), dtype=bool)
    act = np.arange(len(x))
    for _ in range(40):
        r = 0.5 * (shell.point(tm[act]) + shell.point(tp[act])) - x[act]
        conv = np.linalg.norm(r, axis=-1) < tol
        ok[act[conv]] = True
        act, r = act[~conv], r[~conv]
        if not act.size:
            break
        jac = 0.5 * np.stack([shell.velocity_theta(tm[act]),
                              shell.velocity_theta(tp[act])], axis=-1)
        step = np.clip(_lstsq(jac, -r), -2 * hcell, 2 * hcell)
        tm[act] += step[:, 0]
        tp[act] += step[:, 1]
    return ok


def _search_chords(shell: ShellSpec, xs, caustic_tol: float = 1e-3):
    """(chords, dropped) for the points xs (n, 2): chords[k] is what
    find_chords gives for xs[k], dropped[k] counts its Newton seeds that
    did not converge.  The on-shell and inside tests run over all points,
    the seed scan, Newton and chord fields over blocks of _BLOCK."""
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    n = len(xs)
    on = np.abs(shell.system.energy(xs) - shell.energy) < 1e-10 * (
        1.0 + abs(shell.energy))
    live = on.copy()
    for b in range(0, n, _BLOCK):
        live[b:b + _BLOCK] |= shell.contains(xs[b:b + _BLOCK])

    stride = max(1, shell.n_samples // _N_SCAN)
    sub, thg = shell.points[::stride], shell.theta[::stride]
    hcell = TWO_PI / len(thg)
    mid = 0.5 * (sub[:, None, :] + sub[None, :, :])

    chords: List[List[Chord]] = [[] for _ in range(n)]
    dropped = np.zeros(n, dtype=int)
    idx = np.flatnonzero(live)
    for b in range(0, len(idx), _BLOCK):
        blk = idx[b:b + _BLOCK]
        xb = xs[blk]
        # periodic local minima of each inside point's midpoint-distance
        # landscape seed the Newton; an on-shell point gets no seeds
        d2 = np.sum((mid - xb[:, None, None, :]) ** 2, axis=-1)
        mins = np.broadcast_to(~on[blk, None, None], d2.shape)
        for shift, axis in ((1, 1), (-1, 1), (1, 2), (-1, 2)):
            mins = mins & (d2 <= np.roll(d2, shift, axis=axis))
        owner, i, j = np.nonzero(mins)
        # jitter splits degenerate diagonal seeds into tip pairs
        tm, tp = thg[i] - 0.25 * hcell, thg[j] + 0.25 * hcell
        ok = _newton_tips(shell, xb[owner], tm, tp, hcell)
        dropped[blk] += np.bincount(owner[~ok], minlength=len(blk))
        owner, tm, tp = owner[ok], tm[ok], tp[ok]

        swap = (tp - tm) % TWO_PI > np.pi  # canonical: forward arc is short
        tm, tp = np.where(swap, [tp, tm], [tm, tp]) % TWO_PI
        # dedup in seed order: a seed goes if an earlier kept one matches
        kept = [[] for _ in blk]
        keep = np.zeros(len(owner), dtype=bool)
        for s, (o, a, c) in enumerate(zip(owner, tm.tolist(), tp.tolist())):
            keep[s] = all(abs((a - ka + np.pi) % TWO_PI - np.pi) >= 1e-6
                          or abs((c - kc + np.pi) % TWO_PI - np.pi) >= 1e-6
                          for ka, kc in kept[o])
            if keep[s]:
                kept[o].append((a, c))

        # a point on the shell owns a single zero-length chord
        on_b = np.flatnonzero(on[blk])
        th_on = np.array([shell.theta_of_point(x) for x in xb[on_b]])
        owner = np.concatenate([owner[keep], on_b])
        tm = np.concatenate([tm[keep], th_on]) % TWO_PI
        tp = np.concatenate([tp[keep], th_on]) % TWO_PI
        degenerate = np.arange(len(owner)) >= keep.sum()

        w = shell.wedge(tm, tp)
        action = shell.chord_action(tm, tp)
        tau = shell.traversal_time(tm, tp)
        xp, xm = shell.point(tp), shell.point(tm)
        caustic = degenerate | (np.abs(w) < caustic_tol * shell.speed_scale)
        for k in np.lexsort(((tp - tm) % TWO_PI, owner)):
            chords[blk[owner[k]]].append(Chord(
                x_plus=xp[k], x_minus=xm[k],
                theta_plus=float(tp[k]), theta_minus=float(tm[k]),
                action=float(action[k]), wedge=float(w[k]),
                tau=float(tau[k]), caustic=bool(caustic[k]),
                degenerate=bool(degenerate[k])))
    return chords, dropped


def find_chords(shell: ShellSpec, x,
                caustic_tol: float = 1e-3) -> List[Chord]:
    """All shell chords whose midpoint is x.

    A coarse midpoint scan seeds damped Newton iterations on the tip
    angles; solutions are canonicalised to theta_+ - theta_- in [0, pi]
    (short arc) and deduplicated.  Points outside the shell have no
    chords; a point on the shell owns a single zero-length chord, flagged
    as caustic.
    """
    return _search_chords(shell, np.asarray(x, dtype=float)[None],
                          caustic_tol)[0][0]


def chord_amplitude(chord: Chord, hbar: float,
                    amplitude_scale: float = 1.0) -> float:
    """Stationary-phase amplitude  2 / (pi sqrt(2 pi hbar)) / sqrt|wedge|.

    Undefined on caustic (vanishing-wedge) chords: callers must branch on
    the caustic flag instead of consuming a garbage number.
    """
    if chord.caustic:
        raise NumericalError("amplitude undefined on a caustic chord")
    pref = 2.0 / (np.pi * np.sqrt(2.0 * np.pi * hbar))
    a = pref / np.sqrt(abs(chord.wedge))
    chord.amplitude = amplitude_scale * a
    return chord.amplitude


def quantize_energy(system: HamiltonianSystem, n_level: int,
                    hbar: float) -> float:
    """Energy of quantum level n from the area rule oint p dq = 2 pi hbar (n + 1/2).

    Safeguarded Newton on A(E) - target with dA/dE = T(E), the
    action-angle identity; one closed-orbit integration gives both.  The
    bracket keeps A(lo) < target and, at hi, A > target or no closed
    orbit; a Newton step that leaves it is replaced by bisection.  The
    well bottom is taken at the origin, where A = 0.  A bracket that
    shrinks onto an energy with no root (a separatrix: the level does
    not fit in the well) raises ShellError.  Orbits past a separatrix
    never return, so a probe stops after 4 periods of the lo orbit
    instead of t_max = 400; a bracket end set by such a cut probe is
    probed again in full before the error is raised.
    """
    target = TWO_PI * hbar * (n_level + 0.5)
    lo, hi = float(system.energy(np.zeros(2))), np.inf
    e = lo + target / TWO_PI  # exact for the unit-frequency oscillator
    t_lo, reach, cut = np.inf, 4.0, False
    for _ in range(100):
        tol = 1e-10 * (1.0 + abs(e))
        t_max = min(400.0, reach * t_lo)
        try:
            period, _, area = _closed_orbit(system, shell_start(system, e),
                                            t_max)
        except ShellError:
            hi, step, cut = e, None, t_max < 400.0
        else:
            step = (target - area) / period
            if abs(step) <= tol:
                return e + step
            if area < target:
                lo, t_lo = e, period
            else:
                hi, cut = e, False
        if hi - lo <= 0.1 * tol:
            if cut:
                e, hi, reach = hi, np.inf, np.inf
                continue
            raise ShellError(
                f"no closed orbit encloses area {target:.6g} (level "
                f"{n_level}): the bracket shrank onto E = {lo:.12g}, "
                "a separatrix")
        if step is not None and lo < e + step < hi:
            e += step
        else:
            e = 0.5 * (lo + hi)
    raise ShellError(f"quantization of level {n_level} did not converge")
