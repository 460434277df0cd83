"""Energy shells and chord geometry.

A shell is the closed orbit H = E, sampled uniformly in time and wrapped
in periodic splines; theta in [0, 2pi) is the angle (uniformized time)
variable.  A chord is a pair of shell points whose midpoint is a given
phase-space point x: its tips are where the shell meets its own
reflection through x, the roots of H(2x - x(theta)) = E.  Its symplectic
area S, tip-velocity wedge and traversal time are the raw material of
the semiclassical construction.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import List, NamedTuple

import numpy as np
from scipy.interpolate import CubicSpline, PPoly

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
    "named_shell",
    "find_chords",
    "chord_amplitude",
    "quantize_energy",
]

TWO_PI = 2.0 * np.pi
# Block size of the batched chord search.  It bounds the working arrays:
# the even-odd test tabulates crossings for block distinct p values at a
# time (block x n_samples values), the ring seeding takes block x _N_SCAN
# inside points at a time (block x _N_SCAN^2 values).
_BLOCK = 16
# Ring of shell samples whose roots of H(2x - x(theta)) - E seed Newton.
_N_SCAN = 64
# Newton pass cap; ring seeds on the built-in shells converge within 12.
_NEWTON_PASSES = 40
# Seeds per damped Newton solve.  It bounds the solve's working arrays
# (about 200 B per seed); a 41x41 grid fits in one solve.
_NEWTON_BATCH = 16384
# Every chord term is A cos(S/hbar - _MASLOV).
_MASLOV = np.pi / 4
# A chord is caustic where |wedge| < _CAUSTIC_TOL * speed_scale.
_CAUSTIC_TOL = 1e-3


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
    _xsp: CubicSpline = field(repr=False, default=None)  # (p, q) columns
    _fsp: CubicSpline = field(repr=False, default=None)  # periodic part of F
    _fmean: float = 0.0        # F(theta) = _fmean*theta + periodic part
    speed_scale: float = 1.0   # max |dx/dtheta|^2, for caustic thresholds
    _turning: tuple = field(repr=False, default=None)  # q_turning_angles

    # -- geometry accessors ------------------------------------------------

    def point(self, theta):
        """Shell point(s) at angle theta (any real, wrapped mod 2pi)."""
        return self._xsp(np.asarray(theta, dtype=float) % TWO_PI)

    def velocity_theta(self, theta):
        """dx/dtheta, the angle-flow tip velocity (T/2pi times J grad H)."""
        return self._xsp(np.asarray(theta, dtype=float) % TWO_PI, 1)

    def q_turning_angles(self):
        """Angles of the min-q (left) and max-q (right) turning points,
        found once per shell; a folded shell raises on every call."""
        if self._turning is None:
            self._turning = self._find_q_turning_angles()
        return self._turning

    def _find_q_turning_angles(self):
        """The samples count the turning points (a folded shell, where q
        turns more than twice, raises); each is the spline's dq/dtheta
        root nearest its extreme sample, past the spurious roots a
        degenerate turning point (q - q_t ~ dtheta^4) leaves within a
        sample step."""
        q = self.points[:, 1]
        dq = np.diff(q, append=q[:1])
        rising = dq[dq != 0] > 0
        n_turns = np.count_nonzero(rising != np.roll(rising, 1))
        if n_turns != 2:
            raise NumericalError(
                f"the shell has {n_turns} q-turning points, not 2: a folded "
                "shell's WKB branches are not resolved")
        roots = PPoly(self._xsp.c[..., 1], self._xsp.x).derivative().roots(
            extrapolate=False)
        off = (roots[:, None] - self.theta[[q.argmin(), q.argmax()]]
               + np.pi) % TWO_PI - np.pi
        left, right = roots[np.abs(off).argmin(axis=0)] % TWO_PI
        return float(left), float(right)

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

    def theta_of_point(self, x):
        """Angles of (approximately) on-shell points x, a stack (..., 2).

        Eight Newton steps on (point(theta) - x) . dx/dtheta = 0 from the
        nearest sample; raises NumericalError where the step that would
        follow is still above 1e-10 rad.
        """
        x = np.asarray(x, dtype=float)

        def newton_step(th):
            v = self.velocity_theta(th)
            return (np.sum((self.point(th) - x) * v, axis=-1)
                    / np.sum(v * v, axis=-1))

        d2 = np.sum((self.points - x[..., None, :]) ** 2, axis=-1)
        th = self.theta[np.argmin(d2, axis=-1)]
        for _ in range(8):
            th = th - newton_step(th)
        stalled = np.abs(newton_step(th)) > 1e-10
        if np.any(stalled):
            raise NumericalError("theta_of_point did not converge at "
                                 f"{x[stalled].tolist()}")
        return th % TWO_PI

    def contains(self, x):
        """Even-odd ray test of x against the sampled shell polygon.

        The ray runs from x towards +q.  The q values where the polygon
        crosses each distinct p of the input are tabulated once, _BLOCK
        values of p at a time, and a point is inside when an odd number
        of them lie above it.  x may be a stack (..., 2); a single point
        gives a bool.
        """
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, 2)
        pu, col = np.unique(flat[:, 0], return_inverse=True)
        p0, p1 = self.points, np.roll(self.points, -1, axis=0)
        rows, q_at = [np.zeros(0, dtype=int)], [np.zeros(0)]
        for b in range(0, len(pu), _BLOCK):
            y0 = p0[:, 0] - pu[b:b + _BLOCK, None]
            y1 = p1[:, 0] - pu[b:b + _BLOCK, None]
            r, e = np.nonzero((y0 > 0) != (y1 > 0))
            y0, y1 = y0[r, e], y1[r, e]
            rows.append(b + r)
            q_at.append(p0[e, 1] + y0 / (y0 - y1) * (p1[e, 1] - p0[e, 1]))
        rows, q_at = np.concatenate(rows), np.concatenate(q_at)
        # rows is sorted, so a crossing's rank within its p is its slot
        slot = np.arange(len(rows)) - np.searchsorted(rows, rows)
        table = np.full((len(pu), slot.max(initial=-1) + 1), -np.inf)
        table[rows, slot] = q_at
        above = np.sum(table[col] > flat[:, 1, None], axis=-1)
        inside = (above % 2 == 1).reshape(x.shape[:-1])
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

    @classmethod
    def from_tips(cls, x_plus, x_minus) -> Chord:
        """A bare tip pair, for the formulas that read only the tips."""
        return cls(x_plus=np.asarray(x_plus, dtype=float),
                   x_minus=np.asarray(x_minus, dtype=float),
                   theta_plus=0.0, theta_minus=0.0, action=0.0, wedge=1.0,
                   tau=0.0, caustic=False)

    @property
    def centre(self):
        return 0.5 * (self.x_plus + self.x_minus)

    @property
    def xi(self):
        return self.x_plus - self.x_minus


def build_shell(system: HamiltonianSystem, energy: float,
                n_samples: int = 2048) -> ShellSpec:
    """Sample the closed orbit H = energy and wrap it in spline accessors.

    Samples are Newton-projected back onto the shell after integration;
    the cumulative action F is computed spectrally from p dq/dtheta, so
    chord actions are accurate to the spline interpolation error.
    """
    x0 = shell_start(system, energy)
    period, orbit, _ = _closed_orbit(system, x0, dense=True)
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
    xsp = CubicSpline(theta_ext, np.append(pts, pts[:1], axis=0),
                      bc_type="periodic")
    fsp = CubicSpline(theta_ext, np.append(fper, fper[0]),
                      bc_type="periodic")

    speed2 = np.sum(xsp(theta, 1) ** 2, axis=-1)
    shell = ShellSpec(
        system=system, energy=float(energy), period=period,
        n_samples=n_samples, theta=theta, points=pts,
        area=fmean * TWO_PI, closure_error=closure,
        _xsp=xsp, _fsp=fsp, _fmean=fmean,
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


def _solve2(a, b):
    """Stacked 2x2 systems a x = b by Cramer's rule where |det| > 1e-8
    ||a||_F^2, so that cond(a) < 1e8; the other rows, the all-zero ones
    among them, go to _lstsq and keep its minimum-norm cutoff."""
    (a00, a01), (a10, a11) = a[:, 0].T, a[:, 1].T
    det = a00 * a11 - a01 * a10
    good = np.abs(det) > 1e-8 * np.sum(a * a, axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.stack([a11 * b[:, 0] - a01 * b[:, 1],
                      a00 * b[:, 1] - a10 * b[:, 0]], axis=-1) / det[:, None]
    if not good.all():
        x[~good] = _lstsq(a[~good], b[~good])
    return x


def _newton_tips(shell: ShellSpec, x, tm, tp, hcell: float):
    """Damped Newton on midpoint(tm, tp) = x over stacked seeds: updates
    tm, tp in place and returns the mask of converged seeds.  A pass is a
    function of a seed's own tips, so each seed's result is what it would
    be if it were solved alone."""
    tol = 1e-10 * np.sqrt(shell.speed_scale)
    ok = np.zeros(len(x), dtype=bool)
    act = np.arange(len(x))
    for _ in range(_NEWTON_PASSES):
        tips = np.array([tm[act], tp[act]])
        r = 0.5 * shell.point(tips).sum(axis=0) - x[act]
        conv = np.linalg.norm(r, axis=-1) < tol
        ok[act[conv]] = True
        act, r, tips = act[~conv], r[~conv], tips[:, ~conv]
        if not act.size:
            break
        jac = 0.5 * shell.velocity_theta(tips).transpose(1, 2, 0)
        step = np.clip(_solve2(jac, -r), -2 * hcell, 2 * hcell)
        tm[act] += step[:, 0]
        tp[act] += step[:, 1]
    return ok


class _ChordArrays(NamedTuple):
    """The chords of a batch of points, one entry per chord, grouped by
    owner (the index of the point) in ascending order and, within a
    point, by short-arc length; dropped[k] counts point k's Newton seeds
    left unconverged at _NEWTON_PASSES, such as a seed from a ring root
    whose reflection lies on another branch of H = E, or the seed of a
    point within about 1e-8 of a centre of symmetry."""

    owner: np.ndarray
    theta_minus: np.ndarray
    theta_plus: np.ndarray
    action: np.ndarray
    wedge: np.ndarray
    tau: np.ndarray
    caustic: np.ndarray
    degenerate: np.ndarray
    dropped: np.ndarray


def _inside(shell: ShellSpec, xs) -> np.ndarray:
    """shell.contains over the points xs (n, 2); a point outside the
    bounding box of shell.points is outside."""
    p, q = shell.points.T  # column reductions: axis=0 of (n, 2) is slow
    box = ((xs[:, 0] >= p.min()) & (xs[:, 0] <= p.max())
           & (xs[:, 1] >= q.min()) & (xs[:, 1] <= q.max()))
    inside = np.zeros(len(xs), dtype=bool)
    inside[box] = shell.contains(xs[box])
    return inside


def _dedup(owner, tm, tp):
    """Mask of the seeds to keep, in seed order: a seed goes if an earlier
    kept seed of the same owner has both tips within 1e-6 rad.  owner is
    nondecreasing; the seeds of rank r within their owner are settled
    together, against ranks 0..r-1."""
    rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
    keep = np.ones(len(owner), dtype=bool)
    for r in range(1, rank.max(initial=0) + 1):
        at = np.flatnonzero(rank == r)
        prev = at[:, None] - np.arange(1, r + 1)
        same = keep[prev]
        for t in (tm, tp):
            same &= np.abs((t[at, None] - t[prev] + np.pi) % TWO_PI
                           - np.pi) < 1e-6
        keep[at] = ~np.any(same, axis=1)
    return keep


def _ring_seeds(shell: ShellSpec, xs, ring, thg, tol: float):
    """Newton seeds (owner, tm, tp) of the points xs (k, 2), owner
    ascending.  A chord's tips are roots of g(theta) = H(2x - x(theta))
    - E, the shell meeting its reflection through x: on the ring of
    shell samples, a sign change of g between neighbours is a root by
    linear interpolation, and a sample with |g| < tol is one itself (at
    a centre of symmetry every sample is).  A root pairs with the root
    of its point nearest its reflection, and each pair seeds once; a
    root whose reflection lies on another branch of H = E has no true
    partner, and its seed converges to another chord or is dropped.  A
    point within a ring cell of the shell also gets its nearest sample
    split +-1/4 cell, for a chord shorter than a cell."""
    m, hcell = len(thg), TWO_PI / len(thg)
    g = shell.system.energy(2.0 * xs[:, None] - ring) - shell.energy
    g[np.abs(g) < tol] = 0.0
    g1 = np.roll(g, -1, axis=1)
    o, c = np.nonzero((g == 0.0) | (g * g1 < 0.0))
    a, b = g[o, c], g1[o, c]
    f = np.divide(a, a - b, out=np.zeros_like(a), where=a != 0.0)
    th = thg[c] + f * hcell
    y = ring[c] + f[:, None] * (ring[(c + 1) % m] - ring[c])
    # the points with r roots are paired together: rows (k_r, r)
    cnt = np.bincount(o, minlength=len(xs))
    first, root = np.cumsum(cnt) - cnt, np.arange(len(o))
    partner = root.copy()
    for r in np.unique(cnt[cnt > 1]):
        rows = first[cnt == r, None] + np.arange(r)
        refl = 2.0 * xs[o[rows]] - y[rows]
        d2 = np.sum((refl[:, :, None] - y[rows][:, None]) ** 2, axis=-1)
        partner[rows] = np.take_along_axis(rows, d2.argmin(axis=-1), axis=1)
    lo, hi = np.minimum(root, partner), np.maximum(root, partner)
    lo, hi = np.divmod(np.unique((lo * len(o) + hi)[lo != hi]), len(o))
    d2 = np.sum((ring - xs[:, None]) ** 2, axis=-1)
    near = np.flatnonzero(d2.min(axis=1) < hcell ** 2 * shell.speed_scale)
    split = thg[d2[near].argmin(axis=1)]
    owner = np.concatenate([o[lo], near])
    order = np.argsort(owner, kind="stable")
    tm = np.concatenate([th[lo], split - 0.25 * hcell])
    tp = np.concatenate([th[hi], split + 0.25 * hcell])
    return owner[order], tm[order], tp[order]


def _search_chords(shell: ShellSpec, xs) -> _ChordArrays:
    """The chords of the points xs (n, 2): for each k, owner == k selects
    what find_chords gives for xs[k].  The ring seeds (_ring_seeds) are
    found for blocks of _BLOCK * _N_SCAN inside points; one damped Newton
    then takes every seed of the batch, _NEWTON_BATCH seeds at a time."""
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    n = len(xs)
    tol = 1e-10 * (1.0 + abs(shell.energy))
    on = np.abs(shell.system.energy(xs) - shell.energy) < tol
    idx = np.flatnonzero(_inside(shell, xs) & ~on)

    stride = max(1, shell.n_samples // _N_SCAN)
    ring, thg = shell.points[::stride], shell.theta[::stride]
    hcell = TWO_PI / len(thg)
    # an on-shell point gets no seeds
    seeds = [(np.zeros(0, dtype=int), np.zeros(0), np.zeros(0))]
    for b in range(0, len(idx), _BLOCK * _N_SCAN):
        blk = idx[b:b + _BLOCK * _N_SCAN]
        o, tm, tp = _ring_seeds(shell, xs[blk], ring, thg, tol)
        seeds.append((blk[o], tm, tp))
    owner, tm, tp = (np.concatenate(a) for a in zip(*seeds))
    ok = np.zeros(len(owner), dtype=bool)
    for b in range(0, len(owner), _NEWTON_BATCH):
        s = slice(b, b + _NEWTON_BATCH)
        ok[s] = _newton_tips(shell, xs[owner[s]], tm[s], tp[s], hcell)
    dropped = np.bincount(owner[~ok], minlength=n)
    owner, tm, tp = owner[ok], tm[ok], tp[ok]

    swap = (tp - tm) % TWO_PI > np.pi  # canonical: forward arc is short
    tm, tp = np.where(swap, [tp, tm], [tm, tp]) % TWO_PI
    keep = _dedup(owner, tm, tp)

    # a point on the shell owns a single zero-length chord
    on_idx = np.flatnonzero(on)
    th_on = np.concatenate([np.zeros(0)] + [
        shell.theta_of_point(xs[on_idx[b:b + _BLOCK]])
        for b in range(0, len(on_idx), _BLOCK)])
    owner = np.concatenate([owner[keep], on_idx])
    tm = np.concatenate([tm[keep], th_on]) % TWO_PI
    tp = np.concatenate([tp[keep], th_on]) % TWO_PI
    degenerate = np.arange(len(owner)) >= keep.sum()

    order = np.lexsort(((tp - tm) % TWO_PI, owner))
    owner, tm, tp = owner[order], tm[order], tp[order]
    degenerate = degenerate[order]
    w = shell.wedge(tm, tp)
    return _ChordArrays(
        owner=owner, theta_minus=tm, theta_plus=tp,
        action=shell.chord_action(tm, tp), wedge=w,
        tau=shell.traversal_time(tm, tp),
        caustic=degenerate | (np.abs(w) < _CAUSTIC_TOL * shell.speed_scale),
        degenerate=degenerate, dropped=dropped)


def find_chords(shell: ShellSpec, x) -> List[Chord]:
    """All shell chords whose midpoint is x.

    Ring roots of H(2x - x(theta)) - E, paired through x, seed damped
    Newton iterations on the tip angles (_ring_seeds); solutions are
    canonicalised to theta_+ - theta_- in [0, pi] (short arc) and
    deduplicated.  Points outside the shell have no
    chords; a point on the shell owns a single zero-length chord, flagged
    as caustic.  A chord is caustic where |wedge| < 1e-3 speed_scale, the
    threshold eval_state and eval_grid flag with too.
    """
    found = _search_chords(shell, np.asarray(x, dtype=float)[None])
    xp, xm = shell.point(found.theta_plus), shell.point(found.theta_minus)
    return [Chord(x_plus=xp[k], x_minus=xm[k],
                  theta_plus=float(found.theta_plus[k]),
                  theta_minus=float(found.theta_minus[k]),
                  action=float(found.action[k]), wedge=float(found.wedge[k]),
                  tau=float(found.tau[k]), caustic=bool(found.caustic[k]),
                  degenerate=bool(found.degenerate[k]))
            for k in range(len(found.owner))]


def _amplitude(wedge, hbar: float):
    """Stationary-phase amplitude 2 / (pi sqrt(2 pi hbar)) / sqrt|wedge|."""
    pref = 2.0 / (np.pi * np.sqrt(2.0 * np.pi * hbar))
    return pref / np.sqrt(np.abs(wedge))


def chord_amplitude(chord: Chord, hbar: float) -> float:
    """Stationary-phase amplitude  2 / (pi sqrt(2 pi hbar)) / sqrt|wedge|.

    Undefined on caustic (vanishing-wedge) chords: callers must branch on
    the caustic flag instead of consuming a garbage number.
    """
    if chord.caustic:
        raise NumericalError("amplitude undefined on a caustic chord")
    return _amplitude(chord.wedge, hbar)


def _small_oscillation_period(system: HamiltonianSystem) -> float:
    """2 pi / omega_0 at the origin, with omega_0^2 = H_pp H_qq - H_pq^2
    by central differences of the gradient; inf where omega_0^2 <= 0."""
    h = 1e-5
    gp = (system.gradient([h, 0.0]) - system.gradient([-h, 0.0])) / (2 * h)
    gq = (system.gradient([0.0, h]) - system.gradient([0.0, -h])) / (2 * h)
    w2 = float(gp[0] * gq[1] - gp[1] * gq[0])
    return TWO_PI / np.sqrt(w2) if w2 > 0 else np.inf


def quantize_energy(system: HamiltonianSystem, n_level: int,
                    hbar: float) -> float:
    """Energy of quantum level n from the area rule oint p dq = 2 pi hbar (n + 1/2).

    Safeguarded Newton in (ln eps, ln A), eps = E - V(0): the well bottom
    is taken at the origin, where A = 0.  One closed-orbit integration
    gives A and, by the action-angle identity dA/dE = T, the slope
    d ln A / d ln eps = eps T / A, so the next probe is at
    eps (target / A)^(A / (eps T)) above the bottom.  The step is exact
    for any power-law well, A ~ eps^k: the oscillator and the pure
    quartic need two probes.  A probe whose linear step (target - A) / T
    is within 1e-10 (1 + |E|) returns E plus that step.  The bracket keeps
    A(lo) < target and, at hi, A > target or no closed orbit; a step that
    leaves it or cannot be formed (the power overflows, or eps or A is not
    positive) is replaced by bisection, or by the linear step while hi is
    still unbounded.  A bracket that shrinks onto
    an energy with no root (a separatrix: the level does not fit in the
    well) raises ShellError.  Orbits past a separatrix never return, so a
    probe stops after 4 periods of the lo orbit instead of t_max = 400;
    before any lo orbit, after 4 small-oscillation periods 2 pi / omega_0
    at the origin (none where omega_0^2 <= 0).  A bracket end set by a
    cut probe is probed again in full before the error is raised.
    """
    target = TWO_PI * hbar * (n_level + 0.5)
    bottom = float(system.energy(np.zeros(2)))
    lo, hi = bottom, np.inf
    e = lo + target / TWO_PI  # exact for the unit-frequency oscillator
    t_lo, reach, cut = _small_oscillation_period(system), 4.0, False
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
        nxt, eps = np.nan, e - bottom
        if step is not None and eps > 0 and area > 0:
            with contextlib.suppress(OverflowError):
                nxt = bottom + eps * (target / area) ** (area / (eps * period))
        if lo < nxt < hi:
            e = nxt
        elif hi < np.inf:
            e = 0.5 * (lo + hi)
        else:
            e += step
    raise ShellError(f"quantization of level {n_level} did not converge")


def named_shell(system: HamiltonianSystem, hbar: float,
                n_level: int | None = None, energy: float | None = None
                ) -> ShellSpec:
    """The shell of quantum level n_level (area rule) or of the given
    energy; exactly one of the two names it."""
    if (n_level is None) == (energy is None):
        raise ValueError('a shell needs exactly one of "n" or "energy"')
    if energy is None:
        energy = quantize_energy(system, n_level, hbar)
    return build_shell(system, energy)
