"""Open-system evolution of chord contributions.

Hermitian Lindblad couplings never touch the chord phase; they damp the
amplitude through the decoherence distance functional
D_t^2 = sum_j int |L_j(x_+) - L_j(x_-)|^2 dt' accumulated along the two
tip trajectories, giving the factor exp(-D_t^2 / 2 hbar).
"""
import csv
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import simpson

from .flow import HamiltonianSystem, _ORBIT_TOL, _poly_eval, _tip_flow
from .shells import _MASLOV, Chord, ShellSpec, chord_amplitude


class NonHermitianError(ValueError):
    """Raised when a time-integration op receives a non-hermitian channel."""


@dataclass(frozen=True)
class LindbladChannel:
    """Phase-space coupling function; coupling constants live inside L."""

    name: str
    func: Callable
    hermitian: bool = True

    def __call__(self, x):
        return self.func(np.asarray(x, dtype=float))


def position_channel(coupling: float = 1.0) -> LindbladChannel:
    return LindbladChannel(name=f"{coupling:g}*q" if coupling != 1.0 else "q",
                           func=lambda x: coupling * x[..., 1])


def momentum_channel(coupling: float = 1.0) -> LindbladChannel:
    return LindbladChannel(name=f"{coupling:g}*p" if coupling != 1.0 else "p",
                           func=lambda x: coupling * x[..., 0])


def polynomial_channel(coeffs: dict, coupling: float = 1.0,
                       name: Optional[str] = None) -> LindbladChannel:
    """L = coupling * sum c_ab p^a q^b; complex coefficients allowed
    (the channel is then marked non-hermitian)."""
    table = {k: coupling * c for k, c in coeffs.items()}
    return LindbladChannel(
        name=name or f"poly{sorted(coeffs)}",
        func=lambda x: _poly_eval(table, x),
        hermitian=all(complex(c).imag == 0 for c in coeffs.values()))


def make_channel(symbol, coupling: float = 1.0) -> LindbladChannel:
    if symbol == "q":
        return position_channel(coupling)
    if symbol == "p":
        return momentum_channel(coupling)
    if isinstance(symbol, dict):
        return polynomial_channel(symbol, coupling)
    raise ValueError(f"unknown channel symbol {symbol!r}")


def _require_hermitian(channels: Sequence[LindbladChannel]) -> None:
    bad = [c.name for c in channels if not c.hermitian]
    if bad:
        raise NonHermitianError(
            f"non-hermitian channels {bad}: only rate evaluation is defined, "
            "no amplitude/phase separation exists for time integration")


@dataclass
class DecoherenceRecord:
    """D_t and the integrand samples behind it."""

    t: float
    d2: float
    times: np.ndarray          # quadrature grid
    integrand: np.ndarray      # sum_j |L_j(x+) - L_j(x-)|^2 at each time
    traj_plus: np.ndarray      # (n, 2) tip trajectories
    traj_minus: np.ndarray

    @property
    def distance(self) -> float:
        return float(np.sqrt(max(self.d2, 0.0)))


@dataclass
class EvolvedChord:
    base: Chord                # tips/action at time t; wedge, tau, thetas
    damping: float             # exp(-D_t^2 / 2 hbar), in (0, 1]
    s_t: float
    record: DecoherenceRecord


def lindblad_rate(chord: Chord, channels: Sequence[LindbladChannel],
                  hbar: float, amplitude: Optional[float] = None) -> float:
    """Instantaneous dW~/dt of one chord term, complex channels allowed.

    (A/hbar) sum_j { Re[L_j(x+) L_j(x-)* e^{i phi}]
                     - (|L_j(x+)|^2 + |L_j(x-)|^2)/2 * cos(phi) }

    with phi = S/hbar - pi/4, the phase of the chord's term in the
    Wigner sum.  A is amplitude when given, else chord_amplitude(chord,
    hbar), which raises NumericalError on a caustic chord.
    """
    a = amplitude if amplitude is not None else chord_amplitude(chord, hbar)
    phase = chord.action / hbar - _MASLOV
    total = 0.0
    for ch in channels:
        lp = complex(ch(chord.x_plus))
        lm = complex(ch(chord.x_minus))
        total += (lp * np.conj(lm) * np.exp(1j * phase)).real \
            - 0.5 * (abs(lp) ** 2 + abs(lm) ** 2) * np.cos(phase)
    return float(a / hbar * total)


def hermitian_decay_rate(chord: Chord, channels: Sequence[LindbladChannel],
                         hbar: float) -> float:
    """Frozen-chord amplitude decay rate (1/2 hbar) sum |L(x+) - L(x-)|^2."""
    _require_hermitian(channels)
    return float(_d2_integrand(channels, chord.x_plus, chord.x_minus)
                 / (2.0 * hbar))


def _d2_integrand(channels: Sequence[LindbladChannel], xp, xm):
    """sum_j |L_j(x+) - L_j(x-)|^2, the D_t^2 integrand, at tips (..., 2)."""
    return sum((np.abs(ch(xp) - ch(xm)) ** 2 for ch in channels),
               np.zeros(np.shape(xp)[:-1]))


def _require_shell_dynamics(shell: ShellSpec, system) -> None:
    if system is not shell.system:
        raise ValueError("on-shell tips move with shell.system; pass that "
                         "object as the dynamics")


def _orbit_modes(points, channels: Sequence[LindbladChannel]):
    """(m, c) with L_j(theta) = sum_m c[j, m] e^{i m theta}, one FFT row per
    channel over orbit samples uniform in time.  A mode whose |c| is at
    most the closed orbit's rtol times the channel's largest |c| is
    integration noise and is set to exactly 0."""
    n = len(points)
    c = np.fft.fft(np.reshape([ch(points) for ch in channels], (-1, n))) / n
    mag = np.abs(c)
    c[mag <= _ORBIT_TOL * mag.max(axis=1, keepdims=True)] = 0.0
    return np.fft.fftfreq(n, d=1.0 / n), c


def shell_d2(shell: ShellSpec, theta_a, theta_b, t: float,
             channels: Sequence[LindbladChannel]) -> np.ndarray:
    """D_t^2 of every pair of on-shell tips, an (|a|, |b|) matrix.

    A tip at angle theta is at theta + ws a time s later (w = 2 pi / T),
    so over the channel modes c_m of the shell (_orbit_modes) D^2 is the
    exact form sum d_m conj(d_m') G_mm', d_m = c_m (e^{ima} - e^{imb}),
    G_mm' = int_0^t e^{i(m - m')ws} ds = e^{i(m - m')wt/2} K_mm'.  The real
    K = t sinc((m - m')t/T) = U diag(lam) U^T (lam clipped at 0) gives each
    tip the features [Re, Im] of (c e^{im(theta + wt/2)}) U lam^1/2, and
    D^2 = |f_i|^2 + |g_j|^2 - 2 f_i.g_j is one Gram product, clamped at 0,
    exactly 0 for equal tips and bitwise symmetric on one angle array.
    """
    ta = np.atleast_1d(np.asarray(theta_a, dtype=float))
    tb = np.atleast_1d(np.asarray(theta_b, dtype=float))
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0 or not channels:
        return np.zeros((ta.size, tb.size))
    _require_hermitian(channels)
    m, c = _orbit_modes(shell.points, channels)
    keep = np.any(c != 0.0, axis=0) & (m != 0)  # m = 0 cancels in d_m
    m, c = m[keep], c[:, keep]
    lam, u = np.linalg.eigh(t * np.sinc(np.subtract.outer(m, m)
                                        * (t / shell.period)))
    u *= np.sqrt(np.maximum(lam, 0.0))
    same = theta_b is theta_a
    mid = (ta if same else np.concatenate([ta, tb])) + np.pi * t / shell.period
    z = np.exp(1j * np.multiply.outer(mid, m)) @ np.hstack(c[:, :, None] * u)
    # one contiguous row per tip, so the row sums below are pairwise
    feats = np.concatenate([z.real, z.imag], axis=1)
    norm2 = (feats * feats).sum(axis=1)
    b0 = 0 if same else ta.size  # first row of the b set
    d2 = feats[:ta.size] @ feats[b0:].T
    d2 *= -2.0
    # the outer sum first, so (i, j) and (j, i) round alike
    d2 += np.add.outer(norm2[:ta.size], norm2[b0:])
    np.maximum(d2, 0.0, out=d2)
    d2[ta[:, None] == tb] = 0.0
    return d2


def _record(flow: Callable, channels: Sequence[LindbladChannel],
            t: float) -> DecoherenceRecord:
    """D_t on [0, t] read off a dense flow of the (x+, x-) tip pair:
    composite Simpson on equal intervals, one per 1e-3, at least 64 and
    an even count.  At t = 0 the grid is the single node 0, where the
    integrand is sampled and D^2 is 0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    n_steps = max(64, int(np.ceil(t / 1e-3)))
    n_steps += n_steps % 2
    times = np.linspace(0.0, t, n_steps + 1) if t > 0 else np.zeros(1)
    tips = flow(times)
    tp, tm = tips[:, 0], tips[:, 1]
    g = _d2_integrand(channels, tp, tm)
    d2 = float(simpson(g, x=times)) if t > 0 else 0.0
    return DecoherenceRecord(t=t, d2=d2, times=times, integrand=g,
                             traj_plus=tp, traj_minus=tm)


def _evolved(chord0: Chord, system: HamiltonianSystem, rec: DecoherenceRecord,
             hbar: float) -> EvolvedChord:
    """The chord at rec.t: tips from the record, the action moved by
    -[H(x+) - H(x-)] t, the amplitude damped by exp(-D_t^2 / 2 hbar)."""
    dh = float(system.energy(chord0.x_plus) - system.energy(chord0.x_minus))
    s_t = chord0.action - dh * rec.t
    damping = float(np.exp(-rec.d2 / (2.0 * hbar)))
    base = replace(chord0, x_plus=rec.traj_plus[-1].copy(),
                   x_minus=rec.traj_minus[-1].copy(), action=s_t)
    return EvolvedChord(base=base, damping=damping, s_t=s_t, record=rec)


def decoherence_distance(x_plus0, x_minus0, system: HamiltonianSystem,
                         channels: Sequence[LindbladChannel],
                         t: float) -> DecoherenceRecord:
    """D_t from the two tip trajectories: one adaptive dense flow of the
    pair, sampled on the composite-Simpson grid of _record.  For tips on
    a shell of this system, shell_d2 gives the same number from the
    shell's Fourier modes."""
    _require_hermitian(channels)
    flow = _tip_flow(system, np.stack([x_plus0, x_minus0]), t)
    return _record(flow, channels, t)


def evolve_contribution(chord0: Chord, system: HamiltonianSystem,
                        channels: Sequence[LindbladChannel], t: float,
                        hbar: float) -> EvolvedChord:
    """Continuous evolution of one chord contribution.

    Tips follow the classical flow; the action obeys
    dS/dt = -[H(x+) - H(x-)] (constant along autonomous flow, so the
    integral is exact); channels multiply the amplitude by
    exp(-D_t^2 / 2 hbar) and never touch the phase.  The wedge, tau and
    theta labels of the returned chord stay frozen at their t=0 values
    (amplitude transport is held constant).  The one-time case of
    evolution_trace.
    """
    return evolution_trace(chord0, system, channels, [t], hbar)[0][1]


def trotter_evolve(chord0: Chord, system: HamiltonianSystem,
                   channels: Sequence[LindbladChannel], t: float, n_steps: int,
                   hbar: float) -> EvolvedChord:
    """Split evolution: N substeps of (doubled-Hamiltonian transport over
    t/2N) then (frozen-chord damping with sqrt(2)-scaled couplings over
    t/2N) — algebraically a first-order Lie split of step t/N with the
    damping integrand sampled at the post-flow tips.  Those tips are read
    at k t/N off one dense flow, and D_t^2 is the right Riemann sum of the
    integrand.  Channels passed in are the physical ones; the rescaling
    is internal bookkeeping.
    """
    _require_hermitian(channels)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    times = np.linspace(0.0, t, n_steps + 1)
    tips = _tip_flow(system, np.stack([chord0.x_plus, chord0.x_minus]),
                     t)(times)
    tp, tm = tips[:, 0], tips[:, 1]
    g = _d2_integrand(channels, tp, tm)
    rec = DecoherenceRecord(t=t, d2=float(t / n_steps * np.sum(g[1:])),
                            times=times, integrand=g, traj_plus=tp,
                            traj_minus=tm)
    return _evolved(chord0, system, rec, hbar)


def evolution_trace(chord0: Chord, system: HamiltonianSystem,
                    channels: Sequence[LindbladChannel],
                    times: Sequence[float], hbar: float) -> List[Tuple[float,
                                                                       EvolvedChord]]:
    """evolve_contribution at each time, every record read off one dense
    flow of the tips to max(times) on the grid a separate call uses."""
    _require_hermitian(channels)
    times = [float(t) for t in times]
    flow = _tip_flow(system, np.stack([chord0.x_plus, chord0.x_minus]),
                     max(times, default=0.0))
    return [(t, _evolved(chord0, system, _record(flow, channels, t), hbar))
            for t in times]


def write_trace(path, rows: Sequence[Tuple[float, EvolvedChord]]) -> None:
    """CSV: t, tips, action, decoherence distance, damping."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "p_plus", "q_plus", "p_minus", "q_minus",
                    "S_t", "D_t", "damping"])
        for t, ev in rows:
            w.writerow([f"{v:.12g}" for v in (
                t, *ev.base.x_plus, *ev.base.x_minus, ev.s_t,
                ev.record.distance, ev.damping)])
