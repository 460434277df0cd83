"""Semiclassical Wigner functions assembled from chord contributions.

A pure state lives on a quantized energy shell; each phase-space point
inside the shell receives one oscillatory term per chord, W(x) =
sum_k A_k cos(S_k/hbar - pi/4).  A spectral state smooths the same
sum with a Gaussian energy-window factor per chord traversal time.
"""
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .flow import HamiltonianSystem, J
from .shells import (
    _CAUSTIC_TOL,
    _MASLOV,
    Chord,
    ShellSpec,
    _amplitude,
    _ChordArrays,
    _search_chords,
    named_shell,
)


@dataclass(frozen=True)
class ChordContribution:
    """One chord's term in the Wigner sum."""

    action: float
    amplitude: float
    window: float          # spectral window factor, 1 for pure states
    phase: float           # S/hbar - pi/4
    tau: float             # traversal time between the tips
    caustic: bool

    @property
    def value(self) -> float:
        return self.amplitude * self.window * np.cos(self.phase)


@dataclass(frozen=True)
class WignerSample:
    x: np.ndarray
    value: float
    contributions: Tuple[ChordContribution, ...]
    caustic_flag: bool
    dropped_seeds: int = 0   # chord-search seeds left unconverged


@dataclass(frozen=True)
class SemiclassicalState:
    """Pure (epsilon = 0) or spectral chord-sum state on an energy shell."""

    shell: ShellSpec
    hbar: float
    epsilon: float = 0.0

    def __post_init__(self):
        if not 0 < self.hbar < np.inf:
            raise ValueError("hbar must be positive and finite")
        if not 0 <= self.epsilon < np.inf:
            raise ValueError("window width must be finite and nonnegative")

    def conventions(self) -> dict:
        return {
            "maslov": _MASLOV,
            "window_shape": "gaussian",
            "amplitude_scale": 1.0,
            "caustic_tol": _CAUSTIC_TOL,
            "phase_convention": "W = sum A cos(S/hbar - maslov)",
        }


def pure_state(system: HamiltonianSystem, hbar: float,
               n: Optional[int] = None, energy: Optional[float] = None
               ) -> SemiclassicalState:
    """State on the shell quantized by the area rule (n) or at a given E."""
    return SemiclassicalState(shell=named_shell(system, hbar, n, energy),
                              hbar=hbar)


def window_factor(tau, epsilon: float, hbar: float):
    """Gaussian spectral weight exp(-(epsilon tau / hbar)^2 / 2) of chords
    with traversal times tau."""
    if epsilon == 0.0:
        return 1.0
    return np.exp(-0.5 * (epsilon * tau / hbar) ** 2)


def phase_gradient(chord: Chord) -> np.ndarray:
    """d(chord action)/d(centre) = J xi -- the local wavevector of W."""
    return J @ chord.xi


def _terms(state: SemiclassicalState, found: _ChordArrays):
    """Per-chord amplitude (nan on caustic chords), window and phase."""
    with np.errstate(divide="ignore"):
        amp = _amplitude(found.wedge, state.hbar)
    amp[found.caustic] = np.nan
    win = np.broadcast_to(window_factor(found.tau, state.epsilon, state.hbar),
                          amp.shape)
    return amp, win, found.action / state.hbar - _MASLOV


def _point_sums(found: _ChordArrays, amp, win, phase, n: int) -> np.ndarray:
    """Each of n points' sum of its regular chord terms, in chord order."""
    reg = ~found.caustic
    return np.bincount(found.owner[reg], minlength=n,
                       weights=(amp * win * np.cos(phase))[reg])


def eval_state(x, state: SemiclassicalState) -> WignerSample:
    """Chord-sum Wigner value at a phase-space point.

    Caustic chords (|wedge| < 1e-3 speed_scale) are flagged and left out of
    the sum; a point outside the shell returns zero with no
    contributions.
    """
    x = np.asarray(x, dtype=float)
    found = _search_chords(state.shell, x[None])
    amp, win, phase = _terms(state, found)
    contribs = tuple(
        ChordContribution(action=float(found.action[k]),
                          amplitude=float(amp[k]), window=float(win[k]),
                          phase=float(phase[k]), tau=float(found.tau[k]),
                          caustic=bool(found.caustic[k]))
        for k in range(len(amp)))
    return WignerSample(
        x=x, value=float(_point_sums(found, amp, win, phase, 1)[0]),
        contributions=contribs, caustic_flag=bool(found.caustic.any()),
        dropped_seeds=int(found.dropped[0]))


@dataclass
class WignerGridResult:
    ps: np.ndarray
    qs: np.ndarray
    values: np.ndarray        # (len(qs), len(ps))
    n_chords: np.ndarray
    caustic: np.ndarray
    dropped_seeds: np.ndarray  # unconverged chord-search seeds per point
    state: SemiclassicalState

    def write_csv(self, path) -> None:
        """One row per grid point, q outer and p inner, as the csv
        module's excel dialect writes them: CRLF line ends, and no field
        needs quotes."""
        p, q = np.meshgrid(self.ps, self.qs)
        cols = (p, q, self.values, self.n_chords, self.caustic.astype(int))
        row = "{:.12g},{:.12g},{:.12g},{:d},{:d}\r\n".format
        with open(path, "w", newline="") as fh:
            fh.write("p,q,W,n_chords,caustic_flag\r\n" + "".join(
                row(*r) for r in zip(*(c.ravel().tolist() for c in cols))))

    def manifest(self) -> dict:
        return {
            "hbar": self.state.hbar,
            "energy": self.state.shell.energy,
            "epsilon": self.state.epsilon,
            "system": self.state.shell.system.name,
            "grid": {"p": [float(self.ps[0]), float(self.ps[-1]),
                           len(self.ps)],
                     "q": [float(self.qs[0]), float(self.qs[-1]),
                           len(self.qs)]},
            "conventions": self.state.conventions(),
        }


def eval_grid(state: SemiclassicalState, ps, qs) -> WignerGridResult:
    """Evaluate the chord sum over a rectangular (p, q) grid.

    One batched chord search covers every grid point; the chord terms
    are summed per point from its arrays.
    """
    ps = np.asarray(ps, dtype=float)
    qs = np.asarray(qs, dtype=float)
    xs = np.stack(np.meshgrid(ps, qs), axis=-1).reshape(-1, 2)
    found = _search_chords(state.shell, xs)
    n, shape = len(xs), (len(qs), len(ps))
    values = _point_sums(found, *_terms(state, found), n)
    return WignerGridResult(
        ps=ps, qs=qs, values=values.reshape(shape),
        n_chords=np.bincount(found.owner, minlength=n).reshape(shape),
        caustic=(np.bincount(found.owner[found.caustic], minlength=n)
                 > 0).reshape(shape),
        dropped_seeds=found.dropped.reshape(shape), state=state)
