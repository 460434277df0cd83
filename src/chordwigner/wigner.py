"""Semiclassical Wigner functions assembled from chord contributions.

A pure state lives on a quantized energy shell; each phase-space point
inside the shell receives one oscillatory term per chord, W(x) =
sum_k A_k cos(S_k/hbar - maslov).  A spectral state smooths the same
sum with an energy-window factor per chord traversal time.
"""
import csv
import json
import hashlib
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .flow import HamiltonianSystem, J
from .shells import (
    Chord,
    ShellSpec,
    _search_chords,
    build_shell,
    chord_amplitude,
    quantize_energy,
)


@dataclass(frozen=True)
class ChordContribution:
    """One chord's term in the Wigner sum."""

    action: float
    amplitude: float
    window: float          # spectral window factor, 1 for pure states
    phase: float           # S/hbar - maslov
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
    window_shape: str = "gaussian"
    maslov: float = np.pi / 4
    amplitude_scale: float = 1.0
    caustic_tol: float = 1e-3    # |wedge| / speed_scale threshold

    def __post_init__(self):
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.epsilon < 0:
            raise ValueError("window width must be nonnegative")
        if self.window_shape not in ("gaussian", "lorentzian"):
            raise ValueError(f"unknown window shape {self.window_shape!r}")

    @property
    def is_pure(self) -> bool:
        return self.epsilon == 0.0

    def conventions(self) -> dict:
        return {
            "maslov": self.maslov,
            "window_shape": self.window_shape,
            "amplitude_scale": self.amplitude_scale,
            "caustic_tol": self.caustic_tol,
            "phase_convention": "W = sum A cos(S/hbar - maslov)",
        }


def pure_state(system: HamiltonianSystem, hbar: float,
               n: Optional[int] = None, energy: Optional[float] = None,
               **kwargs) -> SemiclassicalState:
    """State on the shell quantized by the area rule (n) or at a given E."""
    if (n is None) == (energy is None):
        raise ValueError("give exactly one of n or energy")
    if energy is None:
        energy = quantize_energy(system, n, hbar)
    return SemiclassicalState(shell=build_shell(system, energy), hbar=hbar,
                              **kwargs)


def spectral_state(system: HamiltonianSystem, energy: float, epsilon: float,
                   hbar: float, window_shape: str = "gaussian",
                   **kwargs) -> SemiclassicalState:
    return SemiclassicalState(shell=build_shell(system, energy), hbar=hbar,
                              epsilon=epsilon, window_shape=window_shape,
                              **kwargs)


def window_factor(tau: float, epsilon: float, hbar: float,
                  shape: str = "gaussian") -> float:
    """Spectral weight of a chord with traversal time tau."""
    if epsilon == 0.0:
        return 1.0
    if shape == "gaussian":
        return float(np.exp(-0.5 * (epsilon * tau / hbar) ** 2))
    if shape == "lorentzian":
        return float(np.exp(-epsilon * abs(tau) / hbar))
    raise ValueError(f"unknown window shape {shape!r}")


def phase_gradient(chord: Chord) -> np.ndarray:
    """d(chord action)/d(centre) = J xi -- the local wavevector of W."""
    return J @ chord.xi


def _contribution(state: SemiclassicalState, chord: Chord) -> ChordContribution:
    tau = chord.tau
    win = window_factor(tau, state.epsilon, state.hbar, state.window_shape)
    if chord.caustic:
        return ChordContribution(action=chord.action, amplitude=np.nan,
                                 window=win, phase=chord.action / state.hbar
                                 - state.maslov, tau=tau, caustic=True)
    amp = chord_amplitude(chord, state.hbar,
                          amplitude_scale=state.amplitude_scale)
    return ChordContribution(action=chord.action, amplitude=amp, window=win,
                             phase=chord.action / state.hbar - state.maslov,
                             tau=tau, caustic=False)


def _sample(state: SemiclassicalState, x, chords, dropped) -> WignerSample:
    contribs = tuple(_contribution(state, c) for c in chords)
    regular = [c.value for c in contribs if not c.caustic]
    return WignerSample(x=x, value=float(sum(regular)),
                        contributions=contribs,
                        caustic_flag=any(c.caustic for c in contribs),
                        dropped_seeds=int(dropped))


def eval_state(x, state: SemiclassicalState) -> WignerSample:
    """Chord-sum Wigner value at a phase-space point.

    Caustic chords (wedge under tolerance) are flagged and left out of
    the sum; a point outside the shell returns zero with no
    contributions.
    """
    x = np.asarray(x, dtype=float)
    chords, dropped = _search_chords(state.shell, x[None],
                                     caustic_tol=state.caustic_tol)
    return _sample(state, x, chords[0], dropped[0])


def eval_pure(x, state: SemiclassicalState) -> WignerSample:
    if not state.is_pure:
        raise ValueError("state has a nonzero energy window; use eval_spectral")
    return eval_state(x, state)


def eval_spectral(x, state: SemiclassicalState) -> WignerSample:
    return eval_state(x, state)


def mix_states(weights: Sequence[float],
               samples: Sequence[WignerSample]) -> WignerSample:
    """Pointwise weighted superposition of samples at a common point."""
    if len(weights) != len(samples):
        raise ValueError("weights and samples differ in length")
    if not samples:
        raise ValueError("nothing to mix")
    x0 = samples[0].x
    for s in samples[1:]:
        if not np.allclose(s.x, x0, atol=1e-12):
            raise ValueError("samples evaluated at different points")
    contribs = []
    for w, s in zip(weights, samples):
        for c in s.contributions:
            amp = c.amplitude if c.caustic else w * c.amplitude
            contribs.append(replace(c, amplitude=amp))
    value = float(sum(w * s.value for w, s in zip(weights, samples)))
    return WignerSample(x=x0, value=value, contributions=tuple(contribs),
                        caustic_flag=any(s.caustic_flag for s in samples),
                        dropped_seeds=sum(s.dropped_seeds for s in samples))


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
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["p", "q", "W", "n_chords", "caustic_flag"])
            for i, q in enumerate(self.qs):
                for k, p in enumerate(self.ps):
                    w.writerow([f"{p:.12g}", f"{q:.12g}",
                                f"{self.values[i, k]:.12g}",
                                int(self.n_chords[i, k]),
                                int(self.caustic[i, k])])

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

    def write_manifest(self, path) -> None:
        payload = self.manifest()
        body = json.dumps(payload, indent=2, sort_keys=True)
        payload["sha256"] = hashlib.sha256(body.encode()).hexdigest()
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def eval_grid(state: SemiclassicalState, ps, qs) -> WignerGridResult:
    """Evaluate the chord sum over a rectangular (p, q) grid.

    One batched chord search covers every grid point.
    """
    ps = np.asarray(ps, dtype=float)
    qs = np.asarray(qs, dtype=float)
    xs = np.stack(np.meshgrid(ps, qs), axis=-1).reshape(-1, 2)
    chords, dropped = _search_chords(state.shell, xs,
                                     caustic_tol=state.caustic_tol)
    shape = (len(qs), len(ps))
    samples = (_sample(state, x, c, d) for x, c, d in zip(xs, chords, dropped))
    cols = np.array([(s.value, len(s.contributions), s.caustic_flag)
                     for s in samples], dtype=float).reshape(shape + (3,))
    return WignerGridResult(ps=ps, qs=qs, values=cols[..., 0],
                            n_chords=cols[..., 1].astype(int),
                            caustic=cols[..., 2].astype(bool),
                            dropped_seeds=dropped.reshape(shape), state=state)
