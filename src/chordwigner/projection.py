"""Position- and momentum-representation density matrix elements built
from WKB branch pairs, damped by the decoherence distance of the two
branch points as they move along the shell."""
import csv
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

from .flow import HamiltonianSystem, NumericalError
from .lindblad import LindbladChannel, _require_shell_dynamics, shell_d2
from .shells import _MASLOV, TWO_PI, ShellSpec, build_shell

# a query within this fraction of the allowed q span of a turning point
# gets the single flagged turning branch
_TURNING_TOL = 1e-6


class TurningPointError(NumericalError):
    """Query too close to a turning point for the simple WKB amplitude."""


@dataclass(frozen=True)
class WKBBranch:
    """One momentum branch p_j(q) of the shell at fixed position."""

    j: int
    q: float
    p: float
    amplitude: float        # 1 / sqrt(T |dH/dp|)
    action: float           # int p dq from the left turning point
    nu: int                 # turning-point passages from the reference angle
    theta: float
    turning: bool

    def phase(self, hbar: float) -> float:
        return self.action / hbar - self.nu * np.pi / 2 - _MASLOV

    @property
    def x(self) -> np.ndarray:
        return np.array([self.p, self.q])


def wkb_branches(q: float, shell: ShellSpec) -> List[WKBBranch]:
    """All shell momenta over the position q with amplitudes and actions.

    Empty outside the classically allowed region; a single flagged
    branch within _TURNING_TOL of the span from a turning point.  A
    folded shell, with more than two q-turning points, raises.
    """
    th_left, th_right = shell.q_turning_angles()
    if th_right < th_left:        # unwrap so the two arcs are ordered
        th_right += TWO_PI
    q_left = float(shell.point(th_left)[1])
    q_right = float(shell.point(th_right)[1])
    span = q_right - q_left
    if q < q_left - _TURNING_TOL * span or q > q_right + _TURNING_TOL * span:
        return []

    for th_t, q_t in ((th_left, q_left), (th_right, q_right)):
        if abs(q - q_t) <= _TURNING_TOL * span:
            p_t = float(shell.point(th_t)[0])
            return [WKBBranch(j=0, q=q_t, p=p_t, amplitude=np.nan,
                              action=float(
                                  shell.action_integral(th_t)
                                  - shell.action_integral(th_left)),
                              nu=0, theta=th_t, turning=True)]

    # two monotone-q arcs between the turning angles
    branches = []
    segments = [(th_left, th_right, 0), (th_right, th_left + TWO_PI, 1)]
    for j, (ta, tb, nu) in enumerate(segments):
        def resid(t):
            return float(shell.point(t)[1]) - q

        # bracket inside the open segment (endpoints are the turnings)
        pad = 1e-9 * (tb - ta)
        lo, hi = ta + pad, tb - pad
        ra, rb = resid(lo), resid(hi)
        if ra * rb > 0:
            # q equals a turning value within roundoff of the padding
            continue
        t_root = brentq(resid, lo, hi, xtol=1e-13)
        x = shell.point(t_root)
        dh_dp = float(shell.system.gradient(x)[0])
        amp = 1.0 / np.sqrt(shell.period * abs(dh_dp))
        s = float(shell.action_integral(t_root)
                  - shell.action_integral(th_left))
        branches.append(WKBBranch(j=j, q=q, p=float(x[0]), amplitude=amp,
                                  action=s, nu=nu, theta=t_root % TWO_PI,
                                  turning=False))
    return branches


@dataclass(frozen=True)
class BranchPairTerm:
    j_plus: int
    j_minus: int
    amplitude: float
    phase: float
    damping: float

    @property
    def value(self) -> complex:
        return self.amplitude * self.damping * np.exp(1j * self.phase)


@dataclass(frozen=True)
class DensityMatrixElement:
    q_plus: float
    q_minus: float
    value: complex
    terms: Tuple[BranchPairTerm, ...]
    flagged: bool           # turning-point branches were excluded


def density_matrix_sc(q_plus: float, q_minus: float, shell: ShellSpec,
                      system: HamiltonianSystem,
                      channels: Sequence[LindbladChannel], t: float,
                      hbar: float) -> DensityMatrixElement:
    """Sum over branch pairs of a+ a- e^{i(phi+ - phi-)} e^{-D_t^2/2hbar}.

    D_t is accumulated by the two branch points as they move along the
    shell (one shell_d2 call for all pairs); system must be shell.system.
    Hermitian channels never touch the phase.
    """
    _require_shell_dynamics(shell, system)
    bp = wkb_branches(q_plus, shell)
    bm = wkb_branches(q_minus, shell)
    flagged = any(b.turning for b in bp + bm)
    if (bp and all(b.turning for b in bp)) or \
            (bm and all(b.turning for b in bm)):
        raise TurningPointError(
            "a query position sits at a turning point, where the "
            "primitive WKB amplitude diverges")
    bp, bm = ([b for b in br if not b.turning] for br in (bp, bm))
    d2 = shell_d2(shell, [b.theta for b in bp], [b.theta for b in bm], t,
                  channels)
    terms = [BranchPairTerm(j_plus=b1.j, j_minus=b2.j,
                            amplitude=b1.amplitude * b2.amplitude,
                            phase=b1.phase(hbar) - b2.phase(hbar),
                            damping=float(np.exp(-d2[i, k] / (2.0 * hbar))))
             for i, b1 in enumerate(bp) for k, b2 in enumerate(bm)]
    value = complex(sum(term.value for term in terms))
    return DensityMatrixElement(q_plus=q_plus, q_minus=q_minus, value=value,
                                terms=tuple(terms), flagged=flagged)


def swapped_system(system: HamiltonianSystem) -> HamiltonianSystem:
    """The (p <-> q)-exchanged Hamiltonian (antisymplectic mirror)."""
    return HamiltonianSystem(
        name=system.name + "-pqswap",
        value=lambda x: system.value(np.asarray(x)[..., ::-1]),
        grad=lambda x: np.asarray(
            system.grad(np.asarray(x)[..., ::-1]))[..., ::-1])


def swapped_shell(shell: ShellSpec, channels: Sequence[LindbladChannel]):
    """(shell, channels) with p and q exchanged, for density_matrix_sc.

    The exchange is antisymplectic (time-reversing); |delta L|^2 time
    integrals are invariant, so the damping carries over unchanged.
    """
    sw_channels = [LindbladChannel(
        name=ch.name + "-pqswap",
        func=(lambda f: lambda x: f(np.asarray(x)[..., ::-1]))(ch.func),
        hermitian=ch.hermitian) for ch in channels]
    return (build_shell(swapped_system(shell.system), shell.energy),
            sw_channels)


def momentum_rep_element(p_plus: float, p_minus: float, shell: ShellSpec,
                         system: HamiltonianSystem,
                         channels: Sequence[LindbladChannel], t: float,
                         hbar: float) -> DensityMatrixElement:
    """Mirror of density_matrix_sc with p and q exchanged: the tips move
    along swapped_shell(shell, channels); system must be shell.system."""
    _require_shell_dynamics(shell, system)
    sw_shell, sw_channels = swapped_shell(shell, channels)
    return density_matrix_sc(p_plus, p_minus, sw_shell, sw_shell.system,
                             sw_channels, t, hbar)


def write_element_grid(path, elements: Sequence[DensityMatrixElement]) -> None:
    """CSV: q_plus, q_minus, re, im, damping_min."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["q_plus", "q_minus", "re", "im", "damping_min"])
        for el in elements:
            damp = min((t.damping for t in el.terms), default=1.0)
            w.writerow([f"{el.q_plus:.12g}", f"{el.q_minus:.12g}",
                        f"{el.value.real:.12g}", f"{el.value.imag:.12g}",
                        f"{damp:.12g}"])
