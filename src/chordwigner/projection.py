"""Position- and momentum-representation density matrix elements built
from WKB branch pairs, damped by the decoherence distance of the two
tips as they move along the shell to the branch points."""
import csv
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

from .flow import HamiltonianSystem, NumericalError
from .lindblad import LindbladChannel, _require_shell_dynamics, shell_d2
from .shells import _MASLOV, TWO_PI, ShellSpec, build_shell

# a query within this fraction of the allowed q span of a turning point
# raises TurningPointError: the primitive WKB amplitude diverges there
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

    def phase(self, hbar: float) -> float:
        return self.action / hbar - self.nu * np.pi / 2 - _MASLOV

    @property
    def x(self) -> np.ndarray:
        return np.array([self.p, self.q])


def wkb_branches(q: float, shell: ShellSpec) -> List[WKBBranch]:
    """All shell momenta over the position q with amplitudes and actions.

    Empty outside the classically allowed region.  A query within
    _TURNING_TOL of the span from a turning point, where the amplitude
    diverges, raises TurningPointError; a folded shell, with more than
    two q-turning points, raises NumericalError.
    """
    th_left, th_right = shell.q_turning_angles()
    if th_right < th_left:        # unwrap so the two arcs are ordered
        th_right += TWO_PI
    q_left = float(shell.point(th_left)[1])
    q_right = float(shell.point(th_right)[1])
    span = q_right - q_left
    if q < q_left - _TURNING_TOL * span or q > q_right + _TURNING_TOL * span:
        return []

    if min(abs(q - q_left), abs(q - q_right)) <= _TURNING_TOL * span:
        raise TurningPointError(
            f"the query position {q:g} sits at a turning point, where the "
            "primitive WKB amplitude diverges")

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
                                  action=s, nu=nu, theta=t_root % TWO_PI))
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


def density_matrix(q_plus, q_minus, shell: ShellSpec,
                   channels: Sequence[LindbladChannel], t: float,
                   hbar: float) -> List[DensityMatrixElement]:
    """rho(q_plus[i], q_minus[i]) for each i, in input order: the sum over
    branch pairs of a+ a- e^{i(phi+ - phi-)} e^{-D_t^2/2hbar}.

    D_t is accumulated by the two tips on their way to the branch points,
    from the angles theta - 2 pi t/T.  Each distinct q's branches are
    found once, and one shell_d2 call on one angle array (bitwise
    symmetric) serves every pair.  Hermitian channels never touch phases.
    """
    q_plus, q_minus = (np.asarray(q, dtype=float) for q in (q_plus, q_minus))
    if q_plus.ndim != 1 or q_plus.shape != q_minus.shape:
        raise ValueError("q_plus and q_minus must be 1-d and of equal length")
    qs, idx = np.unique(np.concatenate([q_plus, q_minus]), return_inverse=True)
    found = [wkb_branches(q, shell) for q in qs.tolist()]
    start = np.cumsum([0] + [len(br) for br in found]).tolist()
    theta = (np.array([b.theta for br in found for b in br], dtype=float)
             - TWO_PI * t / shell.period)
    d2 = shell_d2(shell, theta, theta, t, channels)
    terms = [tuple(BranchPairTerm(
        j_plus=b1.j, j_minus=b2.j, amplitude=b1.amplitude * b2.amplitude,
        phase=b1.phase(hbar) - b2.phase(hbar),
        damping=float(np.exp(-d2[a, b] / (2.0 * hbar))))
        for a, b1 in enumerate(found[i], start[i])
        for b, b2 in enumerate(found[k], start[k]))
        for i, k in idx.reshape(2, -1).T.tolist()]
    return [DensityMatrixElement(q_plus=qp, q_minus=qm, terms=ts,
                                 value=complex(sum(x.value for x in ts)))
            for qp, qm, ts in zip(q_plus.tolist(), q_minus.tolist(), terms)]


def density_matrix_sc(q_plus: float, q_minus: float, shell: ShellSpec,
                      system: HamiltonianSystem,
                      channels: Sequence[LindbladChannel], t: float,
                      hbar: float) -> DensityMatrixElement:
    """The one-pair case of density_matrix; system must be shell.system."""
    _require_shell_dynamics(shell, system)
    return density_matrix([q_plus], [q_minus], shell, channels, t, hbar)[0]


def _turn_back(x):
    """R^-1 (p', q') = (q', -p'), the inverse of the quarter turn R."""
    return np.asarray(x, dtype=float)[..., ::-1] * [1.0, -1.0]


def swapped_system(system: HamiltonianSystem) -> HamiltonianSystem:
    """H' = H o R^-1 under the quarter turn R: (p, q) -> (-q, p), the unit
    oscillator's quarter-period flow, so that q' = p.  R is canonical, so
    the flow of H' is R applied to the flow of H; grad H' at x' is
    (-H_q, H_p) at R^-1 x'."""
    return HamiltonianSystem(
        name=system.name + "-pqswap",
        value=lambda x: system.value(_turn_back(x)),
        grad=lambda x: np.asarray(
            system.grad(_turn_back(x)))[..., ::-1] * [-1.0, 1.0])


def swapped_shell(shell: ShellSpec, channels: Sequence[LindbladChannel]):
    """(shell, channels) in the frame turned by R: (p, q) -> (-q, p), for
    density_matrix in the momentum representation, where the position
    variable q' is p.

    R is symplectic, so the tips move on the turned shell as they do on
    the shell itself, and each channel L becomes L o R^-1: L'(x') =
    L(q', -p').  D_t and the damping are then those of the original
    frame.
    """
    sw_channels = [LindbladChannel(
        name=ch.name + "-pqswap",
        func=(lambda f: lambda x: f(_turn_back(x)))(ch.func),
        hermitian=ch.hermitian) for ch in channels]
    return (build_shell(swapped_system(shell.system), shell.energy),
            sw_channels)


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
