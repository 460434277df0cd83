"""Exact quantum reference: grid eigensolver, Weyl/Wigner transforms,
Moyal star products, and an exact Lindblad propagator (the action of the
matrix exponential of the sparse Liouvillian, Al-Mohy & Higham 2011).

Everything here is independent of the semiclassical construction; it is
the yardstick the chord machinery is measured against.  The one
semiclassical input is the area-rule energy of the top requested level,
which sizes the eigensolver's box only; the spectrum comes from the
Fourier grid Hamiltonian (Marston & Balint-Kurti 1989) alone.  The Weyl
transform lives on a doubled-centre grid (centres at dq/2 spacing, each
anti-diagonal shifted into one row of a single FFT), the smallest
discretisation that is exactly invertible and keeps trace / marginal /
overlap identities exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import eigh
from scipy.sparse.linalg import expm_multiply

from .flow import HamiltonianSystem, _poly_deriv, _poly_mul
from .shells import quantize_energy

__all__ = [
    "OracleError",
    "EigenBasis",
    "DensityGrid",
    "WignerGrid",
    "TruncatedState",
    "LindbladDiagnostics",
    "solve_eigenstates",
    "harmonic_ladder",
    "hermite_psi",
    "weyl_transform",
    "inverse_weyl",
    "wigner_of_state",
    "moyal_star",
    "lindblad_integrate",
    "gaussian_window_weights",
    "energy_mean",
    "energy_variance",
    "purity",
]


class OracleError(RuntimeError):
    """Oracle-side failure: non-convergence, aliasing, truncation leak."""


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------

@dataclass
class EigenBasis:
    """Lowest eigenpairs of p^2/2 + V(q) on a uniform grid.

    psis[n] is real, normalized to sum(psi^2) dq = 1.
    """

    qs: np.ndarray
    dq: float
    hbar: float
    energies: np.ndarray
    psis: np.ndarray          # (count, n_grid)
    vgrid: np.ndarray


def _separable_potential(system) -> Callable:
    """Extract V(q) from H = p^2/2 + V(q); reject non-separable H."""
    probe_q = np.array([0.0, 0.37, -1.21, 2.4])
    for p in (0.7, -1.3):
        x = np.stack([np.full_like(probe_q, p), probe_q], axis=-1)
        x0 = np.stack([np.zeros_like(probe_q), probe_q], axis=-1)
        if not np.allclose(system.energy(x) - system.energy(x0),
                           0.5 * p * p, atol=1e-10):
            raise OracleError(
                "oracle needs a separable hamiltonian p^2/2 + V(q)")
    return lambda q: system.energy(
        np.stack([np.zeros_like(np.asarray(q, float)),
                  np.asarray(q, float)], axis=-1))


def _fgh_hamiltonian(v: np.ndarray, dq: float, hbar: float) -> np.ndarray:
    """Dense Fourier-grid hamiltonian: exact spectral kinetic energy."""
    n = len(v)
    k = 2 * np.pi * np.fft.fftfreq(n, d=dq)
    # T = F^-1 diag(hbar^2 k^2 / 2) F is the circulant T_ij = c[(i - j) % n]
    # of c = ifft(hbar^2 k^2 / 2); averaging c[m] with c[-m] symmetrises
    # it, and one n x n array takes the rows (c rolled by i) from a
    # window view of [c, c], then v on its diagonal
    c = np.fft.ifft(0.5 * hbar**2 * k**2).real
    c = 0.5 * (c + np.roll(c[::-1], 1))
    rows = np.lib.stride_tricks.sliding_window_view(np.tile(c, 2), n)
    h = rows[n:0:-1].copy()
    h.flat[::n + 1] += v
    return h


_EIGEN_CACHE: dict = {}


def _edge_share(a: np.ndarray) -> float:
    """Largest |a| on the two outermost columns at either end, over max |a|."""
    edge = max(np.max(np.abs(a[:, :2])), np.max(np.abs(a[:, -2:])))
    return float(edge / np.max(np.abs(a)))


def solve_eigenstates(system: HamiltonianSystem, hbar: float, count: int,
                      n_grid: int = 512) -> EigenBasis:
    """Lowest `count` eigenpairs of H = p^2/2 + V(q) on a Fourier grid.

    The box half-width is 6 max(r_turn, sqrt(hbar)), where r_turn is the
    largest |q| with V(q) <= E_top and E_top is the area-rule energy
    `quantize_energy(system, count - 1, hbar)` of the top level.  Raises
    OracleError when an eigenstate's amplitude at the box edge, or at the
    grid's Nyquist momentum, exceeds 1e-6 of its peak: V does not confine
    the states within 6 turning radii (a periodic V), or n_grid is too
    small for count.  quantize_energy raises ShellError when the top
    level does not fit in the well.
    """
    potential = _separable_potential(system)
    # keyed on V itself, sampled on the scan grid, not on the name: two
    # systems that share a name but not a potential never share a basis
    scan = np.linspace(-30, 30, 4001)
    vscan = np.asarray(potential(scan), dtype=float)
    key = (vscan.tobytes(), float(hbar), count, n_grid)
    if key in _EIGEN_CACHE:
        return _EIGEN_CACHE[key]

    e_top = quantize_energy(system, count - 1, hbar)
    r_turn = float(np.max(np.abs(scan[vscan <= e_top])))
    basis = _solve_on_box(potential, hbar, count, n_grid,
                          6.0 * max(r_turn, np.sqrt(hbar)))
    for where, share, cause in (
            ("box edge", _edge_share(basis.psis),
             "V does not confine them within 6 turning radii"),
            ("Nyquist momentum", _edge_share(np.fft.fftshift(
                np.fft.fft(basis.psis, axis=1), axes=1)),
             "n_grid is too small for count")):
        if share > 1e-6:
            raise OracleError(f"eigenstates reach the {where} "
                              f"(amp {share:.2e} of max): {cause}")
    _EIGEN_CACHE[key] = basis
    return basis


def _solve_on_box(potential, hbar, count, n_grid, half_width):
    dq = 2.0 * half_width / n_grid
    qs = -half_width + dq * np.arange(n_grid)
    v = np.asarray(potential(qs), dtype=float)
    h = _fgh_hamiltonian(v, dq, hbar)
    evals, evecs = eigh(h, subset_by_index=[0, count - 1])
    psis = (evecs / np.sqrt(dq)).T
    # fix sign convention: positive leading lobe
    for psi in psis:
        j = np.argmax(np.abs(psi) > 0.1 * np.max(np.abs(psi)))
        if psi[j] < 0:
            psi *= -1.0
    return EigenBasis(qs=qs, dq=dq, hbar=hbar, energies=evals,
                      psis=psis, vgrid=v)


def harmonic_ladder(count: int, hbar: float):
    """(energies, q_mat, p_mat) in the exact oscillator eigenbasis."""
    n = np.arange(count)
    energies = hbar * (n + 0.5)
    off = np.sqrt(0.5 * hbar * np.arange(1, count))
    q = np.diag(off, 1) + np.diag(off, -1)
    p = 1j * (np.diag(off, -1) - np.diag(off, 1))
    return energies, q.astype(complex), p.astype(complex)


def hermite_psi(n_max: int, qs, hbar: float) -> np.ndarray:
    """Oscillator eigenfunctions psi_0..psi_{n_max} by stable recursion."""
    qs = np.asarray(qs, dtype=float)
    xi = qs / np.sqrt(hbar)
    out = np.empty((n_max + 1, len(qs)))
    out[0] = np.pi**-0.25 * hbar**-0.25 * np.exp(-0.5 * xi * xi)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * xi * out[0]
    for n in range(2, n_max + 1):
        out[n] = (np.sqrt(2.0 / n) * xi * out[n - 1]
                  - np.sqrt((n - 1) / n) * out[n - 2])
    return out


# ---------------------------------------------------------------------------
# Weyl / Wigner transforms
# ---------------------------------------------------------------------------

@dataclass
class DensityGrid:
    """Position-representation density matrix on a uniform grid."""

    qs: np.ndarray
    rho: np.ndarray
    hbar: float

    @property
    def dq(self) -> float:
        return float(self.qs[1] - self.qs[0])


@dataclass
class WignerGrid:
    """W(p, q) on the doubled-centre grid: rows = centres, cols = momenta.

    Linear functionals (trace, q-marginal) are exact on the even-centre
    sublattice with cell dq * dp; the overlap rule
    tr(AB) = 2 pi hbar * sum W_A W_B * (dq/2) * dp is exact on the full
    lattice (both identities hold to roundoff, not just to grid order).
    """

    q_centres: np.ndarray      # (2n - 1,), spaced dq/2
    ps: np.ndarray             # (n,)
    w: np.ndarray              # (2n - 1, n)
    hbar: float
    dq: float                  # original density-grid spacing

    @property
    def dp(self) -> float:
        return float(self.ps[1] - self.ps[0])

    def integrate(self, values: Optional[np.ndarray] = None) -> float:
        field = self.w if values is None else self.w * values
        return float(np.sum(field[::2])) * self.dq * self.dp

    def braket(self, other: "WignerGrid") -> float:
        """(2 pi hbar) int W_A W_B dp dq = tr(A B)."""
        return (2 * np.pi * self.hbar
                * float(np.sum(self.w * other.w)) * 0.5 * self.dq * self.dp)

    def marginal_q(self):
        """(q, prob density): the physical diagonal lives on even rows."""
        dens = np.sum(self.w, axis=1) * self.dp
        return self.q_centres[::2], dens[::2]

    def interp(self, points) -> np.ndarray:
        """Bilinear interpolation of W at phase points [p, q]."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dqq = self.q_centres[1] - self.q_centres[0]
        s = (pts[:, 1] - self.q_centres[0]) / dqq
        k = (pts[:, 0] - self.ps[0]) / self.dp
        s0 = np.clip(np.floor(s).astype(int), 0, len(self.q_centres) - 2)
        k0 = np.clip(np.floor(k).astype(int), 0, len(self.ps) - 2)
        fs, fk = s - s0, k - k0
        w = self.w
        return ((1 - fs) * (1 - fk) * w[s0, k0]
                + fs * (1 - fk) * w[s0 + 1, k0]
                + (1 - fs) * fk * w[s0, k0 + 1]
                + fs * fk * w[s0 + 1, k0 + 1])


def _antidiagonal_index(n: int) -> np.ndarray:
    """Flat index of each rho[i, j] in the (2n - 1, n) row layout: row
    s = i + j holds rho[m, s - m] at column (m - floor(s/2)) mod n =
    ceil((i - j)/2) mod n, a Toeplitz view of one (2n - 1,) table."""
    d = np.arange(1 - n, n)
    col = sliding_window_view((d + 1) // 2 % n, n)[:, ::-1]
    row = n * np.arange(n)
    return row[:, None] + row + col


def weyl_transform(rho: DensityGrid, alias_tol: float = 1e-5) -> WignerGrid:
    """Discrete Weyl transform on the doubled-centre grid.

    W[s, k] = (dq / pi hbar) sum_m rho[m, s - m] e^{-i pi ktilde (2m - s)/n}

    with p_k = pi hbar ktilde / (n dq).  The row shift floor(s/2) of
    _antidiagonal_index carries e^{2 pi i ktilde floor(s/2)/n}, so only
    odd rows keep a phase.  Exactly invertible; raises on aliasing
    (significant density at the grid boundary) and on an imaginary
    residue (a non-hermitian rho).  One complex (2n - 1, n) work array
    takes the scatter, the FFT, the scale and the phase in place; the
    fftshifted real part, the output, is the only other full-size array.
    """
    mat = np.asarray(rho.rho, dtype=complex)
    n = mat.shape[0]
    dq, hbar = rho.dq, rho.hbar
    scale = np.max(np.abs(mat)) + 1e-300
    edge = max(np.max(np.abs(mat[0])), np.max(np.abs(mat[-1])),
               np.max(np.abs(mat[:, 0])), np.max(np.abs(mat[:, -1])))
    if edge > alias_tol * scale:
        raise OracleError(
            f"density at grid boundary ({edge/scale:.2e} of max) would alias")

    idx = _antidiagonal_index(n)  # freed before the output exists
    wc = np.zeros((2 * n - 1, n), dtype=complex)
    wc.reshape(-1)[idx] = mat
    del idx
    k = np.fft.fftfreq(n, d=1.0 / n)  # signed integers, in FFT order
    np.fft.fft(wc, axis=1, out=wc)
    wc *= dq / (np.pi * hbar)
    wc[1::2] *= np.exp(1j * np.pi * k / n)
    w = np.fft.fftshift(wc.real, axes=1)
    # |Im| goes over the spent real slots, so one contiguous max of the
    # work array is max |Im|, and the output gives max |Re|
    np.abs(wc.imag, out=wc.real)
    imag = wc.view(float).max()
    if imag > 1e-10 * max(1.0, w.max(), -w.min()):
        raise OracleError(f"Wigner transform imaginary residue {imag:.2e}")
    ps = np.pi * hbar * np.fft.fftshift(k) / (n * dq)
    q_centres = rho.qs[0] + 0.5 * dq * np.arange(2 * n - 1)
    return WignerGrid(q_centres=q_centres, ps=ps, w=w, hbar=hbar, dq=dq)


def inverse_weyl(wg: WignerGrid) -> DensityGrid:
    """Exact inverse of weyl_transform, on the same row layout and on
    the even centres wg.q_centres[::2].  One complex (2n - 1, n) work
    array takes the ifftshifted, scaled W, the phase and the inverse FFT
    in place; one gather reads rho off it.
    """
    n = len(wg.ps)
    idx = _antidiagonal_index(n)
    f = np.zeros((2 * n - 1, n), dtype=complex)
    c, scale = n // 2, np.pi * wg.hbar / wg.dq
    np.multiply(wg.w[:, c:], scale, out=f.real[:, :n - c])
    np.multiply(wg.w[:, :c], scale, out=f.real[:, n - c:])
    f[1::2] *= np.exp(-1j * np.pi * np.fft.fftfreq(n, d=1.0 / n) / n)
    np.fft.ifft(f, axis=1, out=f)
    return DensityGrid(qs=wg.q_centres[::2], rho=f.reshape(-1)[idx],
                       hbar=wg.hbar)


def wigner_of_state(psi: np.ndarray, qs: np.ndarray, hbar: float) -> WignerGrid:
    """Wigner function of a pure state given on the grid."""
    psi = np.asarray(psi, dtype=complex)
    rho = DensityGrid(qs=np.asarray(qs), rho=np.outer(psi, psi.conj()),
                      hbar=hbar)
    return weyl_transform(rho)


# ---------------------------------------------------------------------------
# Moyal star product
# ---------------------------------------------------------------------------

def _star_poly(pa: dict, pb: dict, hbar: float) -> dict:
    """Finite Moyal series for polynomial symbols (exact)."""
    out: dict = {}
    m = 0
    while True:
        coeff = (1j * hbar / 2) ** m / math.factorial(m)
        any_term = False
        for r in range(m + 1):
            da = _poly_deriv(pa, r, m - r)
            db = _poly_deriv(pb, m - r, r)
            if not da or not db:
                continue
            any_term = True
            sign = (-1) ** r * math.comb(m, r)
            for k, c in _poly_mul(da, db).items():
                out[k] = out.get(k, 0.0) + coeff * sign * c
        if not any_term and m > 0:
            break
        m += 1
    return {k: c for k, c in out.items() if c != 0}


def _star_grid(a: np.ndarray, b: np.ndarray, ps, qs, hbar: float) -> np.ndarray:
    """Twisted (Moyal) product of grid symbols in Fourier space.

    With A = sum_k A^(k) e^{ikx}, the product kernel e^{i hbar skew(k,k')/2}
    factorises over the two momentum-index axes, so the double k-sum
    reduces to one modulated inverse FFT per axis pair, exact in the
    band-limited periodic representation.  The pairs are built one column
    at a time, as two (N, N) inverse FFTs, so time is O(N^3) and memory
    O(N^2).  Valid for smooth decaying symbols; rows index q, columns
    index p.
    """
    nq, npp = a.shape
    fa = np.fft.fft2(a)
    fb = np.fft.fft2(b)
    atil = np.fft.fftfreq(nq, d=1.0 / nq)    # signed row (q) wavenumbers
    btil = np.fft.fftfreq(npp, d=1.0 / npp)  # signed col (p) wavenumbers
    alpha = (0.5 * hbar * (2 * np.pi / (nq * (qs[1] - qs[0])))
             * (2 * np.pi / (npp * (ps[1] - ps[0]))))
    # kernel e^{i alpha (b a' - a b')}: modulate A by e^{-i alpha a b'},
    # B by e^{+i alpha a' b}, transform the row axes, then recombine the
    # column indices on their sum lattice.
    e1 = np.exp(-1j * alpha * atil[:, None] * btil[None, :])
    g = np.zeros((nq, npp), dtype=complex)
    cols = np.arange(npp)
    for bcol in range(npp):
        ha = np.fft.ifft(fa[:, bcol, None] * e1, axis=0)  # (u, b')
        hb = np.fft.ifft(fb * np.conj(e1[:, bcol, None]), axis=0)  # (u, b)
        g[:, (bcol + cols) % npp] += ha * hb
    return np.fft.ifft(g, axis=1) / npp


def moyal_star(a, b, ps=None, qs=None, hbar: float = 1.0):
    """Moyal star product A * B.

    Polynomial symbols are {(i, j): c} tables meaning sum c p^i q^j and
    multiply through the exact finite series; grid symbols are (q, p)
    arrays over (qs, ps) and multiply through the spectral twisted
    convolution.  A table paired with a grid raises ValueError.
    """
    a_poly, b_poly = isinstance(a, dict), isinstance(b, dict)
    if a_poly and b_poly:
        return _star_poly(a, b, hbar)
    if a_poly or b_poly:
        raise ValueError("moyal_star needs two tables or two grids")
    if ps is None or qs is None:
        raise ValueError("grid star product needs ps and qs")
    return _star_grid(np.asarray(a, dtype=complex),
                      np.asarray(b, dtype=complex), ps, qs, hbar)


# ---------------------------------------------------------------------------
# Lindblad propagator
# ---------------------------------------------------------------------------

@dataclass
class TruncatedState:
    """Density matrix in the eigenbasis of the internal hamiltonian."""

    rho: np.ndarray
    energies: np.ndarray
    hbar: float

    @property
    def dim(self) -> int:
        return len(self.energies)

    def leak(self) -> float:
        """Population in the top tenth of the basis (at least one level)."""
        n_top = max(1, int(round(self.dim * 0.1)))
        return float(np.real(np.trace(self.rho[-n_top:, -n_top:])))


@dataclass
class LindbladDiagnostics:
    times: np.ndarray
    trace_drift: float
    hermiticity_drift: float
    max_leak: float
    purities: np.ndarray


def _liouvillian(h_op, l_ops: Sequence, dim: int, hbar: float):
    """Sparse master-equation generator acting on row-major vec(rho),
    where vec(A rho B) = kron(A, B^T) vec(rho)."""
    eye = sp.eye_array(dim, dtype=complex, format="csr")
    gen = sp.csr_array((dim * dim, dim * dim), dtype=complex)
    if h_op is not None:
        h = np.asarray(h_op, dtype=complex)
        h = sp.diags_array(h) if h.ndim == 1 else sp.csr_array(h)
        gen = gen - (1j / hbar) * (sp.kron(h, eye) - sp.kron(eye, h.T))
    for l_op in l_ops:
        l = sp.csr_array(np.asarray(l_op, dtype=complex))
        ll = l.conj().T @ l
        gen = gen + (1.0 / hbar) * (sp.kron(l, l.conj())
                                    - 0.5 * sp.kron(ll, eye)
                                    - 0.5 * sp.kron(eye, ll.T))
    return gen.tocsr()


def lindblad_integrate(state: TruncatedState, h_op, l_ops: Sequence,
                       times, leak_threshold: float = 1e-6):
    """Exact propagation of the markovian master equation (Lindblad,
    Commun. Math. Phys. 48, 119 (1976))

        drho/dt = -(i/hbar)[H, rho]
                  + (1/hbar) sum_j (L rho L+ - (L+ L rho + rho L+ L)/2)

    The 1/hbar dissipator scaling is the convention used throughout (it
    is what makes a position coupling decohere a Delta-q superposition at
    rate (Delta q)^2 / 2 hbar).  The generator is time independent, so
    rho moves between output times by the action of the matrix
    exponential of the sparse Liouvillian (Al-Mohy & Higham, SIAM J. Sci.
    Comput. 33, 488 (2011)); H (a matrix or its diagonal) and the L's are
    expected to be sparse in the chosen basis, e.g. ladder or diagonal
    operators.  Returns (list of TruncatedState at `times`, diagnostics).
    Aborts when truncation leak exceeds leak_threshold.
    """
    hbar = state.hbar
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(np.diff(times) < 0) or times[0] < 0:
        raise ValueError("times must be nondecreasing and nonnegative")

    dim = state.dim
    gen = _liouvillian(h_op, l_ops, dim, hbar)
    vec = np.asarray(state.rho, dtype=complex).reshape(-1)
    tr0 = np.real(np.trace(state.rho))
    out_states: List[TruncatedState] = []
    purities = []
    max_leak = 0.0
    t = 0.0
    for t_target in times:
        if t_target > t:
            vec = expm_multiply((t_target - t) * gen, vec)
            t = float(t_target)
        rho = vec.reshape(dim, dim)
        snap = TruncatedState(rho=rho.copy(), energies=state.energies,
                              hbar=hbar)
        leak = snap.leak()
        max_leak = max(max_leak, leak)
        if leak > leak_threshold:
            raise OracleError(
                f"truncation leak {leak:.2e} at t={t:.4f} exceeds "
                f"{leak_threshold:.1e}; enlarge the basis")
        out_states.append(snap)
        purities.append(purity(rho))
    diags = LindbladDiagnostics(
        times=times,
        trace_drift=float(abs(np.real(np.trace(rho)) - tr0)),
        hermiticity_drift=float(np.max(np.abs(rho - rho.conj().T))),
        max_leak=max_leak,
        purities=np.asarray(purities),
    )
    return out_states, diags


# ---------------------------------------------------------------------------
# state builders and observables
# ---------------------------------------------------------------------------

def gaussian_window_weights(energies, e0: float, eps: float) -> np.ndarray:
    """exp(-(E - e0)^2 / 2 eps^2) over the energies, normalized to sum 1."""
    e = np.asarray(energies, dtype=float)
    w = np.exp(-0.5 * ((e - e0) / eps) ** 2)
    return w / np.sum(w)


def energy_mean(rho: np.ndarray, energies) -> float:
    return float(np.real(np.sum(np.diag(rho) * energies)))


def energy_variance(rho: np.ndarray, energies) -> float:
    e = np.asarray(energies, dtype=float)
    m = energy_mean(rho, e)
    return float(np.real(np.sum(np.diag(rho) * (e - m) ** 2)))


def purity(rho: np.ndarray) -> float:
    """tr rho^2, as one O(d^2) sum of rho[i, j] rho[j, i]."""
    return float(np.einsum("ij,ji->", rho, rho).real)

