"""
The exact side: star products and the grid Wigner oracle
========================================================

Everything semiclassical in this package is checked against machinery
that knows nothing about chords: a Moyal star product (exact on
polynomials, spectral on grids) and a discrete Weyl transform that
turns wavefunctions into Wigner functions on a doubled-centre lattice.
This script exercises both and closes the loop by laying the chord sum
over the exact Wigner function of an oscillator eigenstate.
"""
import numpy as np

from chordwigner import eval_state, make_system, pure_state
from chordwigner.oracle import moyal_star, hermite_psi, wigner_of_state

hbar = 0.05

# --- star product on polynomial symbols ------------------------------------

q_sym = {(0, 1): 1.0}           # keys are (p power, q power)
p_sym = {(1, 0): 1.0}
comm = dict(moyal_star(q_sym, p_sym, hbar=hbar))
for key, c in moyal_star(p_sym, q_sym, hbar=hbar).items():
    comm[key] = comm.get(key, 0) - c
comm = {k: c for k, c in comm.items() if c != 0}
print(f"q * p - p * q = {comm}  (canonical commutator i hbar, "
      f"hbar = {hbar})")

# --- star product on grids: plane waves compose with a phase ---------------

a, b = 3.0, 2.0
qs = np.linspace(-np.pi, np.pi, 64, endpoint=False)
ps = np.linspace(-np.pi, np.pi, 64, endpoint=False)
Q, P = np.meshgrid(qs, ps, indexing="ij")      # rows = q, cols = p
left, right = np.exp(1j * a * Q), np.exp(1j * b * P)
got = moyal_star(left, right, ps=ps, qs=qs, hbar=hbar)
want = left * right * np.exp(-0.5j * hbar * a * b)
print(f"plane-wave composition phase: residual "
      f"{np.max(np.abs(got - want)):.1e}  "
      f"(exp(iaq) * exp(ibp) picks up exp(-i hbar ab / 2))")

# --- exact eigenstate Wigner vs the chord sum ------------------------------

n_level = 12
energy = hbar * (n_level + 0.5)                # oscillator ladder, exactly
grid = np.linspace(-2.5, 2.5, 512)
psi = hermite_psi(n_level, grid, hbar)[n_level]
wg = wigner_of_state(psi, grid, hbar)
print(f"\nexact vs chord-sum Wigner, oscillator n = {n_level} "
      f"(E = {energy}):")

state = pure_state(make_system("harmonic"), hbar, energy=energy)
print("    p      q      exact        chord sum    rel diff")
for p0, q0 in ((0.10, 0.20), (0.45, -0.30), (0.00, 0.55)):
    exact = float(wg.interp([p0, q0])[0])
    sc = eval_state([p0, q0], state)
    print(f"  {p0:+.2f}  {q0:+.2f}   {exact:+.6f}   {sc.value:+.6f}"
          f"   {abs(sc.value - exact) / abs(exact):7.1%}")
print("  (one chord joins each interior point to itself across the "
      "shell; its cosine is the leading-order-in-hbar value, so the "
      "residuals above shrink as hbar does)")
