"""
From chords to the density matrix: WKB branches and damped elements
===================================================================

Projecting the shell state to the position representation turns each
crossing of the vertical line q = const into a WKB branch with
amplitude 1/sqrt(T |dH/dp|) and a running action.  Pairs of branches
(one for the row, one for the column) build the semiclassical density
matrix rho(q+, q-); a Lindblad coupling multiplies each pair by
exp(-D_t^2 / 2 hbar) where D_t is accumulated along the two classical
trajectories.

Diagonal pairs (same branch on both sides) never decohere under a
hermitian channel; the off-diagonal interference terms die.
"""
from pathlib import Path

import numpy as np

from chordwigner import (
    build_shell,
    density_matrix,
    density_matrix_sc,
    make_system,
    position_channel,
    swapped_shell,
    wkb_branches,
    write_element_grid,
)

out = Path(__file__).parent / "demo_out"
out.mkdir(exist_ok=True)

hbar = 0.05
system = make_system("harmonic")
shell = build_shell(system, 0.5)
chan = [position_channel()]

# --- branches at one position ----------------------------------------------

q = 0.3
print(f"WKB branches of the E = 0.5 shell at q = {q}:")
for b in wkb_branches(q, shell):
    print(f"  p = {b.p:+.6f}  amplitude = {b.amplitude:.6f}  "
          f"action = {b.action:.6f}  turning passages = {b.nu}")
print("  (amplitudes equal 1/sqrt(2 pi p): time spent near q is 1/|v|)")

# --- element decay under L = q ---------------------------------------------

qp, qm = 0.45, -0.35
print(f"\nelement rho({qp}, {qm}) under L = q:")
print("   t     |rho|/|rho(0)|    min pair damping")
e0 = density_matrix_sc(qp, qm, shell, system, chan, 0.0, hbar)
for t in (0.0, 0.2, 0.4, 0.8):
    et = density_matrix_sc(qp, qm, shell, system, chan, t, hbar)
    dmin = min(term.damping for term in et.terms)
    print(f"  {t:.1f}    {abs(et.value) / abs(e0.value):10.3e}     "
          f"{dmin:.3e}")

diag = density_matrix_sc(0.3, 0.3, shell, system, chan, 0.9, hbar)
same = [term.damping for term in diag.terms
        if term.j_plus == term.j_minus]
print(f"\ndiagonal rho(0.3, 0.3) at t = 0.9: same-branch pair dampings "
      f"{same} (exactly 1: populations survive)")

# --- momentum representation mirrors position for this symmetric well ------

sw_shell, sw_chan = swapped_shell(shell, chan)
pe = density_matrix_sc(0.45, -0.35, sw_shell, sw_shell.system, sw_chan, 0.0,
                       hbar)
qe = density_matrix_sc(0.45, -0.35, shell, system, chan, 0.0, hbar)
print(f"\nmomentum-representation element at the mirrored arguments "
      f"(t = 0): {pe.value:.6f} vs {qe.value:.6f} -- identical, since "
      f"p <-> q is a symmetry of this H.  (At t > 0 the mirrored channel "
      f"couples to p and the dampings part ways.)")

# --- a small element grid for plotting elsewhere ---------------------------

grid_pts = np.linspace(-0.6, 0.6, 7)
q_plus, q_minus = np.meshgrid(grid_pts, grid_pts, indexing="ij")
elements = density_matrix(q_plus.ravel(), q_minus.ravel(), shell, chan, 0.3,
                          hbar)
write_element_grid(out / "elements.csv", elements)
print(f"\n7x7 element grid at t = 0.3 -> {out / 'elements.csv'}")
