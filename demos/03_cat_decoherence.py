"""
Decoherence of a two-bump superposition
=======================================

A superposition of two wavepackets a distance dq apart shows up in the
Wigner function as a fringe patch halfway between the bumps — the
contribution of the chord connecting them.  A position coupling L = q
damps exactly that chord at the rate (dq)^2 / 2 hbar while leaving each
bump alone: the fringes die first, the mixture survives.

With the Hamiltonian switched on the chord tips move, the damping rate
follows the instantaneous separation, and the accumulated exponent is
the decoherence distance D_t^2.  The script prints the static rate
identity, traces the damped chord over one period, and shows the
first-order convergence of the split (flow / damp) scheme toward the
continuous evolution.
"""
from pathlib import Path

import numpy as np

from chordwigner import (
    Chord,
    evolution_trace,
    evolve_contribution,
    hermitian_decay_rate,
    make_system,
    position_channel,
    trotter_evolve,
    write_trace,
)

out = Path(__file__).parent / "demo_out"
out.mkdir(exist_ok=True)

hbar = 0.05
chan = [position_channel()]
system = make_system("harmonic")


def static_chord(dq):
    return Chord.from_tips([0.0, dq / 2], [0.0, -dq / 2])


# --- static rate: exponent is (dq)^2 / 2 hbar ------------------------------

print("separation dq   coherence decay rate   (dq)^2/2hbar")
for dq in (0.5, 1.0, 2.0):
    rate = hermitian_decay_rate(static_chord(dq), chan, hbar)
    print(f"   {dq:4.1f}          {rate:10.3f}          {dq**2 / 2 / hbar:g}")

# --- dynamics on: damping follows the rotating separation ------------------

times = np.linspace(0.0, 2 * np.pi, 13)
rows = evolution_trace(static_chord(1.2), system, chan, times, hbar)
write_trace(out / "cat_trace.csv", rows)
d = [ev.damping for _, ev in rows]
print(f"\ndamped chord over one period -> {out / 'cat_trace.csv'}")
print(f"  damping at T/4, T/2, T: {d[3]:.3e}, {d[6]:.3e}, {d[12]:.3e}")
print("  (the chord rotates through momentum separation, where L = q "
      "bites less,\n   so the exponent grows unevenly but never shrinks)")

# --- split-scheme convergence ----------------------------------------------

t = 0.8
cont = np.log(evolve_contribution(static_chord(1.2), system, chan,
                                  t, hbar).damping)
print(f"\nlog damping at t = {t}: continuous {cont:.6f}")
print("  N    split     |error|")
for n in (8, 16, 32, 64, 128):
    split = np.log(trotter_evolve(static_chord(1.2), system, chan,
                                  t, n, hbar).damping)
    print(f"  {n:3d}  {split:.6f}  {abs(split - cont):.2e}")
print("  errors halve with N: a first-order Lie split.")
