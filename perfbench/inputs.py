"""Seeded inputs for the four workloads.

``op_spec(workload, seed, k)`` is the k-th op of a run, a plain JSON
object made only from ``(workload, seed, k)``: the same seed gives
byte-identical inputs.  Each workload cycles through a fixed schedule of
op kinds (its slots), and the seed draws every parameter inside a slot.
A run executes whole cycles only, so the mix of kinds is the same for
every seed and every speed of the code.

Within a workload, every slot is sized to cost about the same at this
commit (a grid window holds about the same number of interior points
whatever its resolution, a larger ladder integrates for a shorter time).

``run_params`` holds what a whole run shares (the open-dynamics shell
pool, the eigensolver settings).  ``properties`` measures the input
properties a run executed: op-kind mix, repeat share, share of grid
points inside the shell and ladder dimensions.
"""
from __future__ import annotations

import json
import math
import random
from collections import Counter
from typing import Dict, List

import reference

WORKLOADS = ("wigner_map", "shell_sweep", "open_dynamics", "oracle_battery")

# (system, state, grid points per axis): 21x21 up to README's 41x41
WIGNER_SLOTS = (
    ("harmonic", "pure", 41),
    ("quartic", "spectral", 21),
    ("pendulum", "pure", 31),
)
# grid points inside the shell per op; chord search costs more per point
# on the quartic shell, so it gets fewer
WIGNER_INSIDE_POINTS = {"harmonic": 90, "quartic": 50, "pendulum": 70}
# stiff couplings keep the periods between 0.9 and 1.4, so that a cold chain
# costs 6-13 s instead of about 20 s on a period-2 pi shell: omega of the
# oscillator, lambda of the quartic p^2/2 + lambda q^4/2, g of the
# pendulum p^2/2 - g cos q
SHELL_SLOTS = ("oscillator", "pendulum", "quartic", "repeat")
SHELL_COUPLING = {"oscillator": 5.0, "quartic": 144.0, "pendulum": 36.0}
OPEN_SLOTS = (
    ("trace", "harmonic"), ("element", "harmonic"), ("trotter", "harmonic"),
    ("purity", "harmonic"), ("trace", "quartic"), ("element", "quartic"),
    ("trace", "harmonic"), ("purity", "quartic"),
)
ORACLE_SLOTS = ("lindblad", "eigen", "lindblad", "cat", "lindblad", "eigen",
                "lindblad", "moyal", "lindblad", "eigen_builtin", "lindblad",
                "eigen")
OMEGAS = (1.0, 1.5, 2.0)
CYCLE = {"wigner_map": len(WIGNER_SLOTS), "shell_sweep": len(SHELL_SLOTS),
         "open_dynamics": len(OPEN_SLOTS),
         "oracle_battery": len(ORACLE_SLOTS)}


def _rng(workload: str, seed: int, tag) -> random.Random:
    return random.Random(f"{workload}:{seed}:{tag}")


def shell_extent(system: str, energy: float):
    """Half-widths (p_max, q_max) of the shell H = energy."""
    if system == "harmonic":
        r = math.sqrt(2.0 * energy)
        return r, r
    if system == "quartic":
        return math.sqrt(2.0 * energy), (2.0 * energy) ** 0.25
    if system == "pendulum":
        return math.sqrt(2.0 * (energy + 1.0)), math.acos(-energy)
    raise ValueError(system)


def hamiltonian(system: str, p: float, q: float) -> float:
    if system == "harmonic":
        return 0.5 * (p * p + q * q)
    if system == "quartic":
        return 0.5 * p * p + 0.5 * q**4
    if system == "pendulum":
        return 0.5 * p * p - math.cos(q)
    raise ValueError(system)


def run_params(workload: str, seed: int) -> Dict:
    rng = _rng(workload, seed, "run")
    if workload == "open_dynamics":
        hbar = rng.choice((0.05, 0.1))
        level = round(0.5 / hbar - 0.5) + rng.choice((-1, 0, 1))
        return {"hbar": hbar,
                "shells": {"harmonic": {"energy": hbar * (level + 0.5),
                                        "level": level},
                           "quartic": {"energy": round(
                               rng.uniform(0.45, 0.55), 3)}}}
    if workload == "oracle_battery":
        return {"eigen_hbar": rng.choice((0.05, 0.1)),
                "eigen_count": rng.choice((8, 10, 12))}
    return {}


def _wigner_op(rng: random.Random, k: int) -> Dict:
    system, state, n = WIGNER_SLOTS[k % len(WIGNER_SLOTS)]
    hbar = rng.choice((0.025, 0.04, 0.05))
    shell: Dict = {}
    level = None
    if system == "harmonic" and state == "pure":
        level = round(0.5 / hbar - 0.5) + rng.choice((-1, 0, 1))
        energy = hbar * (level + 0.5)
    elif system == "pendulum":
        energy = round(rng.uniform(-0.45, -0.35), 3)
    else:
        energy = round(rng.uniform(0.45, 0.55), 3)
    shell["energy"] = energy
    if state == "spectral":
        shell["epsilon"] = rng.choice((0.02, 0.05, 0.1))
    # window half-widths a*p_max, a*q_max with a chosen so that about
    # WIGNER_INSIDE_POINTS of the n*n points fall inside the shell
    p_max, q_max = shell_extent(system, energy)
    inside = WIGNER_INSIDE_POINTS[system] * rng.uniform(0.95, 1.05)
    a = n * math.sqrt(reference.shell_area(system, energy)
                      / (4.0 * inside * p_max * q_max))
    dp, dq = (rng.uniform(-0.05, 0.05) * p_max,
              rng.uniform(-0.05, 0.05) * q_max)
    grid = {"p": [dp - a * p_max, dp + a * p_max, n],
            "q": [dq - a * q_max, dq + a * q_max, n]}
    return {"kind": f"{system}-{state}", "level": level,
            "config": {"system": system, "hbar": hbar, "shell": shell,
                       "grid": grid}}


def _shell_op(workload: str, seed: int, rng: random.Random, k: int) -> Dict:
    slot = SHELL_SLOTS[k % len(SHELL_SLOTS)]
    if slot == "repeat":
        # an earlier triple of the same cycle, so that every run, however
        # few cycles it holds, has the same repeat share
        first = k - k % len(SHELL_SLOTS)
        j = rng.choice([i for i in range(first, k)
                        if SHELL_SLOTS[i % len(SHELL_SLOTS)] != "repeat"])
        spec = dict(op_spec(workload, seed, j))
        spec.update(kind="repeat", repeat_of=j)
        return spec
    return {"kind": slot, "system": slot, "coupling": SHELL_COUPLING[slot],
            "hbar": rng.choice((0.05, 0.1)), "level": rng.randint(4, 7),
            "repeat_of": None}


def _open_op(workload: str, seed: int, rng: random.Random, k: int) -> Dict:
    kind, shell = OPEN_SLOTS[k % len(OPEN_SLOTS)]
    energy = run_params(workload, seed)["shells"][shell]["energy"]
    p_max, q_max = shell_extent(shell, energy)
    spec: Dict = {"kind": f"{kind}-{shell}", "op": kind, "shell": shell,
                  "channel": "q"}
    if kind in ("trace", "trotter"):
        frac, ang = rng.uniform(0.3, 0.8), rng.uniform(0.0, 2.0 * math.pi)
        spec["x"] = [frac * p_max * math.cos(ang),
                     frac * q_max * math.sin(ang)]
    if kind == "trace":
        t_max = rng.uniform(0.27, 0.33)
        spec["times"] = [t_max * f for f in (0.25, 0.5, 0.75, 1.0)]
        if k % len(OPEN_SLOTS) != 0:
            spec["channel"] = rng.choice(("p", "q2"))
    elif kind == "trotter":
        spec["t"] = rng.uniform(0.75, 0.85)
        spec["n_steps"] = rng.choice((16, 24, 32))
    elif kind == "element":
        while True:
            qp, qm = (rng.uniform(-0.8, 0.8) * q_max,
                      rng.uniform(-0.8, 0.8) * q_max)
            if abs(qp - qm) >= 0.1 * q_max:
                break
        spec.update(q_plus=qp, q_minus=qm, t=rng.uniform(0.18, 0.22))
    elif kind == "purity":
        # the harmonic flow is cheaper per step, so it flows longer
        t = 0.5 if shell == "harmonic" else 0.3
        spec.update(t=t * rng.uniform(0.9, 1.1), n_angle=512)
    return spec


def _oracle_op(workload: str, seed: int, rng: random.Random, k: int) -> Dict:
    slot = ORACLE_SLOTS[k % len(ORACLE_SLOTS)]
    if slot == "lindblad":
        # RK4 cost grows as dim^2.3 here, so the integration time shrinks
        # with the ladder: every dimension from 60 to 120 costs the same
        dim = rng.randint(60, 120)
        hbar = rng.choice((0.05, 0.1))
        window = (k % len(ORACLE_SLOTS)) % 4 == 2
        t_final = 0.2 * (64.0 / dim) ** 2.3
        return {"kind": "lindblad-window" if window else "lindblad-level",
                "dim": dim, "hbar": hbar,
                "level": rng.randint(dim // 6, dim // 3),
                "epsilon": hbar * rng.uniform(2.0, 4.0) if window else 0.0,
                "channel": "p" if window else "q",
                "times": [t_final * i / 4 for i in range(5)]}
    if slot == "cat":
        return {"kind": "cat", "hbar": rng.choice((0.04, 0.05)),
                "separation": rng.choice((1.0, 1.5, 2.0))}
    if slot == "moyal":
        lq, lp = rng.uniform(4.0, 8.0), rng.uniform(4.0, 8.0)
        return {"kind": "moyal", "n": 128, "lq": lq, "lp": lp,
                "hbar": rng.choice((0.05, 0.1, 0.5)),
                "a": 2.0 * math.pi * rng.randint(1, 3) / lq,
                "b": 2.0 * math.pi * rng.randint(1, 3) / lp}
    params = run_params(workload, seed)
    count = params["eigen_count"]
    spec = {"kind": slot, "system": "harmonic", "omega": 1.0,
            "hbar": params["eigen_hbar"], "count": count, "n_grid": 768,
            "state": rng.randint(0, count - 1)}
    if slot == "eigen":
        # each cycle visits the three oscillator frequencies, all as
        # polynomial tables under the default name: the first cycle in
        # ascending order, later ones in a seeded order
        cycle = k // len(ORACLE_SLOTS)
        order = list(OMEGAS)
        if cycle:
            _rng(workload, seed, f"cycle{cycle}").shuffle(order)
        nth = [i for i, s in enumerate(ORACLE_SLOTS) if s == "eigen"]
        spec["system"] = "oscillator"
        spec["omega"] = order[nth.index(k % len(ORACLE_SLOTS))]
    return spec


def op_spec(workload: str, seed: int, k: int) -> Dict:
    rng = _rng(workload, seed, k)
    if workload == "wigner_map":
        return _wigner_op(rng, k)
    if workload == "shell_sweep":
        return _shell_op(workload, seed, rng, k)
    if workload == "open_dynamics":
        return _open_op(workload, seed, rng, k)
    if workload == "oracle_battery":
        return _oracle_op(workload, seed, rng, k)
    raise ValueError(f"unknown workload {workload!r}")


def dump(workload: str, seed: int, n_ops: int) -> str:
    """Canonical JSON of a run's first n_ops inputs, for determinism checks."""
    return json.dumps({"run": run_params(workload, seed),
                       "ops": [op_spec(workload, seed, k)
                               for k in range(n_ops)]}, sort_keys=True)


def inside_share(config: Dict) -> float:
    """Share of a build-wigner grid strictly inside its shell, H < E."""
    system, energy = config["system"], config["shell"]["energy"]
    (p0, p1, n_p), (q0, q1, n_q) = config["grid"]["p"], config["grid"]["q"]
    inside = 0
    for i in range(n_q):
        q = q0 + (q1 - q0) * i / (n_q - 1)
        for j in range(n_p):
            p = p0 + (p1 - p0) * j / (n_p - 1)
            inside += hamiltonian(system, p, q) < energy
    return inside / (n_p * n_q)


def properties(workload: str, specs: List[Dict]) -> Dict:
    """Measured input properties of the ops a run executed."""
    mix = Counter(s["kind"] for s in specs)
    n = max(1, len(specs))
    out: Dict = {"ops": len(specs),
                 "kind_mix": {k: v / n for k, v in sorted(mix.items())}}
    if workload == "wigner_map":
        shares = [inside_share(s["config"]) for s in specs]
        out["inside_share"] = sum(shares) / n
        out["grid_points"] = sum(s["config"]["grid"]["p"][2]
                                 * s["config"]["grid"]["q"][2] for s in specs)
    elif workload == "shell_sweep":
        out["repeat_share"] = sum(s["repeat_of"] is not None
                                  for s in specs) / n
    elif workload == "oracle_battery":
        dims = [s["dim"] for s in specs if "dim" in s]
        out["ladder_dims"] = dims
        out["ladder_dim_max"] = max(dims, default=0)
    return out
