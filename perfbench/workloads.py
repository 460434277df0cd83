"""The four workloads: set-up, one op, and the op's reference check.

Each workload object is built once per process.  ``setup`` does the
untimed work a user pays once (imports are already done by then);
``run`` executes one op through chordwigner's public API and returns its
raw output; ``check`` compares that output with ``reference`` and returns
a ``Verdict``.  Only ``run`` is inside the timed region.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path
from typing import Dict

import numpy as np

import chordwigner as cw
from chordwigner import cli, compare, oracle

import inputs
import reference as ref

# tolerances of the closed-form comparisons; each is a relative error
TOL = {
    "wigner": 0.10,        # chord sum vs Laguerre, over the peak |W|
    # E_n from the area rule on a coarse orbit: implicit-midpoint steps of
    # up to 2e-3 shift the sampled phase by O((omega dt)^2 / 12), about
    # 1e-6 relative at omega = 2
    "quantize": 1e-5,
    "area": 1e-6,          # spectral shell area
    "period": 1e-8,        # Richardson-extrapolated section crossing
    "bracket": 1e-6,       # <p^2> over the shell
    "d2": 1e-5,            # decoherence distance along midpoint tips
    "geometry": 1e-7,      # chord midpoint and tip energies
    "amplitude": 1e-6,     # WKB amplitude 1/sqrt(T |p|)
    "purity": 1e-5,        # absolute, purity is at most 1
    "heating": 1e-6,       # <H>(t) - <H>(0) = hbar t / 2
    "trace": 1e-10,        # absolute trace drift of the integrator
    "cat": 0.01,           # fitted coherence decay rate
    "ladder": 1e-8,        # eigenvalues hbar omega (n + 1/2)
    "round_trip": 1e-10,   # inverse_weyl(weyl_transform(rho)) = rho
    "moyal": 1e-9,         # plane-wave star product phase
}


def oscillator(omega: float):
    """p^2/2 + omega^2 q^2/2 as a polynomial table, under the default
    name a configuration file would give it."""
    return cw.polynomial_system({(2, 0): 0.5, (0, 2): 0.5 * omega**2})


def channel(symbol: str):
    if symbol == "q2":
        return cw.make_channel({(0, 2): 1.0})
    return cw.make_channel(symbol)


class Workload:
    name = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.scratch = scratch
        self.params = inputs.run_params(self.name, seed)
        self.counts: Dict[str, float] = {}

    def setup(self) -> None:
        pass

    def prepare(self, spec: Dict) -> None:
        """Untimed per-op work on the client side, such as writing a
        config file."""

    def run(self, spec: Dict):
        raise NotImplementedError

    def check(self, spec: Dict, out) -> ref.Verdict:
        raise NotImplementedError


class WignerMap(Workload):
    """README's canonical command: cli.main(["build-wigner", ...])."""

    name = "wigner_map"

    def setup(self) -> None:
        self.out = self.scratch / "wigner"
        self.out.mkdir(parents=True, exist_ok=True)
        self.counts["cli.bytes_written"] = 0
        # one small command warms every code path an op takes
        warm = {"kind": "warm-up", "config": {
            "system": "harmonic", "hbar": 0.05, "shell": {"energy": 0.5},
            "grid": {"p": [-1.1, 1.1, 5], "q": [-1.1, 1.1, 5]}}}
        self.prepare(warm)
        if self.run(warm) != 0:
            raise RuntimeError("build-wigner warm-up failed")

    def prepare(self, spec: Dict) -> None:
        shutil.rmtree(self.out / "run", ignore_errors=True)
        with open(self.out / "config.json", "w") as fh:
            json.dump(spec["config"], fh)

    def run(self, spec: Dict) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["build-wigner", "--config",
                             str(self.out / "config.json"),
                             "--out", str(self.out / "run")])

    def check(self, spec: Dict, code: int) -> ref.Verdict:
        v = ref.Verdict()
        v.require(f"exit code {code}", code == 0)
        if code != 0:
            return v
        run = self.out / "run"
        self.counts["cli.bytes_written"] += sum(
            f.stat().st_size for f in run.iterdir())
        with open(run / "wigner.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        cfg = spec["config"]
        n_p, n_q = cfg["grid"]["p"][2], cfg["grid"]["q"][2]
        v.require(f"{len(rows)} rows, expected {n_p * n_q}",
                  len(rows) == n_p * n_q)
        data = np.array([[float(c) for c in r] for r in rows])
        if data.size == 0:
            v.require("empty wigner.csv", False)
            return v
        p, q, w, n_chords, caustic = data.T
        regular = caustic == 0
        v.require("W not finite at a non-caustic point",
                  bool(np.all(np.isfinite(w[regular]))))
        if spec["level"] is not None and cfg["shell"].get("epsilon", 0) == 0:
            # caustic-safe annulus, as in the package's eigenstate check
            r = math.sqrt(2.0 * cfg["shell"]["energy"])
            rad = np.hypot(p, q)
            safe = regular & (n_chords > 0) & (rad > 0.15 * r) & (
                rad < 0.82 * r)
            exact = ref.harmonic_wigner(spec["level"], cfg["hbar"],
                                        p[safe], q[safe])
            v.judge("W vs Laguerre", w[safe], exact, TOL["wigner"])
        return v


def stiff_system(name: str, coupling: float):
    """The shell sweep's systems: the oscillator as a default-named
    polynomial table, as the CLI builds one; the quartic
    p^2/2 + lambda q^4/2 and the pendulum p^2/2 - g cos q with analytic
    gradients, as the built-in ones have."""
    if name == "oscillator":
        return oscillator(coupling)
    c = coupling
    if name == "quartic":
        return cw.HamiltonianSystem(
            f"quartic-{c:g}",
            value=lambda x: 0.5 * x[..., 0] ** 2 + 0.5 * c * x[..., 1] ** 4,
            grad=lambda x: np.stack([x[..., 0], 2.0 * c * x[..., 1] ** 3],
                                    axis=-1))
    if name == "pendulum":
        return cw.HamiltonianSystem(
            f"pendulum-{c:g}",
            value=lambda x: 0.5 * x[..., 0] ** 2 - c * np.cos(x[..., 1]),
            grad=lambda x: np.stack([x[..., 0], c * np.sin(x[..., 1])],
                                    axis=-1))
    raise ValueError(name)


class ShellSweep(Workload):
    """quantize_energy -> build_shell -> bracket_rate(q) -> find_period."""

    name = "shell_sweep"

    def setup(self) -> None:
        # one object per Hamiltonian for the whole run, as a library user
        # holds them; repeated triples can then reach the module caches
        self.systems = {name: stiff_system(name, c)
                        for name, c in inputs.SHELL_COUPLING.items()}

    def run(self, spec: Dict):
        system = self.systems[spec["system"]]
        energy = cw.quantize_energy(system, spec["level"], spec["hbar"])
        shell = cw.build_shell(system, energy)
        rate = cw.bracket_rate(energy, [cw.position_channel()], system)
        period = cw.find_period(system, shell.points[0])
        return energy, shell, rate, period

    def check(self, spec: Dict, out) -> ref.Verdict:
        energy, shell, rate, period = out
        name, c = spec["system"], spec["coupling"]
        v = ref.Verdict()
        v.judge("E_n", energy, ref.quantized_energy(
            name, spec["level"], spec["hbar"], c), TOL["quantize"])
        v.judge("shell area", shell.area, ref.shell_area(name, energy, c),
                TOL["area"])
        t_ref = ref.shell_period(name, energy, c)
        v.judge("shell period", shell.period, t_ref, TOL["period"])
        v.judge("find_period", period, t_ref, TOL["period"])
        v.judge("bracket_rate", rate, ref.bracket_rate_q(name, energy, c),
                TOL["bracket"])
        return v


class OpenDynamics(Workload):
    """Tip-pair flow and D_t on shells built in set-up."""

    name = "open_dynamics"

    def setup(self) -> None:
        self.hbar = self.params["hbar"]
        self.systems = {name: cw.make_system(name)
                        for name in self.params["shells"]}
        self.shells = {name: cw.build_shell(self.systems[name], s["energy"])
                       for name, s in self.params["shells"].items()}

    def run(self, spec: Dict):
        shell = self.shells[spec["shell"]]
        system = self.systems[spec["shell"]]
        chans = [channel(spec["channel"])]
        op = spec["op"]
        if op == "trace":
            chord = cw.find_chords(shell, np.array(spec["x"]))[0]
            return chord, cw.evolution_trace(chord, system, chans,
                                             spec["times"], self.hbar)
        if op == "element":
            return cw.density_matrix_sc(spec["q_plus"], spec["q_minus"],
                                        shell, system, chans, spec["t"],
                                        self.hbar)
        if op == "trotter":
            chord = cw.find_chords(shell, np.array(spec["x"]))[0]
            return chord, cw.trotter_evolve(chord, system, chans, spec["t"],
                                            spec["n_steps"], self.hbar)
        if op == "purity":
            return cw.purity_decay(shell, system, chans, spec["t"], self.hbar,
                                   n_angle=spec["n_angle"])
        raise ValueError(op)

    def _check_chord(self, v: ref.Verdict, spec: Dict, chord) -> None:
        energy = self.params["shells"][spec["shell"]]["energy"]
        v.judge("chord midpoint", chord.centre, spec["x"], TOL["geometry"],
                scale=1.0)
        for tip in (chord.x_plus, chord.x_minus):
            v.judge("tip energy", inputs.hamiltonian(spec["shell"], *tip),
                    energy, TOL["geometry"])

    def check(self, spec: Dict, out) -> ref.Verdict:
        v = ref.Verdict()
        harmonic = spec["shell"] == "harmonic"
        op = spec["op"]
        if op == "trace":
            chord, rows = out
            self._check_chord(v, spec, chord)
            damps = [ev.damping for _, ev in rows]
            v.require("damping outside (0, 1]",
                      all(0.0 < d <= 1.0 for d in damps))
            v.require("damping increases with t",
                      all(b <= a for a, b in zip(damps, damps[1:])))
            if harmonic:
                for t, ev in rows:
                    v.judge(f"D_t^2 at t={t:.3g}", ev.record.d2,
                            ref.harmonic_d2(chord.x_plus, chord.x_minus, t,
                                            spec["channel"]), TOL["d2"])
        elif op == "element":
            terms = out.terms
            v.require(f"{len(terms)} branch pairs, expected 4",
                      len(terms) == 4)
            v.require("damping outside (0, 1]",
                      all(0.0 < t.damping <= 1.0 for t in terms))
            v.require("element not finite", bool(np.isfinite(out.value)))
            if harmonic and len(terms) == 4:
                self._check_element(v, spec, terms)
        elif op == "trotter":
            chord, ev = out
            self._check_chord(v, spec, chord)
            v.require("damping outside (0, 1]", 0.0 < ev.damping <= 1.0)
            if harmonic:
                # first-order split: a right Riemann sum of the exact
                # rotating-chord integrand on the step grid
                h = spec["t"] / spec["n_steps"]
                xi = np.asarray(chord.x_plus) - np.asarray(chord.x_minus)
                s = h * np.arange(1, spec["n_steps"] + 1)
                g = (xi[1] * np.cos(s) + xi[0] * np.sin(s)) ** 2
                v.judge("Trotter D_t^2", ev.record.d2, h * np.sum(g),
                        TOL["d2"])
        elif op == "purity":
            v.require("purity outside (0, 1]", 0.0 < out.value <= 1.0)
            if harmonic:
                radius = math.sqrt(2.0 * self.params["shells"]["harmonic"][
                    "energy"])
                v.judge("purity", out.value,
                        ref.harmonic_purity(radius, spec["t"], self.hbar),
                        TOL["purity"], scale=1.0)
        return v

    def _check_element(self, v: ref.Verdict, spec: Dict, terms) -> None:
        energy = self.params["shells"]["harmonic"]["energy"]
        damp, amp = [], []
        for sp in (1.0, -1.0):
            for sm in (1.0, -1.0):
                xp = (sp * math.sqrt(2 * energy - spec["q_plus"] ** 2),
                      spec["q_plus"])
                xm = (sm * math.sqrt(2 * energy - spec["q_minus"] ** 2),
                      spec["q_minus"])
                d2 = ref.harmonic_d2(xp, xm, spec["t"], "q")
                damp.append(math.exp(-d2 / (2.0 * self.hbar)))
                amp.append(1.0 / (2.0 * math.pi * math.sqrt(
                    abs(xp[0] * xm[0]))))
        v.judge("branch-pair damping", sorted(t.damping for t in terms),
                sorted(damp), TOL["d2"])
        v.judge("branch-pair amplitude", sorted(t.amplitude for t in terms),
                sorted(amp), TOL["amplitude"])


class OracleBattery(Workload):
    """The exact side: master-equation RK4, eigensolver, Weyl, Moyal."""

    name = "oracle_battery"

    def setup(self) -> None:
        self.builtin = cw.make_system("harmonic")
        # frequency of the first default-named oscillator this run solved,
        # per (hbar, count); see the known-defect rule in check()
        self.first_omega: Dict[tuple, float] = {}

    def run(self, spec: Dict):
        kind = spec["kind"]
        if kind.startswith("lindblad"):
            energies, q_mat, p_mat = oracle.harmonic_ladder(spec["dim"],
                                                            spec["hbar"])
            if spec["epsilon"] > 0:
                e0 = spec["hbar"] * (spec["level"] + 0.5)
                w = np.exp(-0.5 * ((energies - e0) / spec["epsilon"]) ** 2)
                rho0 = np.diag(w / w.sum()).astype(complex)
            else:
                rho0 = np.zeros((spec["dim"], spec["dim"]), dtype=complex)
                rho0[spec["level"], spec["level"]] = 1.0
            state = oracle.TruncatedState(rho=rho0, energies=energies,
                                          hbar=spec["hbar"])
            l_op = q_mat if spec["channel"] == "q" else p_mat
            return energies, rho0, oracle.lindblad_integrate(
                state, energies, [l_op], spec["times"])
        if kind == "cat":
            return compare.run_checks(["cat_rate"], {"cat_rate": {
                "hbar": spec["hbar"], "separation": spec["separation"]}})[0]
        if kind == "moyal":
            qs = np.linspace(-0.5 * spec["lq"], 0.5 * spec["lq"], spec["n"],
                             endpoint=False)
            ps = np.linspace(-0.5 * spec["lp"], 0.5 * spec["lp"], spec["n"],
                             endpoint=False)
            pg, qg = np.meshgrid(ps, qs)          # rows index q
            a, b = np.exp(1j * spec["a"] * qg), np.exp(1j * spec["b"] * pg)
            return a * b, oracle.moyal_star(a, b, ps=ps, qs=qs,
                                            hbar=spec["hbar"])
        system = (self.builtin if kind == "eigen_builtin"
                  else oscillator(spec["omega"]))
        basis = oracle.solve_eigenstates(system, spec["hbar"], spec["count"],
                                         n_grid=spec["n_grid"])
        psi = basis.psis[spec["state"]].astype(complex)
        rho = oracle.DensityGrid(qs=basis.qs, rho=np.outer(psi, psi.conj()),
                                 hbar=spec["hbar"])
        back = oracle.inverse_weyl(oracle.weyl_transform(rho))
        return basis, rho, back

    def check(self, spec: Dict, out) -> ref.Verdict:
        v = ref.Verdict()
        kind = spec["kind"]
        if kind.startswith("lindblad"):
            energies, rho0, (states, diags) = out
            h0 = float(np.real(np.sum(np.diag(rho0) * energies)))
            t_end = spec["times"][-1]
            gain = [float(np.real(np.sum(np.diag(s.rho) * energies))) - h0
                    for s in states]
            v.judge("<H>(t) - <H>(0)", gain,
                    [ref.heating_slope(spec["hbar"]) * t
                     for t in spec["times"]],
                    TOL["heating"],
                    scale=ref.heating_slope(spec["hbar"]) * t_end)
            v.require(f"trace drift {diags.trace_drift:.1e}",
                      diags.trace_drift <= TOL["trace"])
            v.require("purity outside (0, 1]", all(
                0.0 < p <= 1.0 + 1e-12 for p in diags.purities))
        elif kind == "cat":
            v.judge("cat rate", out.oracle,
                    ref.cat_rate(spec["separation"], spec["hbar"]), TOL["cat"])
        elif kind == "moyal":
            product, star = out
            phase = ref.moyal_plane_wave_phase(spec["a"], spec["b"],
                                               spec["hbar"])
            v.judge("plane-wave phase", star, product * phase, TOL["moyal"],
                    scale=1.0)
        else:
            basis, rho, back = out
            count, hbar, omega = spec["count"], spec["hbar"], spec["omega"]
            levels = np.arange(count)
            v.judge("ladder energies", basis.energies,
                    ref.oscillator_energy(levels, hbar, omega),
                    TOL["ladder"])
            v.judge("Weyl round trip", back.rho, rho.rho, TOL["round_trip"])
            if kind == "eigen":
                self._known_defect(v, spec, basis.energies)
        return v

    def _known_defect(self, v: ref.Verdict, spec: Dict, energies) -> None:
        """Tag the eigenbasis-cache defect: solve_eigenstates caches by the
        system's name only, so a default-named oscillator is handed the
        basis of the first one solved at the same hbar and count.  The
        op still fails; the tag only says the failure is that defect."""
        key = (spec["hbar"], spec["count"])
        first = self.first_omega.setdefault(key, spec["omega"])
        if first == spec["omega"] or not v.misses or not all(
                m.startswith("ladder energies") for m in v.misses):
            return
        stale = ref.oscillator_energy(np.arange(spec["count"]),
                                      spec["hbar"], first)
        if np.allclose(energies, stale, rtol=TOL["ladder"], atol=0.0):
            v.known_defect = "solve_eigenstates cache keyed by name only"


WORKLOAD_TYPES = {w.name: w for w in (WignerMap, ShellSweep, OpenDynamics,
                                      OracleBattery)}
