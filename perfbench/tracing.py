"""Spans around calls into chordwigner's public functions.

``Tracer.install`` replaces each traced function, in every loaded
chordwigner module that references it, by a wrapper that records a span
(name, start, end, parent id, op id) and per-boundary counts.  The
program is not modified on disk; ``uninstall`` puts the originals back.
Spans stay in memory until ``write_spans`` at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np

# (module, function) pairs that get a span.  flow.midpoint_step is left
# out on purpose: it runs ~10^6 times per op, so its time shows up as
# self time of its callers.
TRACED = (
    ("flow", "find_period"),
    ("flow", "periodic_orbit"),
    ("flow", "shell_average"),
    ("flow", "hamiltonian_flow"),
    ("shells", "build_shell"),
    ("shells", "quantize_energy"),
    ("shells", "find_chords"),
    ("wigner", "eval_grid"),
    ("wigner", "eval_state"),
    ("diffusion", "bracket_rate"),
    ("lindblad", "decoherence_distance"),
    ("lindblad", "evolve_contribution"),
    ("lindblad", "evolution_trace"),
    ("lindblad", "trotter_evolve"),
    ("projection", "density_matrix_sc"),
    ("projection", "wkb_branches"),
    ("normalization", "purity_decay"),
    ("normalization", "direct_trace"),
    ("oracle", "solve_eigenstates"),
    ("oracle", "weyl_transform"),
    ("oracle", "inverse_weyl"),
    ("oracle", "moyal_star"),
    ("oracle", "lindblad_integrate"),
    ("compare", "run_checks"),
    ("cli", "main"),
)

Span = Tuple[str, float, float, int, int]   # name, start, end, parent, op


def self_times(spans: List[Span]) -> List[float]:
    """Per span: its duration minus the union of its direct children's
    intervals (clipped to the parent).  Parent ids index ``spans``; -1
    marks a root."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def _batch(x) -> int:
    return max(1, int(np.size(x)) // 2)


class Tracer:
    """Span recorder plus counters for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.op_id = -1
        self.counts: Dict[str, float] = defaultdict(float)
        self.seen: Dict[str, set] = defaultdict(set)
        self._patched: List[Tuple[object, str, Callable]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        extract = getattr(self, "_x_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append((name, 0.0, 0.0, parent, self.op_id))
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op_id)
                self.counts[name + ".calls"] += 1
            if extract is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                extract(bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every chordwigner module attribute that is a traced
        function, so intra-package calls are seen too."""
        for mod_name, _ in TRACED:
            importlib.import_module("chordwigner." + mod_name)
        mods = [m for n, m in sys.modules.items()
                if n == "chordwigner" or n.startswith("chordwigner.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules["chordwigner." + mod_name],
                               fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _repeat(self, name: str, key) -> None:
        if key in self.seen[name]:
            self.counts[name + ".repeats"] += 1
        self.seen[name].add(key)

    # -- per-boundary counters, read from arguments and results -----------

    def _x_shells_find_chords(self, a, chords) -> None:
        self.counts["shells.find_chords.inside"] += bool(chords)
        self.counts["shells.find_chords.chords"] += len(chords)
        self.counts["shells.find_chords.caustic"] += sum(
            bool(c.caustic) for c in chords)

    def _x_wigner_eval_grid(self, a, result) -> None:
        self.counts["wigner.eval_grid.points"] += result.values.size

    def _x_flow_hamiltonian_flow(self, a, result) -> None:
        t, dt = float(a["t"]), float(a["dt"])
        steps = max(1, math.ceil(t / dt - 1e-12)) if t > 0 else 0
        self.counts["flow.hamiltonian_flow.steps"] += steps * _batch(a["x0"])

    def _x_projection_density_matrix_sc(self, a, el) -> None:
        self.counts["projection.density_matrix_sc.terms"] += len(el.terms)

    def _x_oracle_lindblad_integrate(self, a, result) -> None:
        diags = result[1]
        for key, val in (("trace_drift_max", diags.trace_drift),
                         ("leak_max", diags.max_leak)):
            full = "oracle.lindblad_integrate." + key
            self.counts[full] = max(self.counts[full], float(val))

    def _x_shells_build_shell(self, a, shell) -> None:
        self._repeat("shells.build_shell",
                     (_fingerprint(a["system"]), round(float(a["energy"]), 12),
                      a["n_samples"]))

    def _x_shells_quantize_energy(self, a, energy) -> None:
        self._repeat("shells.quantize_energy",
                     (_fingerprint(a["system"]), int(a["n_level"]),
                      float(a["hbar"])))

    # -- reduction ----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer numbers derived from the spans and counts."""
        selfs = self_times(self.spans)
        busy: Dict[str, float] = defaultdict(float)
        for span, s in zip(self.spans, selfs):
            busy[span[0]] += s
        c = self.counts
        out: Dict[str, float] = {}
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            out[name + ".calls"] = c[name + ".calls"]
            out[name + ".self_s"] = busy[name]
            out[name + ".errors"] = c[name + ".errors"]
        fc = c["shells.find_chords.calls"]
        out["shells.find_chords.inside_share"] = _ratio(
            c["shells.find_chords.inside"], fc)
        out["shells.find_chords.chords_per_call"] = _ratio(
            c["shells.find_chords.chords"], fc)
        out["shells.find_chords.caustic_share"] = _ratio(
            c["shells.find_chords.caustic"], c["shells.find_chords.chords"])
        for name in ("shells.build_shell", "shells.quantize_energy"):
            out[name + ".repeat_share"] = _ratio(c[name + ".repeats"],
                                                 c[name + ".calls"])
        for key in ("wigner.eval_grid.points", "flow.hamiltonian_flow.steps",
                    "projection.density_matrix_sc.terms",
                    "oracle.lindblad_integrate.trace_drift_max",
                    "oracle.lindblad_integrate.leak_max"):
            out[key] = c[key]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_PROBES = np.array([[0.3, -0.7], [-1.1, 0.4], [0.9, 1.3]])


def _fingerprint(system) -> tuple:
    """Value identity of a system: its energy at fixed probe points, so
    two objects for the same Hamiltonian count as the same input."""
    return tuple(np.round(np.asarray(system.energy(_PROBES), float), 12))
