"""Tests of the benchmark itself: references, inputs, spans, tail rule.

    python3 -m pytest perfbench -q
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import inputs
import reference as ref
import run
from tracing import TRACED, Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent


# -- closed-form references against known values ---------------------------

def test_harmonic_wigner_ground_state_at_origin():
    for hbar in (0.05, 0.3, 1.0):
        assert ref.harmonic_wigner(0, hbar, 0.0, 0.0) == pytest.approx(
            1.0 / (math.pi * hbar), rel=1e-14)


def test_harmonic_wigner_is_normalized():
    hbar, n = 0.2, 3
    xs = np.linspace(-3, 3, 601)
    p, q = np.meshgrid(xs, xs)
    total = ref.harmonic_wigner(n, hbar, p, q).sum() * (xs[1] - xs[0]) ** 2
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("g", [1.0, 36.0])
def test_pendulum_period_tends_to_small_oscillation_limit(g):
    assert ref.shell_period("pendulum", -g * (1.0 - 1e-12), g) == (
        pytest.approx(2 * math.pi / math.sqrt(g), rel=1e-9))
    assert ref.shell_area("pendulum", g * (1.0 - 1e-15), g) == pytest.approx(
        16.0 * math.sqrt(g), rel=1e-6)


@pytest.mark.parametrize("system,energy,coupling", [
    ("harmonic", 0.7, 1.0), ("oscillator", 0.7, 4.0), ("quartic", 0.3, 1.0),
    ("quartic", 2.0, 1.0), ("quartic", 1.5, 144.0), ("pendulum", -0.6, 1.0),
    ("pendulum", 0.5, 1.0), ("pendulum", -30.0, 36.0)])
def test_period_is_area_derivative(system, energy, coupling):
    h = 1e-5 * max(1.0, abs(energy))
    slope = (ref.shell_area(system, energy + h, coupling)
             - ref.shell_area(system, energy - h, coupling)) / (2 * h)
    assert slope == pytest.approx(
        ref.shell_period(system, energy, coupling), rel=1e-7)


@pytest.mark.parametrize("lam", [1.0, 144.0])
def test_quartic_area_by_quadrature(lam):
    energy = 0.8
    qm = (2 * energy / lam) ** 0.25
    area, _ = quad(lambda q: math.sqrt(max(2 * energy - lam * q**4, 0.0)),
                   0, qm)
    assert ref.shell_area("quartic", energy, lam) == pytest.approx(
        4 * area, rel=1e-9)


def test_pendulum_area_by_quadrature():
    g, energy = 36.0, -20.0
    qm = math.acos(-energy / g)
    area, _ = quad(lambda q: math.sqrt(max(2 * (energy + g * math.cos(q)),
                                           0.0)), 0, qm)
    assert ref.shell_area("pendulum", energy, g) == pytest.approx(
        4 * area, rel=1e-9)


@pytest.mark.parametrize("system,coupling", [
    ("harmonic", 1.0), ("oscillator", 2.0), ("quartic", 1.0),
    ("quartic", 144.0), ("pendulum", 1.0), ("pendulum", 36.0)])
def test_quantized_energy_meets_area_rule(system, coupling):
    hbar, n = 0.1, 3
    e = ref.quantized_energy(system, n, hbar, coupling)
    assert ref.shell_area(system, e, coupling) == pytest.approx(
        2 * math.pi * hbar * (n + 0.5), rel=1e-12)


def test_bracket_rate_is_mean_p_squared():
    # harmonic: <p^2> = E by the virial theorem
    assert ref.bracket_rate_q("harmonic", 0.4) == pytest.approx(0.4)
    assert ref.bracket_rate_q("oscillator", 0.4, 2.0) == pytest.approx(0.4)


@pytest.mark.parametrize("channel", ["q", "p", "q2"])
def test_harmonic_d2_matches_direct_integral(channel):
    xp, xm, t = (0.3, -0.5), (-0.2, 0.4), 0.9

    def lval(x, s):
        p, q = x
        qs = q * math.cos(s) + p * math.sin(s)
        ps = p * math.cos(s) - q * math.sin(s)
        return {"q": qs, "p": ps, "q2": qs * qs}[channel]

    direct, _ = quad(lambda s: (lval(xp, s) - lval(xm, s)) ** 2, 0, t,
                     epsabs=0, epsrel=1e-13)
    assert ref.harmonic_d2(xp, xm, t, channel) == pytest.approx(direct,
                                                                rel=1e-11)


def test_harmonic_purity_limits():
    assert ref.harmonic_purity(1.0, 0.0, 0.05) == pytest.approx(1.0)
    assert 0.0 < ref.harmonic_purity(1.0, 0.05, 0.05) < 1.0


def test_open_system_constants():
    assert ref.heating_slope(0.05) == 0.025
    assert ref.cat_rate(2.0, 0.05) == pytest.approx(40.0)
    assert ref.oscillator_energy(0, 0.1, 2.0) == pytest.approx(0.1)
    assert ref.moyal_plane_wave_phase(1.0, 2.0, 0.5) == pytest.approx(
        complex(math.cos(0.5), -math.sin(0.5)))


def test_verdict_rule():
    v = ref.Verdict()
    assert v.judge("a", 1.0 + 1e-7, 1.0, 1e-6) == pytest.approx(1e-7)
    assert v.passed
    v.judge("b", 2.0, 1.0, 0.1)
    assert not v.passed and v.max_err == pytest.approx(1.0)
    v.judge("c", float("nan"), 1.0, 0.1)
    assert math.isinf(v.max_err) and len(v.misses) == 2


# -- seeded inputs ----------------------------------------------------------

@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_are_deterministic(workload):
    a = inputs.dump(workload, 7, 40)
    assert a == inputs.dump(workload, 7, 40)
    assert a != inputs.dump(workload, 8, 40)


def test_shell_sweep_repeats_an_earlier_triple_of_its_cycle():
    cycle = inputs.CYCLE["shell_sweep"]
    specs = [inputs.op_spec("shell_sweep", 3, k) for k in range(4 * cycle)]
    for k, s in enumerate(specs):
        if s["repeat_of"] is not None:
            j = s["repeat_of"]
            assert j < k and j // cycle == k // cycle
            assert specs[j]["repeat_of"] is None
            assert (s["system"], s["hbar"], s["level"], s["coupling"]) == (
                specs[j]["system"], specs[j]["hbar"], specs[j]["level"],
                specs[j]["coupling"])
    props = inputs.properties("shell_sweep", specs[:cycle])
    assert props["repeat_share"] == pytest.approx(1 / cycle)


def test_inside_share_of_a_circle():
    cfg = {"system": "harmonic", "shell": {"energy": 0.5},
           "grid": {"p": [-1, 1, 201], "q": [-1, 1, 201]}}
    assert inputs.inside_share(cfg) == pytest.approx(math.pi / 4, abs=0.01)


# -- spans and the tail rule ------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [("root", 0.0, 10.0, -1, 0),
             ("a", 1.0, 4.0, 0, 0),
             ("a.child", 2.0, 3.0, 1, 0),
             ("b", 3.5, 6.0, 0, 0),       # overlaps a: union, not sum
             ("c", 9.0, 12.0, 0, 0)]      # clipped to the parent's end
    assert self_times(spans) == pytest.approx([10 - (5.0 + 1.0), 2.0, 1.0,
                                               2.5, 3.0])


def test_tracer_spans_calls_and_restores():
    import chordwigner as cw
    from chordwigner import flow, shells
    originals = {(m, f): getattr(__import__(f"chordwigner.{m}",
                                            fromlist=[f]), f)
                 for m, f in TRACED if m != "cli"}
    tracer = Tracer()
    tracer.install()
    try:
        assert flow.hamiltonian_flow is not originals[("flow",
                                                       "hamiltonian_flow")]
        cw.hamiltonian_flow(cw.make_system("harmonic"),
                            np.zeros((3, 2)) + 0.5, 0.01, dt=1e-3)
    finally:
        tracer.uninstall()
    assert flow.hamiltonian_flow is originals[("flow", "hamiltonian_flow")]
    assert shells.find_chords is originals[("shells", "find_chords")]
    m = tracer.metrics()
    assert m["flow.hamiltonian_flow.calls"] == 1
    assert m["flow.hamiltonian_flow.steps"] == 10 * 3
    assert m["flow.hamiltonian_flow.self_s"] > 0


def test_tail_leaves_ten_ops_beyond():
    lat = list(range(1, 101))                  # 100 ops
    value, pct, beyond = run.tail(lat)
    assert (value, pct, beyond) == (90, 90.0, 10)
    assert sum(x > value for x in lat) == 10
    assert run.tail(list(range(11))) == (0, 100 / 11, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_run_ends_on_a_cycle_boundary():
    class Instant:
        def prepare(self, spec):
            pass

        def run(self, spec):
            return None

        def check(self, spec, out):
            return ref.Verdict()

    for workload in inputs.WORKLOADS:
        args = type("Args", (), {"workload": workload, "seed": 1,
                                 "seconds": 0.0})
        records = run.run_ops(Instant(), args)
        assert len(records) == inputs.CYCLE[workload]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == set(run.END_TO_END_UNITS)
    layer = {m["name"] for m in spec["per_layer"]}
    assert set(Tracer().metrics()) <= layer
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)
