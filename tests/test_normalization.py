"""Angle-pair purity and trace checks."""
import json

import numpy as np
import pytest

from chordwigner import build_shell, make_system
from chordwigner.lindblad import (
    NonHermitianError,
    energy_channel,
    polynomial_channel,
    position_channel,
)
from chordwigner.normalization import (
    AngleIntegralReport,
    direct_trace,
    purity_decay,
    purity_t0,
    run_suite,
)

HARM = make_system("harmonic")
SHELL = build_shell(HARM, 0.5)
SHELL2 = build_shell(HARM, 2.0)
HBAR = 0.05


def closed_form_purity(shell, t, hbar, m):
    """Independent quadrature: rigid rotation of every tip pair, L = q."""
    th = np.arange(m) * 2 * np.pi / m
    pts = shell.point(th)
    dp = pts[:, None, 0] - pts[None, :, 0]
    dq = pts[:, None, 1] - pts[None, :, 1]
    d2 = (dq**2 * (t / 2 + np.sin(2 * t) / 4)
          + dp**2 * (t / 2 - np.sin(2 * t) / 4)
          + dq * dp * np.sin(t) ** 2)
    return float(np.exp(-d2 / hbar).mean())


def test_purity_t0_is_one_for_any_shell():
    shells = [SHELL, build_shell(make_system("quartic"), 0.5),
              build_shell(make_system("pendulum"), -0.2)]
    for sh in shells:
        assert purity_t0(sh, HBAR) == pytest.approx(1.0, abs=1e-9)


def test_purity_t0_refinement_and_scaling():
    assert purity_t0(SHELL, HBAR, amplitude_scale=1.3) == pytest.approx(
        1.69, abs=1e-12)


def test_purity_decay_trivial_cases():
    assert purity_decay(SHELL, HARM, [position_channel()], 0.0,
                        HBAR).value == 1.0
    assert purity_decay(SHELL, HARM, [], 2.0, HBAR).value == 1.0
    # L = f(H) is constant on the shell: no pair ever separates in L
    chan = energy_channel(lambda e: e * e, HARM)
    assert purity_decay(SHELL, HARM, [chan], 1.7, HBAR).value == \
        pytest.approx(1.0, abs=1e-9)


def test_purity_decay_against_closed_form():
    rep = purity_decay(SHELL, HARM, [position_channel()], 1.0, HBAR)
    assert rep.value == pytest.approx(0.1129664, abs=2e-6)
    o256 = closed_form_purity(SHELL, 1.0, HBAR, 256)
    o512 = closed_form_purity(SHELL, 1.0, HBAR, 512)
    assert abs(o256 - o512) < 1e-9          # self-refinement oracle
    assert abs(rep.value - o256) < 1e-7
    assert rep.est_error < 1e-9
    assert isinstance(rep, AngleIntegralReport)


def test_purity_decay_monotone_bounded():
    vals = [purity_decay(SHELL, HARM, [position_channel()], tv, HBAR,
                         n_angle=128).value
            for tv in (0.2, 0.5, 1.0, 2.0)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_purity_decay_small_time_rate():
    # 1 - tr rho^2 ~ t * <|dL|^2>/hbar (twice the amplitude decay rate,
    # since the purity exponent carries D^2/hbar)
    t = 1e-4
    rep = purity_decay(SHELL, HARM, [position_channel()], t, HBAR,
                       n_angle=128)
    th = np.arange(128) * 2 * np.pi / 128
    q = SHELL.point(th)[:, 1]
    mean_dl2 = float(((q[:, None] - q[None, :]) ** 2).mean())
    assert 1.0 - rep.value == pytest.approx(t * mean_dl2 / HBAR, rel=0.01)


def test_purity_decay_rejects_nonhermitian():
    ladder = polynomial_channel({(1, 0): 1j, (0, 1): 1.0})
    with pytest.raises(NonHermitianError):
        purity_decay(SHELL, HARM, [ladder], 0.5, HBAR)


def test_purity_decay_rejects_foreign_dynamics():
    # the ring moves along the shell, so only the shell's own system
    # object is accepted, even an equal one is not
    with pytest.raises(ValueError, match="shell.system"):
        purity_decay(SHELL, make_system("harmonic"), [position_channel()],
                     0.5, HBAR)


def test_direct_trace_frozen_values():
    # harmonic E = 2.0; the deficit is hbar-stable and system-independent
    vals = {h: direct_trace(SHELL2, h).value for h in (0.1, 0.05, 0.025)}
    assert vals[0.1] == pytest.approx(0.572574, abs=5e-4)
    assert vals[0.05] == pytest.approx(0.575097, abs=5e-4)
    assert vals[0.025] == pytest.approx(0.576315, abs=5e-4)
    assert abs(vals[0.05] - vals[0.1]) / abs(vals[0.05]) < 0.05
    assert abs(vals[0.025] - vals[0.05]) / abs(vals[0.025]) < 0.05
    # Richardson in hbar lands on 1/sqrt(3), not on sqrt(2)/2
    rich = 2 * vals[0.025] - vals[0.05]
    assert rich == pytest.approx(1 / np.sqrt(3), abs=5e-4)
    assert abs(rich - np.sqrt(2) / 2) > 0.1


def test_direct_trace_maslov_offset_hits_berry_constant():
    m05 = direct_trace(SHELL2, 0.05, maslov=True).value
    m025 = direct_trace(SHELL2, 0.025, maslov=True).value
    rich = 2 * m025 - m05
    assert rich == pytest.approx(np.sqrt(2.0 / 3.0), abs=1.5e-3)


def test_direct_trace_system_independent():
    shq = build_shell(make_system("quartic"), 0.5)
    vq = direct_trace(shq, 0.025).value
    vh = direct_trace(SHELL2, 0.025).value
    assert abs(vq - vh) / abs(vh) < 0.05


def test_run_suite_json():
    out = run_suite(SHELL, HBAR, channels=[position_channel()],
                    trace_hbars=[0.1], decay_times=[0.5], n_angle=128)
    blob = json.dumps(out, sort_keys=True)
    back = json.loads(blob)
    assert back["purity_t0"] == pytest.approx(1.0, abs=1e-9)
    assert "0.1" in back["direct_trace"]
    assert 0.0 < back["purity_decay"]["0.5"]["value"] <= 1.0
    assert back["tolerances"]["purity_t0"] == 1e-9
